"""Workbench for modified r-matrices on finite-dimensional Lie algebras.

Exact-rational verification of the modified classical Yang-Baxter equation
and Rota-Baxter axioms, cohomology of a modified r-matrix by exact linear
algebra, the governing graded Lie algebra with Maurer-Cartan and Kuranishi
machinery, linear/trivial deformations and Nijenhuis elements, and the
diagonal/graph doubling constructions.
"""

from .errors import InputError, InternalError, PreconditionError
from .linalg import Matrix, Rational, ratio
from .liealg import (Endo, JacobiResult, LieAlgebra, Vector, catalog,
                     operator_identity, rho, sl_algebra, borel_r_matrix,
                     subspace_closure)
from .rmatrix import (DefectReport, InvolutiveReport, RotaBaxterReport,
                      induced_bracket, involutive_analyze, is_rota_baxter,
                      mcybe_defect, r_from_rb, rb_from_r)
from .cochain import (Cochain, CoboundaryMatrix, CohomologyReport, DegreeReport,
                      coboundary_matrix, coboundary_preimage, cohomology,
                      d_apply, is_cocycle, pi_cochain)
from .graded import (KuranishiReport, d_graded, graded_bracket,
                     is_maurer_cartan_weight0, kuranishi, mc_deformation_check,
                     satisfies_mc_modified)
from .deform import (CompatibleBracketReport, DeformationVerdict,
                     EquivalenceVerdict, InducedDeformationReport,
                     NijenhuisOperatorReport, NijenhuisVerdict,
                     check_equivalence, check_linear_deformation,
                     compatible_bracket_check, induced_bracket_deformation,
                     nijenhuis_check, nijenhuis_operator_check, nijenhuis_scan,
                     trivial_deformation)
from .doubling import (ComplementReport, DoubledAlgebra, SubspaceCert,
                       build_double, complement_certificate,
                       deformed_complements, graph_complement)

__version__ = "0.1.0"

__all__ = [
    "InputError", "InternalError", "PreconditionError",
    "Matrix", "Rational", "ratio",
    "Endo", "JacobiResult", "LieAlgebra", "Vector", "catalog",
    "operator_identity", "sl_algebra", "borel_r_matrix", "subspace_closure",
    "DefectReport", "InvolutiveReport", "RotaBaxterReport",
    "induced_bracket", "involutive_analyze", "is_rota_baxter",
    "mcybe_defect", "r_from_rb", "rb_from_r", "rho",
    "Cochain", "CoboundaryMatrix", "CohomologyReport", "DegreeReport",
    "coboundary_matrix", "coboundary_preimage", "cohomology",
    "d_apply", "is_cocycle", "pi_cochain",
    "KuranishiReport", "d_graded", "graded_bracket",
    "is_maurer_cartan_weight0", "kuranishi", "mc_deformation_check",
    "satisfies_mc_modified",
    "CompatibleBracketReport", "DeformationVerdict", "EquivalenceVerdict",
    "InducedDeformationReport", "NijenhuisOperatorReport", "NijenhuisVerdict",
    "check_equivalence", "check_linear_deformation", "compatible_bracket_check",
    "induced_bracket_deformation", "nijenhuis_check", "nijenhuis_operator_check",
    "nijenhuis_scan", "trivial_deformation",
    "ComplementReport", "DoubledAlgebra", "SubspaceCert", "build_double",
    "complement_certificate", "deformed_complements", "graph_complement",
]
