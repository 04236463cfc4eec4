"""bool() of every report, the reprs of the value types, the NotImplemented
branch of their __eq__, and the CLI's refusal of an unknown report value."""

import dataclasses
from itertools import combinations

import pytest

from mcybe import (Cochain, Endo, LieAlgebra, Matrix, check_equivalence,
                   check_linear_deformation, cohomology, compatible_bracket_check,
                   complement_certificate, d_apply, graph_complement,
                   induced_bracket_deformation, involutive_analyze, is_rota_baxter, kuranishi,
                   mcybe_defect, nijenhuis_check, nijenhuis_operator_check, rb_from_r)
from mcybe.cli import _jsonable


def _d(r, i):
    """d e_i as an endomorphism: a valid deformation of the Borel R for i = 0,
    and not one of the sl(3) Borel R for i = 1 (E13)."""
    a = r.algebra
    return d_apply(r, Cochain.from_vector(a, a.basis_vector(i)), check=False).to_endo()


def _obstructed(sl3):
    """The Kuranishi report of the first sum of two sl(3) Z^2 witnesses whose
    [[f, f]] is not a coboundary."""
    _, r = sl3
    witnesses = cohomology(r, 2).degrees[2].cocycle_witnesses
    return next(rep for f, g in combinations(witnesses, 2)
                if not (rep := kuranishi(r, f + g)).vanishes_in_H3)


def _pairs(sl2, sl3):
    """(verdict field, passing report, failing report) for each report type.

    A report the package never returns failing (a valid deformation always
    gives a Lie bracket, and a modified r-matrix a complement) is made to
    fail by dataclasses.replace.
    """
    a, r = sl2
    e = a.basis_vector(0)
    r3 = sl3[1]
    broken = LieAlgebra(3, {(0, 1): (0, 0, 1), (0, 2): (1, 0, 0), (1, 2): (1, 0, 0)},
                        check=False)
    swap = Endo(Matrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]]), a)
    bad_involution = Endo.from_diagonal(a, [1, 1, -1])     # [e, f] = h leaves the +1 space
    induced = induced_bracket_deformation(r, _d(r, 0))
    compatible = compatible_bracket_check(r, _d(r, 0), 1, 2)
    complement = complement_certificate(r)
    return {
        "JacobiResult": ("ok", a.verify_jacobi(), broken.verify_jacobi()),
        "DefectReport": ("is_zero", mcybe_defect(r), mcybe_defect(r.scale(3))),
        "RotaBaxterReport": ("ok", is_rota_baxter(rb_from_r(r), 1), is_rota_baxter(r, 1)),
        "InvolutiveReport": ("verdict", involutive_analyze(r),
                             involutive_analyze(bad_involution)),
        "KuranishiReport": ("vanishes_in_H3", kuranishi(r, Cochain.zero(a, 1)),
                            _obstructed(sl3)),
        "DeformationVerdict": ("valid", check_linear_deformation(r, _d(r, 0)),
                               check_linear_deformation(r3, _d(r3, 1))),
        "EquivalenceVerdict": ("ok", check_equivalence(r, _d(r, 0), _d(r, 0), a.zero()),
                               check_equivalence(r, _d(r, 0), Endo.zero(a), e)),
        "NijenhuisVerdict": ("is_nijenhuis_element", nijenhuis_check(r, a.zero()),
                             nijenhuis_check(r, e)),
        "NijenhuisOperatorReport": ("ok", nijenhuis_operator_check(a, Endo.identity(a)),
                                    nijenhuis_operator_check(a, swap)),
        "InducedDeformationReport": ("jacobi_ok", induced,
                                     dataclasses.replace(induced, jacobi_ok=False)),
        "CompatibleBracketReport": ("ok", compatible, dataclasses.replace(compatible, ok=False)),
        "SubspaceCert": ("is_subalgebra", graph_complement(r), graph_complement(r.scale(3))),
        "ComplementReport": ("ok", complement, dataclasses.replace(complement, ok=False)),
    }


def test_bool_is_the_verdict(sl2, sl3):
    pairs = _pairs(sl2, sl3)
    assert len(pairs) == 13
    for name, (field, passing, failing) in pairs.items():
        assert type(passing).__name__ == type(failing).__name__ == name
        assert getattr(passing, field) is True and bool(passing) is True, name
        assert getattr(failing, field) is False and bool(failing) is False, name


def test_reprs(sl2):
    a, r = sl2
    assert repr(a) == "LieAlgebra(dim=3, names=['e', 'f', 'h'])"
    assert repr(r) == "Endo(Matrix[1 0 0; 0 -1 0; 0 0 1])"
    assert repr(Cochain.from_endo(r)) == "Cochain(arity=1, support=3)"
    assert repr(Cochain.zero(a, 2)) == "Cochain(arity=2, support=0)"


def test_eq_with_another_type_is_not_implemented(sl2):
    a, r = sl2
    for value in (r.matrix, Cochain.from_endo(r), a, r):
        assert value.__eq__("x") is NotImplemented
        assert value != "x" and not value == 0


def test_jsonable_refuses_unknown_values():
    with pytest.raises(TypeError, match="^set is not JSON serializable$"):
        _jsonable({1})
