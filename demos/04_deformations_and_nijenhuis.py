#!/usr/bin/env python3
"""Linear deformations R + t Rhat and Nijenhuis elements.

A linear deformation is valid exactly when Rhat is a 2-cocycle and a
weight-0 Rota-Baxter operator (the t and t^2 coefficients of the defect
polynomial).  Nijenhuis elements x produce trivial deformations
Rhat = d x, equivalent to the zero deformation through Id + t ad_x, and
ad_x becomes a Nijenhuis operator on the induced algebra.

All "for all t" statements are polynomial identities of degree at most 2
in t, decided exactly by their coefficients or by their values at
t = 0, 1 and -1.
"""

from fractions import Fraction

from mcybe import (LieAlgebra, Endo, catalog, check_equivalence,
                   check_linear_deformation, compatible_bracket_check, d_apply,
                   induced_bracket, induced_bracket_deformation, nijenhuis_check,
                   nijenhuis_operator_check, nijenhuis_scan, trivial_deformation)
from mcybe.cochain import Cochain

print("--- sl(2) with the Borel r-matrix")
algebra, R = catalog("sl-borel", 2)
e = algebra.basis_vector(0)
rhat = d_apply(R, Cochain.from_vector(algebra, e)).to_endo()
print("Rhat = d e sends f to", rhat.apply(algebra.basis_vector(1)))
verdict = check_linear_deformation(R, rhat)
print("R + t (d e) is a valid deformation:", verdict.valid)
print("but e is not a Nijenhuis element:",
      nijenhuis_check(R, e).is_nijenhuis_element,
      "(so no equivalence with the zero deformation via ad_e:",
      str(check_equivalence(R, rhat, Endo.zero(algebra), e).ok) + ")")

print("\nscanning basis vectors and pairwise sums finds no Nijenhuis")
print("elements on sl(2):", [x for x, v in nijenhuis_scan(R) if v])

print("\n--- a solvable example where everything is nontrivial")
aff = LieAlgebra(2, {(0, 1): (0, 1)}, basis_names=["a", "n"])
Raff = Endo.from_diagonal(aff, [1, -1])
found = [x for x, v in nijenhuis_scan(Raff) if v]
print("algebra [a, n] = n with R = diag(1, -1); Nijenhuis elements found:", found)

x = aff.basis_vector(1)
rhat, dv = trivial_deformation(Raff, x)
print("trivial deformation from x = n: Rhat sends a to", rhat.apply(aff.basis_vector(0)))
print("  valid:", dv.valid)
print("  equivalent to the zero deformation via Id + t ad_n:",
      check_equivalence(Raff, rhat, Endo.zero(aff), x).ok)
print("  ad_n is a Nijenhuis operator on (g, [.,.]_R):",
      nijenhuis_operator_check(induced_bracket(Raff), aff.ad(x)).ok)

print("\nthe induced bracket deforms along omega(x,y) = [Rhat x, y] + [x, Rhat y]:")
rep = induced_bracket_deformation(Raff, rhat)
print("  Jacobi holds for [.,.]_R + t omega as a polynomial identity:", rep.jacobi_ok)

print("\ncompatible brackets: the sum of two deformed brackets is again Lie")
cb = compatible_bracket_check(Raff, rhat, Fraction(1, 2), Fraction(-4, 3))
print("  t1 = 1/2, t2 = -4/3: Jacobi", cb.jacobi_ok,
      "| equals twice the midpoint bracket:", cb.midpoint_ok)

assert dv.valid and rep.jacobi_ok and cb.ok
print("\nall good")
