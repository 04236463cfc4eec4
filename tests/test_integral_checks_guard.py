"""The cross-checks of integral inputs multiply no fractions.

mc_deformation_check tests 2 [[R, R']] + [[R', R']] = 0, defect_polynomial
compares plus - minus with 2 S1 and plus + minus with 2 (S0 + S2),
compatible_bracket_check sums the brackets of R + t1 Rhat and R + t2 Rhat
and forms no midpoint (t1 + t2)/2, and involutive_analyze tests the
projector route as (Q - 2 Id)[Qx, Qy] = 0 for Q = Id +- R, so on integral
operators and parameters no step halves a value.  Spies on
Fraction.__mul__ and __rmul__ count every product with a Fraction operand.
"""

from fractions import Fraction

import pytest

from mcybe import (Cochain, check_linear_deformation, compatible_bracket_check, d_apply,
                   involutive_analyze, mc_deformation_check)


@pytest.fixture()
def fraction_products(monkeypatch):
    """The operand pairs of every Fraction product from now on."""
    seen = []
    for name in ("__mul__", "__rmul__"):
        true_op = getattr(Fraction, name)

        def spy(a, b, true_op=true_op):
            seen.append((a, b))
            return true_op(a, b)
        monkeypatch.setattr(Fraction, name, spy)
    return seen


def _coboundary(r, i):
    """d e_i, an integral endomorphism; a valid deformation of the sl(3)
    Borel R for i = 0 (E12), not one for i = 1 (E13)."""
    a = r.algebra
    return d_apply(r, Cochain.from_vector(a, a.basis_vector(i)), check=False).to_endo()


def test_integral_checks_multiply_no_fraction(sl3, fraction_products):
    _, r = sl3
    valid, invalid = _coboundary(r, 0), _coboundary(r, 1)
    assert mc_deformation_check(r, valid) and mc_deformation_check(r, r.scale(-2))
    assert not mc_deformation_check(r, invalid)
    assert check_linear_deformation(r, valid).valid
    assert not check_linear_deformation(r, invalid).valid
    assert compatible_bracket_check(r, valid, 1, 2).ok
    assert fraction_products == []


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("name", ["sl2", "sl3"])
def test_involutive_analyze_multiplies_no_fraction(name, sign, request, fraction_products):
    _, r = request.getfixturevalue(name)
    report = involutive_analyze(r.scale(sign))
    assert report.all_agree() and report.product_structure_ok
    assert fraction_products == []


def test_spies_see_fraction_products(sl3, fraction_products):
    # a fractional deformation parameter does multiply fractions
    _, r = sl3
    assert compatible_bracket_check(r, _coboundary(r, 0), Fraction(1, 2), 2).ok
    assert fraction_products
