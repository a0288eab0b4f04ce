"""Univariate polynomials and rational functions over the field."""
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from dyson3.field import FE, I, ONE, SQRT3, FieldElement, field_sqrt
from dyson3.poly import (Poly, RationalFunction, exact_roots,
                         partial_fractions, poly_squarefree_factor)
from test_field import field_elements


def _p(*coeffs):
    return Poly([FE(Fraction(c)) if not isinstance(c, FieldElement) else c
                 for c in coeffs])


def test_arithmetic_and_divmod():
    a = _p(1, 0, 2)          # 1 + 2w^2
    b = _p(-1, 1)            # w - 1
    q, r = a.divmod(b)
    assert q * b + r == a
    assert r.degree == 0
    assert a.exact_div(Poly([FE(2)])) == _p(Fraction(1, 2), 0, 1)


def test_derivative_product_rule():
    a = _p(3, 1, Fraction(1, 2))
    b = _p(0, 0, 1, 4)
    assert (a * b).derivative() == a.derivative() * b + a * b.derivative()


def test_gcd_and_squarefree_multiplicities():
    w = Poly.x()
    p = (w - 1) ** 3 * (w + 2) * (w * w + 3)
    fac = poly_squarefree_factor(p)
    mults = sorted(m for _, m in fac)
    assert mults == [1, 3]
    prod = Poly([1])
    for f, m in fac:
        prod = prod * f ** m
    assert prod == p.monic()


def test_exact_roots_in_tower():
    w = Poly.x()
    # (w^2 - 3)(w - 1/2): roots +-sqrt3 and 1/2, all in the tower
    p = (w * w - 3) * (w - Poly.const(FE(Fraction(1, 2))))
    roots, solved = exact_roots(p)
    assert solved
    assert {r for r, _ in roots} == {SQRT3, -SQRT3, FE(Fraction(1, 2))}
    # w^2 - 5 is solved outside Q(sqrt3, sqrt26, i)
    roots, solved = exact_roots(w * w - 5)
    s5 = field_sqrt(FE(5))
    assert solved
    assert {r for r, _ in roots} == {s5, -s5}
    # w^3 - 2 has no root in any field of square roots
    roots, solved = exact_roots(w ** 3 - 2)
    assert not solved and roots == []
    # a linear factor with an irrational root is solved directly
    roots, solved = exact_roots((w - SQRT3) ** 2 * (w - 1))
    assert solved
    assert sorted(roots, key=lambda rm: rm[1]) == [(FE(1), 1), (SQRT3, 2)]


def test_exact_roots_tries_the_radicals_of_a_cubic():
    """A square-free cubic with irrational coefficients splits when its
    roots are +-sqrt(s) for s in the span of its coefficients' radicands;
    one whose roots are not, like (1 + sqrt2)/3, (1 - sqrt3)/2 and 2 sqrt5,
    stays unsplit (that needs a factorization over the field)."""
    w = Poly.x()
    s2, s3, s5 = (FieldElement({r: 1}) for r in (2, 3, 5))
    roots, solved = exact_roots((w - s2) * (w - s3) * (w - s5))
    assert solved
    assert sorted(roots, key=lambda rm: rm[0].to_complex().real) == [
        (s2, 1), (s3, 1), (s5, 1)]
    roots, solved = exact_roots((w + s2) * (w - s3) * (w - 1 - s5))
    assert solved
    assert {r for r, _ in roots} == {-s2, s3, 1 + s5}
    roots, solved = exact_roots((w - (1 + s2) / 3) * (w - (1 - s3) / 2)
                                * (w - 2 * s5))
    assert not solved and roots == []


@settings(max_examples=60, deadline=None)
@given(st.lists(field_elements(), max_size=8), field_elements(),
       field_elements())
def test_shift_var_is_the_taylor_shift(coeffs, a, x):
    """p.shift_var(a)(x) = p(x + a) over the tower, for degrees 0 to 7 and
    the zero polynomial."""
    p = Poly(coeffs)
    assert p.shift_var(a)(x) == p(x + a)


def recombine(poly_part, terms):
    """Inverse of partial_fractions: poly_part plus the sum over its terms
    (pole, order, ladder) of ladder[j] / (w - pole)^(order - j)."""
    out = RationalFunction.from_poly(poly_part)
    for pole, order, ladder in terms:
        base = Poly([-pole, ONE])
        for j, c in enumerate(ladder):
            out = out + RationalFunction(Poly.const(c), base ** (order - j))
    return out


def test_partial_fraction_roundtrip_exact():
    w = Poly.x()
    for f in (RationalFunction(_p(1, 2, 0, 1), (w - 1) ** 2 * (w + 3)),
              # a triple pole at an irrational point
              RationalFunction(_p(1, 2, 3), (w - SQRT3) ** 3 * (w - 1))):
        poly_part, terms = partial_fractions(f)
        assert recombine(poly_part, terms) == f


def test_rational_function_reduction_and_order():
    w = Poly.x()
    f = RationalFunction((w - 1) * (w + 2), (w - 1) * w)
    assert f.den == w
    assert f.order_at_infinity() == 0
    assert RationalFunction(Poly([1]), w * w * w).order_at_infinity() == 3
    assert (f - f).is_zero()


def test_rational_function_field_ops():
    w = Poly.x()
    f = RationalFunction(Poly([1]), w)
    g = RationalFunction(w - 1, w + 1)
    assert (f + g) * (w + 1) * w == (w + 1) + (w - 1) * w
    assert f * g * RationalFunction(w + 1, w - 1) == f
    assert f * f * w * w == RationalFunction.const(1)
    assert -(f - 2) == RationalFunction(2 * w - 1, w)


def test_complex_coefficients_via_imaginary_unit():
    w = Poly.x()
    p = (w - I) * (w + I)
    assert p == w * w + 1
    roots, solved = exact_roots(p)
    assert solved and {r for r, _ in roots} == {I, -I}
