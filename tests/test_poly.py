"""Univariate polynomials and reduced fractions of them over the field."""
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyson3.field import FE, I, ONE, SQRT3, FieldElement, field_sqrt
from dyson3.poly import (Poly, RationalFunction, exact_roots, float_horner,
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


def test_exact_roots_pulls_rational_roots_from_irrational_coefficients():
    """A rational root of p = sum_r sqrt(r) p_r is a root of every
    component p_r: w (w^2 - 3 - 2 sqrt2) has the roots 0 and
    +-(1 + sqrt2), and (w - 2)(w^2 - 3 - 2 sqrt2) the roots 2 and
    +-(1 + sqrt2); w (w^2 - 1 - sqrt2) gives up 0 and keeps its quadratic,
    which does not split."""
    w = Poly.x()
    s2 = FieldElement({2: 1})
    q = w * w - Poly([3 + 2 * s2])
    roots, solved = exact_roots(w * q)
    assert solved and roots == [(FE(0), 1), (1 + s2, 1), (-1 - s2, 1)]
    roots, solved = exact_roots((w - 2) * q)
    assert solved and roots == [(FE(2), 1), (1 + s2, 1), (-1 - s2, 1)]
    roots, solved = exact_roots(w * (w * w - Poly([1 + s2])))
    assert not solved and roots == [(FE(0), 1)]


@settings(max_examples=60, deadline=None)
@given(st.lists(field_elements(), max_size=8), field_elements(),
       field_elements())
def test_shift_var_is_the_taylor_shift(coeffs, a, x):
    """p.shift_var(a)(x) = p(x + a) over the tower, for degrees 0 to 7 and
    the zero polynomial."""
    p = Poly(coeffs)
    assert p.shift_var(a)(x) == p(x + a)


def test_partial_fraction_roundtrip_exact():
    """f = poly_part + sum_j ladder[j] / (w - c)^(order - j) over the terms
    (c, order, ladder), as the polynomial identity it is times f.den:
    f.num = poly_part f.den + sum_j ladder[j] f.den / (w - c)^(order - j)."""
    w = Poly.x()
    for f in (RationalFunction(_p(1, 2, 0, 1), (w - 1) ** 2 * (w + 3)),
              # a triple pole at an irrational point
              RationalFunction(_p(1, 2, 3), (w - SQRT3) ** 3 * (w - 1))):
        roots, solved = exact_roots(f.den)
        assert solved
        poly_part, terms = partial_fractions(f, roots)
        total = poly_part * f.den
        for pole, order, ladder in terms:
            base = Poly([-pole, ONE])
            for j, c in enumerate(ladder):
                total = total + f.den.exact_div(base ** (order - j)).scale(c)
        assert total == f.num


def test_rational_function_reduction_and_order():
    w = Poly.x()
    f = RationalFunction((w - 1) * (w + 2), (w - 1) * w)
    assert f.den == w
    assert f.order_at_infinity() == 0
    assert RationalFunction(Poly([1]), w * w * w).order_at_infinity() == 3
    zero = RationalFunction(Poly([]), w)
    assert zero.is_zero() and zero.den == Poly([1])
    assert zero.order_at_infinity() == 10 ** 9


def test_rational_function_equality_is_of_the_reduced_pair():
    """num and den are reduced over a monic denominator, so equal fractions
    compare equal however they were written, and a fraction never equals
    a polynomial."""
    w = Poly.x()
    f = RationalFunction(w + 2, w)
    assert f == RationalFunction((w + 2).scale(3) * (w - 1),
                                 (w * w - w).scale(3))
    assert f != RationalFunction(w + 2, w + 1)
    assert f != RationalFunction(w + 3, w)
    assert RationalFunction(w, Poly([1])) != w


def test_guards_raise():
    """Each guard of the module raises the error it names."""
    w = Poly.x()
    with pytest.raises(TypeError, match="cannot coerce"):
        Poly([1.5])
    with pytest.raises(ValueError, match="no leading coefficient"):
        Poly([]).lc()
    with pytest.raises(ZeroDivisionError):
        w.divmod(Poly([]))
    with pytest.raises(ValueError, match="not exact"):
        (w * w).exact_div(w + 1)
    with pytest.raises(ValueError, match="zero polynomial"):
        poly_squarefree_factor(Poly([]))
    with pytest.raises(ZeroDivisionError):
        RationalFunction(w, Poly([]))
    f = RationalFunction(w, w + 1)
    with pytest.raises(AttributeError, match="immutable"):
        f.num = w


def test_floordiv_is_the_quotient():
    a = _p(1, 0, 2, 5)
    b = _p(-1, 1)
    q, r = a.divmod(b)
    assert a // b == q and a % b == r
    assert (a - r) // b * b == a - r


def test_float_horner_real_complex_and_zero():
    """Real coefficients give a real float evaluator, a complex one a
    complex evaluator, and the zero polynomial reads 0.0 everywhere."""
    w = Poly.x()
    real = float_horner(w * w - Poly([SQRT3]))
    value = real(2.0)
    assert type(value) is float
    assert abs(value - (4 - 3 ** 0.5)) < 1e-15
    assert float_horner(w + Poly([I]))(2.0) == complex(2, 1)
    const = float_horner(Poly([FE(Fraction(1, 4))]))
    assert const(7.0) == 0.25
    zero = float_horner(Poly([]))
    assert zero(3.0) == 0.0 and type(zero(3.0)) is float


def test_complex_coefficients_via_imaginary_unit():
    w = Poly.x()
    p = (w - I) * (w + I)
    assert p == w * w + 1
    roots, solved = exact_roots(p)
    assert solved and {r for r, _ in roots} == {I, -I}
