"""Exact arithmetic in the field of square roots of rationals."""
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyson3.field import (FE, I, ONE, SQRT3, SQRT26, SQRT78, ZERO,
                          FieldElement, field_sqrt)

SQRT5, SQRT7 = FieldElement({5: 1}), FieldElement({7: 1})


def test_basis_squares():
    assert SQRT3 * SQRT3 == FE(3)
    assert SQRT26 * SQRT26 == FE(26)
    assert SQRT78 * SQRT78 == FE(78)
    assert I * I == FE(-1)
    assert SQRT3 * SQRT26 == SQRT78


def test_rational_predicates():
    assert FE(Fraction(5, 7)).is_rational()
    assert FE(Fraction(5, 7)).as_rational() == Fraction(5, 7)
    assert not (SQRT3 + FE(1)).is_rational()
    with pytest.raises(ValueError):
        (SQRT3 + FE(1)).as_rational()


def test_inverse_of_mixed_element():
    x = FE(Fraction(2, 3)) + SQRT3 * FE(5) - SQRT26 * FE(Fraction(1, 4)) + I
    assert x * x.inverse() == ONE
    assert (ONE / x) * x == ONE


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def test_to_complex_matches_numeric_surds():
    x = SQRT3 + SQRT26 * I
    z = x.to_complex()
    assert abs(z.real - 3 ** 0.5) < 1e-15
    assert abs(z.imag - 26 ** 0.5) < 1e-15


def test_field_sqrt_rational_cases():
    assert field_sqrt(FE(Fraction(9, 4))) == FE(Fraction(3, 2))
    assert field_sqrt(FE(12)) == SQRT3 * FE(2)
    assert field_sqrt(FE(26)) == SQRT26
    assert field_sqrt(FE(Fraction(78, 49))) == SQRT78 * FE(Fraction(1, 7))
    # negative radicands pick up the imaginary unit
    s = field_sqrt(FE(-3))
    assert s == I * SQRT3
    assert s * s == FE(-3)
    # roots outside Q(sqrt3, sqrt26, i) are in the field too
    s5 = field_sqrt(FE(5))
    assert s5 * s5 == FE(5)
    # no root in any field of square roots of rationals
    assert field_sqrt(SQRT3) is None
    assert field_sqrt(ONE + field_sqrt(FE(2))) is None


_fracs = st.fractions(min_value=-40, max_value=40, max_denominator=12)


@st.composite
def field_elements(draw):
    return (FE(draw(_fracs)) + SQRT3 * FE(draw(_fracs))
            + SQRT26 * FE(draw(_fracs)) + I * FE(draw(_fracs)))


@settings(max_examples=60, deadline=None)
@given(field_elements(), field_elements())
def test_ring_axioms_and_numeric_homomorphism(a, b):
    assert a * b == b * a
    assert (a + b) * (a - b) == a * a - b * b
    za, zb = a.to_complex(), b.to_complex()
    assert abs((a * b).to_complex() - za * zb) < 1e-9 * (1 + abs(za * zb))


@settings(max_examples=60, deadline=None)
@given(field_elements())
def test_inverse_roundtrip(a):
    if a.is_zero():
        return
    assert a.inverse() * a == ONE


def test_conjugations_fix_products():
    x = SQRT3 * FE(2) + I * SQRT26
    y = FE(1) - SQRT78 + I * FE(3)
    for g in (-1, 2, 3, 13):
        assert x.conj(g).conj(g) == x
        assert x.conj(g) * y.conj(g) == (x * y).conj(g)
    assert x.conj(-1) == x.conj(2) == x.conj(13) == SQRT3 * FE(2) - I * SQRT26
    assert x.conj(3) == -SQRT3 * FE(2) + I * SQRT26


def test_field_elements_hashable_and_immutable():
    x = SQRT3 + FE(1)
    assert hash(x) == hash(SQRT3 + FE(1))
    with pytest.raises(AttributeError):
        x.coords = None


@st.composite
def wide_elements(draw):
    """Elements over sqrt5 and sqrt7 as well as the tower generators."""
    return (draw(field_elements()) + SQRT5 * FE(draw(_fracs))
            + I * SQRT7 * FE(draw(_fracs)) + SQRT78 * FE(draw(_fracs)))


@settings(max_examples=40, deadline=None)
@given(wide_elements(), wide_elements(), wide_elements())
def test_ring_axioms_and_inverse_beyond_the_tower(a, b, c):
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a - b) + b == a
    za, zb = a.to_complex(), b.to_complex()
    assert abs((a * b).to_complex() - za * zb) < 1e-9 * (1 + abs(za * zb))
    if not a.is_zero():
        assert a.inverse() * a == ONE


def _assert_canonical(x):
    assert x.den > 0
    assert all(x.num.values())
    assert math.gcd(x.den, *x.num.values()) == 1


@settings(max_examples=40, deadline=None)
@given(wide_elements(), wide_elements(), field_elements(), _fracs)
def test_canonical_form_and_hash_after_every_operation(a, b, z, q):
    """Every result is canonical: den > 0, no zero numerator and
    gcd(den, *num) = 1.  So equal values reached by different routes
    compare and hash equal; nve.algebrize's cache hashes the coefficients
    of its NVE, and a second representation of one value would miss it."""
    rebuilt = FieldElement({r: Fraction(n, a.den) for r, n in a.num.items()})
    results = [a + b, a - b, a - a, -a, a * b, a * FE(q), a.conj(-1),
               a.conj(2), a.conj(5), field_sqrt(z * z), field_sqrt(FE(q)),
               rebuilt]
    routes = [((a + b) - b, a), (rebuilt, a), (FE(q) * a - a * q, ZERO)]
    if not b.is_zero():
        round_trip = (a * b) * b.inverse()
        results += [b.inverse(), a / b, round_trip]
        routes.append((round_trip, a))
    for x in results:
        if x is not None:
            _assert_canonical(x)
    for x, y in routes:
        assert x == y and hash(x) == hash(y)


@settings(max_examples=40, deadline=None)
@given(field_elements())
def test_field_sqrt_of_squares(z):
    y = field_sqrt(z * z)
    assert y == z or y == -z


@pytest.mark.parametrize("q", [2, 5, -7])
@settings(max_examples=20, deadline=None)
@given(z=field_elements())
def test_field_sqrt_of_rational_multiples_of_squares(q, z):
    x = FE(q) * z * z
    y = field_sqrt(x)
    assert y is not None and y * y == x


def test_field_sqrt_denests():
    s2, s3, s6 = (field_sqrt(FE(k)) for k in (2, 3, 6))
    assert field_sqrt(FE(5) + FE(2) * s6) == s2 + s3


def test_field_sqrt_gives_up_on_unfactored_radicands():
    # 1000003 * 1000033 has no factor below the trial-division bound and is
    # not below its square, so its square-free part is not known
    assert field_sqrt(FE(1000003 * 1000033)) is None
    assert field_sqrt(FE(1000003 ** 2 * 5)) == SQRT5 * FE(1000003)
    with pytest.raises(ValueError):
        FieldElement({12: 1})          # not squarefree


def test_repr_of_tower_elements():
    x = FieldElement({1: 1, 3: 2, 26: 3, 78: 4, -1: 5, -3: 6, -26: 7,
                      -78: Fraction(-8, 3)})
    assert repr(x) == ("FE(1 + 2*s3 + 3*s26 + 4*s78 + 5*i + 6*i*s3 + 7*i*s26"
                       " + -8/3*i*s78)")
    assert repr(ZERO) == "FE(0)"
