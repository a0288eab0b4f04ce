"""Exact arithmetic in the field of square roots of rationals.

An element is a finite sum  sum_r q_r sqrt(r)  with rational q_r over
distinct squarefree integers r, where sqrt(r) = i sqrt(|r|) for r < 0, so
sqrt(-1) = i.  Square roots of distinct squarefree integers are linearly
independent over Q (Besicovitch, J. London Math. Soc. 15, 1940), so this
representation is unique and every zero test is exact.  The field contains
Q(sqrt3, sqrt26, i), where every constant of the Dyson pipeline lives
(sqrt3 from the cubic Hamiltonian terms, sqrt26 from the hyperbolic
particular solution, i from the algebrization), and with it every square
root q z^2 -> sqrt(q) z that Kovacic's algorithm takes (q rational, z in
the field).

Two radicals multiply through their gcd: sqrt(r1) sqrt(r2) =
g sqrt(r1 r2 / g^2) with g = gcd(r1, r2), times -1 when both are negative.
The generators of an element are the primes dividing its radicands, and -1
when one is negative; `conj(g)` flips the sign of sqrt(g), and `inverse`
conjugates the generators away one at a time.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

# Square-free parts are found by trial division below this bound; a cofactor
# left over that is neither 1, a square nor a prime below its square has no
# known factorization, and its square root is not taken.
_TRIAL_BOUND = 10 ** 5

# squarefree radicand r -> its generators: the primes dividing r, and -1
# when r < 0
_GENS = {1: frozenset(), -1: frozenset({-1})}
# (r1, r2) -> (c, r) with sqrt(r1) sqrt(r2) = c sqrt(r)
_RADMUL = {}


def _squarefree_split(n: int):
    """n = s^2 f for a positive integer n: (s, f, primes of f) with f
    squarefree, or None when the factorization is out of reach."""
    s, f, primes = 1, 1, []
    d = 2
    while d * d <= n and d < _TRIAL_BOUND:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            s *= d ** (e // 2)
            if e % 2:
                f *= d
                primes.append(d)
        d += 1 if d == 2 else 2
    if n > 1:
        root = math.isqrt(n)
        if root * root == n:
            s *= root
        elif d * d > n:           # every d up to sqrt(n) was tried: n is prime
            f *= n
            primes.append(n)
        else:
            return None
    return s, f, primes


def _register(r: int, primes) -> None:
    _GENS.setdefault(r, frozenset(primes) | ({-1} if r < 0 else set()))


def radical_generators(r: int) -> frozenset:
    """Generators of sqrt(r) for a radicand r of some element: the primes
    dividing r, and -1 when r < 0."""
    return _GENS[r]


def _radical_mul(r1: int, r2: int):
    hit = _RADMUL.get((r1, r2))
    if hit is None:
        g = math.gcd(r1, r2)
        r = (r1 // g) * (r2 // g)
        _GENS.setdefault(r, _GENS[r1] ^ _GENS[r2])
        hit = _RADMUL[(r1, r2)] = (-g if r1 < 0 and r2 < 0 else g), r
    return hit


class FieldElement:
    """Immutable element sum_r q_r sqrt(r); `terms` maps each squarefree
    radicand r to its nonzero rational coefficient q_r."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        for r, q in (terms or {}).items():
            q = Fraction(q)
            if not q:
                continue
            if r not in _GENS:
                split = _squarefree_split(abs(r)) if r else None
                if split is None or split[0] != 1:
                    raise ValueError(f"radicand {r} is not a squarefree "
                                     "integer with a known factorization")
                _register(r, split[2])
            clean[r] = q
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _make(cls, terms: dict) -> "FieldElement":
        """Trusted constructor: nonzero Fraction values, known radicands."""
        x = object.__new__(cls)
        object.__setattr__(x, "terms", terms)
        return x

    def __setattr__(self, *a):
        raise AttributeError("FieldElement is immutable")

    # -- constructors -------------------------------------------------
    @staticmethod
    def from_rational(q) -> "FieldElement":
        q = Fraction(q)
        return FieldElement._make({1: q} if q else {})

    # -- predicates ----------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def is_rational(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and 1 in self.terms)

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("not a rational element: %s" % (self,))
        return self.terms.get(1, Fraction(0))

    def generators(self) -> frozenset:
        """Primes dividing a radicand, and -1 when a radicand is negative."""
        return frozenset().union(*(_GENS[r] for r in self.terms))

    # -- arithmetic ----------------------------------------------------
    def __add__(self, other):
        other = coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for r, q in other.terms.items():
            s = out.get(r)
            if s is None:
                out[r] = q
            else:
                s += q
                if s:
                    out[r] = s
                else:
                    del out[r]
        return FieldElement._make(out)

    __radd__ = __add__

    def __neg__(self):
        return FieldElement._make({r: -q for r, q in self.terms.items()})

    def __sub__(self, other):
        other = coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = {}
        for r1, q1 in self.terms.items():
            for r2, q2 in other.terms.items():
                c, r = _radical_mul(r1, r2)
                out[r] = out.get(r, 0) + q1 * q2 * c
        return FieldElement._make({r: q for r, q in out.items() if q})

    __rmul__ = __mul__

    def conj(self, g: int) -> "FieldElement":
        """The automorphism sqrt(g) -> -sqrt(g) for a prime g, or i -> -i
        for g = -1."""
        return FieldElement._make({r: (-q if g in _GENS[r] else q)
                                   for r, q in self.terms.items()})

    def inverse(self) -> "FieldElement":
        """Exact inverse: x * conj_g(x) is free of g, so conjugating the
        generators away one at a time leaves a rational denominator."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero field element")
        num, den = ONE, self
        for g in sorted(self.generators()):
            if g in den.generators():
                c = den.conj(g)
                num, den = num * c, den * c
        return num * FieldElement.from_rational(1 / den.as_rational())

    def __truediv__(self, other):
        other = coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __eq__(self, other):
        other = coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- embedding -------------------------------------------------------
    def to_complex(self) -> complex:
        re = im = 0.0
        for r in sorted(self.terms, key=abs):
            v = float(self.terms[r]) * math.sqrt(abs(r))
            if r > 0:
                re += v
            else:
                im += v
        return complex(re, im)

    # -- display --------------------------------------------------------
    def __repr__(self):
        """Terms ordered real before imaginary, then by |r|: the tower
        basis prints as 1, s3, s26, s78, i, i*s3, i*s26, i*s78."""
        terms = []
        for r in sorted(self.terms, key=lambda r: (r < 0, abs(r))):
            name = ("*i" if r < 0 else "") + (f"*s{abs(r)}" if abs(r) > 1
                                              else "")
            terms.append(f"{self.terms[r]}{name}")
        return "FE(" + (" + ".join(terms) if terms else "0") + ")"


def coerce(x) -> Union[FieldElement, type(NotImplemented)]:
    if isinstance(x, FieldElement):
        return x
    if isinstance(x, (int, Fraction)):
        return FieldElement.from_rational(x)
    return NotImplemented


ZERO = FieldElement()
ONE = FieldElement.from_rational(1)
SQRT3 = FieldElement({3: 1})
SQRT26 = FieldElement({26: 1})
SQRT78 = FieldElement({78: 1})
I = FieldElement({-1: 1})


def FE(q) -> FieldElement:
    """Shorthand: rational -> FieldElement."""
    return FieldElement.from_rational(Fraction(q))


def _rational_square_root(q: Fraction):
    """sqrt of a non-negative rational, or None if irrational."""
    if q < 0:
        return None
    n, d = q.numerator, q.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


def _rational_sqrt(q: Fraction):
    """sqrt(q) = (s/d) sqrt(+-f) for q = n/d, n d = s^2 f, or None."""
    if q == 0:
        return ZERO
    split = _squarefree_split(abs(q.numerator) * q.denominator)
    if split is None:
        return None
    s, f, primes = split
    r = f if q > 0 else -f
    _register(r, primes)
    return FieldElement._make({r: Fraction(s, q.denominator)})


def field_sqrt(x: FieldElement):
    """A square root y of x (y * y == x), or None.

    Found whenever x = q z^2 with q rational and z in the field generated
    by x's radicands.  On a generator g of x, write x = a + b sqrt(g) with
    a, b free of g; a root c + e sqrt(g) has c^2 = (a +- sqrt(N))/2 with
    N = a^2 - g b^2, so sqrt(N) must lie in the smaller field and the
    recursion runs on (a +- sqrt(N))/2.  The result is checked by squaring.
    """
    if x.is_rational():
        return _rational_sqrt(x.as_rational())
    gens = x.generators()
    g = max(gens)
    a, b = {}, {}
    for r, q in x.terms.items():
        if g in _GENS[r]:
            _GENS.setdefault(r // g, _GENS[r] - {g})
            b[r // g] = q
        else:
            a[r] = q
    a, b = FieldElement._make(a), FieldElement._make(b)
    root_n = field_sqrt(a * a - b * b * g)
    if root_n is None or not root_n.generators() <= gens - {g}:
        return None
    half = FE(Fraction(1, 2))
    _GENS.setdefault(g, frozenset({g}))
    sqrt_g = FieldElement._make({g: Fraction(1)})
    for s in (root_n, -root_n):
        c = field_sqrt((a + s) * half)
        if c is None or c.is_zero():
            continue
        y = c + b * (2 * c).inverse() * sqrt_g
        if y * y == x:
            return y
    return None
