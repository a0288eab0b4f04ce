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

An element is stored as integer numerators over one common denominator:
`num` maps each radicand r to a nonzero integer n_r and `den` is a
positive integer, x = (sum_r n_r sqrt(r)) / den.  The pair is kept
canonical, gcd(den, *num.values()) = 1 and zero is {} over 1, so equality
and hashing compare a dict and an int, and addition, negation,
multiplication, conjugation and inversion work on Python ints alone.
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


def radical_span(elements) -> list:
    """The squarefree radicands spanned by those of the elements under
    multiplication, 1 first: sqrt(s) for each s lies in the field the
    elements generate, and these square roots are a basis of it over Q."""
    span = [1]
    for x in elements:
        for r in x.num:
            if r not in span:
                span += [_radical_mul(s, r)[1] for s in span]
    return span


class FieldElement:
    """Immutable element (sum_r n_r sqrt(r)) / den.  `num` maps each
    squarefree radicand r to its nonzero integer numerator n_r, and `den`
    is a positive integer with gcd(den, *num.values()) = 1, so every
    element has one representation (zero is {} over 1)."""

    __slots__ = ("num", "den")

    def __init__(self, terms=None):
        """The element sum_r q_r sqrt(r) of a map {r: rational q_r}."""
        qs = {}
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
            qs[r] = q
        # over the lcm of the denominators, some numerator is prime to
        # each prime power of it, so the pair is already canonical
        den = math.lcm(*(q.denominator for q in qs.values()))
        _set_num(self, {r: q.numerator * (den // q.denominator)
                        for r, q in qs.items()})
        _set_den(self, den)

    def __setattr__(self, *a):
        raise AttributeError("FieldElement is immutable")

    # -- constructors -------------------------------------------------
    @staticmethod
    def from_rational(q) -> "FieldElement":
        if q.__class__ is int:
            return _make({1: q} if q else {}, 1)
        q = Fraction(q)
        return _make({1: q.numerator} if q else {}, q.denominator)

    # -- predicates ----------------------------------------------------
    def is_zero(self) -> bool:
        return not self.num

    def is_rational(self) -> bool:
        return not self.num or (len(self.num) == 1 and 1 in self.num)

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("not a rational element: %s" % (self,))
        return Fraction(self.num.get(1, 0), self.den)

    def generators(self) -> frozenset:
        """Primes dividing a radicand, and -1 when a radicand is negative."""
        return frozenset().union(*(_GENS[r] for r in self.num))

    # -- arithmetic ----------------------------------------------------
    def __add__(self, other):
        if other.__class__ is not FieldElement:
            other = coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return _add(self, other, 1)

    __radd__ = __add__

    def __neg__(self):
        return _make({r: -n for r, n in self.num.items()}, self.den)

    def __sub__(self, other):
        if other.__class__ is not FieldElement:
            other = coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return _add(self, other, -1)

    def __rsub__(self, other):
        other = coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _add(other, self, -1)

    def __mul__(self, other):
        if other.__class__ is not FieldElement:
            other = coerce(other)
            if other is NotImplemented:
                return NotImplemented
        x, y = self.num, other.num
        if not x or not y:
            return ZERO
        out = {}
        get = out.get
        for r1, n1 in x.items():
            for r2, n2 in y.items():
                c, r = _RADMUL.get((r1, r2)) or _radical_mul(r1, r2)
                out[r] = get(r, 0) + n1 * n2 * c
        if len(out) < len(x) * len(y):          # terms merged
            out = {r: n for r, n in out.items() if n}
        return _reduce(out, self.den * other.den)

    __rmul__ = __mul__

    def conj(self, g: int) -> "FieldElement":
        """The automorphism sqrt(g) -> -sqrt(g) for a prime g, or i -> -i
        for g = -1."""
        return _make({r: (-n if g in _GENS[r] else n)
                      for r, n in self.num.items()}, self.den)

    def inverse(self) -> "FieldElement":
        """Exact inverse of x = N / den: N * conj_g(N) is free of g and of
        every generator N lacks, so conjugating the generators away one at
        a time, smallest first, turns the integer element N into an integer
        m, and 1 / x = den * (product of the conjugates) / m."""
        if not self.num:
            raise ZeroDivisionError("inverse of zero field element")
        num, den = ONE, _make(self.num, 1)
        while not den.is_rational():
            c = den.conj(min(den.generators()))
            num, den = num * c, den * c
        m = den.num[1]
        scale = self.den if m > 0 else -self.den
        return _reduce({r: n * scale for r, n in num.num.items()}, abs(m))

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
        if other.__class__ is not FieldElement:
            other = coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self.den == other.den and self.num == other.num

    def __hash__(self):
        return hash((self.den, frozenset(self.num.items())))

    # -- embedding -------------------------------------------------------
    def to_complex(self) -> complex:
        re = im = 0.0
        for r in sorted(self.num, key=abs):
            v = self.num[r] / self.den * math.sqrt(abs(r))
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
        for r in sorted(self.num, key=lambda r: (r < 0, abs(r))):
            name = ("*i" if r < 0 else "") + (f"*s{abs(r)}" if abs(r) > 1
                                              else "")
            terms.append(f"{Fraction(self.num[r], self.den)}{name}")
        return "FE(" + (" + ".join(terms) if terms else "0") + ")"


_new = object.__new__
_set_num = FieldElement.num.__set__
_set_den = FieldElement.den.__set__


def _make(num: dict, den: int) -> FieldElement:
    """Trusted constructor: a canonical pair of known radicands."""
    x = _new(FieldElement)
    _set_num(x, num)
    _set_den(x, den)
    return x


def _reduce(num: dict, den: int) -> FieldElement:
    """The canonical element num / den: nonzero integer numerators of known
    radicands over a positive den, with their common factor divided out."""
    if den != 1:
        g = math.gcd(den, *num.values())
        if g != 1:
            num = {r: n // g for r, n in num.items()}
            den //= g
    return _make(num, den)


def _add(x: FieldElement, y: FieldElement, sign: int) -> FieldElement:
    """x + sign * y over the lcm of the denominators.  With g the gcd of
    the two denominators, a prime dividing only one of them leaves some sum
    prime to it, since each operand is canonical; only g can cancel."""
    if not y.num:
        return x
    if not x.num:
        return y if sign == 1 else -y
    g = math.gcd(x.den, y.den)
    sx, sy = y.den // g, x.den // g * sign
    out = {r: n * sx for r, n in x.num.items()} if sx != 1 else dict(x.num)
    get = out.get
    for r, n in y.num.items():
        t = get(r, 0) + n * sy
        if t:
            out[r] = t
        else:
            del out[r]
    den = x.den * sx
    return _make(out, den) if g == 1 else _reduce(out, den)


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


def _rational_sqrt(n: int, d: int):
    """sqrt(n/d) = (s/d) sqrt(+-f) for n d = s^2 f and d > 0, or None."""
    if not n:
        return ZERO
    split = _squarefree_split(abs(n) * d)
    if split is None:
        return None
    s, f, primes = split
    r = f if n > 0 else -f
    _register(r, primes)
    return _reduce({r: s}, d)


def field_sqrt(x: FieldElement):
    """A square root y of x (y * y == x), or None.

    Found whenever x = q z^2 with q rational and z in the field generated
    by x's radicands.  On a generator g of x, write x = a + b sqrt(g) with
    a, b free of g; a root c + e sqrt(g) has c^2 = (a +- sqrt(N))/2 with
    N = a^2 - g b^2, so sqrt(N) must lie in the smaller field and the
    recursion runs on (a +- sqrt(N))/2.  The result is checked by squaring.
    """
    if x.is_rational():
        return _rational_sqrt(x.num.get(1, 0), x.den)
    gens = x.generators()
    g = max(gens)
    a, b = {}, {}
    for r, n in x.num.items():
        if g in _GENS[r]:
            _GENS.setdefault(r // g, _GENS[r] - {g})
            b[r // g] = n
        else:
            a[r] = n
    a, b = _reduce(a, x.den), _reduce(b, x.den)
    root_n = field_sqrt(a * a - b * b * g)
    if root_n is None or not root_n.generators() <= gens - {g}:
        return None
    half = _make({1: 1}, 2)
    _GENS.setdefault(g, frozenset({g}))
    sqrt_g = _make({g: 1}, 1)
    for s in (root_n, -root_n):
        c = field_sqrt((a + s) * half)
        if c is None or c.is_zero():
            continue
        y = c + b * (2 * c).inverse() * sqrt_g
        if y * y == x:
            return y
    return None
