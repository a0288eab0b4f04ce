"""Dense univariate polynomials and rational functions.

Coefficients are exact field elements (`field.FieldElement`), so every
zero test, gcd and division is exact.  Degrees stay small (< 30)
throughout the pipeline, so everything is dense and straightforward.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .field import (ONE, ZERO, FieldElement, field_sqrt, radical_span,
                    coerce as fe_coerce)


def _coerce(x) -> FieldElement:
    c = fe_coerce(x)
    if c is NotImplemented:
        raise TypeError(f"cannot coerce {x!r} into the field")
    return c


class Poly:
    """Dense polynomial; coeffs[k] multiplies w**k, no trailing zeros."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [c if type(c) is FieldElement else _coerce(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        self.coeffs = cs

    # -- basics ----------------------------------------------------------
    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1          # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self.coeffs

    def lc(self):
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, k: int):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else ZERO

    @staticmethod
    def const(c) -> "Poly":
        return Poly([c])

    @staticmethod
    def x() -> "Poly":
        return Poly([0, 1])

    # -- ring operations ---------------------------------------------------
    @staticmethod
    def _same(other) -> "Poly":
        return other if isinstance(other, Poly) else Poly.const(other)

    def __add__(self, other):
        other = self._same(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly([self.coeff(k) + other.coeff(k) for k in range(n)])

    __radd__ = __add__

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-self._same(other))

    def __mul__(self, other):
        other = self._same(other)
        if self.is_zero() or other.is_zero():
            return Poly([])
        out = [ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        out = Poly.const(ONE)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        return (self - self._same(other)).is_zero()

    def __hash__(self):
        return hash(tuple(self.coeffs))

    # -- euclidean structure -------------------------------------------------
    def divmod(self, other: "Poly"):
        other = self._same(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(other.coeffs) - 1
        if len(rem) - 1 < dq:
            return Poly([]), self
        inv_lc = other.lc().inverse()
        quot = [ZERO] * (len(rem) - dq)
        for k in range(len(rem) - 1, dq - 1, -1):
            c = rem[k]
            if c.is_zero():
                continue
            f = c * inv_lc
            quot[k - dq] = f
            for j, b in enumerate(other.coeffs):
                rem[k - dq + j] = rem[k - dq + j] - f * b
        return Poly(quot), Poly(rem)

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def __mod__(self, other):
        return self.divmod(other)[1]

    def exact_div(self, other: "Poly") -> "Poly":
        q, r = self.divmod(other)
        if not r.is_zero():
            raise ValueError("division is not exact")
        return q

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        inv = self.lc().inverse()
        return Poly([c * inv for c in self.coeffs])

    def gcd(self, other: "Poly") -> "Poly":
        a, b = self, self._same(other)
        while not b.is_zero():
            a, b = b, a % b
        return a.monic() if not a.is_zero() else a

    # -- calculus / evaluation --------------------------------------------
    def derivative(self) -> "Poly":
        return Poly([k * c for k, c in enumerate(self.coeffs)][1:])

    def __call__(self, x):
        acc = ZERO
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def shift_var(self, a) -> "Poly":
        """p(w) -> p(w + a), the Taylor shift: n synthetic divisions by
        w - a leave the Taylor coefficients of p at a in place."""
        a, cs = _coerce(a), list(self.coeffs)
        for i in range(len(cs) - 1):
            for j in range(len(cs) - 2, i - 1, -1):
                cs[j] = cs[j] + a * cs[j + 1]
        return Poly(cs)

    def dilate(self, m: int) -> "Poly":
        """p(w) -> p(m w) for an integer m."""
        return Poly([c * m ** k for k, c in enumerate(self.coeffs)])

    def scale(self, c) -> "Poly":
        c = _coerce(c)
        return Poly([x * c for x in self.coeffs])

    def __repr__(self):
        if self.is_zero():
            return "Poly(0)"
        return "Poly(" + " + ".join(f"({c!r})*w^{k}" for k, c in enumerate(self.coeffs)) + ")"


def float_horner(p: Poly):
    """Float evaluator of an exact polynomial: x -> p(x) by Horner's rule.

    The coefficients are rounded once; they are real floats when every
    coefficient is real and complex otherwise, so a real argument gives a
    real value exactly when p is real.
    """
    cs = [c.to_complex() for c in reversed(p.coeffs)]
    if all(c == c.conj(-1) for c in p.coeffs):
        cs = [c.real for c in cs]
    if len(cs) < 2:
        cs = [0.0] + cs
    lead, rest = cs[0], cs[1:]

    def horner(x):
        acc = lead
        for c in rest:
            acc = acc * x + c
        return acc

    return horner


def poly_squarefree_factor(p: Poly):
    """Yun's algorithm: [(factor, multiplicity)], factors pairwise coprime.

    Product of factor**mult equals p up to a unit.
    """
    if p.is_zero():
        raise ValueError("square-free factorization of the zero polynomial")
    if p.degree == 0:
        return []
    p = p.monic()
    dp = p.derivative()
    g = p.gcd(dp)
    out = []
    if g.degree == 0:
        return [(p, 1)]
    c = p.exact_div(g)
    d = dp.exact_div(g) - c.derivative()
    m = 1
    while not c.degree <= 0:
        f = c.gcd(d)
        if f.degree > 0:
            out.append((f, m))
        c2 = c.exact_div(f)
        d = d.exact_div(f) - c2.derivative()
        c = c2
        m += 1
    return out


def exact_roots(p: Poly):
    """Roots of p in the field, with multiplicities.

    A square-free factor of degree 1 gives its root directly, and one of
    degree 2 goes to the quadratic formula with field_sqrt.  A factor of
    degree >= 3 first has its rational roots pulled out, then the roots
    +-sqrt(s) for s in the radical span of its coefficients; a quadratic
    left over is solved the same way.  Returns (roots, fully_solved); when
    fully_solved is False some factor did not split and its roots are
    missing from the list.
    """
    roots = []
    solved = True
    for fac, mult in poly_squarefree_factor(p):
        rem = fac
        if fac.degree >= 3:
            for r in _rational_roots(fac):
                roots.append((FieldElement.from_rational(r), mult))
                rem = rem.exact_div(Poly([-r, 1]))
            for s in radical_span(fac.coeffs):
                for x in (FieldElement({s: 1}), FieldElement({s: -1})):
                    if rem.degree >= 3 and rem(x).is_zero():
                        roots.append((x, mult))
                        rem = rem.exact_div(Poly([-x, ONE]))
        if rem.degree == 1:
            roots.append((-rem.coeffs[0] * rem.coeffs[1].inverse(), mult))
        elif rem.degree == 2:
            a, b, c = rem.coeffs[2], rem.coeffs[1], rem.coeffs[0]
            s = field_sqrt(b * b - 4 * a * c)
            if s is None:
                solved = False
                continue
            inv2a = (2 * a).inverse()
            roots.append(((-b + s) * inv2a, mult))
            roots.append(((-b - s) * inv2a, mult))
        elif rem.degree >= 3:
            solved = False
    return roots, solved


def _rational_roots(p: Poly):
    """Rational roots of an exact polynomial (rational root theorem)."""
    if any(not c.is_rational() for c in p.coeffs):
        # irrational coefficients: try nothing (quadratic path may still work)
        return []
    den_lcm = 1
    for c in p.coeffs:
        d = c.as_rational().denominator
        den_lcm = math.lcm(den_lcm, d)
    ints = [int(c.as_rational() * den_lcm) for c in p.coeffs]
    found = []
    a0, an = None, ints[-1]
    for c in ints:
        if c != 0:
            a0 = c
            break
    if a0 is None:
        return found
    cand = set()
    for pnum in _divisors(abs(a0)):
        for pden in _divisors(abs(an)):
            cand.add(Fraction(pnum, pden))
            cand.add(Fraction(-pnum, pden))
    if p(FieldElement.from_rational(0)).is_zero():
        found.append(Fraction(0))
    for q in sorted(cand):
        if p(FieldElement.from_rational(q)).is_zero():
            found.append(q)
    return found


def _divisors(n: int):
    if n == 0:
        return [1]
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            out.append(n // d)
        d += 1
    return sorted(set(out))


class RationalFunction:
    """Reduced num/den pair with a monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly):
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if not num.is_zero():
            g = num.gcd(den)
            if g.degree > 0:
                num = num.exact_div(g)
                den = den.exact_div(g)
        else:
            den = Poly.const(ONE)
        lc_inv = den.lc().inverse()
        object.__setattr__(self, "num", num.scale(lc_inv))
        object.__setattr__(self, "den", den.monic())

    def __setattr__(self, *a):
        raise AttributeError("RationalFunction is immutable")

    @staticmethod
    def from_poly(p: Poly) -> "RationalFunction":
        return RationalFunction(p, Poly.const(ONE))

    @staticmethod
    def const(c) -> "RationalFunction":
        return RationalFunction.from_poly(Poly.const(c))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    # -- ring operations -------------------------------------------------
    def _same(self, other) -> "RationalFunction":
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, Poly):
            return RationalFunction.from_poly(other)
        return RationalFunction.const(other)

    def __add__(self, other):
        o = self._same(other)
        return RationalFunction(self.num * o.den + o.num * self.den,
                                self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other):
        return self + (-self._same(other))

    def __mul__(self, other):
        o = self._same(other)
        return RationalFunction(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __eq__(self, other):
        return (self - self._same(other)).is_zero()

    def order_at_infinity(self) -> int:
        """deg den - deg num; +inf order is represented by a large int."""
        if self.num.is_zero():
            return 10 ** 9
        return self.den.degree - self.num.degree

    def __repr__(self):
        return f"RF({self.num!r} / {self.den!r})"


def partial_fractions(f: RationalFunction, roots=None):
    """Split f into polynomial part + Laurent ladders at each pole.

    Returns (poly_part, [(pole, order, ladder)]) where ladder[j] multiplies
    (w - pole)**-(order - j).  `roots` may carry precomputed (root,
    multiplicity) pairs for the denominator; otherwise they are found by
    exact_roots, and ArithmeticError is raised when the denominator does
    not split over the field.

    The ladder at a pole c is the first `order` coefficients of the power
    series num/core, with num = rem(w + c) for rem = f.num mod f.den and
    core = f.den(w + c)/w**order, found by series division.
    """
    if roots is None:
        roots, solved = exact_roots(f.den)
        if not solved:
            raise ArithmeticError(f"denominator {f.den!r} does not split "
                                  "over the field")
    poly_part, rem = f.num.divmod(f.den)
    terms = []
    for pole, order in roots:
        num = rem.shift_var(pole)
        core = Poly(f.den.shift_var(pole).coeffs[order:])
        inv0 = core.coeffs[0].inverse()
        ladder = []
        for j in range(order):
            known = sum((core.coeff(i) * ladder[j - i]
                         for i in range(1, j + 1)), ZERO)
            ladder.append((num.coeff(j) - known) * inv0)
        terms.append((pole, order, ladder))
    return poly_part, terms
