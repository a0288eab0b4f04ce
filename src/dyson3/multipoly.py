"""Truncated multivariate polynomials in (q1, q2, p1, p2).

Sparse exponent-tuple map over the exact tower field with a hard
total-degree cutoff; products of mixed cutoffs truncate to the smaller
one.  This is the carrier for the degree-3 and degree-4 Taylor
truncations of the regularized Dyson Hamiltonian.
"""

from __future__ import annotations

from fractions import Fraction

from .field import FieldElement, coerce as fe_coerce
from .poly import Poly

VARS = ("q1", "q2", "p1", "p2")
NVARS = 4


class MultiPoly:
    __slots__ = ("terms", "cutoff")

    def __init__(self, terms=None, cutoff: int = 10):
        clean = {}
        for exps, c in (terms or {}).items():
            if len(exps) != NVARS:
                raise ValueError("exponent tuples must have 4 entries")
            if sum(exps) > cutoff:
                continue
            c = self._coerce(c)
            if not c.is_zero():
                clean[tuple(exps)] = c
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "cutoff", cutoff)

    def __setattr__(self, *a):
        raise AttributeError("MultiPoly is immutable")

    @staticmethod
    def _coerce(c) -> FieldElement:
        if isinstance(c, FieldElement):
            return c
        v = fe_coerce(Fraction(c) if not isinstance(c, (int, Fraction)) else c)
        if v is NotImplemented:
            raise TypeError(f"bad coefficient {c!r}")
        return v

    @staticmethod
    def var(name: str, cutoff: int = 10) -> "MultiPoly":
        exps = [0] * NVARS
        exps[VARS.index(name)] = 1
        return MultiPoly({tuple(exps): 1}, cutoff)

    @staticmethod
    def const(c, cutoff: int = 10) -> "MultiPoly":
        return MultiPoly({(0, 0, 0, 0): c}, cutoff)

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, exps) -> FieldElement:
        return self.terms.get(tuple(exps), FieldElement())

    # -- arithmetic -------------------------------------------------------
    def __add__(self, other):
        other = self._like(other)
        cut = min(self.cutoff, other.cutoff)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, FieldElement()) + c
        return MultiPoly(out, cut)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly({e: -c for e, c in self.terms.items()}, self.cutoff)

    def __sub__(self, other):
        return self + (-self._like(other))

    def __mul__(self, other):
        other = self._like(other)
        cut = min(self.cutoff, other.cutoff)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                if sum(e) > cut:
                    continue
                out[e] = out.get(e, FieldElement()) + c1 * c2
        return MultiPoly(out, cut)

    __rmul__ = __mul__

    def __eq__(self, other):
        return (self - self._like(other)).is_zero()

    def __hash__(self):
        return hash((frozenset(self.terms.items()), self.cutoff))

    def _like(self, other) -> "MultiPoly":
        if isinstance(other, MultiPoly):
            return other
        return MultiPoly.const(other, self.cutoff)

    def scale(self, c) -> "MultiPoly":
        c = self._coerce(c)
        return MultiPoly({e: v * c for e, v in self.terms.items()}, self.cutoff)

    # -- calculus ----------------------------------------------------------
    def derivative(self, name: str) -> "MultiPoly":
        k = VARS.index(name)
        out = {}
        for e, c in self.terms.items():
            if e[k] == 0:
                continue
            e2 = list(e)
            e2[k] -= 1
            out[tuple(e2)] = c * e[k]
        return MultiPoly(out, self.cutoff)

    # -- substitution --------------------------------------------------------
    def diagonal_univariate(self) -> Poly:
        """Substitute q1=q2=q, p1=p2=0 -> polynomial in q over the tower."""
        out = {}
        for e, c in self.terms.items():
            if e[2] or e[3]:
                raise ValueError("momentum terms present; restrict first")
            k = e[0] + e[1]
            out[k] = out.get(k, FieldElement()) + c
        n = max(out, default=-1) + 1
        return Poly([out.get(k, FieldElement()) for k in range(n)])

    def swap_symmetric(self) -> bool:
        """Invariance under (q1,p1) <-> (q2,p2)."""
        for e, c in self.terms.items():
            se = (e[1], e[0], e[3], e[2])
            if not (self.coeff(se) - c).is_zero():
                return False
        return True

    def momentum_free(self) -> "MultiPoly":
        return MultiPoly({e: c for e, c in self.terms.items() if not (e[2] or e[3])},
                         self.cutoff)

    def __repr__(self):
        if not self.terms:
            return "MP(0)"
        bits = []
        for e in sorted(self.terms, key=lambda t: (sum(t), t)):
            mon = "*".join(f"{v}^{k}" for v, k in zip(VARS, e) if k)
            bits.append(f"({self.terms[e]!r}){'*' + mon if mon else ''}")
        return "MP(" + " + ".join(bits) + ")"


def compose_series(series_coeffs, f: MultiPoly) -> MultiPoly:
    """Sum series_coeffs[k] * f**k, truncated at f's cutoff.

    f must have no constant term; series_coeffs are rationals (or tower
    elements) indexed by power.
    """
    if not f.coeff((0, 0, 0, 0)).is_zero():
        raise ValueError("series composition needs a zero constant term")
    out = MultiPoly.const(0, f.cutoff)
    power = MultiPoly.const(1, f.cutoff)
    for k, c in enumerate(series_coeffs):
        if k > 0:
            power = power * f
            if power.is_zero():
                break
        out = out + power.scale(c)
    return out


def cos_series(f: MultiPoly) -> MultiPoly:
    n = f.cutoff
    coeffs = [Fraction(0)] * (n + 1)
    sign, fact = 1, 1
    for k in range(0, n + 1, 2):
        if k > 0:
            fact *= (k - 1) * k
            sign = -sign
        coeffs[k] = Fraction(sign, fact)
    return compose_series(coeffs, f)


def sin_series(f: MultiPoly) -> MultiPoly:
    n = f.cutoff
    coeffs = [Fraction(0)] * (n + 1)
    sign, fact = 1, 1
    for k in range(1, n + 1, 2):
        if k > 1:
            fact *= (k - 1) * k
            sign = -sign
        coeffs[k] = Fraction(sign, fact)
    return compose_series(coeffs, f)


def neg_log1p_series(u: MultiPoly) -> MultiPoly:
    """-log(1 + u) as a truncated series; u has no constant term."""
    n = u.cutoff
    coeffs = [Fraction(0)] + [Fraction((-1) ** k, k) for k in range(1, n + 1)]
    return compose_series(coeffs, u)
