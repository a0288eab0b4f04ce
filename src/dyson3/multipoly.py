"""Polynomials in (q1, q2, p1, p2) over the exact tower field.

A sparse map from exponent tuples to nonzero field elements, built once
from its coefficients and then only differentiated and restricted; there
is no truncation and no product.  This is the carrier for the degree-3
and degree-4 Taylor truncations of the regularized Dyson Hamiltonian.
"""

from __future__ import annotations

from .field import FieldElement
from .poly import Poly

VARS = ("q1", "q2", "p1", "p2")


class MultiPoly:
    __slots__ = ("terms",)

    def __init__(self, terms):
        """terms: {(e_q1, e_q2, e_p1, e_p2): FieldElement}; zeros are
        dropped."""
        object.__setattr__(self, "terms",
                           {e: c for e, c in terms.items() if not c.is_zero()})

    def __setattr__(self, *a):
        raise AttributeError("MultiPoly is immutable")

    def coeff(self, exps) -> FieldElement:
        return self.terms.get(tuple(exps), FieldElement())

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
        return MultiPoly(out)

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
        return all(self.coeff((e[1], e[0], e[3], e[2])) == c
                   for e, c in self.terms.items())

    def momentum_free(self) -> "MultiPoly":
        return MultiPoly({e: c for e, c in self.terms.items()
                          if not (e[2] or e[3])})
