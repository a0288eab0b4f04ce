"""Seeded inputs for the workloads.

The same seed gives the same inputs.  The seed varies the parameters of
each input (affine maps, residues, energies, radii) but never how many
inputs of each kind a round holds, so the work of a round stays comparable
from seed to seed.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction as Q

import reference

# surd(d) = sqrt(d) inside Q(sqrt3, sqrt26, i) for the pole pairs u +- v sqrt(d)
SURDS = (1, -1, 3, -3, 26, -26, 78, -78)

_H, _T, _F = Q(1, 2), Q(1, 3), Q(1, 5)

# Exponent differences that Kimura's theorem and Schwarz's list classify.
DIHEDRAL_NU = (Q(1, 3), Q(1, 4), Q(1, 5), Q(2, 5), Q(2, 7), Q(3, 7), Q(3, 4))
SHIFTED = (  # Schwarz rows moved by integers of even sum
    (Q(3, 2), Q(3, 2), _T),          # dihedral
    (_H, Q(4, 3), Q(4, 3)),          # tetrahedral
    (_H, _T, Q(5, 4)),               # octahedral
    (Q(5, 3), Q(1, 4), Q(5, 4)),     # octahedral
    (Q(3, 2), Q(4, 3), _F),          # icosahedral, d = 12
    (Q(5, 2), _T, _F),               # icosahedral, d = 12
)
NOT_LIOUVILLIAN = ((_H, _T, Q(1, 7)), (_T, Q(1, 4), _F),
                   (Q(2, 3), Q(1, 4), _F), (_H, Q(2, 5), Q(1, 7)),
                   (Q(3, 4), _T, Q(1, 6)))
REDUCIBLE = ((_H, _T, Q(1, 6)), (_H, Q(1, 4), Q(1, 4)),
             (_T, _F, Q(7, 15)), (Q(2, 3), Q(1, 7), Q(10, 21)))
# residues of omega; each triple is used with no tail, a constant and a
# linear tail, and the seed rotates it over the poles and draws the tails
RICCATI_TRIPLES = (
    (_H, -_H, Q(3, 2)), (Q(-3, 2), Q(2, 3), _H), (Q(2), -_T, _H),
    (Q(5, 4), -_H, Q(2, 3)), (Q(3, 2), -_T, -_H), (-_T, Q(5, 4), Q(3, 2)),
    (Q(2, 3), Q(2, 3), Q(-3, 2)), (Q(-2), _H, Q(5, 4)),
    (-_H, Q(3, 2), Q(2, 3)), (Q(5, 4), Q(3, 2), -_T),
)

# The counts place the median decision inside the dense cluster of slow
# decisions (icosahedral and Riccati forms, about 0.2 s each), not in the
# gap below it: with the fast forms (about 0.1 s) near half the corpus,
# the median jumped between the two clusters from run to run.  105
# decisions leave ten beyond the 90th percentile.
SCHWARZ_MAPS = 3          # affine maps per Schwarz row
DIHEDRAL_COUNT = 8
NOT_LIOUVILLIAN_MAPS = 2
REDUCIBLE_MAPS = 2


@dataclass(frozen=True)
class Control:
    label: str
    r: object                 # dyson3.poly.RationalFunction
    operands: tuple           # field elements: pole points


def _surd(field, d):
    root = {1: field.ONE, 3: field.SQRT3, 26: field.SQRT26,
            78: field.SQRT78}[abs(d)]
    return root if d > 0 else field.I * root


def hypergeometric_normal_form(field, poly, exps, u, v, d):
    """xi'' = r xi with exponent differences (lam, mu, nu) at
    p1 = u - v sqrt(d), p2 = u + v sqrt(d) and infinity.

    The hypergeometric normal form on {0, 1, oo} pulled back by the affine
    map x = (w - p1)/(p2 - p1):
    r = [(lam^2-1)/(w-p1)^2 + (mu^2-1)/(w-p2)^2
         + (1-lam^2-mu^2+nu^2)/((w-p1)(w-p2))] / 4.
    """
    lam, mu, nu = exps
    s = _surd(field, d) * field.FE(v)
    p1, p2 = field.FE(u) - s, field.FE(u) + s
    a = poly.Poly([-p1, 1])
    b = poly.Poly([-p2, 1])
    num = ((b * b).scale(Q(lam * lam - 1, 4)) + (a * a).scale(Q(mu * mu - 1, 4))
           + (a * b).scale(Q(1 - lam * lam - mu * mu + nu * nu, 4)))
    return poly.RationalFunction(num, a * a * b * b), (p1, p2)


def dyson_poles(field):
    """0 and 1 +- i sqrt26: the poles of the algebrized quartic NVEs (the
    roots of w and of wdot^2 = -4(w^2 - 2w + 27))."""
    return (field.FE(0), field.FE(1) + field.I * field.SQRT26,
            field.FE(1) - field.I * field.SQRT26)


def riccati_form(field, poly, residues, tail):
    """r = omega' + omega^2 for omega = sum a_c/(w - c) + tail(w), with
    poles c = 0, 1 + i sqrt26, 1 - i sqrt26.

    With omega = N/D, D = prod (w - c): r = (N'D - ND' + N^2) / D^2."""
    poles = dyson_poles(field)
    lins = [poly.Poly([-c, 1]) for c in poles]
    den = lins[0] * lins[1] * lins[2]
    num = poly.Poly(list(tail)) * den
    for a, lin in zip(residues, lins):
        num = num + (den // lin).scale(a)
    r_num = num.derivative() * den - num * den.derivative() + num * num
    return poly.RationalFunction(r_num, den * den), poles


def kovacic_corpus(seed: int):
    """The kovacic_controls corpus: (label, exps or None, params) recipes.

    Each recipe is turned into a Control by build_controls; keeping the
    recipe separate lets the expected verdicts be checked without dyson3.
    The seed draws the affine maps (u, v of like height), the dihedral
    nu's starting point and the Riccati data.  The surd d and the
    placement of each triple's entries over the poles and infinity rotate
    with the recipe index, so that the candidate sets and the size of the
    arithmetic, and with them the work of a round, vary little from seed
    to seed.
    """
    rng = random.Random(seed)
    recipes = []

    def hyper(tag, exps, k):
        rot = len(recipes) % 3
        placed = exps[rot:] + exps[:rot]
        u = Q(rng.choice((-1, 1)) * rng.randint(1, 3), rng.randint(2, 3))
        v = Q(rng.randint(1, 3), rng.randint(2, 3))
        d = SURDS[len(recipes) % len(SURDS)]
        recipes.append((f"{tag}{k}:{'/'.join(map(str, exps))}", placed,
                        (u, v, d)))

    for row, _group, _n in reference.SCHWARZ_ROWS:
        for k in range(SCHWARZ_MAPS):
            hyper("schwarz", row, k)
    nu0 = rng.randrange(len(DIHEDRAL_NU))
    for k in range(DIHEDRAL_COUNT):
        hyper("dihedral", (_H, _H, DIHEDRAL_NU[(nu0 + k) % len(DIHEDRAL_NU)]),
              k)
    for exps in SHIFTED:
        hyper("shifted", exps, 0)
    for exps in NOT_LIOUVILLIAN:
        for k in range(NOT_LIOUVILLIAN_MAPS):
            hyper("sl2", exps, k)
    for exps in REDUCIBLE:
        for k in range(REDUCIBLE_MAPS):
            hyper("kimura_a", exps, k)
    for k, triple in enumerate(RICCATI_TRIPLES):
        rot = rng.randrange(3)
        residues = triple[rot:] + triple[:rot]
        for degree in range(3):
            tail = tuple(Q(rng.choice((-2, -1, 1, 2)), rng.choice((1, 3)))
                         for _ in range(degree))
            recipes.append((f"riccati{k}.{degree}", None, (residues, tail)))
    recipes.append(("dyson_tangential", None, None))
    return recipes


def expectation(recipe) -> dict:
    label, exps, _params = recipe
    if exps is not None:
        return reference.kimura_expectation(*exps)
    # riccati forms by construction; the Dyson tangential mode because the
    # orbit's own velocity psidot solves it (xi = psidot, so zeta =
    # psidot * wdot^(1/2) has a rational logarithmic derivative)
    return reference.RICCATI_EXPECTATION


def expectations(seed: int) -> list:
    """Expected verdict, case, n and group of each control, in the order of
    build_controls(seed)."""
    return [expectation(recipe) for recipe in kovacic_corpus(seed)]


def build_controls(seed: int):
    from dyson3 import field, model, nve, poly

    controls = []
    for recipe in kovacic_corpus(seed):
        label, exps, params = recipe
        if exps is not None:
            r, points = hypergeometric_normal_form(field, poly, exps, *params)
        elif params is not None:
            r, points = riccati_form(field, poly, *params)
        else:
            vs4 = nve.derive_variational(model.taylor_truncate(4))
            r = nve.algebrize(nve.scalar_nve(vs4, "symmetric")).r
            points = dyson_poles(field)
        controls.append(Control(label, r, points))
    return controls


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

ENERGY_STRATA = 8          # period() energies, one per log-stratum
RETURN_MAP_COUNT = 3
OFFSET_RANGE = (1e-6, 3.0)


@dataclass(frozen=True)
class OracleInputs:
    offsets: tuple          # period() energies above E_min
    return_map_offsets: tuple
    radii: tuple            # eta_monodromy loop radii
    drift_offset: float
    q0: float               # amplitude of the NVE base orbit


def oracle_inputs(seed: int) -> OracleInputs:
    rng = random.Random(seed)
    lo, hi = (math.log(x) for x in OFFSET_RANGE)
    width = (hi - lo) / ENERGY_STRATA
    # one energy per stratum, so the quadrature cost is alike across seeds
    offsets = tuple(math.exp(lo + width * (k + rng.random()))
                    for k in range(ENERGY_STRATA))
    upper = [o for o in offsets if o >= 1e-3]
    return OracleInputs(
        offsets=offsets,
        return_map_offsets=tuple(sorted(rng.sample(upper, RETURN_MAP_COUNT))),
        radii=(rng.uniform(5e-4, 1e-3), rng.uniform(1.5e-3, 3e-3)),
        drift_offset=rng.uniform(0.25, 0.35),
        q0=rng.uniform(0.08, 0.12))
