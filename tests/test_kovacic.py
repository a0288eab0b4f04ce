"""Liouvillian-solvability decision procedure and the Lame sieve."""
import itertools
import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy import GF, QQ
from sympy.polys.matrices import DomainMatrix
from sympy.solvers.ode.riccati import solve_riccati

import dyson3.kovacic as kovacic_module
from dyson3 import nve
from dyson3.field import FE, SQRT3, SQRT26, SQRT78, I, FieldElement, field_sqrt
from dyson3.kovacic import (_Lift, _Sweep,
                            _case2_inf_set, _case2_pole_set, _degrees,
                            _first_dependent_row, _get_modp,
                            _kernel_poly, _recursion, _recursion_modp,
                            _riccati_holds, kovacic, lame_sieve, pole_profile)
from dyson3.model import taylor_truncate
from dyson3.poly import Poly, RationalFunction
from test_field import wide_elements

W = Poly.x()
ONE = Poly([1])


def rf(num, den=ONE):
    return RationalFunction(num, den)


def riccati(omega):
    """r = omega' + omega^2, whose xi'' = r xi has xi = exp(int omega)."""
    n, d = omega.num, omega.den
    return rf(n.derivative() * d - n * d.derivative(), d * d) + omega * omega


def test_corpus_zero_and_constant():
    res = kovacic(rf(Poly([0])))
    assert res.verdict == "liouvillian" and res.case == 1
    assert res.certificate == "exact"
    res = kovacic(rf(ONE))
    assert res.verdict == "liouvillian" and res.case == 1
    assert res.certificate == "exact"


def test_corpus_airy():
    res = kovacic(rf(W))
    assert res.verdict == "not_liouvillian"
    assert res.group == "SL(2,C)"


def test_corpus_regular_singular():
    """r = (3/16)/w^2 is Liouvillian; its exponents (1 +- sqrt7/2)/2 leave
    Q(sqrt3, sqrt26, i) but not the field, so the certificate is exact."""
    res = kovacic(rf(Poly([FE(Fraction(3, 16))]), W * W))
    assert res.verdict == "liouvillian" and res.case == 1
    assert res.certificate == "exact"


def test_exact_certificates_resubstitute():
    """omega' + omega^2 = r is checked exactly inside the solver for exact
    runs; a failed re-substitution would surface as a missing certificate."""
    for r in (rf(Poly([0])), rf(ONE)):
        res = kovacic(r)
        assert res.certificate == "exact"
        assert res.omega is not None


def test_exact_certificate_for_poles_outside_tower():
    """xi = (w^2 - 5)^(1/4) solves xi'' = r xi for
    r = -(w^2 + 10) / (4 (w^2 - 5)^2); the poles +-sqrt5 leave
    Q(sqrt3, sqrt26, i) but are exact field elements."""
    den = (W * W - Poly([FE(5)])) ** 2
    num = (W * W + Poly([FE(10)])).scale(FE(Fraction(-1, 4)))
    res = kovacic(rf(num, den))
    assert res.verdict == "liouvillian"
    assert res.case == 1
    assert res.certificate == "exact"
    s5 = FieldElement({5: 1})
    assert {p.point for p in pole_profile(rf(num, den)).poles} == {s5, -s5}


def test_unsplit_pole_polynomial_is_indeterminate():
    """w^3 - 2 has no root in any field of square roots: the decision ends
    as indeterminate and names the factor."""
    res = kovacic(rf(ONE, (W ** 3 - 2) ** 2))
    assert res.verdict == "indeterminate"
    assert res.certificate is None
    assert repr(W ** 3 - 2) in res.log[-1]
    assert res.log[-1].endswith("verdict indeterminate")


_SQRT2 = field_sqrt(FE(2))
_SQRT5 = FieldElement({5: 1})


# xi = w^(1/4) e^(+-2 sqrt(w)) solves xi'' = r xi for r = (16w - 3)/(16w^2)
_O_INF_1 = rf(Poly([FE(Fraction(-3, 16)), 1]), W * W)
# Bessel with nu = 3/2, o(inf) = 0: case 2's first candidate has d = 2
_BESSEL_3_2 = rf(Poly([2, 0, -1]), W * W)


@pytest.mark.parametrize("r, verdict, case, last_log", [
    # xi = 1/(w - sqrt3): the pole factor w - sqrt3 is solved directly
    pytest.param(rf(Poly([2]), (W - Poly([SQRT3])) ** 2), "liouvillian", 1,
                 "case 1: success at d=0", id="double_pole_at_sqrt3"),
    # xi = w e^(w^2/2): deg P = 1, truncated square root at infinity
    pytest.param(rf(W * W + Poly([3])), "liouvillian", 1,
                 "case 1: success at d=1", id="w2_plus_3"),
    # xi = w e^w: a simple pole and o(inf) = 0
    pytest.param(rf(W + Poly([2]), W), "liouvillian", 1,
                 "case 1: success at d=0", id="simple_pole"),
    # xi = e^(-1/w): a pole of order 4, truncated square root at the pole
    pytest.param(rf(Poly([1, -2]), W ** 4), "liouvillian", 1,
                 "case 1: success at d=0", id="pole_of_order_4"),
    # omega = 1/w^2 + 1/(w - 1) + w + 2: poles of order 4 and 1, o(inf) = -2
    pytest.param(riccati(rf(ONE, W * W) + rf(ONE, W - ONE) + rf(W + 2)),
                 "liouvillian", 1, "case 1: success at d=0",
                 id="poles_of_order_4_and_1"),
    # omega = sqrt3/(w - 2)^2 + 1/(2w): orders 4 and 2, and an irrational
    # truncated square root at w = 2
    pytest.param(riccati(rf(Poly([SQRT3]), (W - 2) ** 2)
                         + rf(Poly([FE(Fraction(1, 2))]), W)),
                 "liouvillian", 1, "case 1: success at d=0",
                 id="poles_of_order_4_and_2"),
    # Bessel with nu = 3/2: deg P = 1
    pytest.param(_BESSEL_3_2, "liouvillian", 1, "case 1: success at d=1",
                 id="bessel_nu_3_2"),
    # Bessel with nu = 1/3: case 2 with o(inf) = 0 has no candidate
    pytest.param(rf(Poly([FE(Fraction(-5, 36)), 0, -1]), W * W),
                 "not_liouvillian", None, "group SL(2,C)", id="bessel_nu_1_3"),
    # Bessel with nu = 1 in the variable 2/sqrt(w): an odd pole, E_c = {3}
    # and E_inf = {0, 2, 4}
    pytest.param(rf(ONE, W ** 3), "not_liouvillian", None, "group SL(2,C)",
                 id="odd_pole"),
    # case 2 with o(inf) = 1, so deg S^2 r = 2 deg S - 1
    pytest.param(_O_INF_1, "liouvillian", 2,
                 "case 2: success with e_inf=1, e=[1], d=0", id="o_inf_1"),
    # the same equation under w -> 1/w, r = (16 - 3w)/(16w^3): a pole of
    # order 3, so S = w^2 has a repeated factor
    pytest.param(rf(Poly([1, FE(Fraction(-3, 16))]), W ** 3), "liouvillian",
                 2, "case 2: success with e_inf=3, e=[3], d=0",
                 id="pole_of_order_3"),
    # sqrt(1 + 4 sqrt2) is not in the field
    pytest.param(rf(Poly([_SQRT2]), W * W), "indeterminate", None,
                 "sqrt(1 + 4b)", id="exponent_outside_the_field"),
    # the leading coefficient 1 + sqrt2 has no square root in the field
    pytest.param(rf(Poly([1 + _SQRT2]), W ** 4), "indeterminate", None,
                 "has no square root in the field", id="leading_coefficient"),
    # the pole polynomial splits by the radicals of its coefficients, and
    # the exponent at sqrt2 is not in the field
    pytest.param(rf(ONE, ((W - Poly([_SQRT2])) * (W - Poly([SQRT3]))
                          * (W - Poly([_SQRT5]))) ** 2), "indeterminate", None,
                 "at the pole FE(1*s2) is not in the field",
                 id="radical_poles_of_a_cubic"),
])
def test_decision_branch_controls(r, verdict, case, last_log):
    """Verdicts known by construction (xi given) or from Bessel's equation
    (Liouvillian iff nu - 1/2 is an integer), reaching the kernel pivots
    of deg P >= 1, truncated square roots of order >= 1, the case-1 and
    case-2 exponent sets of pole orders other than 2, case-1 successes
    with poles of different orders, and case-2 successes with o(inf) < 2
    and with a pole of order > 2.  The sweep's S^2 r, formed without a
    division, is S^2 r at poles of every order from 1 to 4."""
    res = kovacic(r)
    assert res.verdict == verdict
    assert res.case == case
    assert last_log in res.log[-1]
    if verdict == "liouvillian":
        assert res.certificate == "exact"
    sweep = _Sweep(pole_profile(r), r)
    assert sweep.S2r * r.den == sweep.S * sweep.S * r.num


def schwarz_form(lam, mu, nu, p1=FE(0), p2=FE(1)):
    """Hypergeometric normal form with exponent differences lam, mu, nu at
    p1, p2 and infinity; p1 = 0, p2 = 1 is the standard form
    r = [(lam^2-1)/x^2 + (mu^2-1)/(x-1)^2 + (1-lam^2-mu^2+nu^2)/(x(x-1))]/4,
    and other p1, p2 pull it back by an affine map."""
    a, b = W - Poly([p1]), W - Poly([p2])
    num = ((b * b).scale(FE(Fraction(lam * lam - 1, 4)))
           + (a * a).scale(FE(Fraction(mu * mu - 1, 4)))
           + (a * b).scale(FE(Fraction(1 - lam * lam - mu * mu + nu * nu, 4))))
    return rf(num, a * a * b * b)


def _surd_pair(u, v, root=SQRT3):
    """Poles u -+ v root."""
    return FE(u) - root * FE(v), FE(u) + root * FE(v)


_H, _T = Fraction(1, 2), Fraction(1, 3)
# 1000081 is the first prime the GF(p) prescreen tries; a pole coordinate
# with that denominator has no image mod p, so the sweep must move on to
# another prime instead of rejecting the true candidate.
_P = Fraction(1, 1000081)
# generic poles in Q(sqrt3, sqrt26, i): the pole polynomial has an
# irrational discriminant
_GENERIC_A = (FE(_H) + SQRT3 - I * SQRT26 * FE(_T), FE(-1) + 2 * I * SQRT78)
_GENERIC_B = (SQRT3 + I, FE(2) - SQRT26 * FE(_H))


@pytest.mark.parametrize("exps, poles, case, n", [
    pytest.param((_H, _H, _T), (), 2, None, id="dihedral"),
    pytest.param((_H, _T, _T), (), 3, 4, id="tetrahedral"),
    pytest.param((_H, _T, Fraction(1, 4)), (), 3, 6, id="octahedral"),
    pytest.param((_H, _T, Fraction(1, 5)), (), 3, 12, id="icosahedral"),
    pytest.param((_T, _T, Fraction(2, 5)), (), 3, 12, id="icosahedral2"),
    pytest.param((_H, _T, Fraction(1, 7)), (), None, None, id="sl2"),
    pytest.param((_H, _T, _T), _surd_pair(_P, 1), 3, 4,
                 id="tetrahedral_u_mod_p"),
    pytest.param((_H, _T, Fraction(1, 4)), _surd_pair(_H, _P), 3, 6,
                 id="octahedral_v_mod_p"),
    pytest.param((_H, _T, Fraction(1, 5)), _surd_pair(_P, 1), 3, 12,
                 id="icosahedral_u_mod_p"),
    pytest.param((_H, _T, Fraction(1, 5)), _GENERIC_A, 3, 12,
                 id="icosahedral_generic_poles"),
    pytest.param((_H, _T, Fraction(1, 4)), _GENERIC_B, 3, 6,
                 id="octahedral_generic_poles"),
    pytest.param((_H, _H, _T), _GENERIC_B, 2, None,
                 id="dihedral_generic_poles"),
    pytest.param((_H, _T, _T), _surd_pair(_H, _T, _SQRT5), 3, 4,
                 id="tetrahedral_sqrt5"),
    pytest.param((_H, _T, Fraction(1, 5)), _surd_pair(_H, _T, _SQRT5), 3, 12,
                 id="icosahedral_sqrt5"),
    pytest.param((_H, _T, Fraction(1, 7)), _surd_pair(_H, _T, _SQRT5), None,
                 None, id="sl2_sqrt5"),
])
def test_schwarz_list_controls(exps, poles, case, n):
    """Kimura's theorem and Schwarz's list fix the verdict of each
    hypergeometric form: dihedral (case 2), tetrahedral, octahedral and
    icosahedral (case 3 with n = 4, 6, 12), or not Liouvillian."""
    res = kovacic(schwarz_form(*exps, *poles))
    assert res.case == case and res.n == n
    if case is None:
        assert res.verdict == "not_liouvillian"
    else:
        assert res.verdict == "liouvillian"
        assert res.certificate == "exact"


def test_case3_success_logs_its_candidate_counts():
    """Tetrahedral forms succeed at their one invariant candidate of degree
    6: (1/2, 1/3, 1/3) with the sextic w^2 (w - 1)^2 itself (d = 0), and
    the form moved by integers with the smallest exponent -1 at w = 1, so
    that P takes up the rest (d = 3)."""
    res = kovacic(schwarz_form(_H, _T, _T))
    assert res.log[-1] == ("case 3 (n=4): success with e_inf=4, e=[2, 2], "
                           "d=0 after 1 candidates (0 rejected by the GF(p) "
                           "prescreen)")
    res = kovacic(schwarz_form(_H, Fraction(4, 3), _T))
    assert res.log[-1] == ("case 3 (n=4): success with e_inf=4, e=[2, -1], "
                           "d=3 after 1 candidates (0 rejected by the GF(p) "
                           "prescreen)")
    assert (res.n, res.d) == (4, 3)


def test_spurious_dependency_mod_p_is_not_liouvillian(monkeypatch):
    """(3/4, 1/3, 1/6) has group SL(2,C) and one invariant candidate at
    each of the degrees 8 and 12.  A first prime that reports row 0 as
    dependent for those candidates hands the lift the kernel P = 1; its
    exact certificate fails, the next prime shows full rank, and the
    verdict stays not Liouvillian."""
    primes = []          # the prime of each case-3 GF(p) recursion
    certified = []       # (n, P, P_{-1} = 0) of each case-3 exact run
    recursion_modp, first_dependent_row = (kovacic_module._recursion_modp,
                                           kovacic_module._first_dependent_row)
    recursion = kovacic_module._recursion

    def logged_modp(S, Sth, S2r, n, d, p):
        primes.append((n, p))
        return recursion_modp(S, Sth, S2r, n, d, p)

    def spurious(M, p):
        n = primes[-1][0]
        if n > 2 and [q for m, q in primes if m == n] == [p]:
            deps = np.zeros(M.shape[:2], dtype=np.int64)
            deps[:, 0] = 1
            return np.zeros(len(M), dtype=np.int64), deps
        return first_dependent_row(M, p)

    def logged(S, Sth, S2r, n, P):
        out = recursion(S, Sth, S2r, n, P)
        if n > 2:
            certified.append((n, P, out.is_zero()))
        return out

    monkeypatch.setattr(kovacic_module, "_recursion_modp", logged_modp)
    monkeypatch.setattr(kovacic_module, "_first_dependent_row", spurious)
    monkeypatch.setattr(kovacic_module, "_recursion", logged)
    res = kovacic(schwarz_form(Fraction(3, 4), _T, Fraction(1, 6)))
    assert res.verdict == "not_liouvillian" and res.group == "SL(2,C)"
    assert certified == [(8, ONE, False), (12, ONE, False)]
    case3 = [(n, p) for n, p in primes if n > 2]
    assert [n for n, _ in case3] == [8, 8, 12, 12]
    assert case3[0][1] < case3[1][1] and case3[2][1] < case3[3][1]
    assert [line for line in res.log if line.startswith("case 3")] == [
        "case 3 (n=4): 0 candidates with integer d >= 0 (0 rejected by the "
        "GF(p) prescreen), none admissible"] + [
        f"case 3 (n={n}): 1 candidates with integer d >= 0 (1 rejected by "
        "the GF(p) prescreen), none admissible" for n in (6, 12)]


# Schwarz forms by group, and the invariant degrees at which each has an
# invariant (Klein: the binary tetrahedral group has invariants of degree
# 6, 8 and 12, the octahedral its first at 8, the icosahedral at 12)
_KLEIN = (
    ((_H, _T, _T), {6, 8, 12}),
    ((2 * _T, _T, _T), {6, 8, 12}),
    ((_H, Fraction(4, 3), _T), {6, 8, 12}),
    ((_H, _T, Fraction(1, 4)), {8, 12}),
    ((2 * _T, Fraction(1, 4), Fraction(1, 4)), {8, 12}),
    ((_H, _T, Fraction(1, 5)), {12}),
    ((_T, _T, Fraction(2, 5)), {12}),
    ((_H, Fraction(2, 5), Fraction(1, 5)), {12}),
    ((_H, _T, Fraction(1, 7)), set()),
    ((Fraction(3, 4), _T, Fraction(1, 6)), set()),
)


@pytest.mark.parametrize("m", [6, 8, 12])
def test_invariant_candidates_follow_kleins_degrees(m, monkeypatch):
    """Each degree run alone: the degree-m candidate of a Schwarz form has a
    kernel exactly when its group has an invariant of degree m, so the
    bound on d holds at the degrees the dispatch never reaches (degree 12
    of a tetrahedral form), and no degree finds one for SL(2,C)."""
    row = [t for t in kovacic_module._CASE3_DEGREES if t[1] == m]
    monkeypatch.setattr(kovacic_module, "_CASE3_DEGREES", row)
    for exps, degrees in _KLEIN:
        res = kovacic(schwarz_form(*exps))
        assert (res.case == 3) == (m in degrees), (exps, res.log)
        if res.case == 3:
            assert res.certificate == "exact"


_RADICANDS = (1, 3, 26, 78, -1, 5, -5, 7)


@st.composite
def _wide_elements(draw):
    return FieldElement({r: draw(st.fractions(min_value=-30, max_value=30,
                                              max_denominator=9))
                         for r in _RADICANDS})


@settings(max_examples=60, deadline=None)
@given(_wide_elements(), _wide_elements(), wide_elements())
def test_modp_image_is_a_ring_homomorphism(a, b, c):
    """The GF(p) prescreen is sound only if its map respects + and *.  c,
    drawn from test_field, brings i sqrt7 and denominators up to 12, so
    den, the lcm that `fe` inverts once per element, varies by pair."""
    pairs = ((a, b), (a, c), (b, c))
    modp = next(_get_modp([a, b, c] + [x + y for x, y in pairs]
                          + [x * y for x, y in pairs]))
    p = modp.p
    for x, y in pairs:
        assert modp.fe(x + y) == (modp.fe(x) + modp.fe(y)) % p
        assert modp.fe(x * y) == modp.fe(x) * modp.fe(y) % p


def test_modp_prime_for_the_dyson_generators():
    assert next(_get_modp([SQRT3, SQRT26, I])).p == 1000081


_PAPER_R = nve.algebrize(nve.paper_nve_l()).r


# the three algebrized Dyson NVEs and controls with poles at rational,
# surd and generic points of the tower, of orders 1 to 4
_THETA_PROFILES = [
    _PAPER_R,
    nve.algebrize(nve.scalar_nve(nve.derive_variational(
        taylor_truncate(4)), "antisymmetric")).r,
    nve.algebrize(nve.scalar_nve(nve.derive_variational(
        taylor_truncate(4)), "symmetric")).r,
    schwarz_form(_H, _T, Fraction(1, 5), *_GENERIC_A),
    schwarz_form(_H, _T, _T, *_surd_pair(_H, _T, _SQRT5)),
    riccati(rf(ONE, W * W) + rf(ONE, W - ONE) + rf(W + 2)),
    rf(Poly([1, FE(Fraction(-3, 16))]), W ** 3),
]


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_sweep_theta_equals_the_field_element_sum(data):
    """S*theta from the packed integer numerators equals the sum of the
    S/(w - c) scaled by FieldElement products, for random rational weights
    (zero among them) on the Dyson and control profiles."""
    r = data.draw(st.sampled_from(_THETA_PROFILES))
    sweep = _Sweep(pole_profile(r), r)
    weights = data.draw(st.lists(
        st.fractions(min_value=-20, max_value=20, max_denominator=12),
        min_size=len(sweep.quotients), max_size=len(sweep.quotients)))
    want = sum((q.scale(FE(e)) for e, q in zip(weights, sweep.quotients)),
               Poly([]))
    got = sweep.theta(iter(weights))
    assert got == want
    assert all(c.num == want.coeffs[k].num and c.den == want.coeffs[k].den
               for k, c in enumerate(got.coeffs))


def _candidates(r, n):
    """(S, S*theta, S^2 r, d) of r's candidates at recursion order n: case
    2's for n = 2, and otherwise the invariant candidate of degree n that
    the decision of r sends to _kernel_poly, if it reaches it."""
    if n == 2:
        profile = pole_profile(r)
        sweep = _Sweep(profile, r)
        return [(sweep.S, sweep.theta(Fraction(e, 2) for e in combo),
                 sweep.S2r, d)
                for _, combo, d in _degrees(_case2_inf_set(profile),
                                            map(_case2_pole_set,
                                                profile.poles),
                                            Fraction(1, 2))]
    calls = []
    kernel_poly = kovacic_module._kernel_poly

    def record(S, Sth, S2r, m, d):
        if m == n:
            calls.append((S, Sth, S2r, d))
        return kernel_poly(S, Sth, S2r, m, d)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kovacic_module, "_kernel_poly", record)
        kovacic(r)
    return calls


@pytest.mark.parametrize("r, n", [
    pytest.param(schwarz_form(_H, _T, _T), 6, id="tetrahedral"),
    # tetrahedral moved by integers: the invariant candidate has d = 3
    pytest.param(schwarz_form(_H, Fraction(4, 3), _T), 6,
                 id="tetrahedral_shifted"),
    pytest.param(schwarz_form(_H, _T, Fraction(1, 5)), 12, id="icosahedral"),
    pytest.param(schwarz_form(_H, _T, _T, *_surd_pair(_H, _T)), 6,
                 id="tetrahedral_surd_poles"),
    # the ids name Kovacic's n, as the decision's log lines do
    pytest.param(_PAPER_R, 6, id="paper_n4"),
    pytest.param(_PAPER_R, 8, id="paper_n6"),
    pytest.param(_PAPER_R, 12, id="paper_n12"),
    pytest.param(_O_INF_1, 2, id="o_inf_1_n2"),
    pytest.param(_BESSEL_3_2, 2, id="bessel_nu_3_2_n2"),
    pytest.param(_PAPER_R, 2, id="paper_n2"),
])
def test_modp_recursion_is_the_image_of_the_exact_one(r, n):
    """The GF(p) matrices of each candidate the decision runs at recursion
    order n, built as _kernel_poly builds them: one per automorphism of
    the field of the inputs, at the first prime.  Matrix c is the image of
    the exact recursion conjugated by automorphism c, zero-padded to the
    row width.  A width too small for P_{-1} would drop coefficients, and
    a GF(p) rejection would no longer prove an exact one.  n = 6, 8, 12
    are the invariant candidates of case 3, n = 2 case 2's candidates.
    When o(inf) < 2, deg S^2 r > 2 deg S - 2: for Bessel's nu = 3/2 form
    (o(inf) = 0) the rows outgrow d + 1 + (n + 1)(deg S - 1), the width
    that suffices when o(inf) >= 2.

    The recursion is linear in P, so one exact run at P = sum (j+1) w^j
    checks the combination sum (j+1) row_j of every matrix; the first
    candidate is also checked row by row, and its GF(p) answer and
    _kernel_poly's lifted P against the rank of its exact matrix, taken by
    sympy over the field its entries generate (the Schwarz forms and the
    o(inf) = 1 control succeed there, the paper NVE rejects it).  Each
    matrix's first dependent row is checked against sympy's rank of its
    row prefixes over GF(p), and its dependency against the matrix."""
    calls = _candidates(r, n)
    assert calls
    for S, Sth, S2r, d in reversed(calls):
        coeffs = S.coeffs + Sth.coeffs + S2r.coeffs
        lift = _Lift(coeffs)
        modp = next(_get_modp(coeffs))
        p = modp.p
        stack = _recursion_modp(*(np.array([modp.poly(q, flips)
                                            for flips in lift.conjugations])
                                  for q in (S, Sth, S2r)), n, d, p)
        assert stack.shape[:2] == (len(lift.conjugations), d + 1)
        width = stack.shape[2]

        def padded(poly, flips=frozenset()):
            image = list(modp.poly(poly, flips))
            assert len(image) <= width
            return image + [0] * (width - len(image))

        first, deps = _first_dependent_row(stack, p)
        mix = np.arange(1, d + 2)
        exact_mix = _recursion(S, Sth, S2r, n, Poly([FE(int(a)) for a in mix]))
        gf = GF(p)

        def rank(rows):
            return DomainMatrix([[gf(int(x)) for x in row] for row in rows],
                                rows.shape, gf).rank()

        for M, flips, k, v in zip(stack, lift.conjugations, first, deps):
            assert list(mix @ M % p) == padded(exact_mix, flips)
            assert k == 0 or rank(M[:k]) == k
            assert k == d + 1 or rank(M[:k + 1]) == k
            assert not (v @ M % p).any()
    # the loop ends at the first candidate, whose identity matrix is stack[0]
    exact = [_recursion(S, Sth, S2r, n, W ** j) for j in range(d + 1)]
    assert [list(row) for row in stack[0]] == [padded(e) for e in exact]
    # columns j of the exact matrix: the coefficients of P_{-1} for w^j
    columns = [[e.coeff(i) for i in range(width)] for e in exact]
    full = _exact_rank(columns) == d + 1
    assert (first[0] > d) == full
    lifted = _kernel_poly(S, Sth, S2r, n, d)
    assert (lifted is None) == full
    if lifted is not None:
        k = lifted.degree
        assert lifted.lc() == 1
        assert _exact_rank(columns[:k]) == _exact_rank(columns[:k + 1]) == k
        assert _recursion(S, Sth, S2r, n, lifted).is_zero()


def _exact_rank(rows):
    """The rank of a matrix of FieldElements over the field they generate,
    from sympy's DomainMatrix over QQ or QQ.algebraic_field: a reference
    that shares no code with the GF(p) lift."""
    entries = [x for row in rows for x in row]
    if not entries:
        return 0
    gens = sorted(frozenset().union(*(x.generators() for x in entries)))
    K = QQ.algebraic_field(*map(sympy.sqrt, gens)) if gens else QQ
    roots = {}

    def convert(x):
        out = K.zero
        for r, n in x.num.items():
            if r not in roots:
                roots[r] = K.from_sympy(sympy.sqrt(r))
            out += K.from_sympy(sympy.Rational(n, x.den)) * roots[r]
        return out

    return DomainMatrix([[convert(x) for x in row] for row in rows],
                        (len(rows), len(rows[0])), K).rank()


@st.composite
def _stacks(draw):
    """(stack, p): random matrices mod p with a dependent row planted in
    some of them, and a zero column or a leading run of zeros in some rows,
    so that the matrices of one stack pick different pivots."""
    p = draw(st.sampled_from([3, 1000081]))
    count = draw(st.integers(1, 5))
    rows = draw(st.integers(1, 5))
    cols = draw(st.integers(1, 7))
    entry = st.integers(0, p - 1)
    stack = []
    for _ in range(count):
        M = [[draw(entry) for _ in range(cols)] for _ in range(rows)]
        for row in M:
            lead = draw(st.integers(0, cols))
            row[:lead] = [0] * lead
        if rows > 1 and draw(st.booleans()):
            i, j = draw(st.permutations(range(rows)))[:2]
            a, b = draw(entry), draw(entry)
            k = draw(st.integers(0, rows - 1).filter(lambda k: k != i))
            M[i] = [(a * x + b * y) % p for x, y in zip(M[j], M[k])]
        if draw(st.booleans()):
            col = draw(st.integers(0, cols - 1))
            for row in M:
                row[col] = 0
        stack.append(M)
    return np.array(stack, dtype=np.int64), p


@settings(max_examples=200, deadline=None)
@given(_stacks())
def test_stacked_modp_rank_matches_sympy(data):
    """_first_dependent_row answers each matrix of a stack as independent
    rank computations over GF(p) would: the smallest k with
    rank(M[:k + 1]) <= k, or the row count when there is none.  Its
    dependency v has v_k = 1 and v_j = 0 for j > k, and sum v_j M_j = 0
    mod p; it is zero for a matrix of full rank."""
    stack, p = data
    K = GF(p)

    def first_dependent(M):
        return next((k for k in range(len(M))
                     if DomainMatrix([[K(int(x)) for x in row]
                                      for row in M[:k + 1]],
                                     (k + 1, M.shape[1]), K).rank() <= k),
                    len(M))

    first, deps = _first_dependent_row(stack, p)
    assert list(first) == list(map(first_dependent, stack))
    for M, k, v in zip(stack, first, deps):
        assert not (v @ M % p).any()
        if k == len(M):
            assert not v.any()
        else:
            assert v[k] == 1 and not v[k + 1:].any()


_TOWER = (1, 3, 26, 78, -1, -3, -26, -78)


@st.composite
def _lift_runs(draw):
    """(v, unlucky, at): 1 to 3 elements of Q(sqrt3, sqrt26, i) whose
    coordinates have numerators and denominators below 2^24 (three primes
    reconstruct them), and an unlucky prime to insert at position `at`:
    first dependent rows below k = len(v) at the automorphisms it names,
    with arbitrary dependencies there."""
    size = draw(st.integers(1, 3))
    height = st.integers(-2 ** 24, 2 ** 24)
    den = st.integers(1, 2 ** 24)
    v = [FieldElement({r: Fraction(draw(height), draw(den))
                       for r in _TOWER if draw(st.booleans())})
         for _ in range(size)]
    autos = draw(st.sets(st.integers(0, 7), min_size=1))
    unlucky = {a: (draw(st.integers(0, size - 1)),
                   [draw(st.integers(0, 1000)) for _ in range(size)])
               for a in autos}
    return v, unlucky, draw(st.integers(0, 3))


@settings(max_examples=40, deadline=None)
@given(_lift_runs())
def test_lift_round_trip(run):
    """_Lift recovers elements over Q(sqrt3, sqrt26, i) exactly from their
    images under the field's 8 automorphisms at successive primes, as the
    dependency monic at k = len(v).  Nothing it lifts is ever wrong: not
    with too few primes to reconstruct, and not with an unlucky prime (one
    whose first dependent row lies below k at some automorphism) among the
    good ones, which it must drop so that the good primes still lift v.
    The one vector it returns unchecked is v = (1) at a prime where row 0
    is dependent at every automorphism, since it has nothing to lift; when
    that prime comes first and is unlucky, the caller's exact run refutes
    it (test_lift_certifies_exactly)."""
    v, unlucky, at = run
    k = len(v)
    lift = _Lift([SQRT3, SQRT26, I])
    assert len(lift.conjugations) == 8
    P = Poly(v + [FE(1)])
    lifted = []
    for i, modp in enumerate(itertools.islice(_get_modp(v), 9)):
        first = np.full(8, k)
        deps = np.array([modp.poly(P, flips) for flips in lift.conjugations])
        if i == at:
            for a, (low, junk) in unlucky.items():
                first[a] = low
                deps[a] = junk + [0]
                deps[a, low:] = [1] + [0] * (k - low)
        got = lift.add(modp, first, deps)
        if got is not None and not (i == at == 0 and (first == 0).all()):
            assert got == v
            lifted.append(i)
    assert lifted, "eight good primes did not lift v"


@settings(max_examples=40, deadline=None)
@given(st.lists(st.builds(FieldElement, st.fixed_dictionaries(
           {}, optional={r: st.fractions(-30, 30, max_denominator=9)
                         for r in _TOWER})), max_size=4),
       st.sets(st.sampled_from((-1, 2, 3, 13))))
def test_modp_flips_map_the_conjugate(coeffs, flips):
    """modp.poly(q, flips) is the image of q conjugated by FieldElement.conj
    over each flipped generator: the lift reads each automorphism's matrix
    off S, S*theta and S^2 r this way, without conjugating them."""
    q = Poly(coeffs)
    modp = next(_get_modp(q.coeffs))
    conj = q.coeffs
    for g in flips:
        conj = [c.conj(g) for c in conj]
    assert (list(modp.poly(q, frozenset(flips)))
            == list(modp.poly(Poly(conj))))


def test_lift_certifies_exactly():
    """P'' = N P (n = 1, S = 1, theta = 0) has no nonzero polynomial
    solution.  With N the product of the lift's first two primes its matrix
    mod each is that of P'' = 0, whose kernel vector is P = 1: only the
    exact run refutes it, and the third prime rejects the candidate.  With
    N = 0, P = 1 is certified.  The lift has no cap on its primes: with N
    the product of the first 40, the 41st rejects the candidate."""
    primes = [m.p for m in itertools.islice(_get_modp([]), 40)]
    S, Sth = Poly([FE(1)]), Poly([])
    assert _kernel_poly(S, Sth, Poly([]), 1, 2).coeffs == [FE(1)]
    assert _kernel_poly(S, Sth, Poly([FE(primes[0] * primes[1])]), 1,
                        2) is None
    # every one of the 40 primes sees the kernel that the exact run refutes
    assert _kernel_poly(S, Sth, Poly([FE(np.prod(primes, dtype=object))]),
                        1, 0) is None


@st.composite
def _riccati_forms(draw):
    """omega with rational residues at up to three integer points and at
    the pair u -+ v sqrt3, and a polynomial part a w + b.  A residue 1
    puts a zero of P, not a double pole of r, at its point, so d reaches 1
    to 3.  The pair's residues are not 1: both its points stay poles of r,
    and the pole polynomial has rational factors, which exact_roots
    splits."""
    others = [Fraction(x) for x in
              (2, -1, "1/2", "-1/2", "3/2", "1/3", "-2/3", "5/4")]
    terms = [(FE(c), draw(st.sampled_from([Fraction(1)] * 4 + others)))
             for c in draw(st.sets(st.integers(-2, 2), max_size=3))]
    u, v = draw(st.integers(-2, 2)), draw(st.integers(1, 2))
    terms += [(FE(u) - SQRT3 * FE(v), draw(st.sampled_from(others))),
              (FE(u) + SQRT3 * FE(v), draw(st.sampled_from(others)))]
    tail = Poly([FE(draw(st.sampled_from((0, 1, -2, Fraction(1, 2))))),
                 FE(draw(st.sampled_from((0, 0, 1, -1))))])
    omega = rf(tail)
    for c, a in terms:
        omega = omega + rf(Poly([FE(a)]), W - Poly([c]))
    return riccati(omega)


@settings(max_examples=15, deadline=None)
@given(_riccati_forms())
def test_riccati_forms_succeed_in_case_1(r):
    """r = omega' + omega^2 has the solution exp(int omega) with omega
    rational, so Kovacic's case 1, which is complete, must find one."""
    res = kovacic(r)
    assert res.verdict == "liouvillian" and res.case == 1, res.log
    assert res.certificate == "exact"


def _reference_recursion(S, Sth, S2r, n, P):
    """P_{-1} of the recursion in Poly and FieldElement arithmetic, every
    coefficient canonical after every operation: the reference that the
    packed integer kernel of _recursion must equal."""
    cur = -P
    prev = Poly([])
    dS = S.derivative()
    for i in range(n, -1, -1):
        nxt = (-(S * cur.derivative())
               + (dS.scale(n - i) - Sth) * cur
               - (S2r * prev).scale((n - i) * (i + 1)))
        prev, cur = cur, nxt
    return cur


# Q(sqrt2, sqrt3, i): every product of two radicands, i * i among them
_Q236I = (1, 2, 3, 6, -1, -2, -3, -6)


def _polys(max_size, min_size=0):
    coeff = st.builds(FieldElement, st.fixed_dictionaries(
        {}, optional={r: st.fractions(-9, 9, max_denominator=12)
                      for r in _Q236I}))
    return st.lists(coeff, min_size=min_size, max_size=max_size).map(Poly)


_W2 = Poly([FE(Fraction(-1, 3)), _SQRT2 * FE(Fraction(3, 4)), I + SQRT3])


@settings(max_examples=40, deadline=None)
@given(_polys(4, min_size=1), _polys(4), _polys(6), _polys(5),
       st.sampled_from((1, 2, 4, 6, 12)))
@example(Poly([FE(Fraction(2, 7))]), _W2, _W2 * _W2, Poly([]), 12)
@example(Poly([I * FE(Fraction(1, 5))]), Poly([]), _W2, _W2, 4)
@example(_W2, _W2.scale(FE(Fraction(5, 6))), _W2 * W, _W2, 12)
def test_packed_recursion_matches_the_reference(S, Sth, S2r, P, n):
    """The packed kernel of _recursion equals the recursion in Poly
    arithmetic over Q(sqrt2, sqrt3, i), for random S, S*theta, S^2 r and
    P with rational denominators.  The examples pin P = 0, a constant S
    and a quadratic W2 whose coefficients have different denominators."""
    assert _recursion(S, Sth, S2r, n, P) == _reference_recursion(
        S, Sth, S2r, n, P)


def _certified(r, monkeypatch):
    """The decision of r, and (S, S*theta, S^2 r, n, P) of the kernel that
    its success certified, recorded at _kernel_poly."""
    seen = []

    def record(S, Sth, S2r, n, d):
        P = _kernel_poly(S, Sth, S2r, n, d)
        if P is not None:
            seen.append((S, Sth, S2r, n, P))
        return P

    monkeypatch.setattr(kovacic_module, "_kernel_poly", record)
    return kovacic(r), seen[-1]


# xi = H_2(w - sqrt3) e^(-(w - sqrt3)^2/2), H_2 Hermite's: deg P = 2
_CASE1_WITH_P = rf((W - Poly([SQRT3])) ** 2 - Poly([5]))


@pytest.mark.parametrize("r, case, degree", [
    pytest.param(_CASE1_WITH_P, 1, 2, id="case1"),
    pytest.param(schwarz_form(_H, Fraction(4, 3), _T, *_surd_pair(_H, _T)),
                 3, 3, id="case3_tetrahedral_shifted"),
])
def test_certificates_reject_wrong_kernels(r, case, degree, monkeypatch):
    """A certified P with 1 added to any one of its coefficients fails the
    packed recursion, and for case 1 also the Riccati identity, which
    holds for the certified P itself."""
    res, (S, Sth, S2r, n, P) = _certified(r, monkeypatch)
    assert res.verdict == "liouvillian" and res.case == case
    assert P.degree == degree
    assert _recursion(S, Sth, S2r, n, P).is_zero()
    if case == 1:
        assert _riccati_holds(r, S, Sth, P)
    for k in range(P.degree + 1):
        wrong = P + W ** k
        assert not _recursion(S, Sth, S2r, n, wrong).is_zero()
        if case == 1:
            assert not _riccati_holds(r, S, Sth, wrong)


def _from_sympy(expr):
    """A FieldElement from a sympy number a + b sqrt(s) + ..."""
    terms = {}
    for key, q in sympy.expand(expr).as_coefficients_dict().items():
        radicand = next(s for s in (1, -1, 7, -7, 5, -5, 2, -2, 3, -3)
                        if key == sympy.sqrt(s))
        terms[radicand] = Fraction(int(q.p), int(q.q))
    return FieldElement(terms)


def _from_sympy_poly(expr, x):
    return Poly([_from_sympy(c) for c in
                 reversed(sympy.Poly(expr, x).all_coeffs())])


def _to_sympy(p, x):
    return sum((sympy.Rational(n, c.den) * sympy.sqrt(r) * x ** k
                for k, c in enumerate(p.coeffs) for r, n in c.num.items()),
               sympy.S(0))


@pytest.mark.parametrize("r, found", [
    pytest.param(rf(Poly([FE(Fraction(3, 16))]), W * W), 2,
                 id="3_over_16w2"),
    pytest.param(rf(W + Poly([2]), W), 1, id="simple_pole"),
    pytest.param(_BESSEL_3_2, 2, id="bessel_nu_3_2"),
    pytest.param(rf(Poly([1, -2]), W ** 4), 1, id="pole_of_order_4"),
    pytest.param(rf((W * W + Poly([10])).scale(FE(Fraction(-1, 4))),
                    (W * W - Poly([5])) ** 2), 1, id="poles_at_sqrt5"),
])
def test_sympy_riccati_solutions_satisfy_the_identity(r, found):
    """sympy's solve_riccati, which shares no code with this package, finds
    `found` rational solutions omega of omega' + omega^2 = r, such as
    (2 +- sqrt7)/(4w) for r = 3/(16w^2).  Written as omega = A/B, each
    one satisfies the polynomial identity that case 1 certifies, with
    (S, S*theta, P) = (B, A, 1), and kovacic(r) succeeds in case 1.  The
    test is one-sided: an empty list from sympy proves nothing (it returns
    none for r = w^2 + 3, whose omega = w + 1/w)."""
    x = sympy.Symbol("x")
    omegas = solve_riccati(sympy.Function("f")(x), x,
                           _to_sympy(r.num, x) / _to_sympy(r.den, x),
                           sympy.S(0), sympy.S(-1), gensol=False)
    assert len(omegas) == found
    for eq in omegas:
        A, B = sympy.fraction(sympy.together(eq.rhs))
        assert _riccati_holds(r, _from_sympy_poly(B, x),
                              _from_sympy_poly(A, x), ONE)
    res = kovacic(r)
    assert res.verdict == "liouvillian" and res.case == 1


def _affine(p, lam, a):
    """p(lam w + a)."""
    return Poly([c * FE(lam ** k)
                 for k, c in enumerate(p.shift_var(FE(a)).coeffs)])


@pytest.mark.parametrize("r, verdict, case, group", [
    pytest.param(schwarz_form(_H, _T, _T), "liouvillian", 3,
                 "finite primitive (tetrahedral)", id="tetrahedral"),
    pytest.param(schwarz_form(_H, _H, _T), "liouvillian", 2,
                 "imprimitive (dihedral)", id="dihedral"),
    pytest.param(_BESSEL_3_2, "liouvillian", 1, "reducible (triangular)",
                 id="bessel_nu_3_2"),
    pytest.param(rf(Poly([FE(Fraction(-5, 36)), 0, -1]), W * W),
                 "not_liouvillian", None, "SL(2,C)", id="bessel_nu_1_3"),
])
@settings(max_examples=6, deadline=None)
@given(lam=st.fractions(-3, 3, max_denominator=4).filter(bool),
       a=st.fractions(-3, 3, max_denominator=5))
@example(lam=Fraction(1), a=Fraction(0))
def test_affine_maps_keep_the_decision(r, verdict, case, group, lam, a):
    """xi(lam w + a) solves xi'' = lam^2 r(lam w + a) xi, so the verdict,
    case and group of a Kovacic decision do not change under the map.  A
    rational lam and a move the poles to rational points with new
    denominators, which the packed recursion carries."""
    mapped = rf(_affine(r.num, lam, a).scale(FE(lam * lam)),
                _affine(r.den, lam, a))
    res = kovacic(mapped)
    assert (res.verdict, res.case, res.group) == (verdict, case, group)


def test_modp_image_refuses_denominators_divisible_by_p():
    """1/p has no image in GF(p): mapping it to 0 would break the
    homomorphism that makes a GF(p) rejection rigorous."""
    modp = next(_get_modp([SQRT3, SQRT26, I]))
    with pytest.raises(ArithmeticError):
        modp.fe(FE(Fraction(1, modp.p)))
    with pytest.raises(ArithmeticError):
        modp.fe(SQRT3 * FE(Fraction(5, 3 * modp.p)) + 1)


def test_moebius_shift_invariance(dyson_decisions):
    """Kovacic verdicts are invariant under w -> w + const; run the paper
    variant shifted by 1 and compare."""
    r = nve.algebrize(nve.paper_nve_l()).r
    shifted = RationalFunction(r.num.shift_var(FE(1)), r.den.shift_var(FE(1)))
    res2 = kovacic(shifted)
    assert dyson_decisions["paper"].verdict == res2.verdict == "not_liouvillian"


def test_pole_profile_of_quartic_nve():
    r = nve.algebrize(nve.paper_nve_l()).r
    prof = pole_profile(r)
    assert prof.o_inf == 2
    orders = sorted(p.order for p in prof.poles)
    assert orders == [2, 2, 2]
    zero_pole = [p for p in prof.poles if p.point == FE(0)][0]
    assert zero_pole.b == FE(6)
    others = [p for p in prof.poles if p.point != FE(0)]
    assert all(p.b == FE(Fraction(-3, 16)) for p in others)


def test_dyson_decisions_match_the_pinned_ones(dyson_decisions):
    """The three Dyson decisions, logs included, equal the ones pinned in
    dyson_decisions.json: a change to any candidate's outcome or to a log
    line that perfbench/spans.py parses shows here."""
    pinned = json.loads(Path(__file__).with_name("dyson_decisions.json")
                        .read_text(encoding="utf-8"))
    assert {k: res.to_json() for k, res in dyson_decisions.items()} == pinned


def test_dyson_quartic_paper_variant_not_liouvillian(dyson_decisions):
    res = dyson_decisions["paper"]
    assert res.verdict == "not_liouvillian"
    assert res.group == "SL(2,C)"


def test_dyson_quartic_derived_transverse_not_liouvillian(dyson_decisions):
    res = dyson_decisions["transverse"]
    assert res.verdict == "not_liouvillian"


def test_dyson_quartic_derived_tangential_liouvillian(dyson_decisions):
    """The symmetric derived coefficient is g'(q): the tangential variation
    psidot solves it, so Kovacic must find a Liouvillian solution."""
    res = dyson_decisions["tangential"]
    assert res.verdict == "liouvillian"
    assert res.case == 1 and res.certificate == "exact"


def test_lame_sieve_paper_coupling():
    sv = lame_sieve(4)
    assert not sv["lame_hermite"]
    assert not sv["brioschi_halphen_crawford"]
    assert not sv["baldassarri_union"]
    assert not sv["admissible"]
    assert sv["index_n"] == []      # 1 + 4A = 17 is not a rational square
    assert lame_sieve(FE(4)) == sv


def test_lame_sieve_derived_coupling():
    sv = lame_sieve(-12)
    assert not sv["admissible"]     # negative discriminant, no real index


def test_lame_sieve_positive_families():
    assert lame_sieve(6)["lame_hermite"]            # n = 2
    assert lame_sieve(Fraction(3, 4))["brioschi_halphen_crawford"]  # n+1/2 = 1
    sv = lame_sieve(Fraction(-5, 36))               # n + 1/2 = 1/3
    assert sv["baldassarri_union"] and not sv["lame_hermite"]
    assert not sv["baldassarri_intersection"]


def test_lame_sieve_intersection_reading_is_empty():
    for a in (4, 6, Fraction(3, 4), Fraction(-5, 36), -12):
        assert lame_sieve(a)["baldassarri_intersection"] is False


def test_lame_sieve_rejects_irrational_coupling():
    with pytest.raises(ValueError):
        lame_sieve(SQRT3)
