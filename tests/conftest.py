"""Shared fixtures."""
import pytest

from dyson3 import nve
from dyson3.kovacic import kovacic
from dyson3.model import TruncatedHamiltonian, taylor_truncate
from dyson3.poly import Poly


@pytest.fixture(scope="session")
def dyson_decisions():
    """Kovacic decisions of the three algebrized Dyson quartic NVEs: the
    printed (paper) equation and the derived transverse and tangential
    modes, made once per session."""
    vs = nve.derive_variational(taylor_truncate(4))
    return {
        "paper": kovacic(nve.algebrize(nve.paper_nve_l()).r),
        "transverse": kovacic(
            nve.algebrize(nve.scalar_nve(vs, "antisymmetric")).r),
        "tangential": kovacic(nve.algebrize(nve.scalar_nve(vs, "symmetric")).r),
    }


@pytest.fixture(scope="session")
def sutherland():
    """The quartic truncation of the pair potential 1/sin^2 at pi/3, with
    the constant dropped: 1/sin^2 = -d/dx cot = (-log sin)'', so its
    series is the second derivative of Dyson's f to order 6, f_k =
    -(k + 1) c_(k+1) in the cot series c_n of `model._neg_log_sin`."""
    f = taylor_truncate(6).f.derivative().derivative()
    return TruncatedHamiltonian(f=Poly([0] + f.coeffs[1:]), order=4)
