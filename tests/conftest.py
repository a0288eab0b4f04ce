"""Shared fixtures."""
import pytest

from dyson3 import nve
from dyson3.kovacic import kovacic
from dyson3.model import taylor_truncate


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
