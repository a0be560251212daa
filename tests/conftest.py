import numpy as np
import pytest

from hardykit import coverings, kernels
from hardykit.verifier import VerifierSettings

# settings used by most campaign tests: fast but honest
FAST = VerifierSettings(tgrid_ppd=12, qmc_y=4)


@pytest.fixture(scope="session")
def qb_small():
    return coverings.covering_bessel((-1, 1))


@pytest.fixture(scope="session")
def qb_wide():
    return coverings.covering_bessel((-3, 3))


@pytest.fixture(scope="session")
def ql_small():
    return coverings.covering_laguerre((-2, 1))


@pytest.fixture(scope="session")
def bessel1():
    return kernels.BesselKernel(1.0)


@pytest.fixture(scope="session")
def heat1():
    return kernels.EuclideanHeat(1)


@pytest.fixture(scope="session")
def laguerre_half():
    return kernels.LaguerreKernel(0.5)


@pytest.fixture(scope="session")
def schrodinger_v1():
    return kernels.schrodinger_build(lambda x: np.ones_like(x), 20.0, 1200)


@pytest.fixture(scope="session")
def schrodinger_v0():
    return kernels.schrodinger_build(lambda x: np.zeros_like(x), 20.0, 1200)


@pytest.fixture(scope="session")
def schrodinger_x2():
    return kernels.schrodinger_build(lambda x: x * x, 20.0, 2000)


def row_sum(rows):
    """The rows of ``rows`` added one after another, first to last (numpy's
    ``sum(axis=0)`` adds a single column pairwise instead)."""
    total = np.zeros(rows.shape[1:])
    for row in rows:
        total = total + row
    return total


def dense_psi(p, x, strict=True):
    """Reference partition of unity at the points x (m, d): every bump at
    every point, each point's bumps added in ascending cuboid order.
    psi is 0 where no bump reaches a point, which only ``strict=False``
    allows."""
    c = p.covering
    z = np.array([q.center for q in c.cuboids])[:, None, :]
    r = np.array([q.half_widths for q in c.cuboids])[:, None, :]
    ramp = (c.kappa * r - np.abs(x[None] - z)) / ((c.kappa - 1.0) * r)
    b = np.prod(np.clip(ramp, 0.0, 1.0), axis=2)
    s = row_sum(b)
    hole = s <= 0.0     # False at a NaN point, whose psi is NaN
    assert not (strict and hole.any())
    return np.where(hole, 0.0, b / np.where(hole, 1.0, s))
