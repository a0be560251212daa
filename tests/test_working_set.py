"""Working-set regression tests, most on the inputs of the ``atoms`` benchmark.

Each test measures the ``tracemalloc`` peak of one stage: the most memory
its Python and numpy allocations held at once, what it returns included.
The bounds are in MB of 10^6 bytes.  With ``quadrature.WORKING_SET`` =
2^16 elements (0.52 MB of float64 per temporary) the stages measure about
4.2 (validation), 9.2 (localize), 0.2 (reconstruction check) and 4.5 (one
maximal norm, both rules in one sup over t) MB.  Each bound sits well below
what the same stage needed when its temporaries grew with the covering or
the batch: 14.9, 28.3, 22.5 and 10.7 MB.  The last test bounds one sup over
t against the (times x points) grid it must hold: 1.8 times that grid,
where a weighted copy of the grid per delta took 3.2 times.

The Schrodinger build of the ``spectral`` benchmark (V = 1, 2,000 points)
measures 32.5 MB: the one n x n copy of the eigenvectors that the kernel
keeps.  Its bound sits below the 64.2 MB the build held when LAPACK's
divide-and-conquer driver needed a second n x n array and the kernel kept
a zero-padded copy of the eigenvectors.

One 2^15-point call of the ``spectral`` benchmark's nu = 0.7 radial
profile measures 2.7 MB: a few point-sized arrays, as its Clenshaw
recurrence takes the coefficients one degree at a time.  Its bound sits
below the 10.2 MB the call held when it gathered a (17 x points)
coefficient array and copied it.
"""

import tracemalloc

import numpy as np
import pytest

from hardykit import atoms as at
from hardykit import coverings as cov
from hardykit import verifier
from hardykit.kernels import (BesselKernel, EuclideanHeat, radial_profile,
                              schrodinger_build)
from hardykit.quadrature import TGrid, sup_over_t

MB = 1e6


def _peak_mb(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / MB
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def decompose_inputs():
    """The ``atoms`` decompose covering and a smooth grid function on it."""
    c = cov.covering_laguerre((-2, 4))
    x = 0.25 + 15.75 * (np.arange(2048) + 0.5) / 2048
    u = (x - 3.0) / 0.5
    inside = np.abs(u) < 1.0
    values = np.zeros(2048)
    values[inside] = np.exp(-1.0 / (1.0 - u[inside] ** 2))
    return cov.partition_of_unity(c), at.GridFunction(0.25, 16.0, values)


def test_validate_covering_working_set():
    # 2,314 cuboids: 288k axis-0 candidates for 20k touching pairs
    box = cov.box_product(cov.covering_bessel((-2, 2)),
                          cov.covering_laguerre((-2, 2)))
    assert len(box.cuboids) == 2314
    assert _peak_mb(cov.validate_covering, box) <= 8.0


def test_localize_working_set(decompose_inputs):
    # 684 pieces x 256 cells; the pieces returned hold 2.8 MB of that
    partition, f = decompose_inputs
    assert _peak_mb(at.localize, f, partition, 256) <= 14.0


def test_reconstruction_check_working_set(decompose_inputs):
    # 2,047 probes on 684 cuboids, with no (cuboids x probes) matrix
    partition, f = decompose_inputs
    lo, hi = partition.covering.window_box
    probes = np.linspace(lo[0], hi[0], 2049)[1:-1]
    assert _peak_mb(at.localize_reconstruction_error, f, partition,
                    probes) <= 2.0


def test_maximal_norm_working_set():
    # a classical Bessel(1) atom of 96 cells on [4, 8], as ``maximal`` runs
    c = cov.covering_bessel((2, 2))
    atom = at.random_classical_atom(c.cuboids[0], c.kappa,
                                    seed=1003 * 7919 + 1, cells=96)
    assert _peak_mb(verifier.maximal_norm, BesselKernel(1.0), atom,
                    verifier.VerifierSettings()) <= 8.0


def test_sup_over_t_working_set():
    # 20,000 heat points on 145 times: the (T, N) grid values are 23.2 MB,
    # and the weighted grid of each delta is formed in blocks of points
    x = np.linspace(-50.0, 50.0, 20000)
    heat = EuclideanHeat(1)
    grid = TGrid(1e-8, 1e4, 12)
    assert len(grid.values) == 145
    peak = _peak_mb(sup_over_t, lambda t: heat.eval(t, x, 0.0), grid,
                    (0.0, 0.1, 0.18), 5)
    assert peak <= 2.2 * 145 * 20000 * 8 / MB


def test_schrodinger_build_working_set():
    # the eigenvectors alone are 2,000^2 doubles, 32 MB; a small build
    # first loads scipy.linalg, whose import is not the build's memory
    schrodinger_build(np.ones_like, 20.0, 4)
    peak = _peak_mb(schrodinger_build, np.ones_like, 20.0, 2000)
    assert peak <= 40.0


def test_radial_profile_call_working_set():
    # 2^15 points over the head and the table, as one A2' t-grid chunk;
    # the build (cached) is not the call's memory
    prof = radial_profile(0.7, 1)
    rho = np.geomspace(prof.rho_min / 10.0, prof.rho_max, 2 ** 15)
    assert _peak_mb(prof, rho) <= 4.0
