import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from hardykit import coverings as cov
from hardykit.domain import half_line, real_line
from hardykit.errors import CoveringHoleError, SplitBudgetError
from hardykit.quadrature import halton

from conftest import dense_psi, row_sum


def boxes_1d(c):
    lo, hi = c.boxes()
    return [(float(a), float(b)) for a, b in zip(lo[:, 0], hi[:, 0])]


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------

def test_bessel_window_intervals():
    c = cov.covering_bessel((-2, 2))
    assert boxes_1d(c) == [(0.25, 0.5), (0.5, 1.0), (1.0, 2.0),
                           (2.0, 4.0), (4.0, 8.0)]
    # neighbour diameter ratio between [1,2] and [2,4] is exactly 1/2
    d12 = c.cuboids[2].diameter
    d24 = c.cuboids[3].diameter
    assert d12 / d24 == 0.5


def test_bessel_validates():
    report = cov.validate_covering(cov.covering_bessel((-5, 5)))
    assert report.passed
    assert report.measured_c1 == 1.0
    assert report.measured_c2 == 2.0
    assert report.max_overlap_count <= 2


def test_laguerre_blocks():
    c = cov.covering_laguerre((-2, 1))
    bs = boxes_1d(c)
    # case-1 dyadic intervals on the small side
    assert (0.25, 0.5) in bs and (0.5, 1.0) in bs
    # n = 0 block: two intervals of length 1/2
    assert (1.0, 1.5) in bs and (1.5, 2.0) in bs
    # n = 1 block: 8 intervals of length 1/4 tiling [2, 4]
    block = sorted(b for b in bs if 2.0 <= b[0] and b[1] <= 4.0)
    assert len(block) == 8
    assert all(abs((b[1] - b[0]) - 0.25) < 1e-15 for b in block)
    assert block[0][0] == 2.0 and block[-1][1] == 4.0


def test_laguerre_validates():
    report = cov.validate_covering(cov.covering_laguerre((-2, 1)))
    assert report.passed
    assert report.measured_c2 <= 4.0


def test_uniform_grid():
    c = cov.covering_uniform(real_line(2), math.sqrt(2.0), ([0.0, 0.0], [3.0, 3.0]))
    assert len(c.cuboids) == 9
    report = cov.validate_covering(c)
    assert report.passed
    assert report.measured_c2 == 1.0
    # overlap of triple enlargements stays small at kappa = 1.05
    assert report.max_overlap_count <= 4


def test_uniform_1d_overlap():
    c = cov.covering_uniform(real_line(1), 1.0, ([0.0], [8.0]))
    report = cov.validate_covering(c)
    assert report.passed
    assert report.max_overlap_count <= 4


def test_uniform_1d_overlap_kappa_1_1():
    c = cov.covering_uniform(real_line(1), 1.0, ([0.0], [8.0]), kappa=1.1)
    report = cov.validate_covering(c)
    assert report.max_overlap_count <= 4


# ---------------------------------------------------------------------------
# Enlargement
# ---------------------------------------------------------------------------

def test_enlarge_levels():
    c = cov.covering_bessel((0, 0), kappa=1.1)
    q = cov.Cuboid((1.5,), (0.5,), half_line())
    star = q.enlarged(c.kappa, 1)
    assert_allclose(star.half_widths[0], 0.55)
    assert_allclose(q.enlarged(c.kappa, 3).half_widths[0], 0.5 * 1.1 ** 3)


def test_enlarge_clips_to_domain():
    c = cov.covering_bessel((0, 0), kappa=1.2)
    q = cov.Cuboid((0.1,), (0.1,), half_line())
    lo, hi = q.enlarged(c.kappa, 1).box()
    assert lo[0] == 0.0
    assert_allclose(hi[0], 0.22)


def test_enlargement_monotone():
    c = cov.covering_bessel((0, 2))
    q = c.cuboids[1]
    prev_lo, prev_hi = q.box()
    for level in (1, 2, 3):
        lo, hi = q.enlarged(c.kappa, level).box()
        assert np.all(lo <= prev_lo) and np.all(hi >= prev_hi)
        prev_lo, prev_hi = lo, hi


# ---------------------------------------------------------------------------
# Box product
# ---------------------------------------------------------------------------

def test_box_product_split_example():
    # pair ([1,2], [2,4]): the longer factor splits into two pieces
    a = cov.covering_bessel((0, 0))
    b = cov.covering_bessel((1, 1))
    prod = cov.box_product(a, b)
    cells = sorted((tuple(map(float, lo)), tuple(map(float, hi)))
                   for lo, hi in zip(*prod.boxes()))
    assert cells == [((1.0, 2.0), (2.0, 3.0)), ((1.0, 3.0), (2.0, 4.0))]


def test_box_product_equal_pair_no_split():
    a = cov.covering_bessel((0, 0))
    prod = cov.box_product(a, a)
    assert len(prod.cuboids) == 1


def test_box_product_measure_zero_overlaps():
    prod = cov.box_product(cov.covering_bessel((-2, 2)),
                           cov.covering_bessel((-2, 2)))
    report = cov.validate_covering(prod)
    assert report.passed
    assert not report.overlap_violations


def test_box_product_split_budget():
    with pytest.raises(SplitBudgetError):
        cov.box_product(cov.covering_bessel((0, 0)),
                        cov.covering_bessel((10, 10)), max_ratio=64)


def test_box_product_constants_reported():
    prod = cov.box_product(cov.covering_bessel((-2, 2)),
                           cov.covering_laguerre((-1, 1)))
    report = cov.validate_covering(prod)
    assert report.passed
    assert report.measured_c2 <= 4.0 * max(2.0, 2.0)


def test_line_strips_validates():
    c = cov.covering_line_strips(cov.covering_bessel((-2, 2)), extent=8.0)
    report = cov.validate_covering(c)
    assert report.passed


def test_validate_detects_hole():
    c = cov.covering_bessel((-2, 2))
    broken = cov.AdmissibleCovering(
        cuboids=c.cuboids[:2] + c.cuboids[3:], kappa=c.kappa, domain=c.domain,
        window_box=c.window_box, family="bessel-corrupted", window=c.window)
    report = cov.validate_covering(broken)
    assert not report.covers_window
    assert report.uncovered_points
    assert not report.passed


def test_validate_detects_overlap():
    dom = half_line()
    overlapping = cov.AdmissibleCovering(
        cuboids=(cov.Cuboid((1.0,), (0.5,), dom),
                 cov.Cuboid((1.4,), (0.5,), dom)),
        kappa=1.05, domain=dom, window_box=((0.5,), (1.9,)),
        family="overlap", window=())
    report = cov.validate_covering(overlapping)
    assert report.overlap_violations


def test_neighbours_equivalence_exact():
    for family in (cov.covering_bessel((-4, 4)),
                   cov.covering_laguerre((-2, 1)),
                   cov.covering_uniform(real_line(1), 1.0, ([0.0], [6.0]))):
        assert cov.validate_covering(family).neighbours_equivalent


# ---------------------------------------------------------------------------
# Partition of unity
# ---------------------------------------------------------------------------

def test_partition_single_cuboid_identity():
    c = cov.covering_bessel((0, 0))
    p = cov.partition_of_unity(c)
    xs = np.linspace(1.0, 2.0, 101)
    assert_allclose(p.evaluate(0, xs), 1.0, rtol=0, atol=0)


def test_partition_sums_to_one():
    p = cov.partition_of_unity(cov.covering_bessel((-5, 5)))
    xs = np.linspace(2.0 ** -5, 2.0 ** 6, 100001)
    total = p.evaluate_all(xs).sum(axis=0)
    assert np.max(np.abs(total - 1.0)) <= 1e-12


def test_partition_shared_endpoint():
    p = cov.partition_of_unity(cov.covering_bessel((-3, 3)))
    psis = p.evaluate_all(np.array([2.0]))
    assert_allclose(psis.sum(), 1.0, rtol=0, atol=1e-15)
    # only the two incident cuboids contribute
    assert np.count_nonzero(psis > 1e-14) == 2


def test_partition_subordinate_to_stars():
    c = cov.covering_bessel((-3, 3))
    p = cov.partition_of_unity(c)
    for i, q in enumerate(c.cuboids):
        star = q.enlarged(c.kappa, 1)
        lo, hi = star.box()
        outside = np.array([lo[0] - 1e-9, hi[0] + 1e-9])
        inside_window = (outside >= c.window_box[0][0]) \
            & (outside <= c.window_box[1][0])
        if np.any(inside_window):
            vals = p.evaluate_all(outside[inside_window], strict=False)[i]
            assert np.all(vals == 0.0)


def test_partition_derivative_scale_invariance():
    # interior cuboids of dyadic windows have bit-identical psi' * d_Q
    p = cov.partition_of_unity(cov.covering_bessel((-5, 5)))
    vals = [p.derivative_bound(i) * q.diameter
            for i, q in enumerate(p.covering.cuboids)]
    interior = vals[1:-1]
    assert max(interior) - min(interior) <= 1e-9 * max(interior)


def test_partition_derivative_halving_scale():
    # halving every cuboid doubles |psi'|, keeping |psi'| * d_Q fixed
    big = cov.partition_of_unity(
        cov.covering_uniform(real_line(1), 1.0, ([0.0], [8.0])))
    small = cov.partition_of_unity(
        cov.covering_uniform(real_line(1), 0.5, ([0.0], [4.0])))
    db = big.derivative_bound(4)
    ds = small.derivative_bound(4)
    assert_allclose(ds / db, 2.0, rtol=1e-6)
    assert_allclose(db * big.covering.cuboids[4].diameter,
                    ds * small.covering.cuboids[4].diameter, rtol=1e-6)


def test_partition_hole_error():
    p = cov.partition_of_unity(cov.covering_bessel((-2, 2)))
    with pytest.raises(CoveringHoleError):
        p.evaluate_all(np.array([100.0]))


# ---------------------------------------------------------------------------
# SVG
# ---------------------------------------------------------------------------

def test_svg_rect_per_cuboid():
    prod = cov.box_product(cov.covering_bessel((-2, 2)),
                           cov.covering_bessel((-2, 2)))
    svg = cov.covering_svg(prod)
    assert svg.count("<rect") == len(prod.cuboids)
    svg_log = cov.covering_svg(prod, log_axes=True)
    assert svg_log.count("<rect") == len(prod.cuboids)
    with pytest.raises(ValueError):
        cov.covering_svg(cov.covering_bessel((0, 1)))


def test_svg_geometry_deterministic():
    prod = cov.box_product(cov.covering_bessel((-1, 1)),
                           cov.covering_laguerre((-1, 0)))
    assert cov.covering_svg(prod) == cov.covering_svg(prod)


# ---------------------------------------------------------------------------
# Sweep-based validation and partition against dense references
# ---------------------------------------------------------------------------

def _dense_validate(c, samples):
    """Reference validate_covering: every pair of cuboids and every
    (sample, cuboid) pair, as dense matrices."""
    n = len(c.cuboids)
    lo, hi = c.boxes()
    lo3, hi3 = c.enlarged_boxes(3)
    r = np.array([q.half_widths for q in c.cuboids])
    diam = np.array([q.diameter for q in c.cuboids])
    same = np.eye(n, dtype=bool)
    touch = np.all((lo[:, None] <= hi[None]) & (lo[None] <= hi[:, None]), axis=-1)
    touch3 = np.all((lo3[:, None] <= hi3[None]) & (lo3[None] <= hi3[:, None]),
                    axis=-1)
    width = np.minimum(hi[:, None], hi[None]) - np.maximum(lo[:, None], lo[None])
    overlap = np.prod(np.maximum(width, 0.0), axis=-1)
    scale = np.minimum.outer(diam, diam)
    upper = np.triu(~same)
    bad = (overlap > 1e-12 * scale ** lo.shape[1]) & upper
    ratio = np.maximum(diam[:, None] / diam[None], diam[None] / diam[:, None])
    touching = touch & ~same
    mismatch = (touch3 != touch) & upper

    win_lo = np.asarray(c.window_box[0], dtype=float)
    win_hi = np.asarray(c.window_box[1], dtype=float)
    margin = 1e-9 * (win_hi - win_lo)
    pts = win_lo + margin + halton(samples, len(win_lo)) \
        * (win_hi - win_lo - 2 * margin)
    inside = np.all((pts[None] >= lo[:, None]) & (pts[None] <= hi[:, None]), axis=2)
    inside3 = np.all((pts[None] >= lo3[:, None]) & (pts[None] <= hi3[:, None]),
                     axis=2)
    covered = inside.any(axis=0)
    return cov.CoveringReport(
        family=c.family, cuboid_count=n,
        measured_c1=float(np.max(r.max(axis=1) / r.min(axis=1))),
        measured_c2=max(1.0, float(ratio[touching].max())) if touching.any() else 1.0,
        max_overlap_count=int(inside3.sum(axis=0).max()),
        covers_window=bool(covered.all()),
        uncovered_points=[tuple(map(float, p)) for p in pts[~covered][:16]],
        overlap_violations=[(int(i), int(j), float(overlap[i, j]))
                            for i, j in zip(*np.nonzero(bad))][:16],
        neighbours_equivalent=not mismatch.any(),
        neighbour_counterexamples=[(int(i), int(j))
                                   for i, j in zip(*np.nonzero(mismatch))][:16],
        kappa=c.kappa, samples=samples)


@st.composite
def _tiling(draw, half=False):
    """1-D covering tiled by intervals whose edges are multiples of 1/8,
    so that neighbours share float edges and enlargements tie."""
    steps = draw(st.lists(st.integers(1, 12), min_size=1, max_size=10))
    edges = (draw(st.integers(0, 8)) + np.concatenate([[0], np.cumsum(steps)])) / 8.0
    dom = half_line() if half else real_line()
    cuboids = tuple(cov.Cuboid((float(a + b) / 2,), (float(b - a) / 2,), dom)
                    for a, b in zip(edges[:-1], edges[1:]))
    kappa = draw(st.sampled_from([1.05, 1.2, 1.5, 2.0]))
    return cov.AdmissibleCovering(
        cuboids=cuboids, kappa=kappa, domain=dom,
        window_box=((float(edges[0]),), (float(edges[-1]),)),
        family="tiling", window=())


@st.composite
def _covering(draw):
    """A 1-D tiling or a box product of two, possibly perturbed by dropped,
    moved, grown, duplicated or added cuboids (gaps, overlaps and
    neighbour mismatches)."""
    c = draw(_tiling(half=draw(st.booleans())))
    if draw(st.booleans()):
        c = cov.box_product(c, draw(_tiling(half=draw(st.booleans()))))
    cuboids = list(c.cuboids)
    d = c.dimension
    for op in draw(st.lists(st.sampled_from(["drop", "move", "grow", "dup", "add"]),
                            max_size=4)):
        k = draw(st.integers(0, len(cuboids) - 1))
        q = cuboids[k]
        if op == "drop" and len(cuboids) > 1:
            del cuboids[k]
        elif op == "move":
            ax = draw(st.integers(0, d - 1))
            shift = draw(st.sampled_from([-0.125, 0.125, 1e-3, 0.3]))
            center = list(q.center)
            center[ax] += shift
            cuboids[k] = cov.Cuboid(tuple(center), q.half_widths, q.domain)
        elif op == "grow":
            cuboids[k] = q.enlarged(draw(st.sampled_from([1.25, 2.0])))
        elif op == "dup":
            cuboids.insert(draw(st.integers(0, len(cuboids))), q)
        elif op == "add":
            cuboids.append(cov.Cuboid(q.center, tuple(0.1 * h for h in q.half_widths),
                                      q.domain))
    return cov.AdmissibleCovering(
        cuboids=tuple(cuboids), kappa=c.kappa, domain=c.domain,
        window_box=c.window_box, family=c.family, window=c.window)


@settings(max_examples=150, deadline=None)
@given(c=_covering(), samples=st.sampled_from([1, 16, 64, 256]))
def test_validate_matches_dense_reference(c, samples):
    assert cov.validate_covering(c, samples) == _dense_validate(c, samples)


def test_box_pairs_matches_all_pairs():
    rng = np.random.default_rng(5)
    lo_a = np.round(rng.uniform(0, 4, (40, 2)), 1)
    hi_a = lo_a + np.round(rng.uniform(-0.2, 1, (40, 2)), 1)  # some inverted
    lo_b = np.round(rng.uniform(0, 4, (30, 2)), 1)
    hi_b = lo_b + np.round(rng.uniform(0, 1, (30, 2)), 1)
    touch = np.all((lo_a[:, None] <= hi_b[None]) & (lo_b[None] <= hi_a[:, None]),
                   axis=-1)
    i, j = cov._box_pairs(lo_a, hi_a, lo_b, hi_b)
    expect_i, expect_j = np.nonzero(touch)
    assert np.array_equal(i, expect_i) and np.array_equal(j, expect_j)


@st.composite
def _boxes(draw, d, count):
    """count boxes in d dimensions with corners on a grid of quarters, so
    that endpoints are shared; a drawn share of them are points, and some
    are inverted (hi < lo)."""
    n = draw(count)
    corner = st.integers(0, 12).map(lambda v: v / 4.0)
    lo = np.array(draw(st.lists(corner, min_size=n * d, max_size=n * d)),
                  dtype=float).reshape(n, d)
    widths = st.sampled_from([-0.25, 0.0, 0.0, 0.25, 0.5, 1.5])
    width = np.array(draw(st.lists(widths, min_size=n * d, max_size=n * d)),
                     dtype=float).reshape(n, d)
    return lo, lo + width


@settings(max_examples=200, deadline=None)
@given(d=st.sampled_from([1, 2]), data=st.data(),
       budget=st.sampled_from([1, 2, 3, 7, 2 ** 16]))
def test_box_pairs_matches_brute_force(d, data, budget):
    lo_a, hi_a = data.draw(_boxes(d, st.integers(0, 12)))
    lo_b, hi_b = data.draw(_boxes(d, st.integers(0, 12)))
    if data.draw(st.booleans()):   # B as a point set
        hi_b = lo_b
    touch = np.all((lo_a[:, None] <= hi_b[None]) & (lo_b[None] <= hi_a[:, None]),
                   axis=-1)
    expect_i, expect_j = np.nonzero(touch)
    # a budget of a few elements puts a block seam inside every box's run
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cov, "WORKING_SET", budget)
        i, j = cov._box_pairs(lo_a, hi_a, lo_b, hi_b)
    assert np.array_equal(i, expect_i) and np.array_equal(j, expect_j)


@settings(max_examples=60, deadline=None)
@given(c=_tiling(half=False) | _tiling(half=True).map(
           lambda a: cov.box_product(a, cov.covering_bessel((0, 1)))),
       data=st.data())
def test_partition_evaluate_matches_dense(c, data):
    p = cov.partition_of_unity(c)
    n, d = len(c.cuboids), c.dimension
    i = data.draw(st.integers(0, n - 1))
    # points around Q_i*, inside and outside it, clipped to the window
    q = c.cuboids[i]
    win_lo = np.asarray(c.window_box[0])
    win_hi = np.asarray(c.window_box[1])
    m = data.draw(st.sampled_from([1, 2, 5, 40]))
    u = np.asarray(data.draw(st.lists(st.floats(-2.0, 2.0), min_size=m * d,
                                      max_size=m * d)))
    x = np.clip(np.asarray(q.center) + u.reshape(m, d) * q.half_widths, win_lo, win_hi)
    psi = p.evaluate_all(x)
    assert psi.tobytes() == dense_psi(p, x).tobytes()
    assert p.evaluate(i, x).tobytes() == psi[i].tobytes()
    assert np.max(np.abs(psi.sum(axis=0) - 1.0)) <= 1e-12
    # beyond the window, where no bump may reach
    far = x + 3.0 * (win_hi - win_lo)
    assert p.evaluate(i, far, strict=False).tobytes() \
        == p.evaluate_all(far, strict=False)[i].tobytes() \
        == dense_psi(p, far, strict=False)[i].tobytes()


def test_partition_star_edges_match_dense():
    # points one ulp inside each Q*, where a bump is tiny but not 0.0
    for c in (cov.covering_laguerre((-2, 1)),
              cov.box_product(cov.covering_bessel((-1, 1)),
                              cov.covering_laguerre((-1, 0)))):
        p = cov.partition_of_unity(c)
        z = np.array([q.center for q in c.cuboids])
        reach = c.kappa * np.array([q.half_widths for q in c.cuboids])
        pts = np.concatenate([np.nextafter(z - reach, z), np.nextafter(z + reach, z)])
        pts = pts[np.all((pts > c.window_box[0]) & (pts < c.window_box[1]), axis=1)]
        for x in pts:
            for xs in (x[None], np.stack([x, x])):
                dense = dense_psi(p, xs)
                assert p.evaluate_all(xs).tobytes() == dense.tobytes()
                for i in range(len(c.cuboids)):
                    assert p.evaluate(i, xs).tobytes() == dense[i].tobytes()


def test_partition_single_point_sums_like_dense():
    # one point is summed in ascending cuboid order, as among others;
    # >= 3 bumps overlap
    c = cov.covering_uniform(real_line(2), 0.5, ([0.0, 0.0], [2.0, 2.0]), kappa=1.5)
    p = cov.partition_of_unity(c)
    for x in halton(64, 2) * 2.0:
        x = x[None]
        dense = dense_psi(p, x)
        assert p.evaluate_all(x).tobytes() == dense.tobytes()
        for i in range(len(c.cuboids)):
            assert p.evaluate(i, x).tobytes() == dense[i].tobytes()


def test_partition_nan_point_matches_dense():
    box = cov.box_product(cov.covering_bessel((-1, 1)),
                          cov.covering_laguerre((-1, 0)))
    for c, x in ((cov.covering_bessel((-2, 2)), [[1.5], [np.nan], [1.9]]),
                 (box, [[1.5, 0.7], [1.2, np.nan], [1.9, 0.9]])):
        p = cov.partition_of_unity(c)
        x = np.array(x)
        dense = dense_psi(p, x)
        assert np.isnan(dense[:, 1]).all()
        assert np.array_equal(p.evaluate_all(x), dense, equal_nan=True)
        for i in range(len(c.cuboids)):
            assert np.array_equal(p.evaluate(i, x), dense[i], equal_nan=True)


@settings(max_examples=60, deadline=None)
@given(c=_tiling(half=False) | _tiling(half=True).map(
           lambda a: cov.box_product(a, cov.covering_bessel((0, 1)))),
       data=st.data())
def test_psi_sum_matches_dense_column_sums(c, data):
    p = cov.partition_of_unity(c)
    d = c.dimension
    win_lo = np.asarray(c.window_box[0])
    win_hi = np.asarray(c.window_box[1])
    m = data.draw(st.sampled_from([1, 2, 3, 17, 64]))
    u = np.asarray(data.draw(st.lists(st.floats(0.0, 1.0), min_size=m * d,
                                      max_size=m * d)))
    x = win_lo + u.reshape(m, d) * (win_hi - win_lo)
    assert p.psi_sum(x).tobytes() == row_sum(dense_psi(p, x)).tobytes()


def test_psi_sum_single_probe_sums_in_cuboid_order():
    # one probe is summed in ascending cuboid order too, >= 3 bumps overlap
    c = cov.covering_uniform(real_line(2), 0.5, ([0.0, 0.0], [2.0, 2.0]), kappa=1.5)
    p = cov.partition_of_unity(c)
    for x in halton(64, 2) * 2.0:
        x = x[None]
        assert p.psi_sum(x).tobytes() == row_sum(dense_psi(p, x)).tobytes()


def test_psi_sum_hole_and_nan_probes():
    p = cov.partition_of_unity(cov.covering_bessel((-2, 2)))
    # a probe that no bump reaches raises, as evaluate_all does
    for x in ([1.5, 100.0], [100.0], [1.5, np.nan, -3.0, 200.0]):
        with pytest.raises(CoveringHoleError) as dense:
            p.evaluate_all(np.array(x))
        with pytest.raises(CoveringHoleError) as pairs:
            p.psi_sum(np.array(x))
        assert str(pairs.value) == str(dense.value)
    # a NaN probe sums to NaN, the others as before
    for x in ([1.5, np.nan, 1.9], [np.nan], [np.nan, np.nan]):
        x = np.array(x)
        dense = p.evaluate_all(x).sum(axis=0)
        assert np.isnan(dense[np.isnan(x)]).all()
        assert np.array_equal(p.psi_sum(x), dense, equal_nan=True)


def test_partition_evaluate_hole_error():
    p = cov.partition_of_unity(cov.covering_bessel((-2, 2)))
    with pytest.raises(CoveringHoleError):
        p.evaluate(0, np.array([100.0]))
    with pytest.raises(CoveringHoleError):
        p.evaluate(2, np.array([1.5, 100.0]))
    assert np.array_equal(p.evaluate(2, np.array([1.5, 100.0]), strict=False),
                          [1.0, 0.0])


def test_partition_nan_beside_hole_stays_nan():
    # with strict=False, a hole point elsewhere in the call leaves NaN as NaN
    p = cov.partition_of_unity(cov.covering_bessel((-2, 2)))
    assert np.isnan(p.evaluate_all([1.5, np.nan, 100.0], strict=False)[:, 1]).all()
    rows = p.evaluate_rows([2, 2], np.array([[[1.5], [np.nan]], [[100.0], [1.2]]]),
                           np.ones((2, 2), dtype=bool), strict=False)
    assert np.array_equal(rows, [1.0, np.nan, 0.0, 1.0], equal_nan=True)


_UNIFORM_2D = cov.covering_uniform(real_line(2), 0.5, ([0.0, 0.0], [2.0, 2.0]),
                                   kappa=1.5)


@settings(max_examples=80, deadline=None)
@given(c=st.just(_UNIFORM_2D) | _tiling(half=False) | _tiling(half=True)
       | st.tuples(_tiling(), _tiling(half=True)).map(lambda ab: cov.box_product(*ab)),
       u=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0),
                            st.sampled_from(["in", "in", "in", "nan", "hole"])),
                  min_size=1, max_size=64))
@example(c=_UNIFORM_2D, u=[(a, b, "in") for a, b in halton(64, 2)])
def test_partition_does_not_depend_on_the_batch(c, u):
    # psi at a point is the same whatever other points share the call:
    # NaN points, and hole points under strict=False, included
    p = cov.partition_of_unity(c)
    lo, hi = (np.asarray(b) for b in c.window_box)
    x = lo + np.array([v[:2] for v in u])[:, :c.dimension] * (hi - lo)
    kind = np.array([v[2] for v in u])
    x[kind == "nan", 0] = np.nan
    x[kind == "hole", 0] = hi[0] + 100.0
    psi = p.evaluate_all(x, strict=False)
    rows = {}
    for k in range(len(x)):
        alone = x[k:k + 1]
        assert psi[:, k].tobytes() == p.evaluate_all(alone, strict=False)[:, 0].tobytes()
        for i in {0, *np.flatnonzero(psi[:, k] > 0.0)}:
            if i not in rows:
                rows[i] = p.evaluate(i, x, strict=False)
            assert rows[i][k].tobytes() == p.evaluate(i, alone, strict=False).tobytes()
    # psi_sum raises at a hole point, so it takes the others
    y = x[kind != "hole"]
    total = p.psi_sum(y)
    for k in range(len(y)):
        assert total[k:k + 1].tobytes() == p.psi_sum(y[k:k + 1]).tobytes()
