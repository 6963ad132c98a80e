"""Histogramming, moment extraction, calibration, deconvolution, fitting."""

import csv
import dataclasses
import hashlib
import io
import json
import sys
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import least_squares

from jpatomo import cli, detection, tomography
from jpatomo.detection import DetectionConfig, RecordBatch, measure
from jpatomo.errors import (
    DegenerateReferenceError,
    InvalidCovarianceError,
    NonFiniteRecordError,
    NumericsError,
    RangeTooSmallError,
    UnphysicalStateError,
    UnresolvedSignalError,
)
from jpatomo.gaussian import tms_theory_covariance, two_mode_squeeze, vacuum_state
from jpatomo.tomography import (
    PAIR_LABELS,
    Binning,
    Histogram2D,
    MomentAccumulator,
    MomentSet,
    WignerGrid,
    accumulate_histograms,
    accumulate_moments,
    apply_scale,
    auto_binning,
    calibrate,
    deconvolve,
    estimate_from_blocks,
    estimate_state,
    fit_squeezing,
    moment_set_from_histograms,
    moments_from_histogram,
    reconstruct,
    wigner_marginals,
)

# cosh(2 * 1.78) / 4 and sinh(2 * 1.78) / 4
DIAG_R178 = 4.3989544962276
CROSS_R178 = 4.391844790049054
# 0.06 * cosh(3.56) / 4; the excess photon number implied by +3% diagonals
N_ADD_3PCT = 0.263937269773656
# 2 / pi; peak of a 2D vacuum marginal (two variances of 1/4)
VACUUM_MARGINAL_PEAK = 0.6366197723675814


def batch_from_quadratures(q):
    return RecordBatch(q[:, 0] + 1j * q[:, 1], q[:, 2] + 1j * q[:, 3])


# ---------------------------------------------------------------------------
# binning


def test_binning_edges_and_width():
    b = Binning(-2.0, 2.0, bins=4)
    np.testing.assert_allclose(b.edges, [-2, -1, 0, 1, 2])
    assert b.width == 1.0


def test_binning_index_rule_includes_upper_edge():
    b = Binning(0.0, 4.0, bins=4)
    idx, inside = b.index(np.array([-0.1, 0.0, 3.999, 4.0, 4.1]))
    np.testing.assert_array_equal(inside, [False, True, True, True, False])
    assert idx[1] == 0 and idx[2] == 3 and idx[3] == 3


def test_binning_validation():
    with pytest.raises(ValueError):
        Binning(1.0, 1.0)
    with pytest.raises(ValueError):
        Binning(0.0, 1.0, bins=1)
    with pytest.raises(ValueError):
        Binning(0.0, np.inf)


def test_auto_binning_tracks_prefix_sigma():
    rng = np.random.default_rng(1)
    q = rng.standard_normal((20_000, 4)) * np.array([1.0, 1.0, 3.0, 3.0])
    b = auto_binning(batch_from_quadratures(q), bins=128, sigmas=6.0)
    sigma = q[:10_000].std(axis=0).max()
    assert b.bins == 128
    assert b.lo == -6.0 * sigma and b.hi == 6.0 * sigma


def test_auto_binning_rejects_degenerate_prefix():
    q = np.zeros((100, 4))
    with pytest.raises(DegenerateReferenceError):
        auto_binning(batch_from_quadratures(q))
    with pytest.raises(DegenerateReferenceError):
        auto_binning(batch_from_quadratures(np.zeros((1, 4))))


def test_auto_binning_reads_only_the_prefix_blocks_of_a_recipe(monkeypatch, draws):
    monkeypatch.setattr(detection, "_MEASURE_CHUNK", 4096)
    state = two_mode_squeeze(vacuum_state(2), 1.0)
    stored = measure(state, DetectionConfig(), 10 * 4096, seed=9)
    copy = RecordBatch._wrap(stored.quadratures().copy())
    recipe = measure(state, DetectionConfig(), 10 * 4096, seed=9)
    assert auto_binning(recipe) == auto_binning(copy)
    assert recipe._store is None
    # the store, then the three 4096-record blocks the 10^4-record prefix spans
    assert draws == [10, 3]


# ---------------------------------------------------------------------------
# histograms


def test_accumulate_empty_records():
    hists = accumulate_histograms(np.empty((0, 4)), Binning(-1, 1, 8))
    assert set(hists) == set(PAIR_LABELS)
    for h in hists.values():
        assert h.counts.sum() == 0 and h.n_total == 0 and h.overflow == 0


def test_accumulate_single_record_lands_once_per_pair():
    b = Binning(-1.0, 1.0, bins=8)
    # bin centers at -0.875 + k * 0.25; put each axis in a distinct bin
    q = np.array([[-0.875, -0.625, 0.125, 0.875]])
    hists = accumulate_histograms(q, b)
    for pair, h in hists.items():
        assert h.counts.sum() == 1 and h.n_total == 1 and h.overflow == 0
    assert hists[("X1", "P1")].counts[0, 1] == 1
    assert hists[("X1", "X2")].counts[0, 4] == 1
    assert hists[("P1", "P2")].counts[1, 7] == 1


def test_accumulate_counts_overflow():
    b = Binning(-1.0, 1.0, bins=4)
    q = np.array([[0.0, 0.0, 0.0, 0.0], [2.0, 0.0, 0.0, 0.0], [0.0, 0.0, 5.0, 0.0]])
    hists = accumulate_histograms(q, b)
    # record 2 overflows any pair touching X1, record 3 any pair touching X2
    assert hists[("X1", "P1")].overflow == 1
    assert hists[("X1", "X2")].overflow == 2
    assert hists[("P1", "P2")].overflow == 0
    for h in hists.values():
        assert int(h.counts.sum()) + h.overflow == h.n_total == 3


def test_pump_off_histogram_is_circularly_symmetric():
    batch = measure(vacuum_state(2), DetectionConfig(), 1_000_000, seed=31)
    hists = accumulate_histograms(batch, auto_binning(batch))
    m = moments_from_histogram(hists[("X1", "P1")])
    assert abs(m.var_x / m.var_y - 1.0) < 0.01
    assert abs(m.cov) < 0.01 * np.sqrt(m.var_x * m.var_y)


def test_histogram_merge_is_bin_exact_across_shards():
    batch = measure(two_mode_squeeze(vacuum_state(2), 1.0), DetectionConfig(), 40_000, seed=8)
    binning = auto_binning(batch)
    q = batch.quadratures().copy()
    # out-of-range records in the second and last shards: merged overflow
    # adds up, shard by shard
    q[5_000:5_003, 0] = 2.0 * binning.hi
    q[39_990, 3] = 2.0 * binning.lo
    whole = accumulate_histograms(q, binning)
    assert whole[("X1", "P1")].overflow == 3 and whole[("X2", "P2")].overflow == 1
    shards = [
        accumulate_histograms(q[k * 5000 : (k + 1) * 5000], binning) for k in range(8)
    ]
    for pair in PAIR_LABELS:
        merged = shards[0][pair]
        for shard in shards[1:]:
            merged = merged.merge(shard[pair])
        np.testing.assert_array_equal(merged.counts, whole[pair].counts)
        assert merged.n_total == whole[pair].n_total
        assert merged.overflow == whole[pair].overflow


@pytest.mark.parametrize("sub", [3, 4096, 1 << 20])
def test_histogram_sub_block_split_is_exact(monkeypatch, sub):
    binning = Binning(-1.0, 1.0, bins=8)
    rng = np.random.default_rng(12)
    q = rng.uniform(-1.2, 1.2, size=(10_007, 4))
    edges = [binning.lo, binning.hi]
    edges += [np.nextafter(binning.lo, -np.inf), np.nextafter(binning.hi, np.inf)]
    for row, value in enumerate(edges):
        q[row * 2501, row % 4] = value
        q[row * 2501 + 1] = value
    monkeypatch.setattr(tomography, "_HIST_ROWS", sub)
    hists = tomography.HistogramAccumulator(binning).update(q).histograms()

    idx, inside = binning.index(q)
    for pair, h in hists.items():
        a, b = tomography._AXIS_INDEX[pair[0]], tomography._AXIS_INDEX[pair[1]]
        kept = inside[:, a] & inside[:, b]
        ref = np.zeros((8, 8), np.int64)
        np.add.at(ref, (idx[kept, a], idx[kept, b]), 1)
        np.testing.assert_array_equal(h.counts, ref)
        assert (h.n_total, h.overflow) == (q.shape[0], q.shape[0] - int(kept.sum()))
    # rows at lo and hi land in the first and last bins
    assert hists[("X1", "P1")].counts[0, 0] >= 1 and hists[("X1", "P1")].counts[7, 7] >= 1


def _reference_cells(q, binning):
    """The six pairs' cells by the Binning.index rule written out: a value in
    [lo, hi] lands in bin floor((v - lo) / width), hi in the last one; any
    other value goes to bin `bins`, the overflow of each pair on its axis."""
    nbins, side = binning.bins, binning.bins + 1
    inside = (q >= binning.lo) & (q <= binning.hi)
    idx = np.full(q.shape, nbins)
    idx[inside] = np.minimum(np.floor((q[inside] - binning.lo) / binning.width), nbins - 1)
    cells = np.zeros((len(PAIR_LABELS), side * side), np.int64)
    for row, (x, y) in zip(cells, PAIR_LABELS):
        a, b = tomography._AXIS_INDEX[x], tomography._AXIS_INDEX[y]
        lin, counts = np.unique(idx[:, a] * side + idx[:, b], return_counts=True)
        row[lin] = counts
    return cells


_SUB = 1 << 14
_ROWS = tomography._HIST_ROWS
_KERNEL_BLOCKS = [1, 2, _SUB - 1, _SUB, _SUB + 1, _ROWS - 1, _ROWS, _ROWS + 1]


def _edge_records(m, seed):
    binning = Binning(-3.0, 3.0)
    q = np.random.default_rng(seed).uniform(-3.2, 3.2, size=(m, 4))
    edges = [binning.lo, binning.hi, 1e308, -1e308]
    for k, value in enumerate(edges):
        q[(k * 7919) % m, k] = value  # one axis of a record
        q[(k * 104729 + 1) % m] = value  # every axis of a record
    return binning, q


@pytest.mark.parametrize("m", _KERNEL_BLOCKS)
def test_buffered_histogram_kernel_equals_the_index_rule(m):
    binning, q = _edge_records(m, seed=m)
    acc = tomography.HistogramAccumulator(binning)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        acc.update(q)
    assert (acc._cells == _reference_cells(q, binning)).all()


def test_buffered_histogram_kernel_reuses_its_buffers_across_block_lengths():
    # one pass's accumulator takes blocks of every length in turn: each row
    # block uses a part of the buffers made for one row block
    binning = Binning(-3.0, 3.0)
    blocks = [_edge_records(m, seed=m)[1] for m in _KERNEL_BLOCKS + _KERNEL_BLOCKS[::-1]]
    acc = tomography.HistogramAccumulator(binning)
    for block in blocks:
        acc.update(block)
    assert (acc._cells == _reference_cells(np.concatenate(blocks), binning)).all()


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("m", [1, _SUB + 1])
def test_buffered_histogram_kernel_rejects_non_finite_records(bad, m):
    binning, q = _edge_records(m, seed=3)
    q[m - 1, 2] = bad  # in the last row block
    with pytest.raises(NonFiniteRecordError):
        tomography.HistogramAccumulator(binning).update(q)


def test_histogram_index_buffers_hold_a_quarter_cell():
    acc = tomography.HistogramAccumulator(Binning(-3.0, 3.0))
    held = sum(getattr(acc, name).nbytes for name in ("_idx", "_inside", "_scaled", "_lin"))
    assert held <= 384 << 10


@pytest.mark.parametrize(
    "make",
    [MomentAccumulator, lambda: tomography.HistogramAccumulator(Binning(-1.0, 1.0))],
    ids=["moments", "histograms"],
)
def test_accumulators_check_their_blocks_alike(make):
    for bad in (np.zeros((5, 3)), np.zeros(4)):
        with pytest.raises(ValueError, match=r"block must be \(n, 4\)"):
            make().update(bad)
    # a list of rows is read as the array it spells
    got = make().update([[0.0] * 4] * 3).finalize()
    want = make().update(np.zeros((3, 4))).finalize()
    assert np.array_equal(got.mean, want.mean) and np.array_equal(got.cov, want.cov)
    assert got.n == want.n == 3


def test_far_out_of_range_values_are_overflow_without_a_warning():
    binning = Binning(-1.0, 1.0, bins=8)
    big = np.finfo(np.float64).max
    q = np.zeros((7, 4))
    q[1, 0] = 1e300
    q[2, 3] = -1e300
    q[3] = big  # scales past the largest double
    q[4, 1] = -big
    q[5, 2] = 1e19  # scales past the largest int64
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        hists = accumulate_histograms(q, binning)
    outside = np.abs(q) > 1.0
    for pair, h in hists.items():
        a, b = tomography._AXIS_INDEX[pair[0]], tomography._AXIS_INDEX[pair[1]]
        overflow = int((outside[:, a] | outside[:, b]).sum())
        assert (h.n_total, h.overflow) == (7, overflow)
        # every in-range record is at 0, the lower edge of bin 4
        assert h.counts[4, 4] == h.counts.sum() == 7 - overflow


def _threaded_estimate_matches_serial_kernel(seed):
    state = two_mode_squeeze(vacuum_state(2), 1.0)
    cfg = DetectionConfig(n_noise=0.0)  # a quiet chain keeps the estimate physical
    on = measure(state, cfg, 80_000, seed=seed).quadratures()
    off = measure(state, cfg, 80_000, seed=seed, pump_on=False).quadratures()
    pairs = ((on[k : k + 997], off[k : k + 997]) for k in range(0, 80_000, 997))
    est = estimate_from_blocks(pairs, cfg.noise_pair)
    # a recipe pair: the worker also builds the pump-off records
    fused = estimate_state(
        measure(state, cfg, 80_000, seed=seed),
        measure(state, cfg, 80_000, seed=seed, pump_on=False),
        cfg.noise_pair,
    )
    assert fused.binning == est.binning
    for records, hists in (
        (on, est.histograms_on),
        (off, est.histograms_off),
        (on, fused.histograms_on),
        (off, fused.histograms_off),
    ):
        ref = tomography.HistogramAccumulator(est.binning).update(records).histograms()
        for pair in PAIR_LABELS:
            assert np.array_equal(hists[pair].counts, ref[pair].counts)
            assert (hists[pair].n_total, hists[pair].overflow) == (
                ref[pair].n_total,
                ref[pair].overflow,
            )
    # the streaming method: serial moment sums are the reference
    pairs = ((on[k : k + 997], off[k : k + 997]) for k in range(0, 80_000, 997))
    streamed = estimate_from_blocks(pairs, cfg.noise_pair, method="streaming")
    fused_streamed = estimate_state(
        measure(state, cfg, 80_000, seed=seed),
        measure(state, cfg, 80_000, seed=seed, pump_on=False),
        cfg.noise_pair,
        method="streaming",
    )
    raw_on, raw_off = accumulate_moments(on), accumulate_moments(off)
    scales = calibrate(raw_off, cfg.noise_pair)
    for est in (streamed, fused_streamed):
        assert est.tomography.scale_factors == scales
        for got, raw in ((est.moments_on, raw_on), (est.moments_off, raw_off)):
            want = apply_scale(raw, scales)
            assert (got.mean == want.mean).all() and (got.cov == want.cov).all()
    return True


@pytest.mark.filterwarnings("ignore:estimated covariance marginally unphysical")
def test_threaded_histograms_under_contention_equal_serial_kernel():
    # four concurrent estimates of each method (eight threads on fewer
    # cores), switching threads as often as the interpreter allows
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            runs = [pool.submit(_threaded_estimate_matches_serial_kernel, s) for s in range(4)]
            assert all(run.result(timeout=120) for run in runs)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("method", ["histogram", "streaming"])
@pytest.mark.parametrize("row", [5, 15_000])  # inside / after the 10^4 prefix
@pytest.mark.parametrize("setting", ["on", "off"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_estimate_state_rejects_non_finite_records(method, row, setting, value):
    state = two_mode_squeeze(vacuum_state(2), 1.0)
    cfg = DetectionConfig()
    on = measure(state, cfg, 20_000, seed=17).quadratures().copy()
    off = measure(state, cfg, 20_000, seed=17, pump_on=False).quadratures().copy()
    (on if setting == "on" else off)[row, 2] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteRecordError):
            estimate_state(on, off, cfg.noise_pair, method=method)


def test_auto_binning_and_moments_reject_non_finite_records():
    assert issubclass(NonFiniteRecordError, NumericsError)  # CLI exit code 3
    q = np.ones((50, 4))
    q[::2] = -1.0
    q[7, 1] = np.nan
    with pytest.raises(NonFiniteRecordError):
        auto_binning(batch_from_quadratures(q))
    with pytest.raises(NonFiniteRecordError):
        accumulate_histograms(q, Binning(-2.0, 2.0, 8))
    with pytest.raises(NonFiniteRecordError):
        accumulate_moments(q)


def test_histogram_merge_rejects_mismatches():
    b1, b2 = Binning(-1, 1, 8), Binning(-2, 2, 8)
    h1 = Histogram2D.empty(("X1", "P1"), b1)
    h2 = Histogram2D.empty(("X1", "P1"), b2)
    h3 = Histogram2D.empty(("X1", "X2"), b1)
    with pytest.raises(ValueError):
        h1.merge(h2)
    with pytest.raises(ValueError):
        h1.merge(h3)


def test_histogram_invariant_enforced():
    b = Binning(-1, 1, 4)
    with pytest.raises(ValueError):
        Histogram2D(("X1", "P1"), b.edges, b.edges, np.ones((4, 4), np.int64), n_total=3)
    with pytest.raises(ValueError):
        Histogram2D(("X1", "Q9"), b.edges, b.edges, np.zeros((4, 4), np.int64))
    with pytest.raises(ValueError, match="edges"):
        Histogram2D(("X1", "P1"), b.edges[::-1], b.edges, np.zeros((4, 4), np.int64))
    with pytest.raises(ValueError, match="edges"):
        Histogram2D(("X1", "P1"), b.edges[:2], b.edges, np.zeros((1, 4), np.int64))
    with pytest.raises(ValueError, match="counts shape"):
        Histogram2D(("X1", "P1"), b.edges, b.edges, np.zeros((4, 3), np.int64))
    counts = np.zeros((4, 4), np.int64)
    counts[0, 0] = -1
    with pytest.raises(ValueError, match="non-negative"):
        Histogram2D(("X1", "P1"), b.edges, b.edges, counts, n_total=0, overflow=1)
    with pytest.raises(ValueError, match="non-negative"):
        Histogram2D(("X1", "P1"), b.edges, b.edges, np.zeros((4, 4), np.int64), overflow=-1)


def _csv_module_histogram(h: Histogram2D) -> bytes:
    """A histogram CSV as the csv module writes it, row by row."""
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(("axis_x", h.labels[0]))
    writer.writerow(("axis_y", h.labels[1]))
    writer.writerow(("n_total", h.n_total))
    writer.writerow(("overflow", h.overflow))
    writer.writerow(["edges_x"] + [repr(e) for e in h.edges_x.tolist()])
    writer.writerow(["edges_y"] + [repr(e) for e in h.edges_y.tolist()])
    writer.writerows(h.counts.tolist())
    return text.getvalue().encode()


def test_histogram_serialization(tmp_path):
    # a narrow range, so that some records overflow
    batch = measure(vacuum_state(2), DetectionConfig(), 5000, seed=2)
    hists = accumulate_histograms(batch, auto_binning(batch, bins=16, sigmas=2.0))
    h = hists[("X1", "X2")]
    assert h.overflow > 0
    out = cli._Outputs(tmp_path)
    cli._write_histogram_csv(out, "h.csv", h)
    data = (tmp_path / "h.csv").read_bytes()
    assert out.digests == {"h.csv": hashlib.sha256(data).hexdigest()}
    assert data == _csv_module_histogram(h)
    lines = data.decode().splitlines()
    assert lines[0] == "axis_x,X1"
    assert len(lines) == 6 + 16  # four metadata rows, two edge rows, counts
    counts = np.array([line.split(",") for line in lines[6:]], dtype=np.int64)
    assert counts.sum() + int(lines[3].split(",")[1]) == int(lines[2].split(",")[1])


# ---------------------------------------------------------------------------
# histogram moments


def test_moments_single_loaded_bin_clamps_variance():
    b = Binning(-1.0, 1.0, bins=8)
    q = np.tile([[0.13, 0.13, 0.13, 0.13]], (10, 1))
    h = accumulate_histograms(q, b)[("X1", "P1")]
    m = moments_from_histogram(h)
    assert m.var_x == 0.0 and m.var_y == 0.0
    assert abs(m.mean_x - 0.125) < 1e-12  # center of the containing bin


def test_moments_two_point_mass():
    b = Binning(-1.0, 1.0, bins=8)  # centers at +-0.875, ..., +-0.125
    a = 0.625
    q = np.array([[a, a, a, a], [-a, -a, -a, -a]] * 50, dtype=float)
    m = moments_from_histogram(accumulate_histograms(q, b)[("X1", "X2")])
    assert abs(m.var_x - a**2) <= b.width**2 / 12.0 + 1e-12
    assert abs(m.mean_x) < 1e-12


def test_moments_gaussian_matches_unbinned_tolerance():
    rng = np.random.default_rng(7)
    q = rng.standard_normal((200_000, 4))
    sigma = q[:, 0].std()
    bins = int(np.ceil(12.0 * sigma / (sigma / 5.0)))  # width = sigma/5
    b = Binning(-6.0 * sigma, 6.0 * sigma, bins)
    m = moments_from_histogram(accumulate_histograms(q, b)[("X1", "P1")])
    raw = q[:, 0].var()
    assert abs(m.var_x - raw) / raw < 0.003


def test_moments_overflow_gate():
    b = Binning(-1.0, 1.0, bins=8)
    q = np.zeros((100, 4))
    q[:2, 0] = 5.0  # 2% of records out of range on X1
    h = accumulate_histograms(q, b)[("X1", "P1")]
    with pytest.raises(RangeTooSmallError):
        moments_from_histogram(h)


def test_moments_need_two_in_range_records():
    h = Histogram2D.empty(("X1", "P1"), Binning(-1, 1, 8))
    with pytest.raises(DegenerateReferenceError):
        moments_from_histogram(h)


def test_sheppard_correction_matches_streaming_at_default_binning():
    batch = measure(two_mode_squeeze(vacuum_state(2), 1.2), DetectionConfig(), 300_000, seed=4)
    hists = accumulate_histograms(batch, auto_binning(batch))
    hm = moment_set_from_histograms(hists)
    sm = accumulate_moments(batch)
    scale = np.sqrt(np.outer(hm.variances, hm.variances))
    assert np.max(np.abs(hm.cov - sm.cov) / scale) < 0.005
    np.testing.assert_allclose(hm.mean, sm.mean, atol=0.01)


# ---------------------------------------------------------------------------
# streaming moments


def test_moment_accumulator_matches_numpy():
    rng = np.random.default_rng(3)
    q = rng.standard_normal((10_000, 4)) @ np.diag([1.0, 2.0, 3.0, 4.0])
    ms = accumulate_moments(q)
    np.testing.assert_allclose(ms.mean, q.mean(axis=0), rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(ms.cov, np.cov(q.T, bias=True), rtol=1e-9, atol=1e-12)
    assert ms.n == 10_000


def test_array_and_record_batch_moments_share_the_block_grid(monkeypatch):
    monkeypatch.setattr(detection, "_MEASURE_CHUNK", 4096)
    state = two_mode_squeeze(vacuum_state(2), 1.0)
    batch = measure(state, DetectionConfig(), 3 * 4096 + 7, seed=8)
    streamed = accumulate_moments(batch)
    stored = accumulate_moments(batch.quadratures())
    assert np.array_equal(streamed.mean, stored.mean)
    assert np.array_equal(streamed.cov, stored.cov)


def test_moment_accumulator_merge_equals_single_pass():
    rng = np.random.default_rng(5)
    q = rng.standard_normal((8192, 4))
    whole = MomentAccumulator().update(q).finalize()
    left = MomentAccumulator().update(q[:3000])
    right = MomentAccumulator().update(q[3000:])
    merged = left.merge(right).finalize()
    np.testing.assert_allclose(merged.cov, whole.cov, rtol=1e-12)
    np.testing.assert_allclose(merged.mean, whole.mean, rtol=1e-12, atol=1e-15)


def test_moment_accumulator_validation():
    acc = MomentAccumulator()
    with pytest.raises(ValueError):
        acc.update(np.zeros((3, 5)))
    with pytest.raises(DegenerateReferenceError):
        MomentAccumulator().update(np.zeros((1, 4))).finalize()


def test_moment_set_validation():
    good = MomentSet(np.zeros(4), np.eye(4), 10)
    assert good.variances.tolist() == [1.0] * 4
    with pytest.raises(InvalidCovarianceError):
        MomentSet(np.zeros(3), np.eye(4), 10)
    with pytest.raises(InvalidCovarianceError):
        MomentSet(np.zeros(4), np.diag([1.0, -1.0, 1.0, 1.0]), 10)
    bad = np.eye(4)
    bad[0, 1] = bad[1, 0] = 1.5  # exceeds sqrt(var_x var_y)
    with pytest.raises(InvalidCovarianceError):
        MomentSet(np.zeros(4), bad, 10)
    with pytest.raises(InvalidCovarianceError):
        MomentSet(np.full(4, np.nan), np.eye(4), 10)


def test_moment_set_from_histograms_requires_all_pairs():
    batch = measure(vacuum_state(2), DetectionConfig(), 1000, seed=6)
    hists = accumulate_histograms(batch, auto_binning(batch))
    del hists[("P1", "P2")]
    with pytest.raises(ValueError):
        moment_set_from_histograms(hists)


# ---------------------------------------------------------------------------
# calibration and deconvolution


def test_calibrate_recovers_injected_gain_imbalance():
    cfg = DetectionConfig(gain_ch1=1.0, gain_ch2=1.02)
    off = measure(vacuum_state(2), cfg, 500_000, seed=19, pump_on=False)
    g1, g2 = calibrate(accumulate_moments(off), cfg.noise_pair)
    assert abs(g2 / g1 - 1.0 / 1.02) < 0.005


def test_calibrate_already_calibrated_is_identity():
    cfg = DetectionConfig(gain_ch1=1.0, gain_ch2=1.0)
    off = measure(vacuum_state(2), cfg, 500_000, seed=23, pump_on=False)
    g1, g2 = calibrate(accumulate_moments(off), 69.0)
    assert abs(g1 - 1.0) < 0.005 and abs(g2 - 1.0) < 0.005


def test_calibrate_target_formula_at_zero_noise():
    # exact fixed point: variances already equal the target (2*0+2)/4 = 1/2
    ms = MomentSet(np.zeros(4), np.eye(4) * 0.5, 100)
    assert calibrate(ms, 0.0) == (1.0, 1.0)


def test_calibrate_per_channel_noise():
    ms = MomentSet(np.zeros(4), np.diag([35.0, 35.0, 18.0, 18.0]), 100)
    g1, g2 = calibrate(ms, (69.0, 35.0))
    assert abs(g1 - 1.0) < 1e-12
    assert abs(g2 - np.sqrt(((2 * 35.0 + 2) / 4) / 18.0)) < 1e-12


def test_calibrate_rejects_degenerate_reference():
    ms = MomentSet(np.zeros(4), np.diag([0.0, 0.0, 1.0, 1.0]), 100)
    with pytest.raises(DegenerateReferenceError):
        calibrate(ms, 69.0)
    with pytest.raises(ValueError):
        calibrate(MomentSet(np.zeros(4), np.eye(4), 10), -1.0)


def test_apply_scale_algebra():
    ms = MomentSet(np.ones(4), np.eye(4) * 4.0, 50)
    out = apply_scale(ms, (0.5, 2.0))
    np.testing.assert_allclose(out.mean, [0.5, 0.5, 2.0, 2.0])
    np.testing.assert_allclose(np.diag(out.cov), [1.0, 1.0, 16.0, 16.0])
    with pytest.raises(ValueError):
        apply_scale(ms, (0.0, 1.0))


def test_deconvolve_identical_moments_yields_vacuum():
    ms = MomentSet(np.zeros(4), np.eye(4) * 35.0, 1000)
    np.testing.assert_allclose(deconvolve(ms, ms), np.eye(4) / 4.0)


def test_deconvolve_rejects_a_reference_whose_spacing_reaches_the_vacuum_quarter():
    # float64 spacing reaches 1/4 at 2^50: below it the quarter still resolves
    below = np.nextafter(2.0**50, 0.0)
    ms = MomentSet(np.zeros(4), np.diag([1.0, 1.0, below, 1.0]), 1000)
    assert (deconvolve(ms, ms) == np.eye(4) / 4.0).all()
    for var in (2.0**50, 5e29, 5e299):
        ms = MomentSet(np.zeros(4), np.diag([1.0, var, 1.0, 1.0]), 1000)
        with pytest.raises(UnresolvedSignalError, match="resolve the vacuum quarter"):
            deconvolve(ms, ms)


def test_deconvolve_recovers_ground_truth_at_one_million_records():
    cfg = DetectionConfig(gain_ch1=1.0, gain_ch2=1.0)
    state = two_mode_squeeze(vacuum_state(2), 1.78)
    on = accumulate_moments(measure(state, cfg, 1_000_000, seed=29))
    off = accumulate_moments(measure(state, cfg, 1_000_000, seed=29, pump_on=False))
    v = deconvolve(on, off)
    # statistical tolerance: 5 sigma with the paired-reference variance
    assert abs(v[0, 0] - DIAG_R178) < 0.12
    assert abs(v[0, 2] - CROSS_R178) < 0.12
    assert abs(v[1, 3] + CROSS_R178) < 0.12
    np.testing.assert_allclose(v, v.T, atol=1e-15)


# ---------------------------------------------------------------------------
# squeezing fit


def test_fit_exact_model_is_fixed_point():
    fit = fit_squeezing(tms_theory_covariance(1.78).cov)
    assert abs(fit.r - 1.78) < 1e-10
    assert abs(fit.n_add) < 1e-10
    assert fit.residual < 1e-10
    assert abs(fit.r_pure - 1.78) < 1e-10


def test_fit_mixed_model_is_fixed_point():
    fit = fit_squeezing(tms_theory_covariance(1.2, 0.3).cov)
    assert abs(fit.r - 1.2) < 1e-10
    assert abs(fit.n_add - 0.3) < 1e-10


def test_fit_inflated_diagonals_reports_excess_noise():
    v = tms_theory_covariance(1.78).cov.copy()
    v[np.diag_indices(4)] *= 1.03
    fit = fit_squeezing(v)
    assert abs(fit.n_add - N_ADD_3PCT) < 1e-9
    assert abs(fit.r - 1.78) < 1e-9
    assert fit.r_pure > 1.78  # pure fit absorbs the excess by drifting up
    assert fit.residual_pure > fit.residual


def test_fit_vacuum():
    fit = fit_squeezing(np.eye(4) / 4.0)
    assert fit.r == 0.0 and fit.n_add == 0.0 and fit.r_pure == 0.0


def test_fit_thermal_covariance_clamps_r():
    fit = fit_squeezing(np.eye(4) * 0.75)
    assert fit.r == 0.0
    assert abs(fit.n_add - 1.0) < 1e-12  # 2 * (0.75 - 0.25)


def test_fit_anticorrelated_cross_clamps_r():
    v = tms_theory_covariance(0.5).cov.copy()
    v[0, 2] = v[2, 0] = -v[0, 2]
    v[1, 3] = v[3, 1] = -v[1, 3]
    fit = fit_squeezing(v)
    assert fit.r == 0.0 and fit.n_add >= 0.0


def test_fit_validation():
    with pytest.raises(InvalidCovarianceError):
        fit_squeezing(np.eye(3))
    with pytest.raises(InvalidCovarianceError):
        fit_squeezing(np.full((4, 4), np.nan))
    bad = tms_theory_covariance(1.0).cov.copy()
    bad[0, 2] += 1.0
    with pytest.raises(InvalidCovarianceError):
        fit_squeezing(bad)


def _reference_pure_fit(v):
    """Bounded least squares of the pure-state model as `fit_squeezing` did it
    before the closed form: trf from both data-implied starts, the better of
    the two, snapped to r = 0 when the bound wins.  Returns (r, residual)."""
    data = v[np.triu_indices(4)]
    d_bar = float(np.mean(np.diag(v)))
    w = float((v[0, 2] - v[1, 3]) / 2.0)

    def resid(params):
        d, s = np.cosh(2.0 * params[0]) / 4.0, np.sinh(2.0 * params[0]) / 4.0
        return np.array([d, 0.0, s, 0.0, d, 0.0, -s, d, 0.0, d]) - data

    starts = {np.arcsinh(4.0 * max(w, 0.0)) / 2.0, np.arccosh(max(4.0 * d_bar, 1.0)) / 2.0}
    best = None
    for r0 in sorted(starts):
        res = least_squares(
            resid, [r0], bounds=([0.0], [np.inf]), method="trf",
            xtol=1e-14, ftol=1e-14, gtol=1e-14, max_nfev=2000,
        )
        assert res.status > 0
        if best is None or res.cost < best.cost:
            best = res
    r = 0.0 if np.linalg.norm(resid([0.0])) <= np.linalg.norm(best.fun) else best.x[0]
    return float(r), float(np.linalg.norm(resid([r])))


def test_pure_fit_matches_least_squares_reference():
    # two-mode states with estimation noise of 0.1-3% of sqrt(V_ii V_jj);
    # every fourth has its cross terms flipped, so the pure fit sits at or
    # near the r = 0 bound
    rng = np.random.default_rng(2026)
    for k in range(200):
        v = tms_theory_covariance(rng.uniform(0.0, 2.5), rng.uniform(0.0, 0.5)).cov.copy()
        if k % 4 == 0:
            v[0, 2] = v[2, 0] = -v[0, 2]
            v[1, 3] = v[3, 1] = -v[1, 3]
        e = rng.normal(0.0, rng.uniform(1e-3, 3e-2), (4, 4))
        v += (e + e.T) / 2.0 * np.sqrt(np.outer(np.diag(v), np.diag(v)))
        fit = fit_squeezing(v)
        r_ref, residual_ref = _reference_pure_fit(v)
        assert abs(fit.r_pure - r_ref) <= 1e-7, k
        assert fit.residual_pure <= residual_ref + 1e-12, k


@given(c=st.floats(0.95, 1.05), r=st.floats(0.2, 2.2))
@settings(max_examples=40, deadline=None)
def test_fit_scale_consistency(c, r):
    base = fit_squeezing(tms_theory_covariance(r, 0.1).cov)
    scaled = fit_squeezing(c * tms_theory_covariance(r, 0.1).cov)
    assert abs(scaled.r - base.r) < 0.25 * abs(c - 1.0) * 10 + 1e-9
    assert scaled.n_add >= 0.0


# ---------------------------------------------------------------------------
# reconstruction


def test_wigner_grid():
    g = WignerGrid(extent=2.0, points=5)
    np.testing.assert_allclose(g.axis, [-2, -1, 0, 1, 2])
    with pytest.raises(ValueError):
        WignerGrid(extent=-1.0)
    with pytest.raises(ValueError):
        WignerGrid(points=1)


def test_reconstruct_vacuum():
    res = reconstruct(np.eye(4) / 4.0)
    assert abs(res.witness_d - 1.0) < 1e-12
    assert res.r_fit == 0.0 and res.n_add_fit == 0.0
    m = wigner_marginals(res.v, res.r_fit, WignerGrid(extent=3.0, points=61))["x1_p1"]
    center = 30
    assert abs(m.measured[center, center] - VACUUM_MARGINAL_PEAK) < 1e-12
    assert abs(m.ideal[center, center] - VACUUM_MARGINAL_PEAK) < 1e-12
    # without a grid, as the README calls it: the default WignerGrid()
    m = wigner_marginals(res.v, res.r_fit)["x1_p1"]
    assert np.array_equal(m.x, WignerGrid().axis) and m.measured.shape == (101, 101)
    assert abs(m.measured[50, 50] - VACUUM_MARGINAL_PEAK) < 1e-12


def test_reconstruct_squeezed_marginal_orientation():
    v = tms_theory_covariance(1.78, 0.264).cov
    res = reconstruct(v)
    m = wigner_marginals(res.v, res.r_fit, WignerGrid(extent=4.0, points=81))["x1_x2"]
    ax = m.x
    k_pos = int(np.argmin(np.abs(ax - 2.0)))
    k_neg = int(np.argmin(np.abs(ax + 2.0)))
    # x1 and x2 are correlated: mass concentrates along the +diagonal
    assert m.measured[k_pos, k_pos] > 10.0 * m.measured[k_pos, k_neg]
    assert res.witness_d < 1.0


def test_reconstruct_rejects_grossly_unphysical():
    with pytest.raises(UnphysicalStateError):
        reconstruct(np.eye(4) * 1e-4)
    # a matrix that is no finite 4x4 covariance at all
    for v in (np.full((4, 4), np.nan), np.eye(3) / 4.0):
        with pytest.raises(InvalidCovarianceError, match="finite 4x4"):
            reconstruct(v)
        with pytest.raises(InvalidCovarianceError, match="finite 4x4"):
            wigner_marginals(v, 0.0)


def test_reconstruct_warns_on_marginal_violation():
    v = tms_theory_covariance(1.78).cov - 3e-6 * np.eye(4)
    with pytest.warns(RuntimeWarning):
        res = reconstruct(v)
    assert res.r_fit > 0.0
    # the marginals of the clamped blocks are evaluated without a second warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        marginals = wigner_marginals(v, res.r_fit, WignerGrid(extent=1.0, points=3))
    for m in marginals.values():
        assert np.all(np.isfinite(m.measured)) and np.all(m.measured > 0.0)


def _reject_constant(token):
    raise ValueError(f"non-JSON token {token}")


def test_reconstruct_json_round_trip(tmp_path):
    res = reconstruct(
        tms_theory_covariance(1.1, 0.05).cov,
        scale_factors=(1.0, 0.98),
        n_records=(1000, 1000),
    )
    d = cli._covariance_payload(res)
    assert len(d["v"]) == 16
    assert d["v"][0] == pytest.approx(np.cosh(2.2) / 4 + 0.025)
    assert d["scale_factors"] == [1.0, 0.98]
    assert d["n_records"] == [1000, 1000]
    out, path = cli._Outputs(tmp_path), tmp_path / "res.json"
    cli._write_json(out, "res.json", d)
    assert json.loads(path.read_text(), parse_constant=_reject_constant) == d
    # covariance.json is strict JSON: a non-finite field is written as null
    nan_residual = cli._covariance_payload(dataclasses.replace(res, residual=np.nan))
    cli._write_json(out, "res.json", nan_residual)
    assert json.loads(path.read_text(), parse_constant=_reject_constant)["residual"] is None


def test_wigner_marginal_csv(tmp_path):
    res = reconstruct(tms_theory_covariance(0.3).cov + 0.01 * np.eye(4))
    m = wigner_marginals(res.v, res.r_fit, WignerGrid(extent=1.0, points=3))["x1_p1"]
    for density in (m.measured, m.ideal):
        out = cli._Outputs(tmp_path)
        cli._write_wigner_csv(out, "w.csv", m, density)
        data = (tmp_path / "w.csv").read_bytes()
        assert out.digests == {"w.csv": hashlib.sha256(data).hexdigest()}
        # header, then one x,y,density row of reprs per grid point, x-major
        want = ["x1,p1,density\r\n"] + [
            f"{x!r},{y!r},{float(density[i, j])!r}\r\n"
            for i, x in enumerate(m.x.tolist())
            for j, y in enumerate(m.y.tolist())
        ]
        assert data == "".join(want).encode()
        assert len(data.splitlines()) == 1 + 9
    assert not np.array_equal(m.measured, m.ideal)


def test_wigner_csv_is_written_one_x_row_at_a_time(tmp_path):
    res = reconstruct(tms_theory_covariance(1.78).cov)
    m = wigner_marginals(res.v, res.r_fit, WignerGrid())["x1_x2"]
    out, path = cli._Outputs(tmp_path), tmp_path / "w.csv"
    tracemalloc.start()
    try:
        cli._write_wigner_csv(out, "w.csv", m, m.measured)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the 101 x 101 file is about 0.4 MB; one x row's 101 lines about 4 KB
    assert path.stat().st_size > 300_000
    assert peak < 256 << 10


# ---------------------------------------------------------------------------
# end-to-end estimation


def test_estimate_state_round_trip_small():
    cfg = DetectionConfig()
    state = two_mode_squeeze(vacuum_state(2), 1.78)
    on = measure(state, cfg, 300_000, seed=41)
    off = measure(state, cfg, 300_000, seed=41, pump_on=False)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        hist = estimate_state(on, off, cfg.noise_pair, method="histogram")
        stream = estimate_state(on, off, cfg.noise_pair, method="streaming")
    for est in (hist, stream):
        res = est.tomography
        assert abs(res.r_fit_pure - 1.78) < 0.02
        assert res.n_add_fit < 0.05
        assert abs(res.scale_factors[1] / res.scale_factors[0] - 1 / 1.02) < 0.01
        assert res.n_records == (300_000, 300_000)
    assert hist.binning is not None and stream.binning is None
    assert set(hist.histograms_on) == set(PAIR_LABELS)
    dv = np.abs(hist.tomography.v - stream.tomography.v)
    bound = np.sqrt(np.outer(np.diag(hist.tomography.v), np.diag(hist.tomography.v)))
    assert np.max(dv / bound) < 0.005


def test_estimate_state_validates_method():
    batch = measure(vacuum_state(2), DetectionConfig(), 100, seed=1)
    with pytest.raises(ValueError):
        estimate_state(batch, batch, 69.0, method="bogus")


# ---------------------------------------------------------------------------
# measure recipes: a same-seed pump-on/pump-off pair is drawn once

_SMALL_CHUNK = 4096
# low added noise, so that 10^4 records already give a physical estimate
_LOW_NOISE = DetectionConfig(n_noise=2.0, n_noise_ch2=3.0)


def _estimate_or_error(on, off, method):
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            return estimate_state(on, off, _LOW_NOISE.noise_pair, method=method)
    except NumericsError as exc:
        return exc


def _assert_same_estimate(got, want):
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
        return
    assert (got.tomography.v == want.tomography.v).all()
    assert got.tomography.scale_factors == want.tomography.scale_factors
    for setting in ("moments_on", "moments_off"):
        a, b = getattr(got, setting), getattr(want, setting)
        assert (a.mean == b.mean).all() and (a.cov == b.cov).all() and a.n == b.n
    assert got.binning == want.binning
    for setting in ("histograms_on", "histograms_off"):
        a, b = getattr(got, setting), getattr(want, setting)
        assert (a is None) == (b is None)
        for pair in PAIR_LABELS if a is not None else ():
            assert (a[pair].counts == b[pair].counts).all()
            assert (a[pair].n_total, a[pair].overflow) == (b[pair].n_total, b[pair].overflow)


def _stored_copy(state, pump_on, **kwargs):
    records = measure(state, pump_on=pump_on, **kwargs).quadratures()
    return RecordBatch._wrap(records.copy())


@pytest.mark.parametrize("seed", [1, 3])
@pytest.mark.parametrize("n", [2, 10_000 - 1, 3 * _SMALL_CHUNK + 7])
@pytest.mark.parametrize("method", ["histogram", "streaming"])
def test_recipe_pair_estimate_equals_stored_copies(monkeypatch, draws, method, n, seed):
    monkeypatch.setattr(detection, "_MEASURE_CHUNK", _SMALL_CHUNK)
    # a mixed state: every seed gives a physical estimate from 10^4 records
    state = tms_theory_covariance(1.0, 0.5)
    args = dict(config=_LOW_NOISE, n=n, seed=seed)
    want = _estimate_or_error(
        _stored_copy(state, True, **args), _stored_copy(state, False, **args), method
    )
    del draws[:]
    on = measure(state, pump_on=True, **args)
    off = measure(state, pump_on=False, **args)
    _assert_same_estimate(_estimate_or_error(on, off, method), want)
    assert len(draws) == 1
    assert n == 2 or not isinstance(want, Exception)


@pytest.mark.parametrize("seed", [6000, 6001, 6049])
def test_fused_pair_deconvolution_equals_reading_each_setting(draws, seed):
    # acceptance criterion 6 takes v_hat from the fused pass; this is the
    # path it took before, each pump setting read and calibrated on its own
    det = DetectionConfig()
    truth = tms_theory_covariance(1.2, 0.3)
    on = measure(truth, det, 100_000, seed=seed, pump_on=True)
    off = measure(truth, det, 100_000, seed=seed, pump_on=False)
    raw_on, raw_off = accumulate_moments(on), accumulate_moments(off)
    scales = calibrate(raw_off, det.noise_pair)
    want = deconvolve(apply_scale(raw_on, scales), apply_scale(raw_off, scales))
    assert len(draws) == 2
    est = estimate_state(on, off, det.noise_pair, method="streaming")
    assert len(draws) == 3  # one pass for both settings
    assert (deconvolve(est.moments_on, est.moments_off) == want).all()


def test_two_record_histogram_estimate_names_the_unresolved_pair():
    state = two_mode_squeeze(vacuum_state(2), 1.0)
    det = DetectionConfig()
    on = measure(state, det, 2, seed=3)
    off = measure(state, det, 2, seed=3, pump_on=False)
    with pytest.raises(
        DegenerateReferenceError, match=r"^histogram X1-P1 holds 2 in-range records, too few"
    ):
        estimate_state(on, off, det.noise_pair, method="histogram")


@pytest.mark.parametrize("method", ["histogram", "streaming"])
@pytest.mark.parametrize("differ", ["seed", "n", "config", "read"])
def test_unmatched_recipe_pair_draws_each_side(monkeypatch, draws, method, differ):
    # a mixed state: independent pump-on/pump-off draws still give a physical estimate
    monkeypatch.setattr(detection, "_MEASURE_CHUNK", _SMALL_CHUNK)
    state = tms_theory_covariance(1.0, 0.5)
    on_args = dict(config=_LOW_NOISE, n=20_000, seed=3)
    off_args = dict(on_args)
    if differ in ("seed", "n"):
        off_args[differ] += 1
    elif differ == "config":
        off_args["config"] = dataclasses.replace(_LOW_NOISE, gain_ch2=1.03)
    want = _estimate_or_error(
        _stored_copy(state, True, **on_args), _stored_copy(state, False, **off_args), method
    )
    del draws[:]
    on = measure(state, pump_on=True, **on_args)
    off = measure(state, pump_on=False, **off_args)
    if differ == "read":
        off.quadratures()
    # each side's record pass draws on the estimate's one worker, which also
    # adds the pump-off blocks: no thread beyond it while this thread adds
    # the pump-on blocks
    caller = threading.active_count()
    sampled = []

    def watched(add):
        def consumer(*args, **kwargs):
            if threading.current_thread() is threading.main_thread():
                sampled.append(threading.active_count())
            return add(*args, **kwargs)

        return consumer

    if method == "histogram":
        accumulator = tomography.HistogramAccumulator
    else:
        accumulator = MomentAccumulator
    monkeypatch.setattr(accumulator, "update", watched(accumulator.update))
    _assert_same_estimate(_estimate_or_error(on, off, method), want)
    assert not isinstance(want, Exception)
    assert len(draws) == 2
    assert len(sampled) >= 5 and max(sampled) <= caller + 1
    assert threading.active_count() == caller


@pytest.mark.filterwarnings("ignore:estimated covariance marginally unphysical")
def test_an_estimate_folds_each_settings_cells_once(monkeypatch):
    histograms = tomography.HistogramAccumulator.histograms
    folded = []

    def counted(self):
        folded.append(self)
        return histograms(self)

    monkeypatch.setattr(tomography.HistogramAccumulator, "histograms", counted)
    state = tms_theory_covariance(1.0, 0.0)
    est = estimate_state(
        measure(state, _LOW_NOISE, 40_000, seed=3),
        measure(state, _LOW_NOISE, 40_000, seed=3, pump_on=False),
        _LOW_NOISE.noise_pair,
    )
    assert len(folded) == 2 and folded[0] is not folded[1]
    assert est.histograms_on is not est.histograms_off


def test_failed_recipe_estimate_joins_the_draw_worker(monkeypatch):
    monkeypatch.setattr(detection, "_MEASURE_CHUNK", _SMALL_CHUNK)
    state = tms_theory_covariance(1.0, 0.0)
    on = measure(state, _LOW_NOISE, 3 * _SMALL_CHUNK + 7, seed=5)
    off = measure(state, _LOW_NOISE, 3 * _SMALL_CHUNK + 7, seed=5, pump_on=False)
    update = MomentAccumulator.update
    calls = []

    def failing_update(self, block):
        calls.append(block.shape[0])
        if len(calls) == 3:  # the pump-on half of the second block pair
            raise RuntimeError("update failed")
        return update(self, block)

    monkeypatch.setattr(MomentAccumulator, "update", failing_update)
    before = threading.active_count()
    # the traceback stays alive: the worker must be joined before the error
    # reaches the caller, not when the failed frames are freed
    with pytest.raises(RuntimeError, match="update failed") as failed_estimate:
        estimate_state(on, off, _LOW_NOISE.noise_pair, method="streaming")
    assert threading.active_count() == before
    del calls[:]
    with pytest.raises(RuntimeError, match="update failed") as failed_moments:
        accumulate_moments(on)
    assert threading.active_count() == before
    assert failed_estimate.traceback and failed_moments.traceback
    assert on._store is None and off._store is None


# ---------------------------------------------------------------------------
# moment sums on the cell grid: no block size moves a bit

_G = tomography._CELL
_GRID_N = 4 * _G + 7


def _same_moments(got, want):
    return np.array_equal(got.mean, want.mean) and np.array_equal(got.cov, want.cov)


@pytest.mark.parametrize("size", [1, 3, _G - 1, _G, 3 * _G + 5, _GRID_N])
def test_moments_do_not_depend_on_the_block_size(monkeypatch, size):
    state = tms_theory_covariance(1.0, 0.0)
    args = dict(config=_LOW_NOISE, n=_GRID_N, seed=20261018)
    stored_on = measure(state, pump_on=True, **args).quadratures()
    stored_off = measure(state, pump_on=False, **args).quadratures()
    want = accumulate_moments(stored_on)

    acc = MomentAccumulator()
    for lo in range(0, _GRID_N, size):
        acc.update(stored_on[lo : lo + size])
    assert _same_moments(acc.finalize(), want)

    chunked = MomentAccumulator()
    for block in RecordBatch._wrap(stored_on.copy()).chunks(size):
        chunked.update(block)
    assert _same_moments(chunked.finalize(), want)

    # the record engine drawing a fused pair in blocks of `size`; each block
    # costs a few thread handoffs, so the tiny blocks draw a short prefix
    n = _GRID_N if size > 3 else 4099
    stored = _estimate_or_error(stored_on[:n], stored_off[:n], "streaming")
    monkeypatch.setattr(detection, "_MEASURE_CHUNK", size)
    args["n"] = n
    fused = _estimate_or_error(
        measure(state, pump_on=True, **args), measure(state, pump_on=False, **args), "streaming"
    )
    _assert_same_estimate(fused, stored)
    assert not isinstance(stored, Exception)


def test_moment_merge_on_cell_boundaries_equals_one_pass():
    rng = np.random.default_rng(8)
    q = rng.standard_normal((_GRID_N, 4)) * [1.0, 2.0, 3.0, 4.0] + [0.5, -1.0, 3.0, 1e3]
    want = MomentAccumulator().update(q).finalize()
    for cuts in ([_G], [2 * _G], [4 * _G], [_G, 3 * _G], [_G, 2 * _G, 4 * _G]):
        edges = [0, *cuts, _GRID_N]
        shards = [MomentAccumulator().update(q[a:b]) for a, b in zip(edges, edges[1:])]
        left = shards[0]
        for shard in shards[1:]:
            left.merge(shard)
        assert _same_moments(left.finalize(), want)
        # merging the right-hand shards first gives the same sums
        right = shards[-1]
        for shard in shards[-2:0:-1]:
            right = MomentAccumulator().merge(shard).merge(right)
        assert _same_moments(MomentAccumulator().update(q[: edges[1]]).merge(right).finalize(), want)


@pytest.mark.filterwarnings("ignore:estimated covariance marginally unphysical")
def test_histogram_estimate_traced_peak_is_a_few_cells_whatever_the_length():
    # a pass holds its draw workspace, two block pairs and each setting's
    # cells and index buffers, 5.8 MiB in all; thread timing decides whether
    # the worker still holds block k's pump-off block when block k + 1's pair
    # is made, one 1 MiB pair
    state = tms_theory_covariance(1.78, 0.0)
    cfg = DetectionConfig()
    peaks = {}
    for n in (1_000_000, 4_000_000):
        on = measure(state, cfg, n, seed=5)
        off = measure(state, cfg, n, seed=5, pump_on=False)
        tracemalloc.start()
        try:
            estimate_state(on, off, cfg.noise_pair)
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[1_000_000] < 10 << 20
    assert peaks[4_000_000] <= peaks[1_000_000] + (1 << 20)


@pytest.mark.filterwarnings("ignore:estimated covariance marginally unphysical")
@pytest.mark.parametrize("method", ["histogram", "streaming"])
def test_recipe_pair_estimate_memory_is_a_few_blocks(method):
    # 2e6 records are 64 MB per pump setting; the pass holds a few blocks
    state = tms_theory_covariance(1.78, 0.0)
    cfg = DetectionConfig()
    on = measure(state, cfg, 2_000_000, seed=5)
    off = measure(state, cfg, 2_000_000, seed=5, pump_on=False)
    tracemalloc.start()
    try:
        estimate_state(on, off, cfg.noise_pair, method=method)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 << 20
    assert on._store is None and off._store is None
