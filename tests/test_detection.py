"""Filter design, filtered-mode moments, and heterodyne record synthesis."""

import dataclasses
import pickle
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jpatomo import detection
from jpatomo.detection import (
    DetectionConfig,
    FilterSpec,
    RecordBatch,
    design_filter,
    measure,
    output_two_mode_state,
    predicted_r,
)
from jpatomo.device import (
    DEFAULT_DEVICE,
    DEFAULT_PUMP,
    GainProfile,
    gain_profile,
)
from jpatomo.errors import (
    InternalConsistencyError,
    InvalidCovarianceError,
    InvalidGridError,
    UnsupportedFilterError,
)
from jpatomo.gaussian import (
    GaussianState,
    _cholesky_with_jitter,
    tms_theory_covariance,
    two_mode_squeeze,
    vacuum_state,
    witness,
)

TWO_PI = 2.0 * np.pi

# arccosh(2); squeezing of a flat G = 4 profile under any normalized filter
R_FLAT_G4 = 1.3169578969248168
# cosh(2 * 1.78) / 4; on-diagonal covariance at the nominal operating point
DIAG_R178 = 4.3989544962276
# (2 * 69 + 1) / 4 + 1 / 4; record variance with the pump off at N = 69
VAR_PUMP_OFF = 35.0
# DIAG_R178 + (2 * 69 + 1) / 4; record variance with the pump on
VAR_PUMP_ON = 39.1489544962276


def default_filter() -> FilterSpec:
    return design_filter(TWO_PI * 5.0e6, "raised-cosine-notch", TWO_PI * 4.0e6, 2001)


def flat_profile(g0: float) -> GainProfile:
    # Bandwidth so large the Lorentzian is constant across any lab-scale grid.
    return GainProfile(g0=g0, bandwidth=1e15, omega_p=TWO_PI * 6.8834e9)


# ---------------------------------------------------------------------------
# filter design


@pytest.mark.parametrize("shape", ["boxcar-notch", "raised-cosine-notch"])
def test_filter_invariants(shape):
    filt = design_filter(TWO_PI * 5.0e6, shape, TWO_PI * 4.0e6, 2001)
    assert filt.grid.size == 2001
    # antisymmetric grid, exact mirror, exact notch
    np.testing.assert_array_equal(filt.grid, -filt.grid[::-1])
    assert filt.weights[filt.grid.size // 2] == 0.0
    assert abs(np.sum(np.abs(filt.weights) ** 2) * filt.spacing - 1.0) < 1e-10
    np.testing.assert_array_equal(filt.mirrored_weights, filt.weights[::-1])


@pytest.mark.parametrize("shape", ["boxcar-notch", "raised-cosine-notch"])
def test_filter_pair_does_not_overlap_when_offset_exceeds_width(shape):
    filt = design_filter(TWO_PI * 5.0e6, shape, TWO_PI * 4.0e6, 2001)
    assert np.max(np.abs(filt.weights * filt.mirrored_weights)) == 0.0


@given(
    # a width of at most twice the offset: the band and its mirror stay apart
    offset_width_mhz=st.floats(2.0, 20.0).flatmap(
        lambda offset: st.tuples(st.just(offset), st.floats(0.5, min(8.0, 2.0 * offset)))
    ),
    n=st.integers(101, 4001),
    shape=st.sampled_from(["boxcar-notch", "raised-cosine-notch"]),
)
@settings(max_examples=40, deadline=None)
def test_filter_normalization_property(offset_width_mhz, n, shape):
    offset_mhz, width_mhz = offset_width_mhz
    filt = design_filter(TWO_PI * offset_mhz * 1e6, shape, TWO_PI * width_mhz * 1e6, n)
    assert abs(np.sum(np.abs(filt.weights) ** 2) * filt.spacing - 1.0) < 1e-10
    assert filt.grid.size % 2 == 1
    assert filt.weights[filt.grid.size // 2] == 0.0


def test_even_grid_points_rounded_up_to_odd():
    filt = design_filter(TWO_PI * 5.0e6, "boxcar-notch", TWO_PI * 4.0e6, 2000)
    assert filt.grid.size == 2001


def test_design_filter_rejects_narrow_span():
    with pytest.raises(InvalidGridError):
        design_filter(
            TWO_PI * 5.0e6,
            "boxcar-notch",
            TWO_PI * 4.0e6,
            2001,
            span=TWO_PI * 10.0e6,
        )
    # the three nodes -10.3, 0 and 10.3 all miss the band 10 +- 0.05
    with pytest.raises(InvalidGridError, match="does not intersect"):
        design_filter(offset=10.0, shape="boxcar-notch", width=0.1, grid_points=3)
    # the narrowest span accepted: offset + 3 width, less the 1e-12 tolerance
    edge = (TWO_PI * 5.0e6 + 3.0 * TWO_PI * 4.0e6) * (1.0 - 1e-12)
    design_filter(TWO_PI * 5.0e6, "boxcar-notch", TWO_PI * 4.0e6, 2001, span=edge)


def test_design_filter_validation():
    with pytest.raises(ValueError):
        design_filter(TWO_PI * 5.0e6, "gaussian", TWO_PI * 4.0e6)
    with pytest.raises(ValueError):
        design_filter(TWO_PI * 5.0e6, "boxcar-notch", -1.0)
    with pytest.raises(ValueError):
        design_filter(-1.0, "boxcar-notch", TWO_PI * 4.0e6)
    with pytest.raises(ValueError, match="width must be > 0"):
        design_filter(TWO_PI * 5.0e6, "boxcar-notch", 0.0)
    with pytest.raises(ValueError, match="grid_points must be >= 3"):
        design_filter(TWO_PI * 5.0e6, "boxcar-notch", TWO_PI * 4.0e6, grid_points=1)


@pytest.mark.parametrize("shape", ["boxcar-notch", "raised-cosine-notch"])
def test_filter_weights_follow_the_design_formula(shape):
    # offset 2, width 4 on the integer nodes -14..14: the band [0, 4] has nodes
    # on both edges, and the notch (sigma_n = 0.2) weighs on the node at 1
    filt = design_filter(2.0, shape, 4.0, grid_points=29)
    np.testing.assert_array_equal(filt.grid, np.arange(-14.0, 15.0))
    u = (filt.grid - 2.0) / 2.0
    if shape == "boxcar-notch":
        w = np.where(np.abs(u) <= 1.0, 1.0, 0.0)
    else:
        taper = np.where(np.abs(u) <= 1.0, np.cos(np.pi * u / 2.0) ** 2, 0.0)
        w = taper * (1.0 - np.exp(-(filt.grid**2) / (2.0 * 0.2**2)))
    w[14] = 0.0
    w /= np.sqrt(np.sum(w**2))
    np.testing.assert_array_equal(filt.weights != 0.0, w != 0.0)  # nodes 1..4
    np.testing.assert_allclose(filt.weights.real, w, rtol=1e-12, atol=0.0)


def test_filterspec_rejects_bad_grids():
    grid = (np.arange(5) - 2) * 1.0
    w = np.array([0.0, 0.0, 0.0, 1.0, 1.0], dtype=np.complex128)  # one-sided
    w = w / np.sqrt(np.sum(np.abs(w) ** 2) * 1.0)
    FilterSpec(offset=1.5, grid=grid, weights=w)  # sane baseline accepted
    FilterSpec(offset=1.0, grid=grid[1:4], weights=np.array([0, 0, 1], complex))  # 3 nodes
    with pytest.raises(UnsupportedFilterError, match="shapes differ"):
        FilterSpec(offset=1.5, grid=grid, weights=w[1:4])
    with pytest.raises(UnsupportedFilterError):
        FilterSpec(offset=0.0, grid=grid + 0.5, weights=w)  # asymmetric
    with pytest.raises(UnsupportedFilterError):
        FilterSpec(offset=0.0, grid=grid**3, weights=w)  # non-uniform
    with pytest.raises(UnsupportedFilterError):
        FilterSpec(offset=0.0, grid=np.arange(4) - 1.5, weights=w[:4])  # even
    with pytest.raises(ValueError):
        FilterSpec(offset=0.0, grid=grid, weights=2.0 * w)  # unnormalized
    bad = w.copy()
    bad[2] = bad[3]
    bad = bad / np.sqrt(np.sum(np.abs(bad) ** 2))
    with pytest.raises(ValueError):
        FilterSpec(offset=1.5, grid=grid, weights=bad)  # pump bin not zero


def test_filterspec_rejects_a_filter_that_overlaps_its_mirror():
    # both sides of the pump: f1 and its mirror share the grid points +-1, +-2
    grid = (np.arange(5) - 2) * 1.0
    w = np.array([1.0, 1.0, 0.0, 1.0, 1.0], dtype=np.complex128) / 2.0
    with pytest.raises(UnsupportedFilterError, match="overlaps its mirror at 4 grid points"):
        FilterSpec(offset=0.0, grid=grid, weights=w)
    # one shared point is enough
    w = np.array([0.0, 1.0, 0.0, 1.0, 1.0], dtype=np.complex128) / np.sqrt(3.0)
    with pytest.raises(UnsupportedFilterError, match="at 2 grid points"):
        FilterSpec(offset=1.0, grid=grid, weights=w)


@pytest.mark.parametrize("shape", ["boxcar-notch", "raised-cosine-notch"])
def test_design_filter_rejects_a_band_wider_than_twice_its_offset(shape):
    with pytest.raises(UnsupportedFilterError, match="overlaps its mirror"):
        design_filter(TWO_PI * 1.0e6, shape, TWO_PI * 4.0e6, 2001)
    with pytest.raises(UnsupportedFilterError, match="overlaps its mirror"):
        design_filter(0.0, shape, TWO_PI * 4.0e6, 2001)
    # offset = width / 2: the band touches its mirror only at the pump bin,
    # whose weight is zero
    filt = design_filter(TWO_PI * 2.0e6, shape, TWO_PI * 4.0e6, 2001)
    assert np.max(np.abs(filt.weights * filt.mirrored_weights)) == 0.0
    assert np.count_nonzero(filt.weights[filt.grid > 0.0]) > 0


# ---------------------------------------------------------------------------
# predicted squeezing


def test_predicted_r_unit_gain_is_zero():
    assert predicted_r(default_filter(), flat_profile(1.0)) == 0.0


def test_predicted_r_flat_gain_matches_arccosh():
    # cosh^2 r = G for flat gain, independent of the filter shape
    filt = design_filter(TWO_PI * 5.0e6, "boxcar-notch", TWO_PI * 4.0e6, 2001)
    assert abs(predicted_r(filt, flat_profile(4.0)) - R_FLAT_G4) < 1e-12
    assert abs(predicted_r(default_filter(), flat_profile(4.0)) - R_FLAT_G4) < 1e-12


def test_predicted_r_default_chain_hits_operating_point():
    profile = gain_profile(DEFAULT_PUMP, DEFAULT_DEVICE)
    assert abs(predicted_r(default_filter(), profile) - 1.75) < 1e-12


def test_predicted_r_rejects_subunity_integral():
    grid = (np.arange(2001) - 1000) * (TWO_PI * 17.0e6 / 1000)
    w = np.zeros(2001)
    w[-1] = 1.0
    w = w / np.sqrt(np.sum(w**2) * FilterSpec.spacing_of(grid))
    filt = FilterSpec(offset=grid[-1], grid=grid, weights=w.astype(np.complex128))
    flat_unit = GainProfile(g0=1.0, bandwidth=1e15, omega_p=TWO_PI * 6.8834e9)
    # all the filter mass sits on an endpoint, where the trapezoid rule keeps
    # only half of it: the integral lands at 1/2, far below the physical floor
    with pytest.raises(InternalConsistencyError):
        predicted_r(filt, flat_unit)


# ---------------------------------------------------------------------------
# filtered two-mode state


def test_output_state_unit_gain_is_vacuum():
    state = output_two_mode_state(flat_profile(1.0), default_filter())
    np.testing.assert_allclose(state.cov, np.eye(4) / 4.0, atol=1e-15)


def test_output_state_flat_gain_is_exact_two_mode_squeezed_vacuum():
    filt = design_filter(TWO_PI * 5.0e6, "boxcar-notch", TWO_PI * 4.0e6, 2001)
    profile = flat_profile(4.0)
    r = predicted_r(filt, profile)
    state = output_two_mode_state(profile, filt)
    theory = tms_theory_covariance(r)
    np.testing.assert_allclose(state.cov, theory.cov, rtol=0.0, atol=1e-9)


def test_output_state_diagonal_tracks_predicted_r_exactly():
    # holds for curved gain too: both reduce to the same filtered integral
    profile = gain_profile(DEFAULT_PUMP, DEFAULT_DEVICE)
    filt = default_filter()
    r = predicted_r(filt, profile)
    state = output_two_mode_state(profile, filt)
    for k in range(4):
        assert abs(state.cov[k, k] - np.cosh(2.0 * r) / 4.0) < 1e-9


def test_output_state_curved_gain_cross_term_slightly_below_pure_bound():
    profile = gain_profile(DEFAULT_PUMP, DEFAULT_DEVICE)
    filt = default_filter()
    r = predicted_r(filt, profile)
    state = output_two_mode_state(profile, filt)
    bound = np.sinh(2.0 * r) / 4.0
    assert state.cov[0, 2] <= bound + 1e-12
    assert state.cov[0, 2] > 0.98 * bound
    assert abs(state.cov[1, 3] + state.cov[0, 2]) < 1e-12


def test_output_state_is_physical_and_witness_below_vacuum():
    profile = gain_profile(DEFAULT_PUMP, DEFAULT_DEVICE)
    state = output_two_mode_state(profile, default_filter())
    from jpatomo.gaussian import is_physical

    assert is_physical(state)
    assert witness(state) < 0.05  # strongly entangled at the operating point


def test_output_state_thermal_input_moments():
    # flat gain: every moment has a closed form in (G, nbar)
    g0, nbar = 4.0, 0.4
    filt = design_filter(TWO_PI * 5.0e6, "boxcar-notch", TWO_PI * 4.0e6, 2001)
    state = output_two_mode_state(flat_profile(g0), filt, input_thermal=nbar)
    n1 = (g0 - 1.0) * (1.0 + nbar) + g0 * nbar
    cross = (1.0 + 2.0 * nbar) * np.sqrt(g0 * (g0 - 1.0)) / 2.0
    assert abs(state.cov[0, 0] - (2.0 * n1 + 1.0) / 4.0) < 1e-12
    assert abs(state.cov[0, 2] - cross) < 1e-12
    assert abs(state.cov[1, 3] + cross) < 1e-12


def test_output_state_rejects_negative_thermal():
    with pytest.raises(ValueError):
        output_two_mode_state(flat_profile(2.0), default_filter(), input_thermal=-0.1)


# ---------------------------------------------------------------------------
# detection config


def test_detection_config_defaults_and_noise_pair():
    cfg = DetectionConfig()
    assert cfg.noise_pair == (69.0, 69.0)
    cfg2 = DetectionConfig(n_noise_ch2=42.0)
    assert cfg2.noise_pair == (69.0, 42.0)


def test_detection_config_validation():
    with pytest.raises(ValueError):
        DetectionConfig(n_noise=-1.0)
    with pytest.raises(ValueError):
        DetectionConfig(gain_ch1=0.0)
    with pytest.raises(ValueError):
        DetectionConfig(n_noise_ch2=-0.5)
    with pytest.raises(ValueError):
        DetectionConfig(gain_ch2=0.0)
    assert DetectionConfig(n_noise_ch2=0.0).noise_pair == (69.0, 0.0)


# ---------------------------------------------------------------------------
# record synthesis


def test_measure_vacuum_without_added_noise_has_half_vacuum_variance():
    # heterodyne splits: Var(Re S) = Var(x_sig) + Var(x_aux) = 1/4 + 1/4
    cfg = DetectionConfig(n_noise=0.0, gain_ch1=1.0, gain_ch2=1.0)
    batch = measure(vacuum_state(2), cfg, 400_000, seed=5)
    q = batch.quadratures()
    np.testing.assert_allclose(q.var(axis=0), 0.5, atol=0.01)
    np.testing.assert_allclose(q.mean(axis=0), 0.0, atol=0.01)


def test_measure_pump_off_variance_matches_noise_budget():
    cfg = DetectionConfig(gain_ch1=1.0, gain_ch2=1.0)
    state = two_mode_squeeze(vacuum_state(2), 1.78)
    batch = measure(state, cfg, 1_000_000, seed=9, pump_on=False)
    q = batch.quadratures()
    # sigma(var-hat) ~ sqrt(2/n) * var; allow 5 sigma
    tol = 5.0 * np.sqrt(2.0 / 1_000_000) * VAR_PUMP_OFF
    np.testing.assert_allclose(q.var(axis=0), VAR_PUMP_OFF, atol=tol)


def test_measure_pump_on_variance_matches_noise_budget():
    cfg = DetectionConfig(gain_ch1=1.0, gain_ch2=1.0)
    state = two_mode_squeeze(vacuum_state(2), 1.78)
    batch = measure(state, cfg, 1_000_000, seed=9)
    q = batch.quadratures()
    tol = 5.0 * np.sqrt(2.0 / 1_000_000) * VAR_PUMP_ON
    np.testing.assert_allclose(q.var(axis=0), VAR_PUMP_ON, atol=tol)


def test_measure_channel_gains_scale_records():
    cfg = DetectionConfig(gain_ch1=1.0, gain_ch2=1.0)
    cfg_scaled = DetectionConfig(gain_ch1=2.0, gain_ch2=3.0)
    state = two_mode_squeeze(vacuum_state(2), 0.8)
    a = measure(state, cfg, 1000, seed=3)
    b = measure(state, cfg_scaled, 1000, seed=3)
    np.testing.assert_allclose(b.s1, 2.0 * a.s1, rtol=1e-12)
    np.testing.assert_allclose(b.s2, 3.0 * a.s2, rtol=1e-12)


def test_measure_deterministic_and_seed_sensitive():
    state = two_mode_squeeze(vacuum_state(2), 1.0)
    cfg = DetectionConfig()
    a = measure(state, cfg, 2048, seed=11)
    b = measure(state, cfg, 2048, seed=11)
    c = measure(state, cfg, 2048, seed=12)
    np.testing.assert_array_equal(a.s1, b.s1)
    np.testing.assert_array_equal(a.s2, b.s2)
    assert not np.array_equal(a.s1, c.s1)


def test_measure_prefix_stability():
    # growing n extends the record stream without altering the prefix
    state = two_mode_squeeze(vacuum_state(2), 1.0)
    cfg = DetectionConfig()
    short = measure(state, cfg, 500, seed=21)
    long = measure(state, cfg, 2000, seed=21)
    np.testing.assert_array_equal(long.s1[:500], short.s1)
    # the last block of a pass one record past a block is one row long; a
    # one-row product rounds differently for about one record in three, and
    # a quiet chain's aux noise hides fewer of the differing bits
    n = detection._MEASURE_CHUNK
    quiet = DetectionConfig(n_noise=0.0)
    for seed in range(21, 29):
        one_row = measure(state, quiet, n + 1, seed=seed).quadratures()
        seven_rows = measure(state, quiet, n + 7, seed=seed).quadratures()
        assert one_row[n].tobytes() == seven_rows[n].tobytes()


def test_measure_pump_off_equals_vacuum_measurement():
    state = two_mode_squeeze(vacuum_state(2), 1.78)
    cfg = DetectionConfig()
    off = measure(state, cfg, 1000, seed=7, pump_on=False)
    vac = measure(vacuum_state(2), cfg, 1000, seed=7, pump_on=True)
    np.testing.assert_array_equal(off.s1, vac.s1)
    np.testing.assert_array_equal(off.s2, vac.s2)


def test_measure_on_off_pairing_cancels_common_noise():
    # same seed => shared auxiliary draws; per-record on-off differences
    # carry far less variance than two independent acquisitions would
    state = two_mode_squeeze(vacuum_state(2), 1.78)
    cfg = DetectionConfig(gain_ch1=1.0, gain_ch2=1.0)
    on = measure(state, cfg, 100_000, seed=13, pump_on=True)
    off = measure(state, cfg, 100_000, seed=13, pump_on=False)
    diff_var = (on.s1.real - off.s1.real).var()
    assert diff_var < 0.1 * (2.0 * VAR_PUMP_OFF)


def _complex_column_records(state, config, n, seed, chunk):
    """Records built as complex channel samples, one chunk of draws at a time."""
    chol = _cholesky_with_jitter(state.cov)
    n1, n2 = config.noise_pair
    noise_sd = np.sqrt((2.0 * np.array([n1, n1, n2, n2]) + 1.0) / 4.0)
    s1 = np.empty(n, dtype=np.complex128)
    s2 = np.empty(n, dtype=np.complex128)
    rng_sig, rng_noise = (
        np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(0, c)))
        )
        for c in (0, 1)
    )
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        quads = state.mean + rng_sig.standard_normal((hi - lo, 4)) @ chol.T
        aux = rng_noise.standard_normal((hi - lo, 4)) * noise_sd
        s1[lo:hi] = config.gain_ch1 * (
            (quads[:, 0] + aux[:, 0]) + 1j * (quads[:, 1] - aux[:, 1])
        )
        s2[lo:hi] = config.gain_ch2 * (
            (quads[:, 2] + aux[:, 2]) + 1j * (quads[:, 3] - aux[:, 3])
        )
    return np.column_stack([s1.real, s1.imag, s2.real, s2.imag])


def test_measure_store_equals_complex_column_construction(monkeypatch):
    monkeypatch.setattr(detection, "_MEASURE_CHUNK", 1000)
    state = two_mode_squeeze(vacuum_state(2), 1.3)
    cfg = DetectionConfig(n_noise_ch2=40.0)
    for pump_on, source in ((True, state), (False, vacuum_state(2))):
        batch = measure(state, cfg, 4_003, seed=5, pump_on=pump_on)
        store = batch.quadratures()
        assert store.shape == (4_003, 4) and store.flags.c_contiguous
        ref = _complex_column_records(source, cfg, 4_003, seed=5, chunk=1000)
        assert store.tobytes() == ref.tobytes()


def _whole_chunk_records(source, config, n, seed, chunk):
    """(z @ chol.T + mean + aux * sd) * g over each whole chunk, with all
    of z and aux drawn at once from spawn keys (0, 0) and (0, 1)."""
    z, aux = (
        np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(0, channel)))
        ).standard_normal((n, 4))
        for channel in (0, 1)
    )
    chol = _cholesky_with_jitter(source.cov)
    sd1, sd2 = (np.sqrt((2.0 * n_k + 1.0) / 4.0) for n_k in config.noise_pair)
    sd = np.array([sd1, -sd1, sd2, -sd2])
    g = np.array([config.gain_ch1, config.gain_ch1, config.gain_ch2, config.gain_ch2])
    records = np.empty((n, 4))
    for lo in range(0, n, chunk):
        c = slice(lo, lo + chunk)
        records[c] = (z[c] @ chol.T + source.mean + aux[c] * sd) * g
    return records


@pytest.mark.parametrize("seed", [1, 3])
@pytest.mark.parametrize("chunk", [3, 4097, 1 << 14])
def test_row_blocked_engine_equals_whole_chunk_reference(monkeypatch, chunk, seed):
    # the reference is one product over the whole stream; a block size of 3
    # leaves a one-row last block, which must round as that product does
    monkeypatch.setattr(detection, "_MEASURE_CHUNK", chunk)
    state = two_mode_squeeze(vacuum_state(2), 1.3)
    cfg = DetectionConfig(n_noise_ch2=40.0)
    n = 3 * chunk + 7
    sources = (state, vacuum_state(2))
    want = [_whole_chunk_records(s, cfg, n, seed, n) for s in sources]
    # the pass lends its blocks: a list keeps copies
    blocks = [
        tuple(b.copy() for b in pair)
        for pair in detection._record_blocks(sources, cfg, n, seed)
    ]
    assert [on.shape[0] for on, _ in blocks] == [chunk] * (n // chunk) + [n % chunk]
    for got, ref in zip(zip(*blocks), want):
        assert (np.concatenate(got) == ref).all()
    for pump_on, ref in zip((True, False), want):
        stored = measure(state, cfg, n, seed=seed, pump_on=pump_on)
        assert (stored.quadratures() == ref).all()

    build = detection._build_block

    def build_on_this_thread_only(*args):
        if threading.current_thread() is not threading.main_thread():
            raise RuntimeError("worker build failed")
        build(*args)

    monkeypatch.setattr(detection, "_build_block", build_on_this_thread_only)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="worker build failed") as failed:
        list(detection._record_blocks(sources, cfg, n, seed))
    # joined before the error reached this frame, with the traceback still held
    assert threading.active_count() == before
    assert failed.traceback


@pytest.mark.parametrize("rows", [1, 15, 16, 17, (1 << 14) + 3])
def test_columnwise_ops_equal_the_per_column_broadcast(rows):
    # the aux scale, and the build's mean and gain steps
    rng = np.random.default_rng(rows)
    values = rng.standard_normal((rows, 4)) * [1.0, 3.0, 1e3, 1e-3]
    sd1, sd2 = (np.sqrt((2.0 * n + 1.0) / 4.0) for n in (69.0, 40.0))
    for ufunc, vector in (
        (np.multiply, [sd1, -sd1, sd2, -sd2]),
        (np.add, [0.3, -0.2, 1.7, 0.05]),
        (np.multiply, [1.0, 1.0, 1.02, 1.02]),
    ):
        got = values.copy()
        detection._columnwise(ufunc, got, detection._tiled(vector))
        assert (got == ufunc(values, np.array(vector))).all()
    with pytest.raises(ValueError):  # rows it cannot flatten without a copy
        detection._columnwise(np.add, np.zeros((3, 8))[:, :4], detection._tiled([1.0] * 4))


@pytest.mark.parametrize("seed", [1, 3])
def test_engine_off_the_tile_period_equals_whole_chunk_reference(monkeypatch, seed):
    # 4099 records is no multiple of detection._TILE_ROWS: every block ends
    # in a part of a tile; a displaced source exercises the mean step
    chunk = 4099
    monkeypatch.setattr(detection, "_MEASURE_CHUNK", chunk)
    squeezed = two_mode_squeeze(vacuum_state(2), 1.3)
    state = GaussianState(2, np.array([0.3, -0.2, 1.7, 0.05]), squeezed.cov)
    cfg = DetectionConfig(n_noise_ch2=40.0, gain_ch2=1.03)
    n = 3 * chunk + 7
    sources = (state, vacuum_state(2))
    want = [_whole_chunk_records(s, cfg, n, seed, chunk) for s in sources]
    blocks = [
        tuple(b.copy() for b in pair)
        for pair in detection._record_blocks(sources, cfg, n, seed)
    ]
    assert [on.shape[0] for on, _ in blocks] == [chunk, chunk, chunk, 7]
    for got, ref in zip(zip(*blocks), want):
        assert (np.concatenate(got) == ref).all()


@pytest.mark.parametrize("n", [3 * 4096 + 7, 100])
def test_every_allocation_of_a_pass_has_one_size(monkeypatch, n):
    # z, the two aux slots and the ring of two block pairs are one slab per
    # pass; a short last block is a leading view of a full-size ring slot
    monkeypatch.setattr(detection, "_MEASURE_CHUNK", 4096)
    state = two_mode_squeeze(vacuum_state(2), 1.3)
    cfg = DetectionConfig(n_noise_ch2=40.0)
    sources = (state, vacuum_state(2))
    want = [_whole_chunk_records(s, cfg, n, 5, 4096) for s in sources]
    rows = min(n, 4096)
    tail = (n - 1) // 4096 * 4096  # the first record of the last block
    workspaces = []
    generator = np.random.Generator

    class RecordingGenerator:
        def __init__(self, bit_generator):
            self._generator = generator(bit_generator)

        def standard_normal(self, out):
            workspaces.append(out.base)
            return self._generator.standard_normal(out=out)

    monkeypatch.setattr(np.random, "Generator", RecordingGenerator)
    blocks = list(detection._record_blocks(sources, cfg, n, 5))
    assert len(workspaces) == 2 * len(blocks)  # a z and an aux per block
    assert all(w is workspaces[0] for w in workspaces)
    assert workspaces[0].shape == (7, rows, 4)
    for pair in blocks:
        assert all(block.base is workspaces[0] for block in pair)
    for last, ref in zip(blocks[-1], want):
        assert last.shape[0] == n - tail
        assert (last == ref[tail:]).all()


def test_every_array_of_a_default_pass_is_below_the_huge_page_threshold(monkeypatch):
    # numpy advises transparent huge pages for an allocation of 4 MiB or
    # more, which adds whole 2 MiB pages to a run's peak RSS
    workspaces = []
    generator = np.random.Generator

    class RecordingGenerator:
        def __init__(self, bit_generator):
            self._generator = generator(bit_generator)

        def standard_normal(self, out):
            workspaces.append(out.base.nbytes)
            return self._generator.standard_normal(out=out)

    monkeypatch.setattr(np.random, "Generator", RecordingGenerator)
    sources = (two_mode_squeeze(vacuum_state(2), 1.3), vacuum_state(2))
    n = 2 * detection._MEASURE_CHUNK + 7
    blocks = detection._record_blocks(sources, DetectionConfig(), n, 5)
    pairs = [pair[0].base.nbytes for pair in blocks]
    assert len(pairs) == 3 and len(workspaces) == 6
    assert max(pairs + workspaces) < 4 << 20


@pytest.mark.parametrize("n_sources", [1, 2])
def test_a_pass_draws_into_one_slab_and_lends_each_block_until_the_one_after_next(
    monkeypatch, n_sources
):
    monkeypatch.setattr(detection, "_MEASURE_CHUNK", 4096)
    state = two_mode_squeeze(vacuum_state(2), 1.3)
    cfg = DetectionConfig(n_noise_ch2=40.0)
    sources = (state, vacuum_state(2))[:n_sources]
    n = 10 * 4096 + 7
    want = [_whole_chunk_records(s, cfg, n, 5, 4096) for s in sources]
    made = []
    empty = np.empty

    def counted(shape, *args, **kwargs):
        made.append(shape)
        return empty(shape, *args, **kwargs)

    monkeypatch.setattr(np, "empty", counted)
    taken = []
    for k, pair in enumerate(detection._record_blocks(sources, cfg, n, 5)):
        taken.append(pair)
        # block k - 1 still holds its records now that block k is taken
        for j in range(max(k - 1, 0), k + 1):
            for block, ref in zip(taken[j], want):
                assert (block == ref[j * 4096 : (j + 1) * 4096]).all()
        if k >= 2:  # drawn into block k - 2's memory
            assert all(map(np.shares_memory, pair, taken[k - 2]))
    assert len(taken) == 11
    # one slab per pass, nothing per block
    assert made == [(3 + 2 * n_sources, 4096, 4)]


def test_closing_the_engine_after_block_k_draws_nothing_past_block_k_plus_1(monkeypatch):
    chunk = 4096
    monkeypatch.setattr(detection, "_MEASURE_CHUNK", chunk)
    drawn = {0: 0, 1: 0}  # rows drawn per channel: 0 signal, 1 auxiliary noise
    generator = np.random.Generator

    class CountedGenerator:
        def __init__(self, bit_generator):
            self._channel = bit_generator.seed_seq.spawn_key[-1]
            self._generator = generator(bit_generator)

        def standard_normal(self, out):
            drawn[self._channel] += out.shape[0]
            return self._generator.standard_normal(out=out)

    monkeypatch.setattr(np.random, "Generator", CountedGenerator)
    sources = (two_mode_squeeze(vacuum_state(2), 1.0), vacuum_state(2))
    before = threading.active_count()
    for k in range(4):
        drawn.update({0: 0, 1: 0})
        engine = detection._record_blocks(sources, DetectionConfig(), 10 * chunk, 6)
        for _ in range(k + 1):
            next(engine)
        engine.close()
        assert drawn[0] == (k + 1) * chunk
        assert (k + 1) * chunk <= drawn[1] <= (k + 2) * chunk
        assert threading.active_count() == before


def test_measure_validation():
    state = two_mode_squeeze(vacuum_state(2), 1.0)
    cfg = DetectionConfig()
    with pytest.raises(ValueError):
        measure(vacuum_state(1), cfg, 10, seed=0)
    with pytest.raises(ValueError):
        measure(state, cfg, -1, seed=0)
    # checked at the call, not when the records are first read
    with pytest.raises(TypeError):
        measure(state, cfg, 10.5, seed=0)
    with pytest.raises(ValueError):
        measure(state, cfg, 10, seed=-1)


def test_measure_zero_records():
    batch = measure(vacuum_state(2), DetectionConfig(), 0, seed=0)
    assert len(batch) == 0


def test_measure_semidefinite_jitter_and_rejection():
    cfg = DetectionConfig()
    semi = GaussianState(2, np.zeros(4), np.diag([1.0, 0.0, 1.0, 0.0]))
    records = measure(semi, cfg, 100, seed=0).quadratures()
    assert records.shape == (100, 4) and np.all(np.isfinite(records))
    # Records are linear in the Cholesky diagonal over shared draws, so the
    # zero-variance P quadratures carry only the 1e-12 jitter's 1e-6 scale.
    vac = measure(semi, cfg, 100, seed=0, pump_on=False).quadratures()
    unit = measure(GaussianState(2, np.zeros(4), np.eye(4)), cfg, 100, seed=0)
    linear = 2.0 * vac - unit.quadratures()
    np.testing.assert_allclose(records[:, 1::2], linear[:, 1::2], rtol=0, atol=1e-5)
    indefinite = GaussianState(2, np.zeros(4), np.diag([1.0, -1.0, 1.0, 1.0]))
    with pytest.raises(InvalidCovarianceError):
        measure(indefinite, cfg, 10, seed=0)


# ---------------------------------------------------------------------------
# record container and serialization


def test_record_batch_quadrature_columns():
    batch = RecordBatch(
        np.array([1.0 + 2.0j, 3.0 - 4.0j]), np.array([5.0 + 6.0j, -7.0 + 8.0j])
    )
    q = batch.quadratures()
    np.testing.assert_array_equal(q[0], [1.0, 2.0, 5.0, 6.0])
    np.testing.assert_array_equal(q[1], [3.0, -4.0, -7.0, 8.0])


def test_record_batch_chunks_cover_all_records():
    batch = measure(vacuum_state(2), DetectionConfig(), 1000, seed=2)
    blocks = list(batch.chunks(size=256))
    assert [b.shape[0] for b in blocks] == [256, 256, 256, 232]
    np.testing.assert_array_equal(np.vstack(blocks), batch.quadratures())


@pytest.mark.parametrize("size", [0, -1, -256])
def test_record_batch_chunks_reject_a_size_below_one_before_drawing(draws, size):
    batch = measure(vacuum_state(2), DetectionConfig(), 1000, seed=2)
    stored = RecordBatch._wrap(np.zeros((10, 4)))
    for records in (batch, stored):
        with pytest.raises(ValueError, match="chunk size must be >= 1"):
            records.chunks(size)
    with pytest.raises(TypeError):
        batch.chunks(2.0)
    assert draws == [] and batch._store is None
    assert [b.shape[0] for b in batch.chunks(np.int64(400))] == [400, 400, 200]


def test_record_batch_binary_roundtrip(tmp_path):
    batch = measure(two_mode_squeeze(vacuum_state(2), 1.3), DetectionConfig(), 64, seed=3)
    path = tmp_path / "records.bin"
    batch.quadratures().astype("<f8").tofile(path)
    assert path.stat().st_size == 64 * 4 * 8
    back = RecordBatch.load_binary(path)
    np.testing.assert_array_equal(back.s1, batch.s1)
    np.testing.assert_array_equal(back.s2, batch.s2)


def test_recipe_draws_its_store_once_and_len_reads_nothing(draws):
    batch = measure(two_mode_squeeze(vacuum_state(2), 1.0), DetectionConfig(), 1000, seed=2)
    assert len(batch) == 1000 and draws == []
    store = batch.quadratures()
    assert batch.quadratures() is store and not store.flags.writeable
    assert np.shares_memory(batch.s1, store) and np.shares_memory(batch.s2, store)
    assert draws == [1]


def test_unread_recipe_streams_chunks_and_binary_on_the_global_grid(
    tmp_path, monkeypatch, draws
):
    monkeypatch.setattr(detection, "_MEASURE_CHUNK", 4096)
    state = two_mode_squeeze(vacuum_state(2), 1.3)
    cfg = DetectionConfig(n_noise_ch2=40.0)
    n = 3 * 4096 + 7
    store = measure(state, cfg, n, seed=4).quadratures()
    recipe = measure(state, cfg, n, seed=4)
    blocks = list(recipe.chunks())
    assert [b.shape[0] for b in blocks] == [4096, 4096, 4096, 7]
    for got, want in zip(blocks, RecordBatch._wrap(store.copy()).chunks(), strict=True):
        assert got.tobytes() == want.tobytes() and not got.flags.writeable
    assert recipe._store is None
    assert draws == [4, 4]


def test_record_batch_pickles_a_recipe_undrawn_and_a_store_read_only(draws):
    state = two_mode_squeeze(vacuum_state(2), 1.3)
    cfg = DetectionConfig(n_noise_ch2=40.0)
    data = pickle.dumps(measure(state, cfg, 10**7, seed=4))
    assert len(data) < 1024  # the recipe, not 320 MB of records
    assert len(pickle.loads(data)) == 10**7
    recipe = measure(state, cfg, 1000, seed=4)
    copy = pickle.loads(pickle.dumps(recipe))
    assert draws == [] and len(copy) == 1000
    assert copy.quadratures().tobytes() == recipe.quadratures().tobytes()
    stored = RecordBatch._wrap(recipe.quadratures().copy())
    back = pickle.loads(pickle.dumps(stored))
    assert back.quadratures().tobytes() == stored.quadratures().tobytes()
    assert not back.quadratures().flags.writeable
    assert draws == [1, 1]


def test_record_batch_binary_rejects_truncated_stream(tmp_path):
    path = tmp_path / "bad.bin"
    # 7 doubles; 3 records and 5 bytes; 4 records and 3 bytes
    for size in (8 * 7, 32 * 3 + 5, 32 * 4 + 3):
        path.write_bytes(b"\x00" * size)
        with pytest.raises(ValueError):
            RecordBatch.load_binary(path)


def test_record_batch_shape_validation():
    with pytest.raises(ValueError, match="equal length"):
        RecordBatch(np.zeros(3, np.complex128), np.zeros(4, np.complex128))
    with pytest.raises(TypeError, match=r"\(n, 4\) quadrature array"):
        list(detection._blocks_of(np.zeros((5, 3))))


def test_gain_bandwidth_constant_is_the_calibrated_coupling():
    # the device default ties sqrt(G0) * B = c * kappa to the default filter:
    # re-deriving c from the 1.75 operating point must reproduce the constant
    profile = gain_profile(DEFAULT_PUMP, DEFAULT_DEVICE)
    assert abs(profile.g0 - 100.0) < 1e-9
    c = np.sqrt(profile.g0) * profile.bandwidth / DEFAULT_DEVICE.kappa
    assert abs(c - DEFAULT_DEVICE.gain_bandwidth_const) < 1e-12
    assert abs(DEFAULT_DEVICE.gain_bandwidth_const - 1.1481518224756206) < 1e-15
