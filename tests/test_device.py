"""Device-model oracles: reflection point values, tuning curve, gain map, PSD fit."""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from dataclasses import replace
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import least_squares

from jpatomo import device
from jpatomo.cli import _PSD_NOISE_KEY
from jpatomo.config import default_config

from jpatomo.device import (
    DEFAULT_DEVICE,
    DEFAULT_GAIN_ANCHOR,
    DEFAULT_PUMP,
    DeviceParams,
    GainProfile,
    PumpConfig,
    fit_psd,
    gain,
    gain_profile,
    psd,
    reflection,
    resonance_frequency,
)
from jpatomo.errors import (
    FitDegenerateError,
    FluxDivergenceError,
    NoConvergenceError,
    UnstableRegimeError,
)

TWO_PI = 2.0 * np.pi
GAMMA_ON_RESONANCE = -0.8518518518518519  # (2 - 25) / (2 + 25) = -23/27


def test_reflection_on_resonance_frozen_value():
    g = reflection(DEFAULT_DEVICE.omega_r_max, DEFAULT_DEVICE)
    assert g.real == pytest.approx(GAMMA_ON_RESONANCE, abs=1e-12)
    assert g.imag == pytest.approx(0.0, abs=1e-12)


def test_reflection_far_detuned_tends_to_unity():
    g = reflection(DEFAULT_DEVICE.omega_r_max + TWO_PI * 10e9, DEFAULT_DEVICE)
    assert abs(g - 1.0) < 1e-2


@given(delta=st.floats(-1e9, 1e9))
def test_reflection_passive(delta):
    g = reflection(DEFAULT_DEVICE.omega_r_max + delta, DEFAULT_DEVICE)
    assert abs(g) <= 1.0 + 1e-12


@given(delta=st.floats(-1e9, 1e9))
def test_reflection_lossless_is_unimodular(delta):
    lossless = replace(DEFAULT_DEVICE, gamma_i=0.0)
    g = reflection(lossless.omega_r_max + delta, lossless)
    assert abs(g) == pytest.approx(1.0, abs=1e-12)


def test_resonance_zero_flux_exact():
    assert resonance_frequency(0.0, DEFAULT_DEVICE) == DEFAULT_DEVICE.omega_r_max


def test_resonance_monotone_even_periodic():
    phis = np.linspace(0.0, 0.45, 400)
    om = resonance_frequency(phis, DEFAULT_DEVICE)
    assert np.all(np.diff(om) < 0)
    np.testing.assert_allclose(
        resonance_frequency(-phis, DEFAULT_DEVICE), om, rtol=1e-14
    )
    np.testing.assert_allclose(
        resonance_frequency(phis + 1.0, DEFAULT_DEVICE), om, rtol=1e-12
    )


def test_resonance_divergence_guard():
    with pytest.raises(FluxDivergenceError):
        resonance_frequency(0.5, DEFAULT_DEVICE)


def test_gain_peak_and_half_width():
    prof = GainProfile(g0=100.0, bandwidth=TWO_PI * 3e6, omega_p=DEFAULT_PUMP.omega_p)
    assert gain(0.0, prof) == 100.0
    assert gain(prof.bandwidth / 2.0, prof) == pytest.approx(50.5, abs=1e-12)
    deltas = np.linspace(-5e7, 5e7, 101)
    np.testing.assert_array_equal(gain(deltas, prof), gain(-deltas, prof))


def test_psd_is_gain_minus_one_plus_floor():
    prof = GainProfile(g0=100.0, bandwidth=TWO_PI * 3e6, omega_p=DEFAULT_PUMP.omega_p)
    deltas = np.linspace(-2e7, 2e7, 41)
    np.testing.assert_array_equal(
        psd(deltas, prof, 69.0), gain(deltas, prof) - 1.0 + 69.0
    )
    with pytest.raises(ValueError):
        psd(0.0, prof, -1.0)


def test_gain_bandwidth_product_constant_over_powers():
    products = []
    for power in np.linspace(-95.0, -80.7, 20):
        pump = replace(DEFAULT_PUMP, power_dbm=float(power))
        prof = gain_profile(pump, DEFAULT_DEVICE)
        products.append(np.sqrt(prof.g0) * prof.bandwidth)
    products = np.array(products)
    np.testing.assert_allclose(products, products[0], rtol=1e-12)
    expected = DEFAULT_DEVICE.gain_bandwidth_const * DEFAULT_DEVICE.kappa
    np.testing.assert_allclose(products, expected, rtol=1e-12)


def test_gain_profile_hits_anchor_exactly():
    prof = gain_profile(DEFAULT_PUMP, DEFAULT_DEVICE)
    assert prof.g0 == pytest.approx(DEFAULT_GAIN_ANCHOR.g0, rel=1e-12)
    assert prof.omega_p == DEFAULT_PUMP.omega_p


def test_gain_profile_monotone_toward_critical():
    g_values = []
    for power in [-90.0, -85.0, -82.0, -81.0, -80.7]:
        pump = replace(DEFAULT_PUMP, power_dbm=power)
        g_values.append(gain_profile(pump, DEFAULT_DEVICE).g0)
    assert np.all(np.diff(g_values) > 0)
    # Moving the pump frequency toward the critical frequency also raises G0.
    far = replace(DEFAULT_PUMP, omega_p=DEFAULT_PUMP.critical_omega_p + TWO_PI * 5e6)
    near = replace(DEFAULT_PUMP, omega_p=DEFAULT_PUMP.critical_omega_p + TWO_PI * 1e6)
    assert (
        gain_profile(near, DEFAULT_DEVICE).g0 > gain_profile(far, DEFAULT_DEVICE).g0
    )


def test_gain_profile_low_power_limit():
    pump = replace(DEFAULT_PUMP, power_dbm=-200.0)
    prof = gain_profile(pump, DEFAULT_DEVICE)
    assert prof.g0 == pytest.approx(1.0, abs=1e-2)
    assert prof.bandwidth == pytest.approx(
        DEFAULT_DEVICE.gain_bandwidth_const * DEFAULT_DEVICE.kappa, rel=1e-2
    )


def test_gain_profile_rejects_unstable_pump():
    with pytest.raises(UnstableRegimeError):
        gain_profile(replace(DEFAULT_PUMP, power_dbm=-80.6), DEFAULT_DEVICE)
    with pytest.raises(UnstableRegimeError):
        gain_profile(replace(DEFAULT_PUMP, power_dbm=-80.0), DEFAULT_DEVICE)


def test_fit_psd_noiseless_recovery():
    prof = GainProfile(g0=100.0, bandwidth=TWO_PI * 3e6, omega_p=DEFAULT_PUMP.omega_p)
    deltas = np.linspace(-2.5 * prof.bandwidth, 2.5 * prof.bandwidth, 200)
    samples = np.column_stack([deltas, psd(deltas, prof, 69.0)])
    fit = fit_psd(samples)
    assert fit.g0 == pytest.approx(100.0, rel=1e-8)
    assert fit.bandwidth == pytest.approx(prof.bandwidth, rel=1e-8)
    assert fit.n_noise == pytest.approx(69.0, rel=1e-8)


def test_fit_psd_noisy_recovery_single_seed():
    prof = GainProfile(g0=100.0, bandwidth=TWO_PI * 3e6, omega_p=DEFAULT_PUMP.omega_p)
    deltas = np.linspace(-2.5 * prof.bandwidth, 2.5 * prof.bandwidth, 200)
    rng = np.random.default_rng(11)
    noisy = psd(deltas, prof, 69.0) + rng.normal(0.0, 0.5, deltas.size)
    fit = fit_psd(np.column_stack([deltas, noisy]))
    assert 68.0 <= fit.n_noise <= 70.0
    assert fit.n_noise_stderr < 0.5
    assert fit.g0_stderr > 0


def test_fit_psd_flat_data_collapses_to_floor():
    deltas = np.linspace(-1e7, 1e7, 50)
    fit = fit_psd(np.column_stack([deltas, np.full(50, 69.0)]))
    assert fit.g0 == 1.0
    assert fit.n_noise == 69.0
    assert np.isnan(fit.bandwidth)


def test_fit_psd_degenerate_deltas():
    samples = np.column_stack([np.zeros(20), np.linspace(60, 80, 20)])
    with pytest.raises(FitDegenerateError):
        fit_psd(samples)


def test_fit_psd_input_validation():
    with pytest.raises(ValueError):
        fit_psd(np.zeros((5, 2)))
    with pytest.raises(ValueError):
        fit_psd(np.zeros((20, 3)))


def _reference_fit_psd(samples):
    """Bounded trust-region least squares, as `fit_psd` did it before
    variable projection.  Returns (params, stderrs, residual sum of squares)."""
    deltas, values = samples[:, 0], samples[:, 1]
    floor = float(np.min(values))
    amp = float(np.max(values) - floor)
    above_half = deltas[values - floor >= 0.5 * amp]
    span = float(np.ptp(deltas))
    b0 = float(np.ptp(above_half)) if above_half.size >= 2 else span / 4.0
    x0 = np.array([1.0 + amp, max(b0, span * 1e-3), max(floor, 0.0)])

    def residual(x):
        return (x[0] - 1.0) / (1.0 + (2.0 * deltas / x[1]) ** 2) + x[2] - values

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # trf probing near B = 0
        res = least_squares(
            residual, x0, bounds=([1.0, span * 1e-9, 0.0], [np.inf] * 3),
            method="trf", x_scale="jac", xtol=1e-12, ftol=1e-12, gtol=1e-12,
            max_nfev=10_000,
        )
    assert res.status != 0
    s2 = 2.0 * res.cost / (len(values) - 3)
    err = np.sqrt(np.maximum(np.diag(s2 * np.linalg.pinv(res.jac.T @ res.jac)), 0.0))
    return res.x, err, 2.0 * res.cost


def _psd_cost(fit, samples):
    deltas, values = samples[:, 0], samples[:, 1]
    model = fit.n_noise
    if fit.g0 != 1.0:  # g0 = 1: no peak, and a nan bandwidth
        model = (fit.g0 - 1.0) / (1.0 + (2.0 * deltas / fit.bandwidth) ** 2) + model
    return float(np.sum((model - values) ** 2))


def _default_psd_samples(offset):
    """The psd scenario's samples at the packaged config and run.psd_seed_offset."""
    cfg = default_config()
    prof = gain_profile(cfg.pump.build(), cfg.device.build(), cfg.pump.build_anchor())
    deltas = np.linspace(-3.0 * prof.bandwidth, 3.0 * prof.bandwidth, cfg.run.psd_points)
    seq = np.random.SeedSequence(cfg.run.seed, spawn_key=(_PSD_NOISE_KEY, offset))
    noise = cfg.run.psd_noise_sigma * np.random.Generator(np.random.PCG64(seq)).standard_normal(
        deltas.size
    )
    return np.column_stack([deltas, psd(deltas, prof, cfg.detection.n_noise) + noise])


@pytest.mark.parametrize("points", [200, 1000])
def test_fit_psd_grid_temporaries_stay_below_the_mmap_threshold(monkeypatch, points):
    # glibc maps a request of 128 KiB or more by default and trims the heap
    # top above twice that; every (bandwidths, samples) temporary of the ln B
    # grid comes from one np.multiply.outer and has its size
    samples = _default_psd_samples(0)
    if points != samples.shape[0]:
        deltas = np.linspace(samples[0, 0], samples[-1, 0], points)
        samples = np.column_stack([deltas, np.interp(deltas, *samples.T)])
    sizes = []

    class Multiply:
        def __call__(self, *args, **kwargs):
            return np.multiply(*args, **kwargs)

        def outer(self, a, b):
            product = np.multiply.outer(a, b)
            sizes.append(product.nbytes)
            return product

    class Numpy:
        multiply = Multiply()

        def __getattr__(self, name):
            return getattr(np, name)

    with monkeypatch.context() as patched:
        patched.setattr(device, "np", Numpy())
        fit = fit_psd(samples)
    assert len(sizes) > 1 and max(sizes) <= 128 << 10
    # the whole grid in one evaluation gives the same bits
    monkeypatch.setattr(device, "_PROFILE_BYTES", 1 << 30)
    assert fit == fit_psd(samples)


def test_fit_psd_matches_least_squares_reference_on_default_spectra():
    for offset in range(50):
        samples = _default_psd_samples(offset)
        fit = fit_psd(samples)
        (g0, bw, noise), err, _ = _reference_fit_psd(samples)
        assert fit.g0 == pytest.approx(g0, rel=1e-8, abs=0)
        assert fit.n_noise == pytest.approx(noise, rel=1e-8, abs=0)
        assert fit.bandwidth == pytest.approx(bw, rel=2e-8, abs=0)
        stderrs = (fit.g0_stderr, fit.bandwidth_stderr, fit.n_noise_stderr)
        np.testing.assert_allclose(stderrs, err, rtol=1e-6, atol=0)
        assert 68.0 <= fit.n_noise <= 70.0


@pytest.mark.parametrize(
    ("g0", "floor"),
    [(1.0, 69.0), (1.5, 69.0), (100.0, 0.0), (2.0, 0.0)],
    ids=["flat", "weak-peak", "zero-floor", "zero-floor-weak-peak"],
)
def test_fit_psd_cost_no_worse_than_reference_on_ill_posed_spectra(g0, floor):
    # no identifiable peak, or the n_noise >= 0 bound active: the two fitters
    # may stop at different points, but the new one may not fit worse
    prof = GainProfile(g0=g0, bandwidth=TWO_PI * 3e6, omega_p=DEFAULT_PUMP.omega_p)
    deltas = np.linspace(-2.5 * prof.bandwidth, 2.5 * prof.bandwidth, 200)
    rng = np.random.default_rng(31)
    for _ in range(25):
        samples = np.column_stack(
            [deltas, psd(deltas, prof, floor) + rng.normal(0.0, 0.5, deltas.size)]
        )
        _, _, cost_ref = _reference_fit_psd(samples)
        assert _psd_cost(fit_psd(samples), samples) <= cost_ref * (1.0 + 1e-7)


@pytest.mark.parametrize(
    "values",
    [
        lambda d: 5.0 - 3.0 * d**2,  # best fit runs to B -> infinity
        lambda d: 1.0 / np.maximum(d**2, 1e-3),  # a spike: B -> 0
        lambda d: np.where(d == d[25], 10.0, 1.0),  # one high sample
        lambda d: -5.0 + 0.1 * np.sin(7.0 * d),  # below the n_noise >= 0 bound
    ],
    ids=["parabola", "spike", "one-sample", "negative"],
)
def test_fit_psd_collinear_limits_are_finite_and_silent(values):
    deltas = np.linspace(-1.0, 1.0, 50)
    samples = np.column_stack([deltas, values(deltas)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit = fit_psd(samples)
    if np.max(samples[:, 1]) < 0.0:
        # no peak fits data below zero: the bandwidth is unidentified
        assert fit.g0 == 1.0
        assert np.isnan(fit.bandwidth) and np.isnan(fit.bandwidth_stderr)
    else:
        assert np.isfinite(fit.bandwidth) and fit.bandwidth >= 2e-9
    assert np.isfinite(fit.g0) and np.isfinite(fit.n_noise)
    assert fit.g0 >= 1.0 and fit.n_noise >= 0.0
    _, _, cost_ref = _reference_fit_psd(samples)
    assert _psd_cost(fit, samples) <= cost_ref * (1.0 + 1e-7)


@pytest.mark.parametrize(
    ("values", "n_noise"),
    [
        (lambda d: 1.0 + d**2, 1.0 + 17.0 / 49.0),  # rises away from delta = 0
        (lambda d: -5.0 + 0.1 * np.sin(7.0 * d), 0.0),  # below zero
    ],
    ids=["rising", "negative"],
)
def test_fit_psd_without_a_peak_reports_no_bandwidth(values, n_noise):
    deltas = np.linspace(-1.0, 1.0, 50)
    samples = np.column_stack([deltas, values(deltas)])
    fit = fit_psd(samples)
    assert fit.g0 == 1.0 and fit.n_noise == pytest.approx(n_noise, rel=1e-14, abs=0)
    assert np.isnan(fit.bandwidth) and np.isnan(fit.bandwidth_stderr)
    assert np.isnan(fit.g0_stderr)
    resid = samples[:, 1] - fit.n_noise
    assert fit.n_noise_stderr == pytest.approx(np.sqrt(resid @ resid / 47 / 50), rel=1e-14)
    _, _, cost_ref = _reference_fit_psd(samples)
    assert _psd_cost(fit, samples) <= cost_ref * (1.0 + 1e-7)


def _scalar_linear_fit(lor_sum, var, cov, n, y_mean, y_ss):
    """`device._linear_fit` for one bandwidth, as fit_psd looped it over
    the ln B grid before the fit was written over arrays."""
    amp = cov / var if var > 0.0 else 0.0
    noise = y_mean - amp * lor_sum / n
    if amp >= 0.0 and noise >= 0.0:
        return y_ss - amp * cov, amp, noise
    flat_noise = max(y_mean, 0.0)
    flat = (y_ss + n * (y_mean - flat_noise) ** 2, 0.0, flat_noise)
    lor_y = cov + y_mean * lor_sum
    peak_amp = max(lor_y / (var + lor_sum**2 / n), 0.0)
    peak = (y_ss + n * y_mean**2 - peak_amp * lor_y, peak_amp, 0.0)
    return min(flat, peak)


def _grid_sums(values):
    """(lor_sum, var, cov), n, y_mean, y_ss of `values` over a ln B grid."""
    deltas = np.linspace(-3.0, 3.0, len(values))
    y_mean = float(values.mean())
    y_dev = values - y_mean
    log_b = np.linspace(np.log(1e-3), np.log(1e3), 61)
    sums = device._lorentz_sums(log_b, (2.0 * deltas) ** 2, y_dev)
    return sums, values.size, y_mean, float(y_dev @ y_dev)


_LOR = 1.0 / (1.0 + (2.0 * np.linspace(-3.0, 3.0, 41)) ** 2)


@pytest.mark.parametrize(
    ("case", "branch"),
    [
        (_grid_sums(3.0 + 4.0 * _LOR), "interior"),
        (_grid_sums(4.0 * _LOR - 1.0), "peak"),  # noise < 0 inside: noise = 0
        (_grid_sums(5.0 - 2.0 * _LOR), "flat"),  # a dip, amp < 0 inside: amp = 0
        (((np.array([4.0, 2.0]), np.zeros(2), np.zeros(2)), 4, 2.0, 3.0), "var=0"),
        (((np.array([4.0, 2.0]), np.zeros(2), np.zeros(2)), 4, -1.0, 3.0), "var=0"),
        # both edge costs round to y_ss: the flat fit is kept over a peak
        (((np.array([2.0]), np.array([0.5]), np.array([2.0])), 4, 1.0, 1e20), "tie"),
        # a tie of two equal fits: amp = noise = 0
        (((np.array([2.0]), np.array([0.5]), np.array([-3.0])), 4, -1.0, 7.0), "tie"),
    ],
    ids=["interior", "peak-edge", "flat-edge", "var0", "var0-negative-mean", "tie", "tie-equal"],
)
def test_linear_fit_over_arrays_equals_the_scalar_form(case, branch):
    (lor_sum, var, cov), n, y_mean, y_ss = case
    got = device._linear_fit(lor_sum, var, cov, n, y_mean, y_ss)
    want = [_scalar_linear_fit(*row, n, y_mean, y_ss) for row in zip(lor_sum, var, cov)]
    np.testing.assert_array_equal(np.stack(got), np.array(want).T)
    cost, amp, noise = got
    if branch == "interior":
        assert np.any((amp > 0.0) & (noise > 0.0))
    elif branch == "peak":
        assert np.any((amp > 0.0) & (noise == 0.0))
    elif branch == "flat":
        assert np.any((amp == 0.0) & (noise == y_mean))
    elif branch == "var=0":
        assert np.all(amp == 0.0) and np.all(noise == max(y_mean, 0.0))
    else:
        assert np.all(amp == 0.0)
        flat_cost = y_ss + n * (y_mean - max(y_mean, 0.0)) ** 2
        assert np.all(cost == flat_cost) and np.all(noise == max(y_mean, 0.0))


def test_fit_psd_line_search_is_brent(monkeypatch):
    # golden section took 30 evaluations to narrow the bracket to
    # _LOG_B_TOL on these spectra; Brent's parabolic steps need well under 15
    calls = []
    sums = device._lorentz_sums

    def counted(log_b, d2, y_dev):
        calls.append(np.size(log_b))
        return sums(log_b, d2, y_dev)

    monkeypatch.setattr(device, "_lorentz_sums", counted)
    for offset in range(50):
        del calls[:]
        fit_psd(_default_psd_samples(offset))
        # the grid in two row groups (see device._PROFILE_BYTES), then one
        # bandwidth per line-search step
        assert calls[:2] == [51, 50] and sum(calls[:2]) == device._LOG_B_STEPS.size
        assert all(size == 1 for size in calls[2:])
        assert 1 <= len(calls) - 2 <= 15


def test_fit_psd_step_cap_raises_no_convergence(monkeypatch):
    prof = GainProfile(g0=100.0, bandwidth=TWO_PI * 3e6, omega_p=DEFAULT_PUMP.omega_p)
    deltas = np.linspace(-2.5 * prof.bandwidth, 2.5 * prof.bandwidth, 200)
    noisy = psd(deltas, prof, 69.0) + np.random.default_rng(11).normal(0.0, 0.5, 200)
    monkeypatch.setattr(device, "_POLISH_STEPS", 1)
    with pytest.raises(NoConvergenceError):
        fit_psd(np.column_stack([deltas, noisy]))


def test_device_params_validation():
    with pytest.raises(ValueError):
        DeviceParams(kappa=0.0)
    with pytest.raises(ValueError):
        DeviceParams(participation=1.0)
    with pytest.raises(ValueError):
        DeviceParams(gamma_i=-1.0)


def test_pump_defaults_match_operating_point():
    assert DEFAULT_PUMP.omega_p == pytest.approx(TWO_PI * 6.8834e9)
    assert DEFAULT_PUMP.critical_omega_p == pytest.approx(TWO_PI * 6.882e9)
    assert DEFAULT_PUMP.power_dbm == -80.8
    assert DEFAULT_PUMP.critical_power_dbm == -80.6
