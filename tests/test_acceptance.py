"""Acceptance gate: nine end-to-end criteria, one test (and one pass/fail
line under -v) per criterion.

Statistical criteria run at frozen seeds, so every run is deterministic;
tolerances are pinned in the asserts.  Run with -s to get a CRITERION
summary line with the measured numbers.
"""

import dataclasses
import json
import math
import time

import numpy as np
import pytest

from jpatomo.cli import run_scenario
from jpatomo.config import default_config
from jpatomo.detection import (
    DetectionConfig,
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
    fit_psd,
    gain_profile,
    psd,
    reflection,
    resonance_frequency,
)
from jpatomo.gaussian import GaussianState, is_physical, tms_theory_covariance
from jpatomo.tomography import (
    PAIR_LABELS,
    Histogram2D,
    accumulate_histograms,
    accumulate_moments,
    deconvolve,
    estimate_state,
    fit_squeezing,
)

TWO_PI = 2.0 * math.pi

# arccosh(2): squeezing of flat gain G = 4
ARCCOSH_2 = 1.3169578969248168
# exp(-3.5): witness floor for an ideal r = 1.75 pair
WITNESS_R175 = 0.0301973834223185
# 0.06 * cosh(3.56) / 4: two-parameter fit absorbs 3% inflated diagonals
N_ADD_3PCT = 0.263937269773656

pytestmark = pytest.mark.filterwarnings(
    "ignore:estimated covariance marginally unphysical"
)


def test_criterion_1_end_to_end_squeezing_recovery():
    det = DetectionConfig()  # N = 69, channel gains (1.0, 1.02)
    state = tms_theory_covariance(1.78, 0.0)
    started = time.perf_counter()
    records_on = measure(state, det, 10_000_000, seed=11, pump_on=True)
    records_off = measure(state, det, 10_000_000, seed=11, pump_on=False)
    result = estimate_state(records_on, records_off, det.noise_pair).tomography
    elapsed = time.perf_counter() - started
    assert 1.76 <= result.r_fit_pure <= 1.80
    assert result.n_add_fit < 0.02
    assert elapsed <= 60.0
    print(
        f"\nCRITERION 1: PASS — r_fit_pure={result.r_fit_pure:.4f} in [1.76, 1.80], "
        f"n_add_fit={result.n_add_fit:.4f} < 0.02, {elapsed:.1f}s <= 60s"
    )


def test_criterion_2_predicted_r_matches_output_diagonals():
    rng = np.random.default_rng(20260814)
    worst = 0.0
    for _ in range(10):
        profile = GainProfile(
            g0=rng.uniform(2.0, 200.0),
            bandwidth=TWO_PI * rng.uniform(1e6, 8e6),
            omega_p=DEFAULT_PUMP.omega_p,
        )
        filt = design_filter(
            TWO_PI * 5e6, "raised-cosine-notch", TWO_PI * rng.uniform(0.5e6, 6e6), 2001
        )
        r_pred = predicted_r(filt, profile)
        diag = np.diag(output_two_mode_state(profile, filt).cov)
        r_diag = np.arccosh(4.0 * diag) / 2.0
        worst = max(worst, float(np.max(np.abs(r_diag - r_pred))))
    assert worst <= 1e-9

    flat = GainProfile(g0=4.0, bandwidth=1e15, omega_p=DEFAULT_PUMP.omega_p)
    filt = design_filter(TWO_PI * 5e6, "raised-cosine-notch", TWO_PI * 4e6, 2001)
    flat_err = abs(predicted_r(filt, flat) - ARCCOSH_2)
    assert flat_err <= 1e-12
    print(
        f"\nCRITERION 2: PASS — max |r_pred - r_diag| = {worst:.2e} <= 1e-9 "
        f"(10 random chains), flat-gain error {flat_err:.2e} <= 1e-12"
    )


def test_criterion_3_excess_noise_fit():
    v = np.array(tms_theory_covariance(1.78, 0.0).cov)
    v[np.diag_indices(4)] *= 1.03
    fit = fit_squeezing(v)
    assert fit.n_add == pytest.approx(N_ADD_3PCT, abs=0.005)
    assert fit.residual_pure > fit.residual
    print(
        f"\nCRITERION 3: PASS — n_add_fit={fit.n_add:.6f} within 0.005 of "
        f"{N_ADD_3PCT}, residual_pure={fit.residual_pure:.4f} > "
        f"residual={fit.residual:.2e}"
    )


def test_criterion_4_witness_below_vacuum_reference():
    det = DetectionConfig()
    state = tms_theory_covariance(1.75, 0.0)
    records_on = measure(state, det, 10_000_000, seed=2, pump_on=True)
    records_off = measure(state, det, 10_000_000, seed=2, pump_on=False)
    d_hat = estimate_state(records_on, records_off, det.noise_pair).tomography.witness_d
    assert d_hat == pytest.approx(WITNESS_R175, abs=0.01)

    vac = tms_theory_covariance(0.0, 0.0)
    on_v = measure(vac, det, 1_000_000, seed=3, pump_on=True)
    off_v = measure(vac, det, 1_000_000, seed=3, pump_on=False)
    d_vac = estimate_state(on_v, off_v, det.noise_pair).tomography.witness_d
    assert d_vac == pytest.approx(1.0, abs=0.01)
    print(
        f"\nCRITERION 4: PASS — D={d_hat:.4f} within 0.01 of {WITNESS_R175:.4f}, "
        f"vacuum D={d_vac:.4f} within 0.01 of 1.0"
    )


def test_criterion_5_psd_noise_recovery_across_seeds():
    profile = gain_profile(DEFAULT_PUMP, DEFAULT_DEVICE)
    delta = np.linspace(-3 * profile.bandwidth, 3 * profile.bandwidth, 200)
    s_true = psd(delta, profile, 69.0)
    hits = 0
    for k in range(100):
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(entropy=500, spawn_key=(k,)))
        )
        noisy = s_true + 0.5 * rng.standard_normal(delta.size)
        fit = fit_psd(np.column_stack([delta, noisy]))
        hits += 68.0 <= fit.n_noise <= 70.0
    assert hits >= 95
    print(f"\nCRITERION 5: PASS — recovered noise in [68, 70] on {hits}/100 seeds")


def test_criterion_6_deconvolution_unbiased_and_physical():
    det = DetectionConfig()
    truth = tms_theory_covariance(1.2, 0.3)
    estimates = []
    for k in range(50):
        # the same-seed pair is drawn once, for both pump settings; the
        # calibrated moments give the same v_hat bit for bit as reading each
        # setting on its own (test_tomography checks it)
        est = estimate_state(
            measure(truth, det, 1_000_000, seed=6000 + k, pump_on=True),
            measure(truth, det, 1_000_000, seed=6000 + k, pump_on=False),
            det.noise_pair,
            method="streaming",
        )
        v_hat = deconvolve(est.moments_on, est.moments_off)
        assert is_physical(GaussianState(2, np.zeros(4), v_hat), tol=1e-6)
        estimates.append(v_hat)
    stack = np.array(estimates)
    mean = stack.mean(axis=0)
    se = stack.std(axis=0, ddof=1) / math.sqrt(stack.shape[0])
    z = np.abs(mean - truth.cov) / se
    assert np.all(z <= 3.0)
    print(
        f"\nCRITERION 6: PASS — 50/50 estimates physical at 1e-6, "
        f"max |mean - truth| = {z.max():.2f} SE <= 3 SE"
    )


def test_criterion_7_reflection_and_flux_anchors():
    omega_r = resonance_frequency(0.0, DEFAULT_DEVICE)
    assert omega_r == TWO_PI * 6.9e9
    gamma0 = reflection(omega_r, DEFAULT_DEVICE)
    assert abs(gamma0 - (-23.0 / 27.0)) <= 1e-12

    powers = np.linspace(-84.0, -80.7, 20)
    couplings = []
    for power in powers:
        pump = dataclasses.replace(DEFAULT_PUMP, power_dbm=float(power))
        profile = gain_profile(pump, DEFAULT_DEVICE)
        couplings.append(math.sqrt(profile.g0) * profile.bandwidth)
    couplings = np.array(couplings)
    spread = float(np.ptp(couplings) / couplings.mean())
    assert spread <= 1e-12
    print(
        f"\nCRITERION 7: PASS — reflection at zero detuning equals -23/27, "
        f"zero-flux resonance at 6.9 GHz, gain-bandwidth spread "
        f"{spread:.2e} <= 1e-12 over 20 powers"
    )


def test_criterion_8_histogram_vs_streaming_and_shard_merge():
    det = DetectionConfig()
    state = tms_theory_covariance(1.78, 0.0)
    records_on = measure(state, det, 1_000_000, seed=77, pump_on=True)
    records_off = measure(state, det, 1_000_000, seed=77, pump_on=False)
    est_h = estimate_state(records_on, records_off, det.noise_pair, method="histogram")
    est_s = estimate_state(records_on, records_off, det.noise_pair, method="streaming")
    # keep the pump-on store for the three reads below (reading it before the
    # estimates would skip their fused same-seed pair path)
    records_on.quadratures()
    h, s = est_h.tomography.v, est_s.tomography.v
    # 0.5% per element on the mixed scale sqrt(V_ii V_jj), which equals the
    # relative tolerance on the diagonal and stays defined for zero elements
    scale = 0.005 * np.sqrt(np.outer(np.diag(h), np.diag(h)))
    ratio = float(np.max(np.abs(h - s) / scale))
    assert ratio <= 1.0
    sigma_min = math.sqrt(accumulate_moments(records_on).cov.diagonal().min())
    assert est_h.binning.width <= sigma_min / 5.0

    binning = est_h.binning
    full = accumulate_histograms(records_on, binning)
    bounds = np.linspace(0, len(records_on), 9).astype(int)
    merged = {pair: Histogram2D.empty(pair, binning) for pair in PAIR_LABELS}
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        shard = RecordBatch(records_on.s1[lo:hi], records_on.s2[lo:hi])
        part = accumulate_histograms(shard, binning)
        for pair in PAIR_LABELS:
            merged[pair] = merged[pair].merge(part[pair])
    for pair in PAIR_LABELS:
        assert np.array_equal(full[pair].counts, merged[pair].counts)
        assert merged[pair].n_total == full[pair].n_total
        assert merged[pair].overflow == full[pair].overflow
    print(
        f"\nCRITERION 8: PASS — histogram vs streaming within "
        f"{100 * 0.005 * ratio:.3f}% <= 0.5% per element, 8-shard merge bin-exact"
    )


def test_criterion_9_scenario_determinism(tmp_path):
    cfg = default_config()
    cfg = dataclasses.replace(
        cfg, run=dataclasses.replace(cfg.run, n_records=200_000, seed=7)
    )
    man_a = run_scenario("tomography", cfg, tmp_path / "a")
    man_b = run_scenario("tomography", cfg, tmp_path / "b")
    assert man_a["outputs"].keys() == man_b["outputs"].keys()
    for name in man_a["outputs"]:
        assert (tmp_path / "a" / name).read_bytes() == (
            tmp_path / "b" / name
        ).read_bytes(), name
    # the manifest is identical too once the wall-clock field is dropped
    for man in (man_a, man_b):
        man.pop("wall_clock_s")
    assert man_a == man_b
    print(
        f"\nCRITERION 9: PASS — {len(man_a['outputs'])} output files "
        f"byte-identical across reruns"
    )
