"""Flux-pumped parametric amplifier: tuning curve, reflection, gain, noise PSD.

All frequencies are angular (rad/s) unless a name says otherwise.  The gain
profile is the phenomenological Lorentzian G(delta) = 1 + (G0 - 1) /
(1 + (2 delta / B)^2) tied to the linewidth through the gain-bandwidth
relation sqrt(G0) * B = c_gb * kappa.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    FitDegenerateError,
    FloatOverflowError,
    FluxDivergenceError,
    NoConvergenceError,
    UnstableRegimeError,
)

TWO_PI = 2.0 * np.pi

# Default gain-bandwidth constant in units of kappa.  Calibrated (see
# scripts/calibrate_defaults.py) so that the default filter applied to the
# default operating profile yields a predicted squeezing parameter of 1.75;
# with the 5 MHz sideband offset the filtered gain is capped at
# 1 + (c_gb * kappa / (2 offset))^2, so c_gb = 1 cannot reach that target.
GAIN_BANDWIDTH_CONST = 1.1481518224756206


@dataclass(frozen=True)
class DeviceParams:
    """Static amplifier parameters.

    omega_r_max: zero-flux resonance (rad/s); kappa: external coupling rate;
    gamma_i: internal loss rate; participation: SQUID inductance
    participation at zero flux (0 < p < 1); gain_bandwidth_const: c_gb in
    sqrt(G0) * B = c_gb * kappa.
    """

    omega_r_max: float = TWO_PI * 6.9e9
    kappa: float = TWO_PI * 25.0e6
    gamma_i: float = TWO_PI * 2.0e6
    participation: float = 0.03
    gain_bandwidth_const: float = GAIN_BANDWIDTH_CONST

    def __post_init__(self) -> None:
        if self.omega_r_max <= 0:
            raise ValueError("omega_r_max must be > 0")
        if self.kappa <= 0:
            raise ValueError("kappa must be > 0")
        if self.gamma_i < 0:
            raise ValueError("gamma_i must be >= 0")
        if not 0.0 < self.participation < 1.0:
            raise ValueError("participation must lie in (0, 1)")
        if self.gain_bandwidth_const <= 0:
            raise ValueError("gain_bandwidth_const must be > 0")


@dataclass(frozen=True)
class PumpConfig:
    """Pump drive point and the measured critical point (rad/s, dBm)."""

    omega_p: float = TWO_PI * 6.8834e9
    power_dbm: float = -80.8
    critical_omega_p: float = TWO_PI * 6.882e9
    critical_power_dbm: float = -80.6


@dataclass(frozen=True)
class GainAnchor:
    """Configured anchor for the gain map: G0 observed at one pump setting."""

    omega_p: float = TWO_PI * 6.8834e9
    power_dbm: float = -80.8
    g0: float = 100.0
    freq_scale: float = TWO_PI * 2.0e6

    def __post_init__(self) -> None:
        if self.g0 < 1:
            raise ValueError("anchor g0 must be >= 1")
        if self.freq_scale <= 0:
            raise ValueError("freq_scale must be > 0")


DEFAULT_DEVICE = DeviceParams()
DEFAULT_PUMP = PumpConfig()
DEFAULT_GAIN_ANCHOR = GainAnchor()


@dataclass(frozen=True)
class GainProfile:
    """Lorentzian gain profile: peak g0 (power gain), full bandwidth, pump."""

    g0: float
    bandwidth: float
    omega_p: float

    def __post_init__(self) -> None:
        if self.g0 < 1:
            raise ValueError("g0 must be >= 1")
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be > 0")


def resonance_frequency(phi, params: DeviceParams):
    """Flux tuning curve omega_r(phi), phi in flux quanta.

    omega_r(phi) = omega0 / (1 + p0 / |cos(pi phi)|) with omega0 and p0 fixed
    by omega_r(0) = omega_r_max and participation = p0 / (1 + p0).  Even and
    1-periodic in phi, strictly decreasing on [0, 1/2).
    """
    phi = np.asarray(phi, dtype=np.float64)
    p0 = params.participation / (1.0 - params.participation)
    cosine = np.abs(np.cos(np.pi * phi))
    if np.any(cosine <= 1e-6):
        raise FluxDivergenceError("flux too close to half a quantum")
    out = params.omega_r_max * ((1.0 + p0) / (1.0 + p0 / cosine))
    return float(out) if out.ndim == 0 else out


def reflection(omega, params: DeviceParams):
    """Linear-regime reflection off the resonator input port.

    Gamma(delta) = ((gamma_i - kappa)/2 - i delta) / ((gamma_i + kappa)/2 - i delta)
    with delta = omega - omega_r_max, the detuning from the zero-flux resonance.
    """
    raw = np.asarray(omega, dtype=np.float64)
    delta = np.atleast_1d(raw) - params.omega_r_max
    num = 0.5 * (params.gamma_i - params.kappa) - 1j * delta
    den = 0.5 * (params.gamma_i + params.kappa) - 1j * delta
    out = num / den
    return complex(out[0]) if raw.ndim == 0 else out


def gain_profile(
    pump: PumpConfig,
    params: DeviceParams,
    anchor: GainAnchor = DEFAULT_GAIN_ANCHOR,
) -> GainProfile:
    """Map a pump setting to (G0, bandwidth) via a monotone anchored model.

    With x = P_p / P_crit (linear power fraction) the peak gain follows the
    below-threshold parametric form G0 - 1 proportional to x / (1 - x)^2,
    weighted by a Lorentzian in the pump detuning from the critical frequency
    (width anchor.freq_scale) and normalized to reproduce the configured
    anchor point exactly.  G0 grows monotonically as (omega_p, P_p) approach
    the critical point, diverges at the critical power, and tends to 1 as the
    power backs off; the bandwidth follows from sqrt(G0) * B = c_gb * kappa.
    """
    margin = pump.critical_power_dbm - pump.power_dbm
    if margin <= 0:
        raise UnstableRegimeError(
            f"pump power {pump.power_dbm} dBm at or above critical "
            f"{pump.critical_power_dbm} dBm"
        )
    anchor_margin = pump.critical_power_dbm - anchor.power_dbm
    if anchor_margin <= 0:
        raise ValueError("gain anchor must sit below the critical power")

    def power_shape(margin_db: float) -> float:
        x = 10.0 ** (-margin_db / 10.0)
        return x / (1.0 - x) ** 2

    def lor(detuning: float) -> float:
        return 1.0 / (1.0 + (detuning / anchor.freq_scale) ** 2)

    d = abs(pump.omega_p - pump.critical_omega_p)
    d_a = abs(anchor.omega_p - pump.critical_omega_p)
    g0 = 1.0 + (anchor.g0 - 1.0) * (power_shape(margin) / power_shape(anchor_margin)) * (
        lor(d) / lor(d_a)
    )
    bandwidth = params.gain_bandwidth_const * params.kappa / np.sqrt(g0)
    return GainProfile(g0=g0, bandwidth=bandwidth, omega_p=pump.omega_p)


def gain(delta, profile: GainProfile):
    """Power gain at sideband detuning delta from the half-pump frame."""
    delta = np.asarray(delta, dtype=np.float64)
    out = 1.0 + (profile.g0 - 1.0) / (1.0 + (2.0 * delta / profile.bandwidth) ** 2)
    return float(out) if out.ndim == 0 else out


def psd(delta, profile: GainProfile, n_noise: float):
    """Output noise power spectral density S = (G - 1) + n_noise."""
    if n_noise < 0:
        raise ValueError("n_noise must be >= 0")
    return gain(delta, profile) - 1.0 + n_noise


@dataclass(frozen=True)
class PsdFit:
    """Lorentzian-plus-floor fit result with asymptotic standard errors."""

    g0: float
    bandwidth: float
    n_noise: float
    g0_stderr: float
    bandwidth_stderr: float
    n_noise_stderr: float


# ln B grid for the bracket, as steps above the bound B = 1e-9 span (where a
# spike on one sample can pull the best fit) up to 1e5 span (beyond which the
# profile cost of a spectrum without a peak is flat to rounding)
_LOG_B_STEPS = np.linspace(0.0, np.log(1e14), 101)
# Largest (bandwidths, samples) float64 temporary of a profile evaluation:
# below glibc's initial 128 KiB mmap threshold, so the grid's temporaries come
# from the heap and are not mapped, or trimmed off its top, on every fit
_PROFILE_BYTES = 120 << 10
_GOLDEN_STEP = (3.0 - np.sqrt(5.0)) / 2.0  # the shorter golden-section share
_LOG_B_TOL = 1e-6
_POLISH_STEPS = 50


def _lorentz_sums(log_b, d2, y_dev):
    """Sums of the Lorentzian lor = 1/(1 + (2 delta / B)^2) at each
    B = exp(log_b), for detunings with d2 = (2 delta)^2 and centred data
    y_dev: the rows (sum of lor, n var(lor), n cov(lor, data)).
    """
    n = d2.size
    x2 = np.multiply.outer(np.exp(-2.0 * log_b), d2)
    lor = 1.0 / (1.0 + x2)
    lor_sum = lor.sum(axis=1)
    # Centre whichever of lor and 1 - lor is small: each keeps full relative
    # precision in its own collinear limit (B -> 0, B -> infinity), where the
    # variance is a difference of nearly equal sums.
    tail = lor_sum > 0.5 * n
    basis = np.where(tail[:, None], -x2 * lor, lor)
    b_sum = basis.sum(axis=1)
    var = np.einsum("ij,ij->i", basis, basis) - b_sum**2 / n
    return lor_sum, var, basis @ y_dev


def _linear_fit(lor_sum, var, cov, n, y_mean, y_ss):
    """Least squares of amp * lor + noise with amp, noise >= 0, from arrays
    of Lorentzian sums (one entry per bandwidth); y_ss is the data's sum of
    squared deviations.  Returns arrays (cost, amp, noise), the cost being
    the residual sum of squares.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        # var = 0: lor is flat, amp is free
        amp = np.where(var > 0.0, cov / var, 0.0)
        noise = y_mean - amp * lor_sum / n
        # off the quadrant the optimum lies on an edge, amp = 0 or noise = 0
        flat_noise = max(y_mean, 0.0)
        flat_cost = y_ss + n * (y_mean - flat_noise) ** 2
        lor_y = cov + y_mean * lor_sum
        # float_power is C pow, as ** 2 of one float is; ** 2 of an array is
        # x * x, which differs from pow in the last bit for about one value
        # in a thousand
        peak_amp = np.maximum(lor_y / (var + np.float_power(lor_sum, 2) / n), 0.0)
        peak_cost = y_ss + n * y_mean**2 - peak_amp * lor_y
    inside = (amp >= 0.0) & (noise >= 0.0)
    peak = ~inside & (peak_cost < flat_cost)  # a tie keeps the flat fit
    return (
        np.where(inside, y_ss - amp * cov, np.where(peak, peak_cost, flat_cost)),
        np.where(inside, amp, np.where(peak, peak_amp, 0.0)),
        np.where(inside, noise, np.where(peak, 0.0, flat_noise)),
    )


def _brent_min(func, lo, hi, x, fx, tol):
    """Brent's minimizer (R. P. Brent, Algorithms for Minimization without
    Derivatives, 1973, ch. 5) of a unimodal `func` on [lo, hi], started at
    x in it with fx = func(x).  `func` returns a tuple whose first item is
    the value to minimize.  Each step fits a parabola through the three best
    points and falls back to a golden-section step where the parabola would
    leave the bracket or not shrink it fast enough.  Stops once the bracket
    around the best point is at most `tol` wide; returns that point and its
    func tuple.
    """
    tol1 = tol / 4.0  # least step; the bracket ends within 2 tol1 of x
    w, fw, v, fv = x, fx, x, fx
    # the last step, and the step before it (for a golden step, the distance
    # to the far end of the bracket)
    step = prev = 0.0
    while max(x - lo, hi - x) > 2.0 * tol1:
        mid = 0.5 * (lo + hi)
        golden = True
        if abs(prev) > tol1:
            r = (x - w) * (fx[0] - fv[0])
            q = (x - v) * (fx[0] - fw[0])
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            p, q = (-p, q) if q > 0.0 else (p, -q)
            # accept the parabola's vertex if it lies inside the bracket and
            # moves less than half the step before last
            if abs(p) < abs(0.5 * q * prev) and q * (lo - x) < p < q * (hi - x):
                prev, step = step, p / q
                golden = False
                u = x + step
                if u - lo < 2.0 * tol1 or hi - u < 2.0 * tol1:
                    step = tol1 if mid >= x else -tol1
        if golden:
            prev = (lo - x) if x >= mid else (hi - x)
            step = _GOLDEN_STEP * prev
        if abs(step) < tol1:
            step = tol1 if step >= 0.0 else -tol1
        u = x + step
        fu = func(u)
        if fu[0] <= fx[0]:
            lo, hi = (x, hi) if u >= x else (lo, x)
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            lo, hi = (lo, u) if u >= x else (u, hi)
            if fu[0] <= fw[0] or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu[0] <= fv[0] or v == x or v == w:
                v, fv = u, fu
    return x, fx


def _residual_jacobian(x, deltas, values):
    """Model minus data at x = (g0, B, n_noise), and its analytic Jacobian."""
    g0, bw, noise = x
    x2 = (2.0 * deltas / bw) ** 2
    lor = 1.0 / (1.0 + x2)
    resid = (g0 - 1.0) * lor + noise - values
    jac = np.column_stack(
        [lor, (g0 - 1.0) * 2.0 * x2 * lor**2 / bw, np.ones_like(lor)]
    )
    return resid, jac


def fit_psd(samples) -> PsdFit:
    """Fit S(delta) = (g0 - 1)/(1 + (2 delta / B)^2) + n_noise.

    `samples` is an (n, 2) array of (delta, S) pairs, n >= 10.  Bounded
    least squares (g0 >= 1, B >= 1e-9 of the detuning span, n_noise >= 0)
    by variable projection (Golub & Pereyra, SIAM J. Numer. Anal. 10, 413
    (1973)): for a fixed B the model is linear in (g0 - 1, n_noise), solved
    in closed form with the bounds as clamps.  ln B is bracketed on a coarse
    grid from the bound to 1e5 spans and narrowed by Brent's method
    (parabolic steps with a golden-section fallback; R. P. Brent,
    Algorithms for Minimization without Derivatives, 1973) to a bracket
    1e-6 wide.  An interior optimum is then polished in all three
    parameters by Gauss-Newton steps with the analytic Jacobian until the
    relative step is below 1e-12 or the cost stops falling; more than 50
    steps raise NoConvergenceError.  Standard errors are s^2 pinv(J^T J) at
    the fit.  Exactly flat data collapses to the identifiable limit (g0 -> 1,
    n_noise = mean).  Where the best fit has no peak (g0 = 1, as for data
    rising away from delta = 0 or lying below zero) the bandwidth is
    unidentified: it and the g0 and bandwidth errors are nan, and n_noise
    gets the error of a constant fit.  Data without detuning spread cannot
    constrain the bandwidth and raises FitDegenerateError, and samples whose
    sum of squares overflows float64 raise FloatOverflowError.
    """
    arr = np.asarray(samples, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("samples must be an (n, 2) array of (delta, S)")
    if arr.shape[0] < 10:
        raise ValueError("need at least 10 PSD samples")
    if not np.all(np.isfinite(arr)):
        raise ValueError("PSD samples must be finite")
    deltas, values = arr[:, 0], arr[:, 1]
    if len(np.unique(deltas)) < 4:
        raise FitDegenerateError("PSD samples need at least 4 distinct detunings")
    if np.ptp(values) == 0.0:
        return PsdFit(
            g0=1.0,
            bandwidth=np.nan,
            n_noise=float(values[0]),
            g0_stderr=np.nan,
            bandwidth_stderr=np.nan,
            n_noise_stderr=0.0,
        )

    b_min = float(np.ptp(deltas)) * 1e-9
    d2 = (2.0 * deltas) ** 2
    n = values.size
    with np.errstate(over="ignore"):  # checked below
        y_mean = float(values.mean())
        y_dev = values - y_mean
        y_ss = float(y_dev @ y_dev)
    # every cost below is at most the samples' sum of squares
    if not math.isfinite(y_ss + n * y_mean * y_mean):
        raise FloatOverflowError("the PSD samples' sum of squares overflows float64")

    rows = max(1, _PROFILE_BYTES // (8 * n))

    def profile(log_b):
        """(cost, g0 - 1, n_noise) arrays over the bandwidths exp(log_b),
        whose Lorentzian sums are taken `rows` bandwidths at a time."""
        groups = np.array_split(log_b, -(-log_b.size // rows))
        sums = zip(*(_lorentz_sums(group, d2, y_dev) for group in groups))
        return _linear_fit(*map(np.concatenate, sums), n, y_mean, y_ss)

    def line_point(log_b):
        return tuple(float(a[0]) for a in profile(np.array([log_b])))

    grid = np.log(b_min) + _LOG_B_STEPS
    grid_fits = profile(grid)
    k = int(np.argmin(grid_fits[0]))
    lo, hi = grid[max(k - 1, 0)], grid[min(k + 1, grid.size - 1)]
    # Brent's method on the bracket, which holds the grid minimum
    start = tuple(float(a[k]) for a in grid_fits)
    log_b, (_, amp, noise) = _brent_min(
        line_point, float(lo), float(hi), float(grid[k]), start, _LOG_B_TOL
    )
    if amp == 0.0:
        # no peak above the floor: every bandwidth fits equally well
        resid = noise - values
        return PsdFit(
            g0=1.0,
            bandwidth=np.nan,
            n_noise=noise,
            g0_stderr=np.nan,
            bandwidth_stderr=np.nan,
            n_noise_stderr=float(np.sqrt(resid @ resid / (n - 3) / n)),
        )
    x = np.array([1.0 + amp, max(np.exp(log_b), b_min), noise])

    resid, jac = _residual_jacobian(x, deltas, values)
    cost = float(resid @ resid)
    if amp > 0.0 and noise > 0.0 and x[1] > b_min:
        for _ in range(_POLISH_STEPS):
            step = np.linalg.lstsq(jac, -resid, rcond=None)[0]
            trial = x + step
            if trial[0] < 1.0 or trial[1] < b_min or trial[2] < 0.0:
                break  # a step out of bounds: keep the last feasible point
            trial_resid, trial_jac = _residual_jacobian(trial, deltas, values)
            trial_cost = float(trial_resid @ trial_resid)
            if trial_cost > cost:
                break
            x, resid, jac, cost = trial, trial_resid, trial_jac, trial_cost
            if np.all(np.abs(step) <= 1e-12 * np.abs(x)):
                break
        else:
            raise NoConvergenceError("PSD fit hit the Gauss-Newton step cap")

    s2 = cost / (n - 3)
    err = np.sqrt(np.maximum(np.diag(s2 * np.linalg.pinv(jac.T @ jac)), 0.0))
    return PsdFit(
        g0=float(x[0]),
        bandwidth=float(x[1]),
        n_noise=float(x[2]),
        g0_stderr=float(err[0]),
        bandwidth_stderr=float(err[1]),
        n_noise_stderr=float(err[2]),
    )
