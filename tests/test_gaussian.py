"""Gaussian-core oracles: closed forms and a scipy expm cross-check."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from jpatomo.errors import FloatOverflowError, SingularCovarianceError
from jpatomo.gaussian import (
    GaussianState,
    is_physical,
    marginal,
    physicality_margin,
    symplectic_form,
    tms_theory_covariance,
    two_mode_squeeze,
    two_mode_squeeze_symplectic,
    vacuum_state,
    wigner,
    witness,
)

# Frozen oracle values (direct evaluation of the closed forms).
COSH_356_OVER_4 = 4.3989544962276  # cosh(2*1.78)/4
SINH_356_OVER_4 = 4.391844790049054  # sinh(2*1.78)/4
EXP_M35 = 0.0301973834223185  # exp(-2*1.75)
EXP_M35_OVER_2 = 0.01509869171115925  # exp(-3.5)/2
WIGNER_VACUUM_PEAK = 0.4052847345693511  # 4/pi^2
WIGNER_VACUUM_E2 = 0.05484932434441853  # (4/pi^2) * exp(-2)
MARGINAL_VACUUM_PEAK = 0.6366197723675814  # 2/pi


def test_vacuum_state_covariance():
    vac = vacuum_state(2)
    assert np.array_equal(vac.cov, np.eye(4) / 4.0)
    assert (vac.n_modes, vac.dim) == (2, 4)
    assert vacuum_state(1).cov.shape == (2, 2)


def test_vacuum_state_rejects_zero_modes():
    with pytest.raises(ValueError):
        vacuum_state(0)
    with pytest.raises(ValueError, match="n_modes must be >= 1, got -1"):
        vacuum_state(-1)


def test_squeezer_matches_matrix_exponential():
    # Independent route: expm of the quadratic generator K, K @ K = I.
    gen = np.array(
        [
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, -1.0],
            [1.0, 0.0, 0.0, 0.0],
            [0.0, -1.0, 0.0, 0.0],
        ]
    )
    for r in (-1.3, -0.2, 0.0, 0.7, 1.78):
        np.testing.assert_allclose(
            two_mode_squeeze_symplectic(r), expm(r * gen), atol=1e-12
        )


def test_squeezer_is_symplectic():
    omega = symplectic_form(2)
    s = two_mode_squeeze_symplectic(1.78)
    np.testing.assert_allclose(s @ omega @ s.T, omega, atol=1e-12)


def test_tms_covariance_frozen_values():
    state = tms_theory_covariance(1.78, 0.0)
    v = state.cov
    for k in range(4):
        assert v[k, k] == pytest.approx(COSH_356_OVER_4, abs=1e-12)
    assert v[0, 2] == pytest.approx(SINH_356_OVER_4, abs=1e-12)
    assert v[1, 3] == pytest.approx(-SINH_356_OVER_4, abs=1e-12)
    assert v[0, 1] == v[0, 3] == v[1, 2] == v[2, 3] == 0.0
    # excess noise adds n_add/2 to every variance and nothing else
    noisy = tms_theory_covariance(1.78, 0.25).cov
    np.testing.assert_array_equal(noisy - v, 0.125 * np.eye(4))
    with pytest.raises(ValueError):
        tms_theory_covariance(1.78, -0.1)
    with pytest.raises(ValueError, match="r must be finite"):
        tms_theory_covariance(np.inf)
    with pytest.raises(FloatOverflowError):
        tms_theory_covariance(400.0)


def test_squeeze_of_vacuum_equals_theory():
    squeezed = two_mode_squeeze(vacuum_state(2), 1.78)
    np.testing.assert_allclose(
        squeezed.cov, tms_theory_covariance(1.78).cov, rtol=0, atol=1e-12
    )
    with pytest.raises(ValueError, match="requires a 2-mode state"):
        two_mode_squeeze(vacuum_state(1), 1.78)
    with pytest.raises(ValueError, match="r must be finite"):
        two_mode_squeeze(vacuum_state(2), np.inf)


def test_squeezed_combination_variances():
    v = tms_theory_covariance(1.75).cov
    var_minus = v[0, 0] + v[2, 2] - 2 * v[0, 2]
    var_plus = v[1, 1] + v[3, 3] + 2 * v[1, 3]
    assert var_minus == pytest.approx(EXP_M35_OVER_2, rel=1e-12)
    assert var_plus == pytest.approx(EXP_M35_OVER_2, rel=1e-12)


def test_witness_values():
    assert witness(vacuum_state(2)) == pytest.approx(1.0, abs=1e-15)
    assert witness(tms_theory_covariance(1.75)) == pytest.approx(EXP_M35, rel=1e-12)
    with pytest.raises(ValueError, match="requires a 2-mode state"):
        witness(vacuum_state(1))


@given(
    r=st.floats(0.0, 2.5),
    n_add=st.floats(0.0, 1.0),
)
def test_witness_closed_form(r, n_add):
    state = tms_theory_covariance(r, n_add)
    expected = np.exp(-2 * r) + 2 * n_add
    assert witness(state) == pytest.approx(expected, rel=1e-11, abs=1e-12)


@given(r=st.floats(-2.0, 2.0))
def test_uncertainty_product(r):
    v = tms_theory_covariance(abs(r)).cov
    var_minus = v[0, 0] + v[2, 2] - 2 * v[0, 2]
    var_plus = v[0, 0] + v[2, 2] + 2 * v[0, 2]
    assert abs(var_minus * var_plus - 0.25) <= 1e-12


@pytest.mark.parametrize("r", [-3.0, -2.976, 2.5, 3.0])
def test_uncertainty_product_range_edge(r):
    # At |r| ~ 3 the cosh-sinh cancellation noise is ~eps*e^{4|r|}/4.
    v = tms_theory_covariance(abs(r)).cov
    var_minus = v[0, 0] + v[2, 2] - 2 * v[0, 2]
    var_plus = v[0, 0] + v[2, 2] + 2 * v[0, 2]
    tol = 8 * np.finfo(float).eps * max(1.0, np.exp(4 * abs(r)) / 4.0)
    assert abs(var_minus * var_plus - 0.25) <= tol


@given(r=st.floats(-3.0, 3.0))
@settings(max_examples=60)
def test_squeeze_preserves_physicality(r):
    state = two_mode_squeeze(tms_theory_covariance(0.4, 0.2), r)
    assert is_physical(state)


@given(r=st.floats(-3.0, 3.0))
@settings(max_examples=60)
def test_squeeze_unsqueeze_roundtrip(r):
    base = tms_theory_covariance(0.3, 0.1)
    back = two_mode_squeeze(two_mode_squeeze(base, r), -r)
    scale = max(1.0, np.exp(4 * abs(r)) * 1e-16)
    np.testing.assert_allclose(back.cov, base.cov, rtol=0, atol=max(1e-10, scale))


def test_is_physical_examples():
    assert is_physical(vacuum_state(2))
    assert is_physical(tms_theory_covariance(1.78))
    below_vacuum = GaussianState(np.eye(4) / 8.0)
    assert not is_physical(below_vacuum)
    # min eig(V + i Omega / 4): 0 for a pure state, n/2 for a thermal state
    # of n photons per mode, 1/8 - 1/4 below the vacuum
    assert physicality_margin(vacuum_state(2).cov) == pytest.approx(0.0, abs=1e-15)
    assert physicality_margin(np.eye(4) * (2 * 0.3 + 1) / 4.0) == pytest.approx(0.15)
    assert physicality_margin(below_vacuum.cov) == pytest.approx(-0.125)
    # the bound itself passes: a thermal margin of exactly 1/4 against tol -1/4
    thermal = GaussianState(np.eye(4) / 2.0)
    assert physicality_margin(thermal.cov) == 0.25
    assert is_physical(thermal, tol=-0.25)


def test_wigner_vacuum_values():
    vac = vacuum_state(2)
    assert wigner(vac, np.zeros(4)) == pytest.approx(WIGNER_VACUUM_PEAK, rel=1e-12)
    # Any point with |alpha|^2 = 1 sits at exp(-2) of the peak.
    pt = np.array([0.5, 0.5, 0.5, 0.5])
    assert wigner(vac, pt) == pytest.approx(WIGNER_VACUUM_E2, rel=1e-12)


def test_wigner_peak_at_mean():
    state = tms_theory_covariance(1.0)
    peak = wigner(state, np.zeros(4))
    rng = np.random.default_rng(7)
    pts = 0.5 * rng.standard_normal((200, 4))
    assert np.all(wigner(state, pts) <= peak + 1e-15)


def test_wigner_rejects_singular_covariance():
    squashed = GaussianState(np.zeros((4, 4)))
    with pytest.raises(SingularCovarianceError):
        wigner(squashed, np.zeros(4))
    with pytest.raises(ValueError, match="trailing dimension 4"):
        wigner(vacuum_state(2), np.zeros(3))


def test_marginal_vacuum_peak_and_normalization():
    vac = vacuum_state(2)
    m = marginal(vac, (0, 1))
    assert wigner(m, np.zeros(2)) == pytest.approx(MARGINAL_VACUUM_PEAK, rel=1e-12)
    # 2D trapezoid integral over +-8 sigma.
    axis = np.linspace(-4.0, 4.0, 401)
    xx, yy = np.meshgrid(axis, axis, indexing="ij")
    pts = np.stack([xx, yy], axis=-1)
    dens = wigner(m, pts)
    integral = np.trapezoid(np.trapezoid(dens, axis, axis=1), axis)
    assert integral == pytest.approx(1.0, abs=1e-6)


def test_marginal_of_squeezed_state():
    state = tms_theory_covariance(1.78)
    m = marginal(state, (0, 2))
    expected = np.array(
        [
            [COSH_356_OVER_4, SINH_356_OVER_4],
            [SINH_356_OVER_4, COSH_356_OVER_4],
        ]
    )
    np.testing.assert_allclose(m.cov, expected, atol=1e-12)
    # Integrates to 1 despite strong correlation.
    axis = np.linspace(-25.0, 25.0, 801)
    xx, yy = np.meshgrid(axis, axis, indexing="ij")
    dens = wigner(m, np.stack([xx, yy], axis=-1))
    integral = np.trapezoid(np.trapezoid(dens, axis, axis=1), axis)
    assert integral == pytest.approx(1.0, abs=1e-6)


def test_marginal_index_validation():
    vac = vacuum_state(2)
    with pytest.raises(ValueError):
        marginal(vac, (1, 1))
    with pytest.raises(ValueError):
        marginal(vac, (0, 4))


def test_state_validation():
    for cov in (np.eye(3), np.zeros((4, 2)), np.zeros(4)):  # odd, not square, 1-D
        with pytest.raises(ValueError, match="shape"):
            GaussianState(cov)
    asym = np.eye(4)
    asym[0, 1] = 0.5
    with pytest.raises(ValueError):
        GaussianState(asym)
    # an asymmetry of exactly the 1e-12 relative tolerance is accepted
    asym[0, 1] = 1e-12
    assert GaussianState(asym).cov[0, 1] == 0.5e-12
    with pytest.raises(ValueError, match=r"n >= 1, got \(0, 0\)"):
        GaussianState(np.zeros((0, 0)))
    bad = np.eye(4)
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        GaussianState(bad)
