"""Exception types shared across the simulation pipeline.

The CLI maps these onto exit codes: ConfigError -> 2, NumericsError -> 3,
OSError -> 4.
"""

from __future__ import annotations


class PipelineError(Exception):
    """Base class for all domain errors raised by this package."""


class ConfigError(PipelineError):
    """Configuration file failed schema or semantic validation."""


class NumericsError(PipelineError):
    """A numerical stage produced or received something it cannot handle."""


class InvalidCovarianceError(NumericsError):
    """Covariance matrix is not positive semi-definite (even after jitter)."""


class SingularCovarianceError(NumericsError):
    """Covariance determinant too small for a phase-space density."""


class UnphysicalStateError(NumericsError):
    """Estimated state violates the Heisenberg bound beyond tolerance."""


class FluxDivergenceError(NumericsError):
    """Flux bias too close to half a quantum: divergent SQUID inductance."""


class UnstableRegimeError(NumericsError):
    """Pump at or above the critical power: no stable steady-state gain."""


class FitDegenerateError(NumericsError):
    """Input data cannot constrain the fit (degenerate support)."""


class NoConvergenceError(NumericsError):
    """Iterative fit hit its evaluation cap without converging."""


class InvalidGridError(NumericsError):
    """Frequency grid too narrow for the requested filter."""


class UnsupportedFilterError(NumericsError):
    """Filter lacks the mirror symmetry the scattering identity requires."""


class InternalConsistencyError(NumericsError):
    """A quantity violated an identity the pipeline relies on."""


class RangeTooSmallError(NumericsError):
    """Histogram range clips too much probability mass for moment use."""


class DegenerateReferenceError(NumericsError):
    """Calibration reference has zero or negative variance."""


class NonFiniteRecordError(NumericsError):
    """A measurement record holds an infinite or NaN quadrature."""


class FloatOverflowError(NumericsError):
    """An input is so large that a quantity built from it overflows float64."""


class UnresolvedSignalError(NumericsError):
    """float64 cannot resolve the vacuum quarter against the pump-off variances.

    The deconvolved diagonal is Var_on - Var_off + 1/4.  Two float64 numbers
    of size V differ by a multiple of their spacing ulp(V) = 2^(e - 52),
    where 2^e <= V < 2^(e + 1), so the difference resolves nothing finer
    than ulp(V).  Once ulp(Var_off) >= 1/4, i.e. e >= 50 or Var_off >= 2^50
    (about 1.1e15; n_noise of about 2.3e15 photons at Var_off =
    (2 n_noise + 2)/4), the subtraction cannot tell the signal's variance
    from the vacuum quarter it is measured against.
    """
