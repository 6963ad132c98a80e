"""Two-channel heterodyne detection of the amplified sidebands.

Digital filters f1 (signal channel, centered at +offset) and f2 (idler
channel, the exact mirror f2(delta) = f1(-delta)) select a pair of canonical
temporal modes out of the amplifier output.  The pair (b1, b2) is Gaussian;
its second moments follow from the per-sideband-pair scattering
b_out(d) = A_d b_in(d) + B_d b_in^dagger(-d).  Measurement records are the
complex samples S_k = gain_k * [(x_k + x_h,k) + i (p_k - p_h,k)] with h a
thermal auxiliary mode carrying the detection-chain noise.
"""

from __future__ import annotations

import contextlib
import operator
import threading
from bisect import bisect_right
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np
from numpy.typing import NDArray

from .device import GainProfile, gain
from .errors import (
    InternalConsistencyError,
    InvalidGridError,
    UnsupportedFilterError,
)
from .gaussian import GaussianState, _cholesky_with_jitter, vacuum_state

FILTER_SHAPES = ("boxcar-notch", "raised-cosine-notch")

_NORMALIZATION_TOL = 1e-10
# Records per record block: a pass holds one block's z and aux draws and its
# pump-on and pump-off blocks, 4 MB each, at once.  No result depends on it:
# the random streams are read in record order whatever the block, and the
# moment sums run on a _HIST_SUB cell grid of their own.
_MEASURE_CHUNK = 1 << 17
# Records per row block of a record block's build and of the histogram kernel,
# and per cell of the moment sums (tomography imports it): a row block's
# temporaries stay in L2 cache.
_HIST_SUB = 1 << 14


@dataclass(frozen=True)
class FilterSpec:
    """Filter pair on a uniform, symmetric detuning grid.

    `weights` holds f1 on `grid`; the idler filter is the array reversal
    (exact mirror, since the grid is antisymmetric by construction).  The
    squared weights integrate to 1 (Riemann sum, tol 1e-10) and the weight at
    the pump bin delta = 0 is exactly zero.
    """

    offset: float
    grid: NDArray[np.float64]
    weights: NDArray[np.complex128]

    def __post_init__(self) -> None:
        grid = np.asarray(self.grid, dtype=np.float64).copy()
        weights = np.asarray(self.weights, dtype=np.complex128).copy()
        if grid.ndim != 1 or grid.size < 3 or grid.size % 2 == 0:
            raise UnsupportedFilterError("grid must be 1-D with odd size >= 3")
        if weights.shape != grid.shape:
            raise UnsupportedFilterError("weights and grid shapes differ")
        steps = np.diff(grid)
        if not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
            raise UnsupportedFilterError("grid must be uniform")
        if np.max(np.abs(grid + grid[::-1])) > 1e-9 * np.max(np.abs(grid)):
            raise UnsupportedFilterError("grid must be symmetric about zero")
        norm = np.sum(np.abs(weights) ** 2) * self.spacing_of(grid)
        if abs(norm - 1.0) > _NORMALIZATION_TOL:
            raise ValueError(f"filter normalization {norm} deviates from 1")
        if weights[grid.size // 2] != 0.0:
            raise ValueError("weight at the pump bin must be exactly zero")
        grid.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "weights", weights)

    @staticmethod
    def spacing_of(grid: NDArray[np.float64]) -> float:
        return float((grid[-1] - grid[0]) / (grid.size - 1))

    @property
    def spacing(self) -> float:
        return self.spacing_of(self.grid)

    @property
    def mirrored_weights(self) -> NDArray[np.complex128]:
        """Idler filter f2(delta) = f1(-delta)."""
        return self.weights[::-1]


def design_filter(
    offset: float,
    shape: str,
    width: float,
    grid_points: int = 2001,
    span: float | None = None,
) -> FilterSpec:
    """Build a normalized filter pair with an exact pump notch.

    shape is one of "boxcar-notch" (constant over [offset - width/2,
    offset + width/2] minus the pump bin) or "raised-cosine-notch" (cosine
    taper over the same support times the notch factor
    1 - exp(-delta^2 / (2 sigma_n^2)), sigma_n = width / 20).  The grid is
    uniform and symmetric, spans +-span (default offset + 3 width, the
    minimum accepted), and grid_points is rounded up to an odd count so a
    node sits exactly at delta = 0.
    """
    if width <= 0:
        raise ValueError("width must be > 0")
    if offset < 0:
        raise ValueError("offset must be >= 0")
    if shape not in FILTER_SHAPES:
        raise ValueError(f"unknown filter shape {shape!r}; use one of {FILTER_SHAPES}")
    min_span = offset + 3.0 * width
    if span is None:
        span = min_span
    if span < min_span * (1.0 - 1e-12):
        raise InvalidGridError(
            f"grid span {span} too narrow; need at least offset + 3*width = {min_span}"
        )
    n = int(grid_points)
    if n < 3:
        raise ValueError("grid_points must be >= 3")
    if n % 2 == 0:
        n += 1
    half = n // 2
    spacing = span / half
    # Antisymmetric by construction: grid[i] = -grid[n-1-i] exactly.
    grid = (np.arange(n) - half) * spacing

    u = (grid - offset) / (width / 2.0)
    if shape == "boxcar-notch":
        w = np.where(np.abs(u) <= 1.0, 1.0, 0.0)
    else:
        sigma_n = width / 20.0
        taper = np.where(np.abs(u) <= 1.0, np.cos(np.pi * u / 2.0) ** 2, 0.0)
        w = taper * (1.0 - np.exp(-(grid**2) / (2.0 * sigma_n**2)))
    w[half] = 0.0  # pump bin carries an exact zero
    mass = np.sum(w**2) * spacing
    if mass <= 0.0:
        raise InvalidGridError("filter support does not intersect the grid")
    w = w / np.sqrt(mass)
    return FilterSpec(offset=offset, grid=grid, weights=w.astype(np.complex128))


def predicted_r(filt: FilterSpec, profile: GainProfile) -> float:
    """Squeezing parameter from the filtered gain: cosh^2 r = int |f1|^2 G."""
    integral = float(
        np.trapezoid(np.abs(filt.weights) ** 2 * gain(filt.grid, profile), filt.grid)
    )
    if integral < 1.0 - 1e-9:
        raise InternalConsistencyError(
            f"filtered gain integral {integral} below 1; gain profile is unphysical"
        )
    return float(np.arccosh(np.sqrt(max(integral, 1.0))))


def output_two_mode_state(
    profile: GainProfile, filt: FilterSpec, input_thermal: float = 0.0
) -> GaussianState:
    """Exact Gaussian state of the filtered mode pair (b1, b2).

    Decomposes the grid into symmetric sideband pairs (delta, -delta), each
    transforming independently with (A_delta, B_delta), and accumulates the
    filtered second moments:

        <b1^dag b1> = int |f1|^2 [(G-1)(1 + nbar) + G nbar]
        <b1 b2>     = int f1(d) f2(-d) A_d B_d (1 + 2 nbar)
        <b1 b1>     = int f1(d) f1(-d) A_d B_d (1 + 2 nbar)
        <b1 b2^dag> = int f1(d) f2*(d) [G (1 + nbar) + (G-1) nbar]

    For vacuum input and non-overlapping mirror filters only the first two
    survive and the diagonal equals cosh(2 predicted_r)/4 exactly; the cross
    covariance is bounded by the pure-state value sinh(2 predicted_r)/4
    (equality iff the gain is flat across the filter support).
    """
    if input_thermal < 0:
        raise ValueError("input_thermal must be >= 0")
    grid = filt.grid
    if np.max(np.abs(grid + grid[::-1])) > 1e-9 * np.max(np.abs(grid)):
        raise UnsupportedFilterError("filter grid lost its mirror symmetry")
    f1 = filt.weights
    f2 = filt.mirrored_weights
    g = gain(grid, profile)
    a_coef = np.sqrt(g)
    b_coef = np.sqrt(np.maximum(g - 1.0, 0.0))
    nbar = float(input_thermal)

    def integral(values) -> complex:
        return complex(np.trapezoid(values, grid))

    # f2(-delta) = f1(delta) and f1(-delta) = f2(delta) by mirror symmetry.
    occ = integral(np.abs(f1) ** 2 * ((g - 1.0) * (1.0 + nbar) + g * nbar))
    pair = integral(f1 * f1 * a_coef * b_coef) * (1.0 + 2.0 * nbar)
    self_pair = integral(f1 * f2 * a_coef * b_coef) * (1.0 + 2.0 * nbar)
    beam = integral(f1 * np.conj(f2) * (g * (1.0 + nbar) + (g - 1.0) * nbar))

    n1 = occ.real
    var_x = (2.0 * n1 + 1.0 + 2.0 * self_pair.real) / 4.0
    var_p = (2.0 * n1 + 1.0 - 2.0 * self_pair.real) / 4.0
    xp = self_pair.imag / 2.0
    x1x2 = (pair.real + beam.real) / 2.0
    p1p2 = (beam.real - pair.real) / 2.0
    x1p2 = (pair.imag - beam.imag) / 2.0
    p1x2 = (pair.imag + beam.imag) / 2.0
    cov = np.array(
        [
            [var_x, xp, x1x2, x1p2],
            [xp, var_p, p1x2, p1p2],
            [x1x2, p1x2, var_x, xp],
            [x1p2, p1p2, xp, var_p],
        ]
    )
    return GaussianState(2, np.zeros(4), cov)


@dataclass(frozen=True)
class DetectionConfig:
    """Measurement-chain settings.

    n_noise is the added noise of the output line in photons referred to the
    amplifier output (both channels; n_noise_ch2 overrides channel 2 when the
    chains differ).  gain_ch1/gain_ch2 are dimensionless record scalings,
    sample_period and lo_offset are carried for throughput metadata.
    """

    n_noise: float = 69.0
    n_noise_ch2: float | None = None
    gain_ch1: float = 1.0
    gain_ch2: float = 1.02
    sample_period: float = 10e-9
    lo_offset: float = 2.0 * np.pi * 5.0e6

    def __post_init__(self) -> None:
        if self.n_noise < 0:
            raise ValueError("n_noise must be >= 0")
        if self.n_noise_ch2 is not None and self.n_noise_ch2 < 0:
            raise ValueError("n_noise_ch2 must be >= 0")
        if self.gain_ch1 <= 0 or self.gain_ch2 <= 0:
            raise ValueError("channel gains must be > 0")
        if self.sample_period <= 0:
            raise ValueError("sample_period must be > 0")

    @property
    def noise_pair(self) -> tuple[float, float]:
        n2 = self.n_noise if self.n_noise_ch2 is None else self.n_noise_ch2
        return (self.n_noise, n2)


class _Recipe(NamedTuple):
    """What a deferred RecordBatch draws: `_record_blocks((source,), ...)`."""

    source: GaussianState
    config: DetectionConfig
    n: int
    seed: int
    streams: int


class RecordBatch:
    """Measurement records as one C-contiguous (n, 4) float64 store.

    The columns are the measured quadratures (X1, P1, X2, P2), i.e.
    (Re s1, Im s1, Re s2, Im s2).  The complex channel samples `s1` and `s2`
    are views of the store, and `quadratures()` and `chunks()` return the
    store or slices of it; all of them are read-only.

    A batch from `measure` is a recipe: it draws nothing until it is read.
    `quadratures()`, `s1` and `s2` draw the store on first use and keep it.
    Until then `chunks()` at the default size (and so `save_binary` and the
    tomography accumulators) draws block by block in O(chunk) memory, and
    `len()` reads nothing.  Each such streaming read of an unread recipe
    draws it again, so a caller that reads a batch more than once should
    call `quadratures()` first.

    The block size changes no result: the tomography accumulators sum cells
    of _HIST_SUB records on the global record grid, so `chunks(size)` at any
    size, the stored array and the streamed recipe give bit-identical
    moments and histograms.
    """

    __slots__ = ("_store", "_recipe", "_lock")

    def __init__(self, s1: NDArray[np.complex128], s2: NDArray[np.complex128]):
        s1 = np.asarray(s1, dtype=np.complex128)
        s2 = np.asarray(s2, dtype=np.complex128)
        if s1.shape != s2.shape or s1.ndim != 1:
            raise ValueError("s1 and s2 must be 1-D arrays of equal length")
        pairs = np.empty((s1.size, 2), dtype=np.complex128)
        pairs[:, 0] = s1
        pairs[:, 1] = s2
        self._init(pairs.view(np.float64), None)

    @classmethod
    def _wrap(cls, store: NDArray[np.float64]) -> "RecordBatch":
        """Adopt an (n, 4) C-contiguous float64 store without copying."""
        batch = cls.__new__(cls)
        batch._init(store, None)
        return batch

    @classmethod
    def _deferred(cls, recipe: _Recipe) -> "RecordBatch":
        """A batch whose records `recipe` draws on first read."""
        batch = cls.__new__(cls)
        batch._init(None, recipe)
        return batch

    def _init(self, store: NDArray[np.float64] | None, recipe: _Recipe | None) -> None:
        if store is not None:
            store.setflags(write=False)
        self._store = store
        self._recipe = recipe
        self._lock = threading.Lock()  # the store is drawn at most once

    def __getstate__(self):
        return self._store, self._recipe

    def __setstate__(self, state) -> None:
        self._init(*state)

    def _blocks(self, out=None) -> Iterator[tuple[NDArray[np.float64], ...]]:
        r = self._recipe
        return _record_blocks((r.source,), r.config, r.n, r.seed, r.streams, out=out)

    @property
    def s1(self) -> NDArray[np.complex128]:
        return self.quadratures().view(np.complex128)[:, 0]

    @property
    def s2(self) -> NDArray[np.complex128]:
        return self.quadratures().view(np.complex128)[:, 1]

    def __len__(self) -> int:
        return self._store.shape[0] if self._recipe is None else self._recipe.n

    def quadratures(self) -> NDArray[np.float64]:
        """Measured quadratures as columns (X1, P1, X2, P2)."""
        with self._lock:
            if self._store is None:
                store = np.empty((len(self), 4))
                for _ in self._blocks(out=(store,)):
                    pass
                store.setflags(write=False)
                self._store = store
        return self._store

    def chunks(self, size: int | None = None) -> Iterator[NDArray[np.float64]]:
        """Quadrature blocks of at most `size` records (default _MEASURE_CHUNK)."""
        if self._store is None and size in (None, _MEASURE_CHUNK):
            with contextlib.closing(self._blocks()) as blocks:
                for (block,) in blocks:
                    block.setflags(write=False)
                    yield block
            return
        store = self.quadratures()
        size = _MEASURE_CHUNK if size is None else size
        for start in range(0, len(store), size):
            yield store[start : start + size]

    def save_binary(self, path) -> None:
        """Little-endian float64 stream, record-major, columns (X1, P1, X2, P2)."""
        with open(path, "wb") as fh:
            for block in self.chunks():
                block.astype("<f8", copy=False).tofile(fh)

    @classmethod
    def load_binary(cls, path) -> "RecordBatch":
        raw = np.fromfile(path, dtype="<f8")
        if raw.size % 4 != 0:
            raise ValueError("binary record stream length is not a multiple of 4")
        return cls._wrap(raw.reshape(-1, 4).astype(np.float64, copy=False))


def _paired_record_blocks(
    records_on: RecordBatch, records_off: RecordBatch
) -> Iterator[tuple[NDArray[np.float64], NDArray[np.float64]]] | None:
    """(pump-on, pump-off) block pairs from one set of draws, or None.

    Two unread recipes that differ only in their source share every draw, so
    one `_record_blocks` pass yields both; any other pair returns None.
    """
    for batch in (records_on, records_off):
        if not isinstance(batch, RecordBatch) or batch._store is not None:
            return None
    on, off = records_on._recipe, records_off._recipe
    # np.array_equal: a seed may also be a sequence of ints
    if (on.config, on.n, on.streams) != (off.config, off.n, off.streams) or not (
        np.array_equal(on.seed, off.seed)
    ):
        return None
    return _record_blocks((on.source, off.source), on.config, on.n, on.seed, on.streams)


def _record_blocks(
    sources: Sequence[GaussianState],
    config: DetectionConfig,
    n: int,
    seed: int,
    streams: int = 1,
    out: Sequence[NDArray[np.float64]] | None = None,
) -> Iterator[tuple[NDArray[np.float64], ...]]:
    """Record blocks of every source from one set of random draws.

    The n records split into `streams` contiguous partitions; partition k
    draws its signal normals z from spawn key (k, 0) and its auxiliary-noise
    normals from spawn key (k, 1), in record order.  The blocks lie on one
    global grid of _MEASURE_CHUNK records counted from record 0, whatever
    `streams` is: a partition boundary splits a block's draw, never the
    block, so the blocks equal `RecordBatch.chunks()` of the stored records.
    No record depends on _MEASURE_CHUNK (see _build_block), and the
    tomography accumulators sum on a grid of _HIST_SUB-record cells of their
    own, so the block size moves no result; accumulators merged on cell
    boundaries equal one pass bit for bit.  Each block is drawn once and
    yields one C-contiguous (m, 4) block per source,

        (z @ chol.T + mean + aux * (sd1, -sd1, sd2, -sd2)) * (g1, g1, g2, g2),

    whose columns are (Re S1, Im S1, Re S2, Im S2).  While this thread draws
    a block's z, one worker thread (owned by this generator and joined when
    it finishes or is closed) draws the same block's aux and scales it by
    the noise deviations; each generator is read in order by one thread.
    The worker then builds the second source's block while this thread
    builds the first (see _build_block), so the blocks are bit-identical to
    a serial draw.  With `out` (one (n, 4) array per source) the blocks are
    written into those arrays and are views of them.  Callers validate the
    arguments.
    """
    chols = [_cholesky_with_jitter(source.cov) for source in sources]
    n1, n2 = config.noise_pair
    sd1 = np.sqrt((2.0 * n1 + 1.0) / 4.0)
    sd2 = np.sqrt((2.0 * n2 + 1.0) / 4.0)
    noise_sd = np.array([sd1, -sd1, sd2, -sd2])
    gains = np.array([config.gain_ch1, config.gain_ch1, config.gain_ch2, config.gain_ch2])

    def rngs(channel: int) -> list[np.random.Generator]:
        return [
            np.random.Generator(
                np.random.PCG64(
                    np.random.SeedSequence(entropy=seed, spawn_key=(k, channel))
                )
            )
            for k in range(streams)
        ]

    rngs_sig, rngs_noise = rngs(0), rngs(1)
    base, extra = divmod(n, streams)
    # partition k holds records [first[k], first[k + 1])
    first = [k * base + min(k, extra) for k in range(streams + 1)]

    def fill(generators, parts, step: int):
        values = np.empty((step, 4))
        for k, lo, hi in parts:
            generators[k].standard_normal(out=values[lo:hi])
        return values

    def noise(parts, step: int):
        aux = fill(rngs_noise, parts, step)
        aux *= noise_sd
        return aux

    def draw(pool, start: int, step: int):
        # every temporary dies on return: a suspended generator holds nothing
        stop = start + step
        # rows [lo, hi) of the block come from partition k
        k = bisect_right(first, start) - 1
        parts = []
        while first[k] < stop:
            parts.append((k, max(first[k], start) - start, min(first[k + 1], stop) - start))
            k += 1
        pending = pool.submit(noise, parts, step)
        z = fill(rngs_sig, parts, step)
        aux = pending.result()
        if out is None:
            # one allocation for all sources' blocks: glibc malloc keeps a
            # freed pair on its heap (it trims at twice the largest freed
            # mapping), where it trims separate blocks and faults their pages
            # in again for every block (10^7 records: 5e3 page faults, not
            # 1.2e5)
            blocks = list(np.empty((len(sources), step, 4)))
        else:
            blocks = [array[start:stop] for array in out]
        # the worker builds the second source's block while this thread
        # builds the first
        builds = [
            pool.submit(_build_block, block, z, aux, chol, source.mean, gains)
            for block, chol, source in zip(blocks[1:], chols[1:], sources[1:])
        ]
        _build_block(blocks[0], z, aux, chols[0], sources[0].mean, gains)
        for build in builds:
            build.result()
        return tuple(blocks)

    # leaving the block, on success or failure, waits for the worker
    with ThreadPoolExecutor(max_workers=1) as pool:
        for start in range(0, n, _MEASURE_CHUNK):
            yield draw(pool, start, min(_MEASURE_CHUNK, n - start))


def _build_block(block, z, aux, chol, mean, gains) -> None:
    """block[:] = (z @ chol.T + mean + aux) * gains, one row block at a time.

    A row block's four steps run while its z and aux rows are still in
    cache.  The last row block takes the remainder, so a row block has one
    row only when the whole block has.  That row comes from a two-row
    product: numpy hands a one-row matmul to gemv, whose rounding differs
    from gemm's, and no record may depend on the block it falls in.
    """
    m = block.shape[0]
    count = max(m // _HIST_SUB, 1)
    for k in range(count):
        lo = k * _HIST_SUB
        hi = m if k == count - 1 else lo + _HIST_SUB
        rows = block[lo:hi]
        if hi - lo == 1:
            rows[:] = np.matmul(np.repeat(z[lo:hi], 2, axis=0), chol.T)[:1]
        else:
            np.matmul(z[lo:hi], chol.T, out=rows)
        rows += mean
        rows += aux[lo:hi]
        rows *= gains


def measure(
    state: GaussianState,
    config: DetectionConfig,
    n: int,
    seed: int,
    pump_on: bool = True,
    streams: int = 1,
) -> RecordBatch:
    """Heterodyne records of the two-mode state, drawn on first read.

    With the pump off the signal is replaced by vacuum.  The underlying
    standard-normal streams depend only on (seed, streams), *not* on the
    state or pump setting, so pump-on and pump-off runs taken with the same
    seed share their signal and auxiliary-noise draws; reference subtraction
    then cancels far more estimator variance than independent references
    would (the simulated analogue of an interleaved calibration).  Output is
    deterministic for fixed (seed, n, streams).

    The arguments are checked, and the source covariance factored, here; the
    returned RecordBatch is a recipe that draws its records when read (see
    RecordBatch).  `estimate_state` draws a same-seed pump-on/pump-off pair
    of unread recipes once, for both.
    """
    if state.n_modes != 2:
        raise ValueError("measure requires a 2-mode state")
    n = operator.index(n)
    if n < 0:
        raise ValueError("n must be >= 0")
    streams = operator.index(streams)
    if streams < 1:
        raise ValueError("streams must be >= 1")
    source = state if pump_on else vacuum_state(2)
    # fail here, not at the first read: a covariance with no factor, a bad seed
    _cholesky_with_jitter(source.cov)
    np.random.SeedSequence(entropy=seed)
    return RecordBatch._deferred(_Recipe(source, config, n, seed, streams))
