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
import os
import threading
from concurrent.futures import Executor, ThreadPoolExecutor, wait
from dataclasses import dataclass
from itertools import zip_longest
from typing import Iterator, NamedTuple, Sequence

import numpy as np
from numpy.typing import NDArray

from .device import GainProfile, gain
from .errors import (
    InternalConsistencyError,
    InvalidGridError,
    UnsupportedFilterError,
)
from .gaussian import (
    GaussianState,
    _cholesky_with_jitter,
    symmetric_two_mode_state,
    vacuum_state,
)

FILTER_SHAPES = ("boxcar-notch", "raised-cosine-notch")

_NORMALIZATION_TOL = 1e-10
# Records per block of every record read (RecordBatch._read, _paired_blocks)
# and, as tomography._CELL, per cell of the tomography accumulators: a
# block's temporaries stay in L2 cache.  A pass draws into one slab of
# 512 KiB planes: z, two aux slots and a ring of two block tuples, 3.5 MiB
# for a pump-on/pump-off pass, below numpy's 4 MiB huge-page threshold.  No
# result depends on it (see _record_blocks).
_MEASURE_CHUNK = 1 << 14
# Rows per period of a tiled per-column vector (see _columnwise).
_TILE_ROWS = 1 << 8
# The magnitudes whose square, and twice it, float64 holds as a normal number
_SQUARE_MIN, _SQUARE_MAX = np.sqrt([np.finfo(float).tiny, np.finfo(float).max / 2.0])


@dataclass(frozen=True)
class FilterSpec:
    """Filter pair on a uniform, symmetric detuning grid.

    `weights` holds f1 on `grid`; the idler filter is the array reversal
    (exact mirror, since the grid is antisymmetric by construction).  The
    squared weights integrate to 1 (Riemann sum, tol 1e-10), the weight at
    the pump bin delta = 0 is exactly zero, and no grid point carries a
    non-zero weight in both f1 and its mirror: the two channels select two
    distinct modes only where their bands share no frequency.
    """

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
        grid.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        norm = np.sum(np.abs(weights) ** 2) * self.spacing
        if abs(norm - 1.0) > _NORMALIZATION_TOL:
            raise ValueError(f"filter normalization {norm} deviates from 1")
        if weights[grid.size // 2] != 0.0:
            raise ValueError("weight at the pump bin must be exactly zero")
        overlap = np.count_nonzero((weights != 0.0) & (weights[::-1] != 0.0))
        if overlap:
            raise UnsupportedFilterError(
                f"the signal band overlaps its mirror at {overlap} grid points: "
                "the two channels share frequencies and select no two distinct "
                "modes (design_filter's bands are apart for offset >= width / 2)"
            )
        weights.setflags(write=False)
        object.__setattr__(self, "weights", weights)

    @property
    def spacing(self) -> float:
        return float((self.grid[-1] - self.grid[0]) / (self.grid.size - 1))

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
    node sits exactly at delta = 0.  float64 must square sigma_n, the span
    and their ratio, as the notch factor does (ValueError otherwise).
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
    sigma_n = width / 20.0
    if not (_SQUARE_MIN <= sigma_n and span <= _SQUARE_MAX and span / sigma_n <= _SQUARE_MAX):
        raise ValueError(f"float64 cannot square width {width!r} or span {span!r}")
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
        taper = np.where(np.abs(u) <= 1.0, np.cos(np.pi * u / 2.0) ** 2, 0.0)
        w = taper * (1.0 - np.exp(-(grid**2) / (2.0 * sigma_n**2)))
    w[half] = 0.0  # pump bin carries an exact zero
    mass = np.sum(w**2) * spacing
    if mass <= 0.0:
        raise InvalidGridError("filter support does not intersect the grid")
    w = w / np.sqrt(mass)
    return FilterSpec(grid=grid, weights=w.astype(np.complex128))


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

    f1 and its mirror f2 share no grid point (FilterSpec rejects a pair that
    does), so <b1 b1> and <b1 b2^dag>, whose integrands are f1 f2 and f1 f2*,
    vanish, and b1 and b2 are two independent modes.  For vacuum input the
    diagonal equals cosh(2 predicted_r)/4 exactly; the cross covariance is
    bounded by the pure-state value sinh(2 predicted_r)/4 (equality iff the
    gain is flat across the filter support).
    """
    if input_thermal < 0:
        raise ValueError("input_thermal must be >= 0")
    grid = filt.grid
    f1 = filt.weights
    g = gain(grid, profile)
    nbar = float(input_thermal)
    # f2(-delta) = f1(delta) by mirror symmetry
    occ = np.trapezoid(np.abs(f1) ** 2 * ((g - 1.0) * (1.0 + nbar) + g * nbar), grid)
    pair = complex(
        np.trapezoid(f1 * f1 * np.sqrt(g) * np.sqrt(np.maximum(g - 1.0, 0.0)), grid)
    ) * (1.0 + 2.0 * nbar)
    var = (2.0 * occ + 1.0) / 4.0
    return symmetric_two_mode_state(var, pair.real / 2.0, pair.imag / 2.0)


@dataclass(frozen=True)
class DetectionConfig:
    """Measurement-chain settings.

    n_noise is the added noise of the output line in photons referred to the
    amplifier output (both channels; n_noise_ch2 overrides channel 2 when the
    chains differ).  gain_ch1/gain_ch2 are dimensionless record scalings.
    """

    n_noise: float = 69.0
    n_noise_ch2: float | None = None
    gain_ch1: float = 1.0
    gain_ch2: float = 1.02

    def __post_init__(self) -> None:
        if self.n_noise < 0:
            raise ValueError("n_noise must be >= 0")
        if self.n_noise_ch2 is not None and self.n_noise_ch2 < 0:
            raise ValueError("n_noise_ch2 must be >= 0")
        if self.gain_ch1 <= 0 or self.gain_ch2 <= 0:
            raise ValueError("channel gains must be > 0")

    @property
    def noise_pair(self) -> tuple[float, float]:
        n2 = self.n_noise if self.n_noise_ch2 is None else self.n_noise_ch2
        return (self.n_noise, n2)


class _Recipe(NamedTuple):
    """What an unread RecordBatch draws: `_record_blocks((source,), ...)`."""

    source: GaussianState
    config: DetectionConfig
    n: int
    seed: int


class RecordBatch:
    """Measurement records as one C-contiguous (n, 4) float64 store.

    The columns are the measured quadratures (X1, P1, X2, P2), i.e.
    (Re s1, Im s1, Re s2, Im s2).  The complex channel samples `s1` and `s2`
    are views of the store and `quadratures()` returns the store, so a
    caller may keep them; all of them are read-only.

    A batch from `measure` is a recipe: it draws nothing until it is read,
    and `len()` reads nothing.  Every read goes through `_read`, in blocks of
    _MEASURE_CHUNK records on the global record grid: an unread recipe (the
    tomography accumulators) is drawn block by block in O(block) memory and
    drawn again by each such read; `quadratures()`, `s1` and `s2` draw the
    store once and keep it.  A caller that reads a batch more than once
    should call `quadratures()` first.  The stored array and the streamed
    recipe give bit-identical moments and histograms.
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

    @property
    def s1(self) -> NDArray[np.complex128]:
        return self.quadratures().view(np.complex128)[:, 0]

    @property
    def s2(self) -> NDArray[np.complex128]:
        return self.quadratures().view(np.complex128)[:, 1]

    def __len__(self) -> int:
        return self._store.shape[0] if self._recipe is None else self._recipe.n

    def _read(self, worker: Executor | None = None) -> Iterator[NDArray[np.float64]]:
        """Read-only blocks of _MEASURE_CHUNK records on the global grid.

        An unread recipe is drawn one block at a time by a record pass on
        `worker` (a one-thread executor; None: one of the pass's own), whose
        blocks are lent (see _record_blocks); a store is sliced.
        """
        if self._store is None:
            source, config, n, seed = self._recipe
            with contextlib.closing(
                _record_blocks((source,), config, n, seed, worker=worker)
            ) as blocks:
                for (block,) in blocks:
                    block.setflags(write=False)
                    yield block
            return
        for start in range(0, len(self._store), _MEASURE_CHUNK):
            yield self._store[start : start + _MEASURE_CHUNK]

    def quadratures(self) -> NDArray[np.float64]:
        """Measured quadratures as columns (X1, P1, X2, P2)."""
        with self._lock:
            if self._store is None:
                # with no store _read draws the recipe and never calls back
                # here, so the lock, which is not re-entrant, is taken once
                store = np.empty((len(self), 4))
                start = 0
                with contextlib.closing(self._read()) as blocks:
                    for block in blocks:
                        store[start : start + block.shape[0]] = block
                        start += block.shape[0]
                store.setflags(write=False)
                self._store = store
        return self._store

    @classmethod
    def load_binary(cls, path) -> "RecordBatch":
        """Records of a little-endian float64 stream, record-major, columns
        (X1, P1, X2, P2): 32 bytes per record (ValueError otherwise)."""
        if os.path.getsize(path) % 32 != 0:
            raise ValueError("binary record stream length is not a multiple of 32 bytes")
        raw = np.fromfile(path, dtype="<f8")
        return cls._wrap(raw.reshape(-1, 4).astype(np.float64, copy=False))


def _blocks_of(records, worker: Executor | None = None) -> Iterator[NDArray[np.float64]]:
    """The quadrature blocks of a RecordBatch (see RecordBatch._read)."""
    if not isinstance(records, RecordBatch):
        raise TypeError(f"records must be a RecordBatch, not {type(records).__name__}")
    return records._read(worker)


def _paired_blocks(
    records_on, records_off, worker: Executor
) -> Iterator[tuple[NDArray[np.float64], NDArray[np.float64]]]:
    """(pump-on, pump-off) quadrature block pairs, every record pass on `worker`.

    Two unread recipes that differ only in their source share every draw, so
    one `_record_blocks` pass yields both; any other pair is read side by
    side (see _blocks_of), the shorter side padded with empty blocks.
    """
    on, off = (
        r._recipe if isinstance(r, RecordBatch) and r._store is None else None
        for r in (records_on, records_off)
    )
    if on and off and (on.config, on.n, on.seed) == (off.config, off.n, off.seed):
        yield from _record_blocks(
            (on.source, off.source), on.config, on.n, on.seed, worker=worker
        )
        return
    with (
        contextlib.closing(_blocks_of(records_on, worker)) as blocks_on,
        contextlib.closing(_blocks_of(records_off, worker)) as blocks_off,
    ):
        yield from zip_longest(blocks_on, blocks_off, fillvalue=np.empty((0, 4)))


def _record_blocks(
    sources: Sequence[GaussianState],
    config: DetectionConfig,
    n: int,
    seed: int,
    worker: Executor | None = None,
) -> Iterator[tuple[NDArray[np.float64], ...]]:
    """Record blocks of every source from one set of random draws.

    The signal normals z come from spawn key (0, 0) and the auxiliary-noise
    normals from spawn key (0, 1), each read in record order.  The blocks lie
    on one global grid of _MEASURE_CHUNK records counted from record 0, so
    they equal `RecordBatch._read()` of the stored records.  No record
    depends on _MEASURE_CHUNK (see _build_block), and the tomography
    accumulators sum on a grid of tomography._CELL-record cells of their
    own, so the block size moves no result; accumulators merged on cell
    boundaries equal one pass bit for bit.  Each block is drawn once and
    yields one C-contiguous (m, 4) block per source,

        (z @ chol.T + aux * (sd1, -sd1, sd2, -sd2)) * (g1, g1, g2, g2),

    whose columns are (Re S1, Im S1, Re S2, Im S2).  Only `RecordBatch._read`
    and `_paired_blocks` start a pass.

    The blocks are lent.  A pass makes one slab, which holds z, two aux
    slots and a ring of two block tuples, and allocates nothing per block;
    block k is built into ring slot k % 2, so it keeps its records until the
    consumer asks for block k + 2.  A consumer that keeps a block longer
    copies it (`RecordBatch.quadratures`, `tomography._binning_from_head`).

    `worker` is an executor with one thread, which runs its tasks in
    submission order (FIFO); without one the pass owns such a worker and
    joins it when it finishes or is closed.  The worker draws every block's
    aux and scales it by the noise deviations; the consuming thread draws
    every block's z; so each generator is read in order by one thread.
    Block k + 1's aux draw is queued right behind block k's second-source
    build, into the other of two aux slots, so a consumer that submits work
    on block k to the same worker (as `tomography.estimate_from_blocks` adds
    the pump-off block) gets it run after that draw and before block k + 1's
    build.  Per block the worker runs the second source's build of block k,
    aux(k + 1), then the consumer's task on block k, and never waits for
    this thread in between, while this thread runs the first source's build
    of block k, the consumer's own work on block k and z(k + 1) (see
    _build_block).  The blocks are bit-identical to a serial draw, and
    closing the pass after block k draws nothing past block k + 1.  Callers
    validate the arguments.
    """
    chols = [_cholesky_with_jitter(source.cov) for source in sources]
    n1, n2 = config.noise_pair
    sd1 = np.sqrt((2.0 * n1 + 1.0) / 4.0)
    sd2 = np.sqrt((2.0 * n2 + 1.0) / 4.0)
    noise_sd = _tiled([sd1, -sd1, sd2, -sd2])
    gains = _tiled([config.gain_ch1, config.gain_ch1, config.gain_ch2, config.gain_ch2])
    rng_sig, rng_noise = (
        np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(0, channel)))
        )
        for channel in (0, 1)
    )

    # planes of `rows` rows: z, the aux slots, then the ring; a short last
    # block is a leading view
    rows = min(n, _MEASURE_CHUNK)
    slab = np.empty((3 + 2 * len(sources), rows, 4))
    ring = slab[3:].reshape(2, len(sources), rows, 4)

    def noise(k: int, step: int):
        aux = rng_noise.standard_normal(out=slab[1 + k % 2, :step])
        _columnwise(np.multiply, aux, noise_sd)
        return aux

    def next_noise(k: int):
        start = k * _MEASURE_CHUNK
        if start < n:
            return worker.submit(noise, k, min(_MEASURE_CHUNK, n - start))
        return None

    with contextlib.ExitStack() as stack:
        if worker is None:
            worker = stack.enter_context(ThreadPoolExecutor(max_workers=1))
        pending = next_noise(0)
        try:
            for k, start in enumerate(range(0, n, _MEASURE_CHUNK)):
                step = min(_MEASURE_CHUNK, n - start)
                z = rng_sig.standard_normal(out=slab[0, :step])
                aux = pending.result()
                blocks = tuple(ring[k % 2, :, :step])
                # the worker builds the second source's block while this
                # thread builds the first, then draws block k + 1's aux into
                # the other slot
                builds = [
                    worker.submit(_build_block, block, z, aux, chol, gains)
                    for block, chol in zip(blocks[1:], chols[1:])
                ]
                pending = next_noise(k + 1)
                _build_block(blocks[0], z, aux, chols[0], gains)
                for build in builds:
                    build.result()
                yield blocks
        finally:
            # closed after block k: block k + 1's aux is not drawn unless its
            # draw has started
            if pending is not None:
                pending.cancel()
                wait([pending])


def _tiled(vector) -> NDArray[np.float64]:
    """A per-column (4,) vector repeated for _TILE_ROWS rows."""
    return np.tile(np.asarray(vector, dtype=np.float64), _TILE_ROWS)


def _columnwise(ufunc, rows: NDArray[np.float64], tiled: NDArray[np.float64]) -> None:
    """rows[:] = ufunc(rows, vector) for C-contiguous (m, 4) rows and the
    `_tiled` form of a (4,) vector.

    The same element-wise operation as broadcasting the (4,) vector over
    the rows, so the same bits, but its inner loop runs over 4 * _TILE_ROWS
    contiguous values instead of 4 (a broadcast costs 0.08-0.10 s per 10^7
    records, this 0.02 s).
    """
    flat = np.reshape(rows, -1, copy=False)  # raises rather than copy
    cut = flat.size - flat.size % tiled.size
    whole = flat[:cut].reshape(-1, tiled.size)
    ufunc(whole, tiled, out=whole)
    ufunc(flat[cut:], tiled[: flat.size - cut], out=flat[cut:])


def _build_block(block, z, aux, chol, gains) -> None:
    """block[:] = (z @ chol.T + aux) * gains.

    `gains` is a `_tiled` per-column vector (see _columnwise).  A
    one-row block comes from a two-row product: numpy hands a one-row matmul
    to gemv, whose rounding differs from gemm's, and no record may depend on
    the block it falls in.
    """
    if block.shape[0] == 1:
        block[:] = np.matmul(np.repeat(z, 2, axis=0), chol.T)[:1]
    else:
        np.matmul(z, chol.T, out=block)
    block += aux
    _columnwise(np.multiply, block, gains)


def measure(
    state: GaussianState,
    config: DetectionConfig,
    n: int,
    seed: int,
    pump_on: bool = True,
) -> RecordBatch:
    """Heterodyne records of the two-mode state, drawn on first read.

    With the pump off the signal is replaced by vacuum.  The underlying
    standard-normal draws depend only on the seed, *not* on the state or
    pump setting, so pump-on and pump-off runs taken with the same seed
    share their signal and auxiliary-noise draws; reference subtraction then
    cancels far more estimator variance than independent references would
    (the simulated analogue of an interleaved calibration).  Output is
    deterministic for fixed (seed, n), and a longer run extends a shorter
    one with the same seed.  The seed is an integer (TypeError otherwise).

    The arguments are checked, and the source covariance factored, here; the
    returned RecordBatch is a recipe that draws its records when read (see
    RecordBatch).  `estimate_state` draws a same-seed pump-on/pump-off pair
    of unread recipes once, for both.
    """
    if state.n_modes != 2:
        raise ValueError("measure requires a 2-mode state")
    n = operator.index(n)
    seed = operator.index(seed)
    if n < 0:
        raise ValueError("n must be >= 0")
    source = state if pump_on else vacuum_state(2)
    # fail here, not at the first read: a covariance with no factor, a bad seed
    _cholesky_with_jitter(source.cov)
    np.random.SeedSequence(entropy=seed)
    return RecordBatch._deferred(_Recipe(source, config, n, seed))
