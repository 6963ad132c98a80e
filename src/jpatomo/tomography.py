"""State reconstruction from two-channel heterodyne records.

Pipeline: bin the four measured quadratures (X1, P1, X2, P2) into 2D
histograms for the six axis pairs (pump on and pump off), extract first and
second moments (Sheppard-corrected), calibrate per-channel scale factors off
the pump-off reference, subtract the reference moments to remove the
detection chain, assemble the 4x4 covariance of the underlying mode pair,
and fit the squeezing model.  The Wigner marginals of an estimate are
evaluated on a grid on request (`wigner_marginals`).  Histograms and
moment accumulators are mergeable so records can be processed in shards.

Every function returns numbers and opens no file: `cli` decides what each
output file holds and writes it.
"""

from __future__ import annotations

import contextlib
import warnings
from concurrent.futures import Executor, ThreadPoolExecutor, wait
from dataclasses import dataclass
from functools import partial
from itertools import chain
from typing import Iterable, Mapping, NamedTuple

import numpy as np
from numpy.typing import NDArray

from .detection import _MEASURE_CHUNK, RecordBatch, _blocks_of, _paired_blocks
from .errors import (
    DegenerateReferenceError,
    FloatOverflowError,
    InvalidCovarianceError,
    NonFiniteRecordError,
    RangeTooSmallError,
    UnphysicalStateError,
    UnresolvedSignalError,
)
from .gaussian import (
    GaussianState,
    marginal,
    physicality_margin,
    tms_theory_covariance,
    wigner,
    witness,
)

AXIS_LABELS = ("X1", "P1", "X2", "P2")
_AXIS_INDEX = {label: k for k, label in enumerate(AXIS_LABELS)}

# The six distinct axis pairs; together they cover every off-diagonal moment
# exactly once and every variance three times.
PAIR_LABELS = (
    ("X1", "P1"),
    ("X2", "P2"),
    ("X1", "P2"),
    ("X2", "P1"),
    ("X1", "X2"),
    ("P1", "P2"),
)

_WARN_PHYSICALITY_TOL = 1e-6


# ---------------------------------------------------------------------------
# binning and histograms


@dataclass(frozen=True)
class Binning:
    """Shared square binning for all four quadrature axes."""

    lo: float
    hi: float
    bins: int = 128

    def __post_init__(self) -> None:
        if not (np.isfinite(self.lo) and np.isfinite(self.hi)):
            raise ValueError("binning range must be finite")
        if not self.hi > self.lo:
            raise ValueError("binning range must have hi > lo")
        if self.bins < 2:
            raise ValueError("need at least 2 bins per axis")

    @property
    def edges(self) -> NDArray[np.float64]:
        return np.linspace(self.lo, self.hi, self.bins + 1)

    @property
    def width(self) -> float:
        return (self.hi - self.lo) / self.bins

    def index(self, values: NDArray[np.float64], out=None):
        """Bin index per value plus an in-range mask.

        Values exactly at the upper edge land in the last bin, so the rule is
        a pure function of (value, lo, hi, bins) and shard merges are exact.
        An infinite or NaN value raises NonFiniteRecordError.  `out`, if
        given, is an (index, mask, scratch) triple of int64, bool and float64
        arrays of the values' shape, which receive the indices, the mask and
        the scaled values; the first two are returned.
        """
        if out is None:
            out = (
                np.empty(values.shape, np.int64),
                np.empty(values.shape, bool),
                np.empty(values.shape),
            )
        idx, inside, scaled = out
        np.greater_equal(values, self.lo, out=inside)
        inside &= values <= self.hi
        if not inside.all() and not np.isfinite(values).all():
            raise NonFiniteRecordError("records hold an infinite or NaN quadrature")
        # a finite value far out of range may scale to +-inf or past int64;
        # clipped before the cast, it lands in an edge bin (and is out of range)
        with np.errstate(over="ignore"):
            np.subtract(values, self.lo, out=scaled)
            np.divide(scaled, self.width, out=scaled)
        np.clip(scaled, 0, self.bins - 1, out=scaled)
        np.copyto(idx, scaled, casting="unsafe")
        return idx, inside


def auto_binning(
    batch: RecordBatch,
    bins: int = 128,
    sigmas: float = 6.0,
    prefix_records: int = 10_000,
) -> Binning:
    """Square range +-sigmas * (largest per-axis std of a record prefix).

    Only the blocks that hold the prefix are read.
    """
    with contextlib.closing(batch._read()) as blocks:
        binning, _ = _binning_from_head(zip(blocks), bins, sigmas, prefix_records)
    return binning


def _prefix_binning(prefix: NDArray[np.float64], bins: int, sigmas: float) -> Binning:
    """The auto_binning rule applied to the (m, 4) prefix quadratures."""
    if prefix.shape[0] < 2:
        raise DegenerateReferenceError("need at least 2 records to choose a range")
    if not np.isfinite(prefix).all():
        raise NonFiniteRecordError("record prefix holds an infinite or NaN quadrature")
    sigma = float(np.max(prefix.std(axis=0)))
    if not np.isfinite(sigma) or sigma <= 0.0:
        raise DegenerateReferenceError("record prefix has no spread")
    half = sigmas * sigma
    # Binning.width, squared by Sheppard's correction
    width = 2.0 * half / bins
    if not np.isfinite(width * width):
        raise FloatOverflowError(f"bin_sigmas = {sigmas!r} overflows the squared bin width")
    # Binning.edges, checked before Binning rejects a range that rounds to 0
    if not (np.diff(np.linspace(-half, half, bins + 1)) > 0.0).all():
        raise DegenerateReferenceError(f"bin_sigmas = {sigmas!r}: bin edges coincide in float64")
    return Binning(lo=-half, hi=half, bins=bins)


@dataclass
class Histogram2D:
    """Counts of one quadrature pair on a rectangular grid.

    Records falling outside either axis range are tallied in `overflow`, so
    counts.sum() + overflow == n_total always holds.
    """

    labels: tuple[str, str]
    edges_x: NDArray[np.float64]
    edges_y: NDArray[np.float64]
    counts: NDArray[np.int64]
    n_total: int = 0
    overflow: int = 0

    def __post_init__(self) -> None:
        if tuple(self.labels) not in PAIR_LABELS:
            raise ValueError(f"unknown axis pair {self.labels!r}")
        for edges in (self.edges_x, self.edges_y):
            if edges.ndim != 1 or edges.size < 3 or np.any(np.diff(edges) <= 0):
                raise ValueError("edges must be strictly increasing, >= 2 bins")
        if self.counts.shape != (self.edges_x.size - 1, self.edges_y.size - 1):
            raise ValueError("counts shape does not match edges")
        if np.any(self.counts < 0) or self.overflow < 0:
            raise ValueError("counts must be non-negative")
        if int(self.counts.sum()) + self.overflow != self.n_total:
            raise ValueError("counts + overflow must equal n_total")

    @classmethod
    def empty(cls, labels: tuple[str, str], binning: Binning) -> "Histogram2D":
        edges = binning.edges
        n = binning.bins
        return cls(labels, edges, edges.copy(), np.zeros((n, n), np.int64))

    def merge(self, other: "Histogram2D") -> "Histogram2D":
        if tuple(self.labels) != tuple(other.labels):
            raise ValueError("cannot merge histograms of different axis pairs")
        if not (
            np.array_equal(self.edges_x, other.edges_x)
            and np.array_equal(self.edges_y, other.edges_y)
        ):
            raise ValueError("cannot merge histograms with different edges")
        return Histogram2D(
            self.labels,
            self.edges_x,
            self.edges_y,
            self.counts + other.counts,
            self.n_total + other.n_total,
            self.overflow + other.overflow,
        )


# Axis indices of each pair of PAIR_LABELS
_PAIR_AXES = tuple((_AXIS_INDEX[x], _AXIS_INDEX[y]) for x, y in PAIR_LABELS)

# Records per cell of the moment sums: one record block
_CELL = _MEASURE_CHUNK

# Records per row block of the histogram counts: a quarter cell, so the four
# index buffers of an accumulator take 0.3 MiB; integer counts make every row
# block size give the same counts
_HIST_ROWS = _CELL // 4


def _as_block(block) -> NDArray[np.float64]:
    """`block` as a float64 array, which must be (n, 4)."""
    block = np.asarray(block, dtype=np.float64)
    if block.ndim != 2 or block.shape[1] != 4:
        raise ValueError("block must be (n, 4)")
    return block


class HistogramAccumulator:
    """Streaming counts of the six pair histograms over 4-column blocks.

    A block is counted in row blocks of _HIST_ROWS = 2^12 records, in index
    buffers of _HIST_ROWS rows (0.3 MiB) made once, here, so no row block
    allocates anything of its size but bool masks.  An out-of-range value
    goes to a sentinel bin `bins`, and each pair's linear cell indices are
    counted into its (bins + 1)^2 cells with `np.add.at`: the sentinel row
    and column hold its overflow.  Any block sizes give the same counts.  A
    non-finite value raises NonFiniteRecordError (see Binning.index).
    """

    __slots__ = ("binning", "_cells", "_idx", "_inside", "_scaled", "_lin")

    def __init__(self, binning: Binning) -> None:
        side = binning.bins + 1
        self.binning = binning
        self._cells = np.zeros((len(PAIR_LABELS), side * side), dtype=np.int64)
        self._idx = np.empty((_HIST_ROWS, 4), np.int64)
        self._inside = np.empty((_HIST_ROWS, 4), bool)
        self._scaled = np.empty((_HIST_ROWS, 4))
        self._lin = np.empty(_HIST_ROWS, np.int64)

    def update(self, block) -> "HistogramAccumulator":
        block = _as_block(block)
        nbins = self.binning.bins
        side = nbins + 1
        for start in range(0, block.shape[0], _HIST_ROWS):
            rows = block[start : start + _HIST_ROWS]
            m = rows.shape[0]
            idx, inside, lin = self._idx[:m], self._inside[:m], self._lin[:m]
            self.binning.index(rows, out=(idx, inside, self._scaled[:m]))
            np.copyto(idx, nbins, where=~inside)
            for cells, (a, b) in zip(self._cells, _PAIR_AXES):
                np.multiply(idx[:, a], side, out=lin)
                lin += idx[:, b]
                np.add.at(cells, lin, 1)
        return self

    def histograms(self) -> dict[tuple[str, str], Histogram2D]:
        """The six pair histograms; the sentinel row and column of each
        pair's cells are its overflow."""
        nbins = self.binning.bins
        side = nbins + 1
        edges = self.binning.edges
        hists = {}
        for pair, cells in zip(PAIR_LABELS, self._cells):
            counts = cells.reshape(side, side)[:nbins, :nbins].copy()
            n_total = int(cells.sum())
            overflow = n_total - int(counts.sum())
            hists[pair] = Histogram2D(pair, edges, edges.copy(), counts, n_total, overflow)
        return hists

    def fold(self) -> tuple[MomentSet, dict[tuple[str, str], Histogram2D]]:
        """The moments and the six pair histograms, the cells folded once."""
        hists = self.histograms()
        return moment_set_from_histograms(hists), hists

    def finalize(self) -> MomentSet:
        return self.fold()[0]


def _accumulate(accumulator, records):
    """`accumulator` updated with every quadrature block of `records`."""
    with contextlib.closing(_blocks_of(records)) as blocks:
        for block in blocks:
            accumulator.update(block)
    return accumulator


def accumulate_histograms(records, binning: Binning) -> dict[tuple[str, str], Histogram2D]:
    """One pass over the records filling all six pair histograms."""
    return _accumulate(HistogramAccumulator(binning), records).histograms()


class HistogramMoments(NamedTuple):
    mean_x: float
    mean_y: float
    var_x: float
    var_y: float
    cov: float


def moments_from_histogram(h: Histogram2D) -> HistogramMoments:
    """Bin-center moments with Sheppard's correction on the variances.

    The correction removes the leading binning bias; it can push a degenerate
    variance below zero, in which case the variance clamps to 0.  The
    covariance is left uncorrected.
    """
    inside = h.n_total - h.overflow
    if inside <= 1:
        raise DegenerateReferenceError("histogram holds fewer than 2 in-range records")
    if h.overflow / h.n_total >= 0.01:
        raise RangeTooSmallError(
            f"{h.overflow}/{h.n_total} records overflow the histogram range"
        )
    cx = 0.5 * (h.edges_x[:-1] + h.edges_x[1:])
    cy = 0.5 * (h.edges_y[:-1] + h.edges_y[1:])
    wx = float(np.mean(np.diff(h.edges_x)))
    wy = float(np.mean(np.diff(h.edges_y)))
    counts = h.counts.astype(np.float64)
    col = counts.sum(axis=1)
    row = counts.sum(axis=0)
    mean_x = float(col @ cx) / inside
    mean_y = float(row @ cy) / inside
    var_x = float(col @ (cx - mean_x) ** 2) / inside - wx**2 / 12.0
    var_y = float(row @ (cy - mean_y) ** 2) / inside - wy**2 / 12.0
    cov = float((cx - mean_x) @ counts @ (cy - mean_y)) / inside
    return HistogramMoments(
        mean_x, mean_y, max(var_x, 0.0), max(var_y, 0.0), cov
    )


# ---------------------------------------------------------------------------
# moment sets


def _exceeds_cauchy_schwarz(cov: NDArray[np.float64]) -> NDArray[np.bool_]:
    """Where |cov_ab| > sqrt(cov_aa cov_bb), past rounding, for variances
    that are >= 0."""
    sd = np.sqrt(np.diag(cov))  # not sqrt(var var^T), which overflows past 1e154
    return np.abs(cov) > np.outer(sd, sd) * (1.0 + 1e-9) + 1e-12


@dataclass(frozen=True)
class MomentSet:
    """First and second moments of the four measured quadratures."""

    mean: NDArray[np.float64]
    cov: NDArray[np.float64]
    n: int

    def __post_init__(self) -> None:
        mean = np.asarray(self.mean, dtype=np.float64).copy()
        cov = np.asarray(self.cov, dtype=np.float64).copy()
        if mean.shape != (4,) or cov.shape != (4, 4):
            raise InvalidCovarianceError("moment set must hold 4 means and a 4x4 cov")
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(cov))):
            raise InvalidCovarianceError("moments must be finite")
        cov = 0.5 * (cov + cov.T)
        if np.any(np.diag(cov) < 0.0):
            raise InvalidCovarianceError("variances must be non-negative")
        if np.any(_exceeds_cauchy_schwarz(cov)):
            raise InvalidCovarianceError("covariances violate Cauchy-Schwarz")
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def variances(self) -> NDArray[np.float64]:
        return np.diag(self.cov)


class MomentAccumulator:
    """Streaming (and mergeable) moment sums over 4-column blocks.

    The records are summed in cells of _CELL = 2^14 records counted from the
    first record the accumulator sees: each cell's column sums and product
    sums are kept as one row, and `finalize` adds the rows in record order.
    A cell that a block boundary splits waits, copied, in a buffer of at
    most _CELL rows until it is whole.  So the result is a function of the
    record sequence alone: any block sizes give bit-identical moments, and a
    merge of accumulators whose shards are split on cell boundaries (the
    left shard a multiple of _CELL records) equals one pass over the whole
    sequence bit for bit.  A merge elsewhere closes the left shard's last
    cell short; it is exact up to rounding.  The rows cost 160 bytes per
    cell, 1/3300 of the records they sum.
    """

    __slots__ = ("n", "_rows", "_pending", "_fill", "_ones")

    def __init__(self) -> None:
        self.n = 0
        self._rows: list[NDArray[np.float64]] = []  # one per whole cell
        self._pending = np.empty((_CELL, 4))  # the first _fill rows wait
        self._fill = 0
        self._ones = np.ones(_CELL)

    def update(self, block) -> "MomentAccumulator":
        block = _as_block(block)
        m = block.shape[0]
        start = min(-self._fill % _CELL, m)  # rows that complete a waiting cell
        self._wait(block[:start])
        stop = start + (m - start) // _CELL * _CELL
        for lo in range(start, stop, _CELL):
            self._rows.append(self._sums(np.ascontiguousarray(block[lo : lo + _CELL])))
        self._wait(block[stop:])
        self.n += m
        return self

    def _sums(self, cell: NDArray[np.float64]) -> NDArray[np.float64]:
        """Column sums and 4x4 product sums of one C-contiguous cell, as a
        row of 20."""
        row = np.empty(20)
        np.matmul(self._ones[: cell.shape[0]], cell, out=row[:4])
        np.matmul(cell.T, cell, out=row[4:].reshape(4, 4))
        return row

    def _wait(self, rows: NDArray[np.float64]) -> None:
        """Append rows to the waiting cell, which they never overfill, and
        sum the cell once it is whole."""
        self._pending[self._fill : self._fill + rows.shape[0]] = rows
        self._fill += rows.shape[0]
        if self._fill == _CELL:
            self._rows.append(self._sums(self._pending))
            self._fill = 0

    def _all_rows(self) -> list[NDArray[np.float64]]:
        """The cell rows, a short last cell included."""
        if not self._fill:
            return self._rows
        return self._rows + [self._sums(self._pending[: self._fill])]

    def merge(self, other: "MomentAccumulator") -> "MomentAccumulator":
        """Append the shard `other` summed: its cells follow this one's, and
        its waiting rows wait here."""
        self._rows = self._all_rows() + other._rows
        self._pending[: other._fill] = other._pending[: other._fill]
        self._fill = other._fill
        self.n += other.n
        return self

    def fold(self) -> tuple[MomentSet, None]:
        """The moments, and no histograms: moment sums keep none."""
        return self.finalize(), None

    def finalize(self) -> MomentSet:
        if self.n < 2:
            raise DegenerateReferenceError("need at least 2 records for moments")
        total = np.add.reduce(np.stack(self._all_rows()), axis=0)
        if not np.isfinite(total).all():
            raise NonFiniteRecordError(
                "moment sums are not finite: a record is infinite, NaN or too large"
            )
        mean = total[:4] / self.n
        cov = total[4:].reshape(4, 4) / self.n - np.outer(mean, mean)
        return MomentSet(mean, 0.5 * (cov + cov.T), self.n)


def accumulate_moments(records) -> MomentSet:
    return _accumulate(MomentAccumulator(), records).finalize()


def moment_set_from_histograms(
    hists: Mapping[tuple[str, str], Histogram2D],
) -> MomentSet:
    """Assemble the 4x4 measured moments from the six pair histograms.

    Each variance appears in three histograms; the estimates are averaged.
    Each covariance appears in exactly one.
    """
    table = {tuple(k): v for k, v in hists.items()}
    missing = [p for p in PAIR_LABELS if p not in table]
    if missing:
        raise ValueError(f"missing histograms for pairs {missing}")
    moments = {pair: moments_from_histogram(table[pair]) for pair in PAIR_LABELS}
    mean = np.zeros(4)
    cov = np.zeros((4, 4))
    hits = np.zeros(4)
    for pair, m in moments.items():
        a = _AXIS_INDEX[pair[0]]
        b = _AXIS_INDEX[pair[1]]
        mean[a] += m.mean_x
        mean[b] += m.mean_y
        cov[a, a] += m.var_x
        cov[b, b] += m.var_y
        hits[a] += 1.0
        hits[b] += 1.0
        cov[a, b] = m.cov
        cov[b, a] = m.cov
    mean /= hits
    for k in range(4):
        cov[k, k] /= hits[k]
    # a pair histogram of few records has a rank-1 uncorrected 2x2, which
    # Sheppard's -w^2/12 leaves with variances below the covariance
    excess = _exceeds_cauchy_schwarz(cov)
    for x, y in PAIR_LABELS:
        if excess[_AXIS_INDEX[x], _AXIS_INDEX[y]]:
            h = table[(x, y)]
            raise DegenerateReferenceError(
                f"histogram {x}-{y} holds {h.n_total - h.overflow} in-range records, too "
                "few to resolve: its covariance exceeds the Sheppard-corrected variances"
            )
    n = max(h.n_total for h in table.values())
    return MomentSet(mean, cov, n)


# ---------------------------------------------------------------------------
# calibration, deconvolution, fitting


def calibrate(
    moments_off: MomentSet, n_noise: float | tuple[float, float]
) -> tuple[float, float]:
    """Per-channel scale factors from the pump-off reference.

    With the pump off each quadrature carries the vacuum signal plus the
    chain's thermal mode, variance (2 n_noise + 2)/4 in calibrated units;
    g_k = sqrt(target / measured) rescales channel k onto that target.
    """
    pair = (n_noise, n_noise) if np.isscalar(n_noise) else tuple(n_noise)
    if len(pair) != 2 or any(n < 0 for n in pair):
        raise ValueError("n_noise must be a photon number or a pair of them")
    var = moments_off.variances
    scales = []
    for k, n_k in enumerate(pair):
        measured = 0.5 * (var[2 * k] + var[2 * k + 1])
        if not np.isfinite(measured) or measured <= 0.0:
            raise DegenerateReferenceError(
                f"pump-off variance of channel {k + 1} is degenerate"
            )
        target = (2.0 * n_k + 2.0) / 4.0
        scales.append(float(np.sqrt(target / measured)))
    return (scales[0], scales[1])


def apply_scale(ms: MomentSet, scales: tuple[float, float]) -> MomentSet:
    g = np.array([scales[0], scales[0], scales[1], scales[1]])
    if np.any(~np.isfinite(g)) or np.any(g <= 0):
        raise ValueError("scale factors must be positive and finite")
    return MomentSet(ms.mean * g, ms.cov * np.outer(g, g), ms.n)


def deconvolve(moments_on: MomentSet, moments_off: MomentSet) -> NDArray[np.float64]:
    """Covariance of the mode pair: reference-subtract, restore vacuum.

    Diagonal: Var_on - Var_off + 1/4 (removes the chain's thermal mode and
    puts back the vacuum half-quantum the reference subtraction took out).
    Off-diagonal: Cov_on - Cov_off, cancelling any common systematic.
    A pump-off variance whose float64 spacing is at least the vacuum quarter
    1/4 resolves no signal and raises UnresolvedSignalError.
    """
    var_off = float(np.max(moments_off.variances))
    if np.spacing(var_off) >= 0.25:
        raise UnresolvedSignalError(
            f"pump-off variance {var_off:.3e} is too large for float64 to "
            "resolve the vacuum quarter"
        )
    v = moments_on.cov - moments_off.cov + 0.25 * np.eye(4)
    return 0.5 * (v + v.T)


_UPPER = np.triu_indices(4)


def _model_upper(r: float, n_add: float) -> NDArray[np.float64]:
    return tms_theory_covariance(r, n_add).cov[_UPPER]


@dataclass(frozen=True)
class SqueezingFit:
    """Two-parameter and pure-state fits of the squeezing model."""

    r: float
    n_add: float
    residual: float
    r_pure: float
    residual_pure: float


def fit_squeezing(v: NDArray[np.float64]) -> SqueezingFit:
    """Least squares of the 10 independent covariance entries.

    Model: diagonal cosh(2r)/4 + n_add/2, <x1 x2> = sinh(2r)/4,
    <p1 p2> = -sinh(2r)/4, every other entry 0; r >= 0 and n_add >= 0.  The
    pure-state variant freezes n_add = 0.  Unweighted residuals.

    The objective only sees the data through dbar = mean(diagonal) and
    w = (<x1 x2> - <p1 p2>)/2, so the two-parameter problem separates: for
    any r the diagonal term is zeroed by n_add = 2 (dbar - cosh(2r)/4)
    whenever that is non-negative, leaving r = arcsinh(4 max(w, 0))/2 as the
    global minimizer.  If the implied n_add is negative the constraint is
    active and the solution coincides with the pure-state fit.

    The pure-state cost is (cosh 2r - 4 dbar)^2/4 + (sinh 2r - 4 w)^2/8 plus
    a constant, so with u = e^{2r} its stationary points are the real roots
    u > 1 of 3u^4 - (16 dbar + 8w) u^3 + (16 dbar - 8w) u - 3 = 0.  The fit
    is whichever of those roots and the bound r = 0 leaves the smallest
    residual, r = 0 on a tie.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (4, 4):
        raise InvalidCovarianceError("covariance must be 4x4")
    if not np.all(np.isfinite(v)):
        raise InvalidCovarianceError("covariance entries must be finite")
    scale = max(1.0, float(np.max(np.abs(v))))
    if np.max(np.abs(v - v.T)) > 1e-8 * scale:
        raise InvalidCovarianceError("covariance must be symmetric")
    v = 0.5 * (v + v.T)
    data = v[_UPPER]
    d_bar = float(np.mean(np.diag(v)))
    w = float((v[0, 2] - v[1, 3]) / 2.0)
    r_cross = float(np.arcsinh(4.0 * max(w, 0.0)) / 2.0)

    def pure_residual(r: float) -> float:
        return float(np.linalg.norm(_model_upper(r, 0.0) - data))

    quartic = [3.0, -(16.0 * d_bar + 8.0 * w), 0.0, 16.0 * d_bar - 8.0 * w, -3.0]
    roots = np.roots(quartic)
    # a near-double root can come back as a complex pair: its real part is
    # still a candidate, and a spurious candidate only costs one evaluation
    r_pure, residual_pure = 0.0, pure_residual(0.0)
    for u in roots.real[roots.real > 1.0]:
        r = float(np.log(u) / 2.0)
        res = pure_residual(r)
        if res < residual_pure:
            r_pure, residual_pure = r, res

    n_interior = 2.0 * (d_bar - np.cosh(2.0 * r_cross) / 4.0)
    if n_interior >= 0.0:
        r_full, n_full = r_cross, float(n_interior)
    else:
        r_full, n_full = r_pure, 0.0
    return SqueezingFit(
        r=r_full,
        n_add=n_full,
        residual=float(np.linalg.norm(_model_upper(r_full, n_full) - data)),
        r_pure=r_pure,
        residual_pure=residual_pure,
    )


# ---------------------------------------------------------------------------
# reconstruction


@dataclass(frozen=True)
class WignerGrid:
    """Square evaluation grid for 2D Wigner marginals."""

    extent: float = 8.0
    points: int = 101

    def __post_init__(self) -> None:
        if not np.isfinite(self.extent) or self.extent <= 0:
            raise ValueError("extent must be positive")
        if self.points < 2:
            raise ValueError("need at least 2 grid points")

    @property
    def axis(self) -> NDArray[np.float64]:
        return np.linspace(-self.extent, self.extent, self.points)


@dataclass(frozen=True)
class WignerMarginal:
    labels: tuple[str, str]
    x: NDArray[np.float64]
    y: NDArray[np.float64]
    measured: NDArray[np.float64]
    ideal: NDArray[np.float64]


@dataclass(frozen=True)
class TomographyResult:
    v: NDArray[np.float64]
    r_fit: float
    n_add_fit: float
    residual: float
    r_fit_pure: float
    residual_pure: float
    witness_d: float
    scale_factors: tuple[float, float] | None
    n_records: tuple[int, int] | None


def _marginal_density(
    state: GaussianState, pair: tuple[int, int], grid: WignerGrid
) -> NDArray[np.float64]:
    block = marginal(state, pair)
    # A marginally indefinite estimate (sampling noise around a pure state)
    # has no density; clamp the block's eigenvalues for evaluation only, the
    # reported covariance stays untouched.
    evals, evecs = np.linalg.eigh(block.cov)
    floor = 1e-6 * max(float(np.mean(np.diag(state.cov))), 1e-6)
    if evals[0] < floor:
        sub = evecs @ np.diag(np.maximum(evals, floor)) @ evecs.T
        block = GaussianState(1, block.mean, 0.5 * (sub + sub.T))
    ax = grid.axis
    xx, yy = np.meshgrid(ax, ax, indexing="ij")
    pts = np.stack([xx, yy], axis=-1)
    return wigner(block, pts)


_MARGINAL_PAIRS = {"x1_p1": (0, 1), "x1_x2": (0, 2)}


def _symmetric_covariance(v) -> NDArray[np.float64]:
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (4, 4) or not np.all(np.isfinite(v)):
        raise InvalidCovarianceError("covariance must be a finite 4x4 matrix")
    return 0.5 * (v + v.T)


def reconstruct(
    v: NDArray[np.float64],
    scale_factors: tuple[float, float] | None = None,
    n_records: tuple[int, int] | None = None,
) -> TomographyResult:
    """Package the estimated covariance into its squeezing fits and witness.

    A slightly indefinite estimate (statistical fluctuation around a pure
    state) is tolerated with a warning; an indefiniteness on the scale of the
    covariance itself aborts, since no amount of sampling noise explains it.
    The Wigner marginals are a display output: `wigner_marginals`.
    """
    v = _symmetric_covariance(v)
    min_eig = physicality_margin(v)
    hard_tol = max(_WARN_PHYSICALITY_TOL, 0.01 * float(np.mean(np.diag(v))))
    if min_eig < -hard_tol:
        raise UnphysicalStateError(
            f"estimated covariance is unphysical (min eigenvalue {min_eig:.3e})"
        )
    if min_eig < -_WARN_PHYSICALITY_TOL:
        warnings.warn(
            f"estimated covariance marginally unphysical "
            f"(min eigenvalue {min_eig:.3e}); proceeding",
            RuntimeWarning,
            stacklevel=2,
        )

    fit = fit_squeezing(v)
    return TomographyResult(
        v=v,
        r_fit=fit.r,
        n_add_fit=fit.n_add,
        residual=fit.residual,
        r_fit_pure=fit.r_pure,
        residual_pure=fit.residual_pure,
        witness_d=witness(GaussianState(2, np.zeros(4), v)),
        scale_factors=scale_factors,
        n_records=n_records,
    )


def wigner_marginals(
    v: NDArray[np.float64], r: float, grid: WignerGrid | None = None
) -> dict[str, WignerMarginal]:
    """The (X1, P1) and (X1, X2) Wigner marginals of the covariance `v`
    (symmetrised), each beside the pure squeezed-vacuum model at squeezing
    `r` (the fitted `r_fit` of a reconstruction), on `grid` (default
    WignerGrid())."""
    v = _symmetric_covariance(v)
    if grid is None:
        grid = WignerGrid()
    state = GaussianState(2, np.zeros(4), v)
    ideal = tms_theory_covariance(r, 0.0)
    return {
        name: WignerMarginal(
            labels=(AXIS_LABELS[pair[0]], AXIS_LABELS[pair[1]]),
            x=grid.axis,
            y=grid.axis,
            measured=_marginal_density(state, pair, grid),
            ideal=_marginal_density(ideal, pair, grid),
        )
        for name, pair in _MARGINAL_PAIRS.items()
    }


# ---------------------------------------------------------------------------
# end-to-end estimation


@dataclass(frozen=True)
class EstimationResult:
    """Pipeline outputs: reconstruction plus the intermediate artifacts."""

    tomography: TomographyResult
    binning: Binning | None
    histograms_on: dict | None
    histograms_off: dict | None
    moments_on: MomentSet
    moments_off: MomentSet


def estimate_state(
    records_on: RecordBatch,
    records_off: RecordBatch,
    n_noise: float | tuple[float, float],
    method: str = "histogram",
    bins: int = 128,
    bin_sigmas: float = 6.0,
    prefix_records: int = 10_000,
) -> EstimationResult:
    """Records to reconstructed state in one call (see estimate_from_blocks).

    `detection._paired_blocks` reads the pair on the estimate's one worker
    thread: a pump-on/pump-off pair of unread `measure` recipes that differ
    only in the pump setting is drawn once, for both, in O(chunk) memory.
    """
    with (
        ThreadPoolExecutor(max_workers=1) as worker,
        contextlib.closing(_paired_blocks(records_on, records_off, worker)) as blocks,
    ):
        return estimate_from_blocks(
            blocks,
            n_noise,
            method=method,
            bins=bins,
            bin_sigmas=bin_sigmas,
            prefix_records=prefix_records,
            worker=worker,
        )


def _binning_from_head(blocks, bins: int, sigmas: float, prefix_records: int):
    """Binning from the first `prefix_records` pump-on records (the first
    block of each tuple), and an iterator over all block tuples (the
    buffered head first).

    The blocks may be lent (see detection._record_blocks), so head tuple
    j - 2 is copied before tuple j is pulled: a prefix within the first two
    blocks copies nothing."""
    head = []
    n_head = 0
    for on_off in blocks:
        head.append(on_off)
        n_head += on_off[0].shape[0]
        if n_head >= prefix_records:
            break
        if len(head) >= 2:
            head[-2] = tuple(block.copy() for block in head[-2])
    m = max(min(n_head, prefix_records), 0)
    prefix = np.concatenate([on_off[0][:m] for on_off in head] + [np.empty((0, 4))])
    return _prefix_binning(prefix[:m], bins, sigmas), chain(iter(head), blocks)


def _add_pairs(blocks, add_on, add_off, worker: Executor | None) -> None:
    """add_on(on) on this thread and add_off(off) on `worker`, one thread
    that runs its tasks in order (None: one owned by this call), for each
    (on, off) block pair.

    add_off(off) is checked when the next pair has arrived, so this thread
    goes on to draw that pair while the worker adds the pump-off block.  A
    `_record_blocks` pass on the same worker has queued the next block's aux
    draw before the pair arrives and queues the next block's pump-off build
    behind add_off(off), so the worker adds the block between those two and
    the check never waits.  Pair k is checked before pair k + 2, which the
    pass builds into pair k's lent blocks, is drawn.  Leaving, on success or
    failure, waits for the last add_off; a failure of add_on is raised over
    it.
    """
    pending = None
    with contextlib.ExitStack() as stack:
        if worker is None:
            worker = stack.enter_context(ThreadPoolExecutor(max_workers=1))
        try:
            for on, off in blocks:
                if pending is not None:
                    pending.result()
                pending = worker.submit(add_off, off)
                add_on(on)
        finally:
            if pending is not None:
                wait([pending])
    if pending is not None:
        pending.result()


def estimate_from_blocks(
    blocks: Iterable[tuple[NDArray[np.float64], NDArray[np.float64]]],
    n_noise: float | tuple[float, float],
    method: str = "histogram",
    bins: int = 128,
    bin_sigmas: float = 6.0,
    prefix_records: int = 10_000,
    *,
    worker: Executor | None = None,
) -> EstimationResult:
    """Reconstruct the state in one pass over paired (pump-on, pump-off)
    (m, 4) quadrature blocks.

    method "histogram" goes through the six pair histograms per pump setting
    (the export path), binned by the auto_binning rule on the first
    `prefix_records` pump-on records; "streaming" accumulates exact moments
    directly.  Both calibrate on the pump-off records, subtract them, and
    fit.  Memory is the pass's slab (see detection._record_blocks) plus
    copies of all but the last two blocks the prefix spans.

    `worker` is an executor with one thread that runs its tasks in order,
    shared with the `_record_blocks` pass that draws `blocks` (None: the
    estimate owns one).  The worker adds each pump-off block while this
    thread adds the pump-on block and then draws the next one (see
    _add_pairs), so a histogram, whose `np.add.at` holds the GIL, runs beside
    a draw, which releases it, not beside the other histogram.  Integer
    counts and the cell grid of the moment sums make the result independent
    of that split and of the block sizes.
    """
    if method not in ("histogram", "streaming"):
        raise ValueError("method must be 'histogram' or 'streaming'")
    blocks = iter(blocks)
    binning = None
    accumulator = MomentAccumulator
    if method == "histogram":
        binning, blocks = _binning_from_head(blocks, bins, bin_sigmas, prefix_records)
        accumulator = partial(HistogramAccumulator, binning)
    acc_on, acc_off = accumulator(), accumulator()
    _add_pairs(blocks, acc_on.update, acc_off.update, worker)
    raw_on, hists_on = acc_on.fold()
    raw_off, hists_off = acc_off.fold()
    scales = calibrate(raw_off, n_noise)
    on = apply_scale(raw_on, scales)
    off = apply_scale(raw_off, scales)
    v = deconvolve(on, off)
    result = reconstruct(v, scale_factors=scales, n_records=(raw_on.n, raw_off.n))
    return EstimationResult(
        tomography=result,
        binning=binning,
        histograms_on=hists_on,
        histograms_off=hists_off,
        moments_on=on,
        moments_off=off,
    )
