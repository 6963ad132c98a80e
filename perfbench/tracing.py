"""Spans and counts at the jpatomo layer boundaries, for the traced run only.

The program carries no timing code.  `install` replaces each layer's public
functions at the module attribute where the pipeline looks them up (for
example `jpatomo.cli.measure`, which the tomography scenario calls, and
`jpatomo.detection.measure`, which API users call) with a wrapper that
records a span and counts.  A function that a later change removes is simply
not wrapped: its span is absent and its metrics read 0.

Layers are the package modules: gaussian, device, detection, tomography,
config and cli.  Span names are `<layer>.<function>`.
"""

from __future__ import annotations

import functools
import time
from pathlib import Path


class Tracer:
    """In-memory span recorder: spans are [name, start, end, parent index]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def wrap(self, owner, attr: str, name: str, counter=None) -> None:
        original = getattr(owner, attr, None)
        if original is None:
            return
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = tracer.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(index)
            tracer.count(name + ".calls")
            if counter is not None:
                counter(tracer, args, result)
            return result

        setattr(owner, attr, traced)

    def durations(self) -> tuple[dict[str, float], dict[str, float]]:
        """Total and self time per span name.

        Self time is a span's duration minus the time its child spans cover;
        one thread makes the children disjoint, so that is their sum.
        """
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent is not None:
                covered[parent] += end - start
        total: dict[str, float] = {}
        own: dict[str, float] = {}
        for (name, start, end, _), child in zip(self.spans, covered):
            total[name] = total.get(name, 0.0) + (end - start)
            own[name] = own.get(name, 0.0) + (end - start - child)
        return total, own


def _count_records(tracer, args, batch) -> None:
    tracer.count("detection.records", len(batch))


def _count_in_range(tracer, args, hists) -> None:
    for hist in hists.values():
        tracer.count("tomography.hist_records", hist.n_total)
        tracer.count("tomography.hist_in_range", hist.n_total - hist.overflow)


def _count_points(tracer, args, density) -> None:
    tracer.count("gaussian.wigner.points", getattr(density, "size", 1))


def _count_files(tracer, args, manifest) -> None:
    for path in Path(args[2]).iterdir():
        if path.is_file():
            tracer.count("cli.files_written")
            tracer.count("cli.bytes_written", path.stat().st_size)


def install(tracer: Tracer) -> None:
    """Wrap every traced function of the jpatomo package."""
    from jpatomo import cli, config, detection, device, tomography

    targets = [
        ("config.load", config, ("default_config", "load_config"), None),
        ("detection.design_filter", config, ("design_filter",), None),
        ("device.gain_profile", cli, ("gain_profile",), None),
        ("device.gain_profile", device, ("gain_profile",), None),
        ("device.fit_psd", cli, ("fit_psd",), None),
        ("device.psd", cli, ("psd",), None),
        ("device.gain", cli, ("gain",), None),
        ("device.reflection", cli, ("reflection",), None),
        ("device.resonance_frequency", cli, ("resonance_frequency",), None),
        ("detection.predicted_r", cli, ("predicted_r",), None),
        ("detection.output_two_mode_state", cli, ("output_two_mode_state",), None),
        ("detection.output_two_mode_state", detection, ("output_two_mode_state",), None),
        ("detection.measure", cli, ("measure",), _count_records),
        ("detection.measure", detection, ("measure",), _count_records),
        ("gaussian.tms_theory_covariance", cli, ("tms_theory_covariance",), None),
        ("gaussian.tms_theory_covariance", tomography, ("tms_theory_covariance",), None),
        ("gaussian.wigner", tomography, ("wigner",), _count_points),
        ("gaussian.witness", tomography, ("witness",), None),
        ("tomography.estimate_state", cli, ("estimate_state",), None),
        ("tomography.estimate_state", tomography, ("estimate_state",), None),
        ("tomography.auto_binning", tomography, ("auto_binning",), None),
        ("tomography.accumulate_histograms", tomography, ("accumulate_histograms",),
         _count_in_range),
        ("tomography.moment_set_from_histograms", tomography,
         ("moment_set_from_histograms",), None),
        ("tomography.accumulate_moments", tomography, ("accumulate_moments",), None),
        ("tomography.calibrate_deconvolve", tomography,
         ("calibrate", "apply_scale", "deconvolve"), None),
        ("tomography.reconstruct", tomography, ("reconstruct",), None),
        ("tomography.fit_squeezing", tomography, ("fit_squeezing",), None),
        ("cli.run_scenario", cli, ("run_scenario",), _count_files),
        ("cli.write", cli, ("_write_csv", "_write_json"), None),
        ("cli.write", tomography.Histogram2D, ("to_csv",), None),
        ("cli.write", tomography.WignerMarginal, ("to_csv",), None),
        ("cli.write", tomography.TomographyResult, ("save_json",), None),
        ("cli.write", detection.RecordBatch, ("save_binary",), None),
    ]
    for name, owner, attrs, counter in targets:
        for attr in attrs:
            tracer.wrap(owner, attr, name, counter)


# Self time, not total, where a span's children are reported on their own.
_SELF_TIMED = ("tomography.reconstruct", "tomography.estimate_state", "cli.run_scenario")
_TIMED = (
    "config.load",
    "detection.measure",
    "tomography.auto_binning",
    "tomography.accumulate_histograms",
    "tomography.accumulate_moments",
    "tomography.calibrate_deconvolve",
    "tomography.fit_squeezing",
    "gaussian.wigner",
    "device.fit_psd",
    "device.gain_profile",
    "cli.write",
)


def layer_metrics(tracer: Tracer, warned: int) -> dict:
    """Per-layer metrics of one traced child.

    The workload call is the span named "workload"; `warned` is the number
    of state estimates that warned "marginally unphysical".
    """
    total, own = tracer.durations()
    counts = tracer.counts
    estimates = counts.get("tomography.estimate_state.calls", 0)
    out = {f"{name}.s": total.get(name, 0.0) for name in _TIMED}
    out.update({f"{name}.s": own.get(name, 0.0) for name in _SELF_TIMED})
    records = counts.get("detection.records", 0)
    hist_records = counts.get("tomography.hist_records", 0)
    out.update(
        {
            "detection.measure.calls": counts.get("detection.measure.calls", 0),
            "detection.records": records,
            "detection.record_bytes": 32 * records,
            "tomography.hist_in_range_frac": (
                counts.get("tomography.hist_in_range", 0) / hist_records
                if hist_records
                else 0.0
            ),
            "tomography.unphysical_warn_frac": warned / estimates if estimates else 0.0,
            "gaussian.wigner.points": counts.get("gaussian.wigner.points", 0),
            "device.fit_psd.calls": counts.get("device.fit_psd.calls", 0),
            "cli.files_written": counts.get("cli.files_written", 0),
            "cli.bytes_written": counts.get("cli.bytes_written", 0),
        }
    )
    out["trace.root_self_frac"] = own["workload"] / total["workload"]
    return out
