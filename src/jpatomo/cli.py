"""Batch front-end: run a named scenario from a JSON config into an output
directory.

This module writes every file a scenario outputs; `tomography` returns
numbers and opens no file.  Every scenario writes deterministic data files
(CSV/JSON, repr-formatted floats, sorted JSON keys) plus a manifest.json
recording the config hash, library versions, wall-clock time, a SHA-256 per
file the scenario wrote, and a summary of headline results.  JSON is strict:
a non-finite float is written as null.  Reruns with the same config and seed
reproduce every data file byte for byte; only the manifest (wall clock)
differs.

Exit codes: 0 success, 2 configuration error, 3 numerical failure, 4 I/O
failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from itertools import chain
from pathlib import Path

import numpy as np

from . import __version__
from .config import (
    SCENARIOS,
    ExperimentConfig,
    default_config,
    dumps_config,
    load_config,
)
from .detection import _paired_blocks, measure, output_two_mode_state, predicted_r
from .device import fit_psd, gain, gain_profile, psd, reflection, resonance_frequency
from .errors import ConfigError, FloatOverflowError, NumericsError
from .gaussian import tms_theory_covariance
from .tomography import WignerGrid, estimate_from_blocks, wigner_marginals

TWO_PI = 2.0 * np.pi

# rng namespace for scenario-level noise, disjoint from the (0, channel)
# spawn keys of the record draws
_PSD_NOISE_KEY = 1_000_003


class _Outputs:
    """The files a scenario writes into `directory`: name -> SHA-256 of the
    bytes written, as each writer returns it."""

    def __init__(self, directory: Path) -> None:
        self.directory = directory
        self.digests: dict[str, str] = {}

    def write(self, name: str, writer, *args) -> None:
        """writer(directory / name, *args), which returns the digest."""
        self.digests[name] = writer(self.directory / name, *args)


def _write_chunks(path, chunks) -> str:
    """Write the strings of `chunks` to `path` one after the other, as they
    are (no newline translation), and return the SHA-256 hex digest of the
    bytes written."""
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for chunk in chunks:
            data = chunk.encode()
            fh.write(data)
            digest.update(data)
    return digest.hexdigest()


def _write_text(path, text: str) -> str:
    """`text` written as one chunk (see _write_chunks)."""
    return _write_chunks(path, (text,))


def _write_csv(path, header, columns) -> str:
    """A header row, then one row of float reprs per index of the
    equal-length `columns`: the csv module's excel dialect, written as one
    string (a float repr holds no delimiter or quote, so no field is
    quoted).  Returns the file's SHA-256."""
    lines = [",".join(header) + "\r\n"]
    lines.extend(
        ",".join(map(repr, row)) + "\r\n" for row in np.column_stack(columns).tolist()
    )
    return _write_text(path, "".join(lines))


def _write_histogram_csv(path, hist) -> str:
    """Rows axis_x, axis_y, n_total, overflow, then the edges_x and edges_y
    rows of float reprs, then one row of counts per x bin, through the csv
    module; returns the file's SHA-256."""
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(("axis_x", hist.labels[0]))
    writer.writerow(("axis_y", hist.labels[1]))
    writer.writerow(("n_total", hist.n_total))
    writer.writerow(("overflow", hist.overflow))
    writer.writerow(["edges_x"] + [repr(e) for e in hist.edges_x.tolist()])
    writer.writerow(["edges_y"] + [repr(e) for e in hist.edges_y.tolist()])
    writer.writerows(hist.counts.tolist())
    return _write_text(path, text.getvalue())


def _write_wigner_csv(path, marginal, density) -> str:
    """Header `<x label>,<y label>,density` in lower case, then one
    `x,y,density` row of float reprs per grid point, x-major: the csv
    module's excel dialect, written one x value's rows at a time.  Returns
    the file's SHA-256."""
    ys = [repr(y) for y in marginal.y.tolist()]
    header = f"{marginal.labels[0].lower()},{marginal.labels[1].lower()},density\r\n"
    rows = (
        "".join(f"{x},{y},{d!r}\r\n" for y, d in zip(ys, row.tolist()))
        for x, row in zip(map(repr, marginal.x.tolist()), density)
    )
    return _write_chunks(path, chain([header], rows))


def _covariance_payload(result) -> dict:
    """covariance.json: the flattened 4x4 covariance, its fits and witness,
    the calibration scale factors and the (pump-on, pump-off) record
    counts.  The manifest results repeat every field but `v` and
    `n_records`."""
    return {
        "v": [float(x) for x in result.v.reshape(-1)],
        "r_fit": float(result.r_fit),
        "r_fit_pure": float(result.r_fit_pure),
        "n_add_fit": float(result.n_add_fit),
        "residual": float(result.residual),
        "residual_pure": float(result.residual_pure),
        "witness_d": float(result.witness_d),
        "scale_factors": [float(g) for g in result.scale_factors],
        "n_records": [int(n) for n in result.n_records],
    }


def _json_ready(value):
    """`value` with every non-finite float replaced by None (JSON null)."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _json_ready(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_ready(item) for item in value]
    return value


def _write_json(path, payload) -> str:
    """Strict JSON: a non-finite float is written as null, never as NaN.
    Returns the file's SHA-256."""
    text = json.dumps(_json_ready(payload), indent=2, sort_keys=True, allow_nan=False)
    return _write_text(path, text + "\n")


def _run_flux_sweep(cfg: ExperimentConfig, out: _Outputs) -> dict:
    run = cfg.run
    device = cfg.device.build()
    phi = np.linspace(run.flux_min, run.flux_max, run.flux_points)
    omega_r = resonance_frequency(phi, device)
    freq_hz = omega_r / TWO_PI
    out.write("flux_sweep.csv", _write_csv, ("phi", "omega_r_hz"), (phi, freq_hz))
    return {
        "phi_min": float(phi[0]),
        "phi_max": float(phi[-1]),
        "points": int(phi.size),
        "omega_r_hz_at_phi_min": float(freq_hz[0]),
        "omega_r_hz_at_phi_max": float(freq_hz[-1]),
        "monotone_decreasing": bool(np.all(np.diff(freq_hz) < 0)),
    }


def _run_reflection(cfg: ExperimentConfig, out: _Outputs) -> dict:
    run = cfg.run
    device = cfg.device.build()
    span = TWO_PI * run.reflection_span_hz
    delta = np.linspace(-span / 2, span / 2, run.reflection_points)
    omega_r = resonance_frequency(0.0, device)
    gamma = reflection(omega_r + delta, device)
    out.write(
        "reflection.csv",
        _write_csv,
        ("delta_hz", "re", "im", "abs"),
        (delta / TWO_PI, gamma.real, gamma.imag, np.abs(gamma)),
    )
    mid = run.reflection_points // 2
    return {
        "points": int(delta.size),
        "span_hz": float(run.reflection_span_hz),
        "gamma_on_resonance_re": float(gamma.real[mid]),
        "gamma_on_resonance_im": float(gamma.imag[mid]),
        "min_abs": float(np.min(np.abs(gamma))),
    }


def _run_gain_map(cfg: ExperimentConfig, out: _Outputs) -> dict:
    run = cfg.run
    device = cfg.device.build()
    anchor = cfg.pump.build_anchor()
    base_pump = cfg.pump.build()
    span = TWO_PI * run.gain_span_hz
    delta = np.linspace(-span / 2, span / 2, run.gain_points)
    profiles = {}
    gains = []
    for power in run.gain_map_powers_dbm:
        pump = dataclasses.replace(base_pump, power_dbm=power)
        profile = gain_profile(pump, device, anchor)
        profiles[repr(float(power))] = {
            "g0": float(profile.g0),
            "bandwidth_hz": float(profile.bandwidth / TWO_PI),
        }
        gains.append(gain(delta, profile))
    powers = np.asarray(run.gain_map_powers_dbm, dtype=np.float64)
    columns = (
        np.repeat(powers, delta.size),
        np.tile(delta / TWO_PI, powers.size),
        np.concatenate(gains),
    )
    out.write("gain_map.csv", _write_csv, ("power_dbm", "delta_hz", "gain"), columns)
    return {
        "powers_dbm": [float(p) for p in run.gain_map_powers_dbm],
        "points_per_power": int(delta.size),
        "profiles": profiles,
    }


def _run_psd(cfg: ExperimentConfig, out: _Outputs) -> dict:
    run = cfg.run
    device = cfg.device.build()
    profile = gain_profile(cfg.pump.build(), device, cfg.pump.build_anchor())
    span = 3.0 * profile.bandwidth
    delta = np.linspace(-span, span, run.psd_points)
    s_true = psd(delta, profile, cfg.detection.n_noise)
    rng = np.random.Generator(
        np.random.PCG64(
            np.random.SeedSequence(
                entropy=run.seed, spawn_key=(_PSD_NOISE_KEY, run.psd_seed_offset)
            )
        )
    )
    with np.errstate(over="ignore"):
        s_noisy = s_true + run.psd_noise_sigma * rng.standard_normal(delta.size)
    if not np.isfinite(s_noisy).all():
        raise FloatOverflowError(
            f"psd_noise_sigma = {run.psd_noise_sigma!r} overflows the noisy spectrum"
        )
    fit = fit_psd(np.column_stack([delta, s_noisy]))
    if fit.g0 == 1.0:  # no peak: its width is nan, its height zero
        s_fit = np.full_like(delta, fit.n_noise)
    else:
        s_fit = (fit.g0 - 1.0) / (1.0 + (2.0 * delta / fit.bandwidth) ** 2) + fit.n_noise
    out.write(
        "psd.csv",
        _write_csv,
        ("delta_hz", "s_true", "s_noisy", "s_fit"),
        (delta / TWO_PI, s_true, s_noisy, s_fit),
    )
    fit_payload = {
        "g0": float(fit.g0),
        "bandwidth_hz": float(fit.bandwidth / TWO_PI),
        "n_noise": float(fit.n_noise),
        "g0_stderr": float(fit.g0_stderr),
        "bandwidth_hz_stderr": float(fit.bandwidth_stderr / TWO_PI),
        "n_noise_stderr": float(fit.n_noise_stderr),
        "true_g0": float(profile.g0),
        "true_bandwidth_hz": float(profile.bandwidth / TWO_PI),
        "true_n_noise": float(cfg.detection.n_noise),
        "noise_sigma": float(run.psd_noise_sigma),
    }
    out.write("psd_fit.json", _write_json, fit_payload)
    return fit_payload


def _pair_key(labels) -> str:
    return f"{labels[0].lower()}_{labels[1].lower()}"


def _saved_blocks(blocks, out: _Outputs):
    """Pass (pump-on, pump-off) block pairs through, appending each block to
    records_on.bin / records_off.bin (little-endian float64, record-major,
    columns X1, P1, X2, P2), whose digests go to `out` once the last pair
    has passed.  Closing it closes `blocks` too."""
    names = ("records_on.bin", "records_off.bin")
    hashes = [hashlib.sha256(), hashlib.sha256()]
    with (
        contextlib.closing(blocks),
        open(out.directory / names[0], "wb") as fh_on,
        open(out.directory / names[1], "wb") as fh_off,
    ):
        for pair in blocks:
            for block, fh, digest in zip(pair, (fh_on, fh_off), hashes):
                data = block.astype("<f8", copy=False)
                data.tofile(fh)
                digest.update(data)
            yield pair
    out.digests.update(zip(names, (digest.hexdigest() for digest in hashes)))


def _run_tomography(cfg: ExperimentConfig, out: _Outputs) -> dict:
    run = cfg.run
    device = cfg.device.build()
    filt = cfg.filter.build()
    profile = gain_profile(cfg.pump.build(), device, cfg.pump.build_anchor())
    r_pred = predicted_r(filt, profile)
    if run.state_source == "device":
        state = output_two_mode_state(profile, filt, input_thermal=run.input_thermal)
    else:
        state = tms_theory_covariance(run.r_true, run.n_add_true)
    det = cfg.detection.build()
    # one pass on one worker thread: each chunk of draws feeds the pump-on
    # and pump-off accumulators
    with ThreadPoolExecutor(max_workers=1) as worker:
        blocks = _paired_blocks(
            measure(state, det, run.n_records, run.seed),
            measure(state, det, run.n_records, run.seed, pump_on=False),
            worker,
        )
        if run.save_records:
            blocks = _saved_blocks(blocks, out)
        with contextlib.closing(blocks):  # closes the record files on failure too
            est = estimate_from_blocks(
                blocks,
                det.noise_pair,
                method=run.method,
                bins=run.bins,
                bin_sigmas=run.bin_sigmas,
                prefix_records=run.prefix_records,
                worker=worker,
            )
    result = est.tomography
    payload = _covariance_payload(result)
    out.write("covariance.json", _write_json, payload)

    if est.histograms_on is not None:
        envelope = {
            "bins": int(est.binning.bins),
            "lo": float(est.binning.lo),
            "hi": float(est.binning.hi),
            "bin_width": float(est.binning.width),
            "pump_on": {},
            "pump_off": {},
        }
        for setting, hists in (("on", est.histograms_on), ("off", est.histograms_off)):
            for pair, hist in hists.items():
                key = _pair_key(pair)
                fname = f"hist_{setting}_{key}.csv"
                out.write(fname, _write_histogram_csv, hist)
                envelope[f"pump_{setting}"][key] = {
                    "file": fname,
                    "labels": list(pair),
                    "n_total": int(hist.n_total),
                    "overflow": int(hist.overflow),
                }
        out.write("histograms.json", _write_json, envelope)

    grid = WignerGrid(extent=run.wigner_extent, points=run.wigner_points)
    for name, marginal in wigner_marginals(result.v, result.r_fit, grid).items():
        out.write(f"wigner_{name}.csv", _write_wigner_csv, marginal, marginal.measured)
        out.write(f"wigner_{name}_ideal.csv", _write_wigner_csv, marginal, marginal.ideal)

    fits = {key: value for key, value in payload.items() if key not in ("v", "n_records")}
    return {
        **fits,
        "state_source": run.state_source,
        "method": run.method,
        "n_records": int(run.n_records),
        "predicted_r": float(r_pred),
    }


_RUNNERS = {
    "flux-sweep": _run_flux_sweep,
    "reflection": _run_reflection,
    "gain-map": _run_gain_map,
    "psd": _run_psd,
    "tomography": _run_tomography,
}


def run_scenario(name: str, config: ExperimentConfig, out_dir) -> dict:
    """Run one scenario, write its files plus manifest.json, return the manifest."""
    if name not in _RUNNERS:
        raise ConfigError(f"unknown scenario {name!r}; choose from {list(SCENARIOS)}")
    out = _Outputs(Path(out_dir))
    out.directory.mkdir(parents=True, exist_ok=True)
    out.write("config.json", _write_text, dumps_config(config))
    started = time.perf_counter()
    results = _RUNNERS[name](config, out)
    elapsed = time.perf_counter() - started
    manifest = {
        "scenario": name,
        "seed": int(config.run.seed),
        "config_sha256": out.digests["config.json"],
        "versions": {
            "package": __version__,
            "numpy": np.__version__,
            "python": ".".join(str(v) for v in sys.version_info[:3]),
        },
        "wall_clock_s": elapsed,
        "outputs": dict(sorted(out.digests.items())),
        "results": results,
    }
    _write_json(out.directory / "manifest.json", manifest)
    return manifest


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jpatomo",
        description="Simulate a flux-pumped parametric amplifier chain and "
        "reconstruct the two-mode output state.",
    )
    parser.add_argument("--config", help="JSON config file (defaults to the packaged one)")
    parser.add_argument("--out", default="out", help="output directory (created if missing)")
    parser.add_argument("--seed", type=int, help="override run.seed")
    parser.add_argument("--records", type=int, help="override run.n_records")
    parser.add_argument(
        "--scenario",
        default="tomography",
        choices=SCENARIOS,
        help="which scenario to run",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else default_config()
        overrides = {}
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError("--seed must be >= 0")
            overrides["seed"] = args.seed
        if args.records is not None:
            if args.records < 0:
                raise ConfigError("--records must be >= 0")
            overrides["n_records"] = args.records
        if overrides:
            cfg = dataclasses.replace(
                cfg, run=dataclasses.replace(cfg.run, **overrides)
            )
        manifest = run_scenario(args.scenario, cfg, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 4
    # the manifest lists every file but itself
    print(f"{args.scenario}: wrote {len(manifest['outputs']) + 1} files to {args.out}")
    for key, value in sorted(manifest["results"].items()):
        if isinstance(value, (int, float, str, bool)):
            print(f"  {key}: {value}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
