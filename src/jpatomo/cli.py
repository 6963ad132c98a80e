"""Batch front-end: run a named scenario from a JSON config into an output
directory.

Every scenario writes deterministic data files (CSV/JSON, repr-formatted
floats, sorted JSON keys) plus a manifest.json recording the config hash,
library versions, wall-clock time, a SHA-256 per output file, and a summary
of headline results.  Reruns with the same config and seed reproduce every
data file byte for byte; only the manifest (wall clock) differs.

Exit codes: 0 success, 2 configuration error, 3 numerical failure, 4 I/O
failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .config import (
    SCENARIOS,
    ExperimentConfig,
    default_config,
    dumps_config,
    load_config,
)
from .detection import _record_blocks, output_two_mode_state, predicted_r
from .device import fit_psd, gain, gain_profile, psd, reflection, resonance_frequency
from .errors import ConfigError, NumericsError
from .gaussian import tms_theory_covariance, vacuum_state
from .tomography import WignerGrid, estimate_from_blocks

TWO_PI = 2.0 * np.pi

# rng namespace for scenario-level noise, disjoint from the measurement
# streams' (stream, channel) spawn keys
_PSD_NOISE_KEY = 1_000_003


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) for v in row])


def _write_json(path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _run_flux_sweep(cfg: ExperimentConfig, out_dir: Path) -> dict:
    run = cfg.run
    device = cfg.device.build()
    phi = np.linspace(run.flux_min, run.flux_max, run.flux_points)
    omega_r = resonance_frequency(phi, device)
    freq_hz = omega_r / TWO_PI
    _write_csv(out_dir / "flux_sweep.csv", ("phi", "omega_r_hz"), zip(phi, freq_hz))
    return {
        "phi_min": float(phi[0]),
        "phi_max": float(phi[-1]),
        "points": int(phi.size),
        "omega_r_hz_at_phi_min": float(freq_hz[0]),
        "omega_r_hz_at_phi_max": float(freq_hz[-1]),
        "monotone_decreasing": bool(np.all(np.diff(freq_hz) < 0)),
    }


def _run_reflection(cfg: ExperimentConfig, out_dir: Path) -> dict:
    run = cfg.run
    device = cfg.device.build()
    span = TWO_PI * run.reflection_span_hz
    delta = np.linspace(-span / 2, span / 2, run.reflection_points)
    omega_r = resonance_frequency(0.0, device)
    gamma = reflection(omega_r + delta, device)
    _write_csv(
        out_dir / "reflection.csv",
        ("delta_hz", "re", "im", "abs"),
        zip(delta / TWO_PI, gamma.real, gamma.imag, np.abs(gamma)),
    )
    mid = run.reflection_points // 2
    return {
        "points": int(delta.size),
        "span_hz": float(run.reflection_span_hz),
        "gamma_on_resonance_re": float(gamma.real[mid]),
        "gamma_on_resonance_im": float(gamma.imag[mid]),
        "min_abs": float(np.min(np.abs(gamma))),
    }


def _run_gain_map(cfg: ExperimentConfig, out_dir: Path) -> dict:
    run = cfg.run
    device = cfg.device.build()
    anchor = cfg.pump.build_anchor()
    base_pump = cfg.pump.build()
    span = TWO_PI * run.gain_span_hz
    delta = np.linspace(-span / 2, span / 2, run.gain_points)
    profiles = {}
    rows = []
    for power in run.gain_map_powers_dbm:
        pump = dataclasses.replace(base_pump, power_dbm=power)
        profile = gain_profile(pump, device, anchor)
        profiles[repr(float(power))] = {
            "g0": float(profile.g0),
            "bandwidth_hz": float(profile.bandwidth / TWO_PI),
        }
        g = gain(delta, profile)
        rows.extend(
            (power, d_hz, gv) for d_hz, gv in zip(delta / TWO_PI, g)
        )
    _write_csv(out_dir / "gain_map.csv", ("power_dbm", "delta_hz", "gain"), rows)
    return {
        "powers_dbm": [float(p) for p in run.gain_map_powers_dbm],
        "points_per_power": int(delta.size),
        "profiles": profiles,
    }


def _run_psd(cfg: ExperimentConfig, out_dir: Path) -> dict:
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
    s_noisy = s_true + run.psd_noise_sigma * rng.standard_normal(delta.size)
    fit = fit_psd(np.column_stack([delta, s_noisy]))
    if fit.g0 == 1.0:  # no peak: its width is nan, its height zero
        s_fit = np.full_like(delta, fit.n_noise)
    else:
        s_fit = (fit.g0 - 1.0) / (1.0 + (2.0 * delta / fit.bandwidth) ** 2) + fit.n_noise
    _write_csv(
        out_dir / "psd.csv",
        ("delta_hz", "s_true", "s_noisy", "s_fit"),
        zip(delta / TWO_PI, s_true, s_noisy, s_fit),
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
    _write_json(out_dir / "psd_fit.json", fit_payload)
    return fit_payload


def _pair_key(labels) -> str:
    return f"{labels[0].lower()}_{labels[1].lower()}"


def _saved_blocks(blocks, out_dir: Path):
    """Pass (pump-on, pump-off) block pairs through, appending each block to
    records_on.bin / records_off.bin (little-endian float64, record-major,
    columns X1, P1, X2, P2).  Closing it closes `blocks` too."""
    with (
        contextlib.closing(blocks),
        open(out_dir / "records_on.bin", "wb") as fh_on,
        open(out_dir / "records_off.bin", "wb") as fh_off,
    ):
        for on, off in blocks:
            on.astype("<f8", copy=False).tofile(fh_on)
            off.astype("<f8", copy=False).tofile(fh_off)
            yield on, off


def _run_tomography(cfg: ExperimentConfig, out_dir: Path) -> dict:
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
    # one pass: each chunk of draws feeds the pump-on and pump-off accumulators
    blocks = _record_blocks((state, vacuum_state(2)), det, run.n_records, run.seed)
    if run.save_records:
        blocks = _saved_blocks(blocks, out_dir)
    with contextlib.closing(blocks):  # closes the record files on failure too
        est = estimate_from_blocks(
            blocks,
            det.noise_pair,
            method=run.method,
            bins=run.bins,
            bin_sigmas=run.bin_sigmas,
            prefix_records=run.prefix_records,
            grid=WignerGrid(extent=run.wigner_extent, points=run.wigner_points),
        )
    result = est.tomography
    result.save_json(out_dir / "covariance.json")

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
                hist.to_csv(out_dir / fname)
                envelope[f"pump_{setting}"][key] = {
                    "file": fname,
                    "labels": list(pair),
                    "n_total": int(hist.n_total),
                    "overflow": int(hist.overflow),
                }
        _write_json(out_dir / "histograms.json", envelope)

    for name, marginal in result.marginals.items():
        marginal.to_csv(out_dir / f"wigner_{name}.csv", column="measured")
        marginal.to_csv(out_dir / f"wigner_{name}_ideal.csv", column="ideal")

    return {
        "state_source": run.state_source,
        "method": run.method,
        "n_records": int(run.n_records),
        "predicted_r": float(r_pred),
        "r_fit": float(result.r_fit),
        "r_fit_pure": float(result.r_fit_pure),
        "n_add_fit": float(result.n_add_fit),
        "residual": float(result.residual),
        "residual_pure": float(result.residual_pure),
        "witness_d": float(result.witness_d),
        "scale_factors": [float(g) for g in result.scale_factors],
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
    out_path = Path(out_dir)
    out_path.mkdir(parents=True, exist_ok=True)
    config_text = dumps_config(config)
    with open(out_path / "config.json", "w") as fh:
        fh.write(config_text)
    started = time.perf_counter()
    results = _RUNNERS[name](config, out_path)
    elapsed = time.perf_counter() - started
    outputs = {}
    for child in sorted(out_path.iterdir()):
        if child.name == "manifest.json" or not child.is_file():
            continue
        outputs[child.name] = hashlib.sha256(child.read_bytes()).hexdigest()
    manifest = {
        "scenario": name,
        "seed": int(config.run.seed),
        "config_sha256": hashlib.sha256(config_text.encode()).hexdigest(),
        "versions": {
            "package": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": ".".join(str(v) for v in sys.version_info[:3]),
        },
        "wall_clock_s": elapsed,
        "outputs": outputs,
        "results": results,
    }
    _write_json(out_path / "manifest.json", manifest)
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
    print(f"{args.scenario}: wrote {len(manifest['outputs'])} files to {args.out}")
    for key, value in sorted(manifest["results"].items()):
        if isinstance(value, (int, float, str, bool)):
            print(f"  {key}: {value}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
