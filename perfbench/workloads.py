"""One benchmark child: set up one workload, run it once, check its outputs.

`run.py` starts this script in a fresh interpreter for every sample, so each
child pays the full set-up (imports, config load and validation, device,
filter and state build) and `ru_maxrss` is the peak of one workload call.
The child writes one JSON result file and exits 0; an operation that raises
or misses its correctness check is counted as failed, not raised.

    python3 perfbench/workloads.py --workload NAME --seed N --result FILE \
        --work DIR [--trace] [--setup-only] [--tiny]
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import resource
import sys
import time
import traceback
import warnings
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent

# Operation sizes.  The tiny sizes only serve the smoke test.
SIZES = {
    "full": {
        "tomo_records": 10_000_000,
        "sweep_seeds": 48,
        "sweep_records": 400_000,
        "psd_runs": 500,
    },
    "tiny": {
        "tomo_records": 1_000_000,
        "sweep_seeds": 3,
        "sweep_records": 400_000,
        "psd_runs": 20,
    },
}

# Criterion 1 of the acceptance suite.
R_FIT_PURE_RANGE = (1.76, 1.80)
N_ADD_FIT_MAX = 0.02
# A seed-sweep estimate passes when every element of the deconvolved
# covariance is within this share of the mean variance of the exact
# output_two_mode_state covariance.  At 4e5 records the largest per-element
# standard error is about 0.041, i.e. 1% of the mean variance 4.14, so 0.05
# is a 5-sigma bound on the worst element.
COV_TOL_FRAC = 0.05
# Criterion 5: fitted PSD noise floor, and the share of runs that must hit it.
N_NOISE_RANGE = (68.0, 70.0)
N_NOISE_MIN_SHARE = 0.95
# Reflection of the default device on resonance: (gamma_i - kappa)/(gamma_i + kappa).
GAMMA_ON_RESONANCE = -23.0 / 27.0


@dataclasses.dataclass
class Outcome:
    """What a workload call did, filled in while it runs and checked after."""

    attempted: int = 0
    failed: int = 0
    records: int = 0
    batch_ok: bool = True
    digest: str | None = None
    errors: list = dataclasses.field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(message)


def _error(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


def _with_run(cfg, **changes):
    return dataclasses.replace(cfg, run=dataclasses.replace(cfg.run, **changes))


def _data_digest(out_dir: Path) -> str:
    """SHA-256 over every data file of a scenario directory but the manifest."""
    digest = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        if path.name != "manifest.json":
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# tomo-default: the packaged default tomography scenario through run_scenario


def setup_tomo_default(seed, size):
    from jpatomo import config

    return _with_run(config.default_config(), seed=seed, n_records=size["tomo_records"])


def run_tomo_default(cfg, work: Path, outcome: Outcome):
    from jpatomo import cli

    outcome.attempted = 1
    outcome.records = 2 * cfg.run.n_records
    try:
        return cli.run_scenario("tomography", cfg, work / "tomography")
    except Exception as exc:
        outcome.fail(_error(exc))
        return None


def check_tomo_default(cfg, manifest, work: Path, outcome: Outcome) -> None:
    if manifest is None:
        return
    res = manifest["results"]
    lo, hi = R_FIT_PURE_RANGE
    if not (lo <= res["r_fit_pure"] <= hi and res["n_add_fit"] < N_ADD_FIT_MAX):
        outcome.fail(f"r_fit_pure={res['r_fit_pure']}, n_add_fit={res['n_add_fit']}")
    # run.py compares the digests of all children of one run (same seed).
    outcome.digest = _data_digest(work / "tomography")


# ---------------------------------------------------------------------------
# seed-sweep: the README API path over many seeds, streaming moments


def setup_seed_sweep(seed, size):
    import numpy as np

    from jpatomo import config, detection, device

    cfg = config.default_config()
    profile = device.gain_profile(cfg.pump.build(), cfg.device.build(), cfg.pump.build_anchor())
    state = detection.output_two_mode_state(
        profile, cfg.filter.build(), input_thermal=cfg.run.input_thermal
    )
    seeds = np.random.SeedSequence(seed).generate_state(size["sweep_seeds"])
    return {
        "state": state,
        "det": cfg.detection.build(),
        "seeds": [int(s) for s in seeds],
        "records": size["sweep_records"],
    }


def run_seed_sweep(ctx, work: Path, outcome: Outcome):
    from jpatomo import detection, tomography

    state, det, n = ctx["state"], ctx["det"], ctx["records"]
    estimates = []
    for seed in ctx["seeds"]:
        outcome.attempted += 1
        outcome.records += 2 * n
        try:
            on = detection.measure(state, det, n, seed, pump_on=True)
            off = detection.measure(state, det, n, seed, pump_on=False)
            est = tomography.estimate_state(on, off, det.noise_pair, method="streaming")
            estimates.append((seed, est.tomography.v))
        except Exception as exc:
            outcome.fail(f"seed {seed}: {_error(exc)}")
    return estimates


def check_seed_sweep(ctx, estimates, work: Path, outcome: Outcome) -> None:
    import numpy as np

    exact = ctx["state"].cov
    tol = COV_TOL_FRAC * float(np.mean(np.diag(exact)))
    for seed, v in estimates:
        err = float(np.max(np.abs(v - exact)))
        if not err <= tol:
            outcome.fail(f"seed {seed}: max |V - V_exact| = {err:.4f} > {tol:.4f}")


# ---------------------------------------------------------------------------
# device-scan: device scenarios once, then a PSD seed-offset study


def setup_device_scan(seed, size):
    from jpatomo import config

    return {"cfg": _with_run(config.default_config(), seed=seed), "psd_runs": size["psd_runs"]}


def run_device_scan(ctx, work: Path, outcome: Outcome):
    from jpatomo import cli

    cfg = ctx["cfg"]
    manifests = {}
    for name in ("flux-sweep", "reflection", "gain-map"):
        outcome.attempted += 1
        try:
            manifests[name] = cli.run_scenario(name, cfg, work / name)
        except Exception as exc:
            outcome.fail(f"{name}: {_error(exc)}")
    noise = []
    psd_dir = work / "psd"
    for offset in range(ctx["psd_runs"]):
        outcome.attempted += 1
        # Each run writes fresh files into one emptied directory.  Overwriting
        # files in place makes ext4 flush them to disk on close, and a new
        # directory per run costs directory allocation; neither is the
        # program's own output work.
        if psd_dir.exists():
            for path in psd_dir.iterdir():
                path.unlink()
        try:
            manifest = cli.run_scenario("psd", _with_run(cfg, psd_seed_offset=offset), psd_dir)
            noise.append(manifest["results"]["n_noise"])
        except Exception as exc:
            outcome.fail(f"psd offset {offset}: {_error(exc)}")
    return manifests, noise


def _increasing(values) -> bool:
    return all(a < b for a, b in zip(values, values[1:]))


def check_device_scan(ctx, result, work: Path, outcome: Outcome) -> None:
    manifests, noise = result
    checks = {
        "flux-sweep": lambda r: r["monotone_decreasing"],
        "reflection": lambda r: abs(r["gamma_on_resonance_re"] - GAMMA_ON_RESONANCE) <= 1e-9
        and abs(r["gamma_on_resonance_im"]) <= 1e-9,
        "gain-map": lambda r: _increasing([r["profiles"][repr(p)]["g0"] for p in r["powers_dbm"]]),
    }
    for name, ok in checks.items():
        if name in manifests and not ok(manifests[name]["results"]):
            outcome.fail(f"{name}: results {manifests[name]['results']}")
    lo, hi = N_NOISE_RANGE
    hits = sum(lo <= n <= hi for n in noise)
    outcome.failed += len(noise) - hits
    outcome.batch_ok = hits >= N_NOISE_MIN_SHARE * ctx["psd_runs"]
    if hits < len(noise):
        outcome.errors.append(f"psd n_noise outside {N_NOISE_RANGE} on {len(noise) - hits} runs")


WORKLOADS = {
    "tomo-default": (setup_tomo_default, run_tomo_default, check_tomo_default),
    "seed-sweep": (setup_seed_sweep, run_seed_sweep, check_seed_sweep),
    "device-scan": (setup_device_scan, run_device_scan, check_device_scan),
}


def _import_jpatomo() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import jpatomo

    here = Path(jpatomo.__file__).resolve()
    if ROOT / "src" not in here.parents:
        raise SystemExit(f"imported jpatomo from {here}, not from {ROOT / 'src'}")


def _environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version")},
        "thread_env": {
            var: os.environ.get(var)
            for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    _import_jpatomo()
    setup, run, check = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
        span = tracer.begin("setup")
    ctx = setup(args.seed, SIZES["tiny" if args.tiny else "full"])
    if tracer:
        tracer.end(span)
    t_first = time.perf_counter()
    if args.setup_only:
        args.result.write_text(json.dumps({"t_first": t_first}))
        return 0

    outcome = Outcome()
    args.work.mkdir(parents=True, exist_ok=True)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        span = tracer.begin("workload") if tracer else None
        result = run(ctx, args.work, outcome)
        if tracer:
            tracer.end(span)
        t_end = time.perf_counter()
    check(ctx, result, args.work, outcome)
    warned = sum("marginally unphysical" in str(w.message) for w in caught)

    payload = {
        "t_first": t_first,
        "wall_s": t_end - t_first,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "unphysical_warnings": warned,
        "env": _environment(),
        **dataclasses.asdict(outcome),
    }
    if tracer:
        payload["layers"] = tracing.layer_metrics(tracer, warned)
        payload["spans"] = tracer.spans
    args.result.write_text(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
