"""jpatomo benchmark: one workload, measured in fresh child processes.

    python3 perfbench/run.py --workload {tomo-default,seed-sweep,device-scan,all}
        [--seed N] [--seconds S] [--trace 0|1] [--tiny]

Each sample is one child (`workloads.py`) that sets up and runs one call of
the workload, one child at a time (a closed loop with a single client).
After one discarded warm-up set-up, workload calls run while the next one
is expected to end within `--seconds`, and at least three are made; further
set-up-only children bring the set-up samples to five.  Every metric is the median over
the samples of the run.

`--trace 0` prints the end-to-end metrics of BENCHMARK.json; `--trace 1`
prints its per-layer metrics from traced children, alternating with
untraced ones so the tracing overhead is measured in the same run.  Human-
readable lines come first; the last line of standard output is the JSON
result.  The full result, with the environment and every sample, goes to
`.perfbench_out/<workload>-seed<N>-trace<T>.json` in the checkout, and the
spans of a traced run to `<...>.spans.json` next to it.

The checkout must hold `src/jpatomo`; the benchmark imports it from there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("tomo-default", "seed-sweep", "device-scan")

MIN_CALLS = 3
SETUP_SAMPLES = 5
# Every run must end within 180 s; a child may use what is left of that.
RUN_LIMIT_S = 170.0


class BenchmarkError(Exception):
    """The benchmark could not measure: no program, or a child crashed."""


def _spawn(workload, seed, tiny, work, *, trace=False, setup_only=False, deadline):
    """Run one child to completion and return its result with `setup_s`."""
    result = work / f"child-{time.monotonic_ns()}.json"
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
           "--seed", str(seed), "--result", str(result), "--work", str(work / "out")]
    cmd += ["--trace"] * trace + ["--setup-only"] * setup_only + ["--tiny"] * tiny
    timeout = max(deadline - time.perf_counter(), 1.0)
    started = time.perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{workload} child exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchmarkError(
            f"{workload} child exited {proc.returncode}:\n{proc.stderr[-4000:]}"
        )
    sample = json.loads(result.read_text())
    result.unlink()
    shutil.rmtree(work / "out", ignore_errors=True)
    sample["setup_s"] = sample["t_first"] - started
    sample["traced"] = trace
    return sample


def _samples(workload, seed, seconds, trace, tiny, work):
    deadline = time.perf_counter() + RUN_LIMIT_S
    _spawn(workload, seed, tiny, work, setup_only=True, deadline=deadline)
    calls = []
    started = time.perf_counter()
    elapsed = 0.0
    # Start another call only while it is expected to end within `seconds`.
    while len(calls) < MIN_CALLS or elapsed * (len(calls) + 1) / len(calls) <= seconds:
        traced = bool(trace) and len(calls) % 2 == 0
        calls.append(_spawn(workload, seed, tiny, work, trace=traced, deadline=deadline))
        elapsed = time.perf_counter() - started
    setups = [c["setup_s"] for c in calls]
    while len(setups) < SETUP_SAMPLES:
        setups.append(
            _spawn(workload, seed, tiny, work, setup_only=True, deadline=deadline)["setup_s"]
        )
    return calls, setups


def _check(calls):
    """Totals over the calls, plus the cross-call determinism check.

    Calls of one run share the seed, so every call that leaves a digest of
    its data files must leave the same one; a call that differs from the
    first counts its operation as failed.
    """
    attempted = sum(c["attempted"] for c in calls)
    failed = sum(c["failed"] for c in calls)
    digests = [c["digest"] for c in calls if c["digest"] is not None]
    mismatched = sum(d != digests[0] for d in digests)
    failed += mismatched
    errors = [e for c in calls for e in c["errors"]]
    if mismatched:
        errors.append(f"{mismatched} of {len(digests)} calls wrote different data files")
    batch_ok = all(c["batch_ok"] for c in calls)
    return attempted, failed, batch_ok, errors


def _environment(child_env) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "jpatomo").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        **child_env,
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
    }


def _metric_values(calls, trace):
    untraced = [c for c in calls if not c["traced"]]
    if not trace:
        return {
            "wall_s": median([c["wall_s"] for c in untraced]),
            "peak_rss_mb": median([c["peak_rss_mb"] for c in untraced]),
        }
    traced = [c for c in calls if c["traced"]]
    values = {
        name: median([c["layers"][name] for c in traced]) for name in traced[0]["layers"]
    }
    values["trace.overhead_s"] = median([c["wall_s"] for c in traced]) - median(
        [c["wall_s"] for c in untraced]
    )
    return values


def run_workload(workload, seed, seconds, trace, tiny, spec) -> dict:
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        calls, setups = _samples(workload, seed, seconds, trace, tiny, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted, failed, batch_ok, errors = _check(calls)
    values = _metric_values(calls, trace)
    values["setup_s"] = median(setups)
    declared = spec["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise BenchmarkError(f"no value for metric(s) {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    untraced = [c for c in calls if not c["traced"]]
    summary = {
        "ops_failed_frac": failed / attempted,
        "calls": len(calls),
        "setup_samples": len(setups),
    }
    if any(c["records"] for c in untraced):
        summary["records_per_s"] = median([c["records"] / c["wall_s"] for c in untraced])
    stem = OUT / f"{workload}-seed{seed}-trace{int(trace)}"
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "tiny": tiny,
        "env": _environment(calls[0]["env"]),
        "metrics": metrics,
        "summary": summary,
        "errors": errors,
        "setup_samples_s": setups,
        "calls": [{k: v for k, v in c.items() if k != "spans"} for c in calls],
    }
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")
    if trace:
        spans = [
            {"call": i, "name": n, "start": s, "end": e, "parent": p}
            for i, c in enumerate(calls) if c["traced"]
            for n, s, e, p in c["spans"]
        ]
        stem.with_suffix(".spans.json").write_text(json.dumps(spans) + "\n")

    print(f"workload {workload}  seed {seed}  trace {int(trace)}  "
          f"calls {len(calls)}  set-ups {len(setups)}")
    for name, metric in metrics.items():
        print(f"  {name:40s} {metric['value']:.6g} {metric['unit']}")
    if "records_per_s" in summary:
        print(f"  {'records_per_s':40s} {summary['records_per_s']:.6g} 1/s")
    print(f"  {'ops_failed_frac':40s} {summary['ops_failed_frac']:.6g} "
          f"({failed}/{attempted})")
    for error in errors[:10]:
        print(f"  error: {error}")
    print(f"  env {json.dumps(record['env'], sort_keys=True)}")
    print(f"  full result {stem.with_suffix('.json').relative_to(ROOT)}")
    return {
        "correct": failed == 0 and batch_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny sizes, for the smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not (ROOT / "src" / "jpatomo" / "__init__.py").is_file():
        print(f"benchmark: no jpatomo sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"benchmark: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for workload in workloads:
            results.append(
                run_workload(workload, args.seed, args.seconds, args.trace, args.tiny, spec)
            )
    except BenchmarkError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    for result in results:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
