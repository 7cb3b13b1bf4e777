"""g2flow benchmark: one workload, closed loop, one client.

    python3 perfbench/run.py --workload fx-2d-128 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout (the directory holding `src/g2flow`).
The seed makes the workload's JSON config; the program receives only that
config, through the public CLI.  Repetitions run one after another, each in
a fresh process (`session.py`), until `--seconds` have passed.  `run_s`,
`ns_per_point_step` and `diagnose_s` (over every call) are the mean of the
middle half of the repetitions; `setup_s` and `peak_rss_mb` are medians.
Every time is scaled to the reference host speed (`speed.py`); the
wall-time medians are printed on a `#` line.

`--trace 0` prints the end-to-end metrics, measured untraced.  `--trace 1`
alternates untraced and traced repetitions and prints the per-layer metrics
of the traced ones, with `trace.overhead_s` the difference between their
`run_s`.  The last line of stdout is the result object; the full
record (environment, every repetition, the output checks) goes to
`perfbench/out/<workload>-seed<n>-trace<t>/results.json`, and the first
traced repetition's spans to `spans.ndjson` beside it.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# one client on a single BLAS thread; nproc bounds the processes alive at once (2)
BLAS_THREADS = "1"
MIN_REPS = 3  # per kind (untraced, traced)
REP_TIMEOUT_S = 120
RUN_LIMIT_S = 170  # start no repetition that could end past this


def middle_mean(values) -> float:
    """Mean of the middle half of the values (the interquartile mean).

    Across runs it spread about a fifth less than the median of the same
    repetitions on check-2d-32, the noisiest workload, and like the median
    it ignores a repetition that a host hiccup slowed."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut:len(ordered) - cut])


# (name, unit, statistic over the repetitions of a run)
END_TO_END = [
    ("setup_s", "s", statistics.median),
    ("run_s", "s", middle_mean),
    ("ns_per_point_step", "ns", middle_mean),
    ("diagnose_s", "s", middle_mean),
    ("peak_rss_mb", "MB", statistics.median),
]


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return ""


def machine_env(root: str, seed: int) -> dict:
    """nproc, CPU model and caches, Python, source revision and the seed."""
    model = ""
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level, kind = _read(f"{index}/level"), _read(f"{index}/type")
        caches[f"L{level}-{kind}"] = _read(f"{index}/size")
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30
        )
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(root, "src", "g2flow", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


def run_session(root, out, config_path, verify, traced, rep, spans_path):
    """One repetition in a fresh process; returns its report, or None if it crashed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(root, "src"), env.get("PYTHONPATH")) if p
    )
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    workdir = os.path.join(out, f"rep{rep}")
    cmd = [
        sys.executable, os.path.join(HERE, "session.py"),
        "--config", config_path, "--workdir", workdir,
        "--verify", str(int(verify)), "--trace", str(int(traced)),
    ]
    if spans_path:
        cmd += ["--spans", spans_path]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, "timeout"
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, proc.stderr[-2000:]
    return json.loads(lines[-1]), ""


def end_to_end(reps) -> tuple[dict, dict]:
    """The metrics, and the per-repetition samples of each (scaled and wall
    time) as min, median and count."""
    per_rep = {}
    for suffix in ("_s", "_raw_s"):
        per_rep["setup" + suffix] = [r["setup" + suffix] for r in reps]
        per_rep["run" + suffix] = [r["run" + suffix] for r in reps]
        per_rep["diagnose" + suffix] = [d for r in reps for d in r["diagnose" + suffix]]
    per_rep["ns_per_point_step"] = [
        r["run_s"] * 1e9 / (r["points"] * max(r["steps"], 1) * r["schemes"]) for r in reps
    ]
    per_rep["peak_rss_mb"] = [r["peak_rss_mb"] for r in reps]
    metrics = {
        name: {"value": stat(per_rep[name]), "unit": unit} for name, unit, stat in END_TO_END
    }
    spread = {
        name: {"min": min(v), "median": statistics.median(v), "n": len(v)}
        for name, v in per_rep.items()
    }
    return metrics, spread


def per_layer(untraced, traced) -> dict:
    units = {name: unit for name, unit, _ in layers.metric_specs()}
    values = {}
    for name in units:
        samples = [r["per_layer"][name] for r in traced if name in r["per_layer"]]
        values[name] = statistics.median(samples) if samples else 0.0
    durations = [d for r in traced for d in r["step_fx_ms"]]
    defects = [d for r in traced for d in r["step_fx_defects"]]
    values["flow.step_fx.p50_ms"] = layers.percentile(durations, 50.0)
    values["flow.step_fx.tail_ms"] = layers.tail(durations)[1]
    values["flow.step_fx.samples"] = len(durations)
    values["flow.step_fx.drift_max"] = max(defects, default=0.0)
    # traced minus untraced, by the statistic run_s reports
    run_s = [middle_mean(r["run_s"] for r in reps) for reps in (traced, untraced)]
    values["trace.overhead_s"] = run_s[0] - run_s[1]
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "g2flow", "cli.py")):
        print(f"no g2flow source under {root}/src: run from the root of a checkout", file=sys.stderr)
        return 2

    build, verify = WORKLOADS[args.workload]
    out = os.path.join(root, "perfbench", "out", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    config_path = os.path.join(out, "config.json")
    with open(config_path, "w") as fh:
        json.dump(build(args.seed), fh, indent=1, sort_keys=True)
    env = machine_env(root, args.seed)
    env["blas_threads_fixed"] = int(BLAS_THREADS)

    start = time.perf_counter()
    untraced, traced, crashes = [], [], []
    spans_path = os.path.join(out, "spans.ndjson") if args.trace else None
    rep, longest = 0, 0.0
    while True:
        is_traced = bool(args.trace) and rep % 2 == 1
        t = time.perf_counter()
        # the verify suites do not depend on the workload's config, so an
        # untraced run checks them once; every traced repetition runs them
        report, error = run_session(
            root, out, config_path, verify and (rep == 0 or is_traced), is_traced, rep,
            spans_path if is_traced and not traced else None,
        )
        longest = max(longest, time.perf_counter() - t)
        rep += 1
        if report is None:
            crashes.append(error)
        else:
            (traced if is_traced else untraced).append(report)
        elapsed = time.perf_counter() - start
        enough = len(untraced) >= MIN_REPS and (not args.trace or len(traced) >= MIN_REPS)
        if (elapsed >= args.seconds and enough) or elapsed + 1.5 * longest > RUN_LIMIT_S:
            break
        if len(crashes) >= MIN_REPS:
            break

    reports = untraced + traced
    checks = [c for r in reports for c in r["checks"]]
    failed_checks = [c for c in checks if not c[1]]
    attempted = len(checks) + len(crashes)
    failed = len(failed_checks) + len(crashes)
    if not untraced or (args.trace and not traced):
        print(f"no repetition completed: {crashes[-1] if crashes else 'no run'}", file=sys.stderr)
        return 1
    env.update(untraced[0]["env"])
    metrics, spread = end_to_end(untraced)
    if args.trace:
        metrics = per_layer(untraced, traced)
    verify_s = [r["verify_s"] for r in untraced if r["verify_s"] is not None]
    gaps = [r["fx_direct_gap"] for r in untraced if r["fx_direct_gap"] is not None]
    summary = {
        "workload": args.workload,
        "config": build(args.seed),
        "env": env,
        "repetitions": {"untraced": len(untraced), "traced": len(traced), "crashed": len(crashes)},
        "verify_s": statistics.median(verify_s) if verify_s else None,
        "fx_direct_gap": max(gaps) if gaps else None,
        "end_to_end_per_repetition": spread,
        "failed_checks": failed_checks,
        "crashes": crashes,
        "untraced": untraced,
        "traced": [{k: v for k, v in r.items() if k not in ("step_fx_ms", "step_fx_defects")} for r in traced],
    }
    with open(os.path.join(out, "results.json"), "w") as fh:
        json.dump(summary, fh, indent=1)

    print(f"# env {json.dumps(env, sort_keys=True)}")
    print(f"# repetitions {json.dumps(summary['repetitions'])}")
    raw = {n: round(spread[n + "_raw_s"]["median"], 6) for n in ("setup", "run", "diagnose")}
    print(f"# wall time medians, unscaled (s) {json.dumps(raw)}")
    if summary["verify_s"] is not None:
        print(f"# verify_s {summary['verify_s']:.4f} s (median, evolution + connection suites)")
    if summary["fx_direct_gap"] is not None:
        print(f"# fx_direct_gap {summary['fx_direct_gap']:.6e} (max over repetitions)")
    for name, value, detail in failed_checks:
        print(f"# FAILED {name}: {detail}")
    for error in crashes:
        print(f"# CRASHED {error.splitlines()[-1] if error else ''}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
