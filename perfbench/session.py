"""One repetition of a workload, in a fresh process.

    python3 perfbench/session.py --config C --workdir D --verify 0|1 --trace 0|1 [--spans F]

Times set-up (import, structure tables, config, initial state), then drives
the public CLI: `run`, `diagnose` (five times) on the run's checkpoint and, with
``--verify 1``, both `verify` suites.  The output checks run after all
timing.  Prints one JSON object with the timings, the checks and, with
``--trace 1``, the per-layer numbers of the traced run.

Every time is reported twice: as wall time (``*_raw_s``) and scaled to the
reference host speed by a `speed.SpeedSampler` that runs through the whole
timed part of the repetition.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import layers  # noqa: E402
from speed import SpeedSampler  # noqa: E402
from tracing import Tracer  # noqa: E402

# fx_direct_gap bound: max |phi_of_state(fx) - phi_direct| after a both-2d-64
# run; over 20 seeds it measured 6e-5 to 1e-4 (discretization error of either
# route), so 1e-3, 10x the largest, fails only on a real divergence between
# the routes
FX_DIRECT_GAP_BOUND = 1e-3

# diagnose is short next to the run, so each repetition times it this often
DIAGNOSE_CALLS = 5


def _timed_cli(main, argv):
    """(start, end, exit code, stdout) of one CLI command."""
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        rc = main(argv)
    return start, time.perf_counter(), rc, out.getvalue()


def _finite(value) -> bool:
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return True
    if isinstance(value, (int, float)):
        return math.isfinite(value)
    if isinstance(value, dict):
        return all(_finite(v) for v in value.values())
    if isinstance(value, list):
        return all(_finite(v) for v in value)
    return False


def _read_ndjson(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def numeric_env() -> dict:
    """numpy, its BLAS and the BLAS thread count in effect in this process."""
    import ctypes
    import glob

    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            query = getattr(lib, symbol, None)
            if query is not None:
                threads = int(query())
                break
    return {
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--verify", type=int, default=0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    sampler = SpeedSampler()
    sampler.start()
    setup = {}
    t0 = time.perf_counter()
    import g2flow
    import g2flow.cli

    setup["import_s"] = time.perf_counter() - t0
    from g2flow.algebra import build_standard_tables
    from g2flow.flow import initial_state

    t = time.perf_counter()
    tables = build_standard_tables()
    setup["tables_s"] = time.perf_counter() - t
    t = time.perf_counter()
    config = g2flow.cli.load_config(args.config)
    setup["load_config_s"] = time.perf_counter() - t
    t = time.perf_counter()
    state0 = initial_state(config)
    setup["initial_state_s"] = time.perf_counter() - t
    t_setup = time.perf_counter()
    sampler.use_numpy()  # before the tracer wraps numpy.roll

    # spans cover the CLI commands only, each under its command's name as run
    # id; set-up is in setup_s alone
    tracer = None
    if args.trace:
        tracer = Tracer()
        layers.install(tracer)

    # keep the RunResult that `run` hands to the CLI, for fx_direct_gap
    captured = []
    cli_run = g2flow.cli.run

    def capture_run(*a, **k):
        result = cli_run(*a, **k)
        captured.append(result)
        return result

    if config.scheme == "both":
        g2flow.cli.run = capture_run

    out_dir = os.path.join(args.workdir, "run")
    commands = [(layers.RUN_COMMAND, ["run", "--config", args.config, "--out-dir", out_dir])]
    checkpoint = os.path.join(out_dir, "final_fx.g2fl")
    diagnoses = [f"diagnose-{i}" for i in range(DIAGNOSE_CALLS)]
    commands += [(name, ["diagnose", "--checkpoint", checkpoint]) for name in diagnoses]
    if args.verify:
        commands.append(("verify-evolution", ["verify", "--suite", "evolution"]))
        commands.append(("verify-connection", ["verify", "--suite", "connection"]))
    results = {}
    for name, argv_cli in commands:
        if tracer is not None:
            tracer.run_id = name
        results[name] = _timed_cli(g2flow.cli.main, argv_cli)
    g2flow.cli.run = cli_run
    sampler.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        per_rhs = layers.run_probes(
            tracer, tables, state0.project(), config.dt, config.integrator,
            direct=config.scheme in ("direct", "both"),
        )
        tracer.uninstall()  # the checks below run untraced

    # output checks, each one an operation in failed_fraction
    checks = []

    def check(name, ok, detail=""):
        checks.append([name, bool(ok), detail])

    for name, (_, _, rc, _) in results.items():
        check(f"exit0:{name}", rc == 0, f"exit code {rc}")
    n_steps = config.n_steps
    schemes = ["fx", "direct"] if config.scheme == "both" else [config.scheme]
    last_fx = None
    steps_done = []
    for scheme in schemes:
        path = os.path.join(out_dir, f"diagnostics_{scheme}.ndjson")
        records = _read_ndjson(path) if os.path.exists(path) else []
        energies = [r.get("energy") for r in records]
        check(f"ndjson_energy:{scheme}", records and None not in energies, path)
        energies = [e for e in energies if e is not None]
        increases = [b - a for a, b in zip(energies, energies[1:]) if b > a]
        check(f"energy_nonincreasing:{scheme}", not increases, f"max increase {max(increases, default=0.0):.3e}")
        check(f"finite:ndjson_{scheme}", _finite(records))
        steps_done.append(round(records[-1]["t"] / config.dt) if records else 0)
        if scheme == "fx" and records:
            last_fx = records[-1]
    check("steps_completed", steps_done == [n_steps] * len(schemes), f"{steps_done} of {n_steps}")
    for name in diagnoses:
        lines = results[name][3].strip().splitlines()
        diag = json.loads(lines[-1]) if lines else {}
        check(f"finite:{name}", diag and _finite(diag))
        check(
            f"energy_bit_exact:{name}",
            last_fx is not None and diag.get("energy") == last_fx.get("energy"),
            f"{diag.get('energy')!r} vs {None if last_fx is None else last_fx.get('energy')!r}",
        )
    verify_s = verify_raw_s = 0.0
    for name in ("verify-evolution", "verify-connection"):
        if name not in results:
            continue
        start, end, rc, text = results[name]
        verify_s += sampler.scaled(start, end)
        verify_raw_s += end - start
        rows = [line.split(",") for line in text.strip().splitlines()[1:]]
        check(f"all_pass:{name}", rows and all(r[-1] == "1" for r in rows), f"{len(rows)} rows")
    fx_direct_gap = None
    if config.scheme == "both":
        import numpy as np
        from g2flow.states import phi_of_state

        gap = math.inf
        if captured and captured[0].fx and captured[0].direct:
            res = captured[0]
            phi_fx = phi_of_state(tables, res.fx.states[-1])
            gap = float(np.max(np.abs(phi_fx - res.direct.phis[-1])))
        fx_direct_gap = gap
        check("fx_direct_gap", gap <= FX_DIRECT_GAP_BOUND, f"{gap:.3e} <= {FX_DIRECT_GAP_BOUND:g}")

    run_start, run_end = results[layers.RUN_COMMAND][:2]
    report = {
        "setup_s": sampler.scaled(t0, t_setup),
        "setup_raw_s": t_setup - t0,
        "setup_parts": setup,
        "run_s": sampler.scaled(run_start, run_end),
        "run_raw_s": run_end - run_start,
        "diagnose_s": [sampler.scaled(*results[name][:2]) for name in diagnoses],
        "diagnose_raw_s": [results[name][1] - results[name][0] for name in diagnoses],
        "verify_s": verify_s if args.verify else None,
        "verify_raw_s": verify_raw_s if args.verify else None,
        "speed_samples": len(sampler.samples),
        "peak_rss_mb": peak_rss_mb,
        "points": config.grid.n ** config.grid.k,
        "steps": min(steps_done),
        "schemes": len(schemes),
        "checks": checks,
        "fx_direct_gap": fx_direct_gap,
        "env": dict(numeric_env(), g2flow=os.path.dirname(g2flow.__file__)),
    }

    if tracer is not None:
        spans = tracer.spans
        per_layer = layers.session_metrics(spans)
        per_layer.update(per_rhs)
        durations, defects = layers.step_samples(spans)
        report["per_layer"] = per_layer
        report["step_fx_ms"] = durations
        report["step_fx_defects"] = defects
        if args.spans:
            tracer.dump(args.spans)

    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
