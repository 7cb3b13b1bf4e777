"""Command-line orchestration: config parsing, subcommands, run manifests.

Subcommands:

  validate-tables   print the structure-constant identity report
  run               execute a configured flow, streaming NDJSON diagnostics
  verify            run a verification suite, emitting a CSV report
  diagnose          recompute all functionals from a checkpoint
  rescale-check     end-to-end parabolic-rescaling equivariance check

Exit codes: 0 success, 1 configuration error, 2 numerical abort
(NaN / constraint), 3 failed verification.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import replace

import numpy as np

from . import __version__
from .algebra import build_standard_tables, validate_tables
from .diagnostics import HeatKernelSpec, energy, entropy, sup_norm, theta
from .flow import ConfigError, FlowConfig, InitialSpec, parabolic_rescale, run, write_run_outputs
from .grid import Grid, div2, integrate, load_checkpoint
from .states import IsometricState, torsion_of_state

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERIC = 2
EXIT_VERIFY = 3


def load_config(path: str) -> FlowConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
        grid = Grid(
            length=float(raw["grid"]["length"]),
            n=int(raw["grid"]["n"]),
            active_dims=tuple(raw["grid"].get("active_dims", (0, 1))),
            stencil_order=int(raw["grid"].get("stencil_order", 2)),
        )
        ini = raw.get("initial", {})
        initial = InitialSpec(
            family=ini.get("family", "single_mode"),
            amplitude=float(ini.get("amplitude", 0.1)),
            wave_dim=ini.get("wave_dim"),
            component=int(ini.get("component", 2)),
            max_mode=int(ini.get("max_mode", 2)),
            seed=int(ini.get("seed", 0)),
            width=float(ini.get("width", 0.15)),
            checkpoint=ini.get("checkpoint"),
        )
        config = FlowConfig(
            grid=grid,
            initial=initial,
            dt=float(raw["dt"]),
            t_end=float(raw["t_end"]),
            integrator=raw.get("integrator", "rk4"),
            scheme=raw.get("scheme", "fx"),
            cfl_safety=float(raw.get("cfl_safety", 0.25)),
            diagnostics_every=int(raw.get("diagnostics_every", 10)),
            snapshot_every=int(raw.get("snapshot_every", 0)),
            chart_positive=bool(raw.get("chart_positive", False)),
            torsion_ceiling=float(raw.get("torsion_ceiling", 100.0)),
            metric_tol=float(raw.get("metric_tol", 1e-3)),
            metric_check_every=int(raw.get("metric_check_every", 50)),
            track_frame=bool(raw.get("track_frame", False)),
            frame_beta=float(raw.get("frame_beta", 0.5)),
            constraint_abort_tol=float(raw.get("constraint_abort_tol", 1e-6)),
            theta_probes=tuple(
                (tuple(p[0]), float(p[1])) for p in raw.get("theta_probes", ())
            ),
            entropy_sigma=raw.get("entropy_sigma"),
        )
        config.validate()
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ConfigError(f"bad configuration {path}: {exc}") from exc
    return config


def _config_hash(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def cmd_validate_tables(args) -> int:
    tables = build_standard_tables()
    report = validate_tables(tables)
    width = max(len(name) for name, _ in report)
    print(f"{'identity':<{width}}  defect")
    for name, defect in report:
        print(f"{name:<{width}}  {defect}")
    total = sum(d for _, d in report)
    print(f"{len(report)} identities, total defect {total}")
    return EXIT_OK if total == 0 else EXIT_VERIFY


def cmd_run(args) -> int:
    config = load_config(args.config)
    manifest = {
        "code_version": __version__,
        "config_hash": _config_hash(args.config),
        "grid": {
            "length": config.grid.length,
            "n": config.grid.n,
            "active_dims": list(config.grid.active_dims),
            "stencil_order": config.grid.stencil_order,
        },
        "initial": {
            "family": config.initial.family,
            "amplitude": config.initial.amplitude,
            "seed": config.initial.seed,
        },
        "start_time": time.time(),
        "end_time": None,
        "status": "running",
        "events": [],
    }
    out_dir = args.out_dir
    manifest_path = None
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        manifest_path = os.path.join(out_dir, "manifest.json")
        with open(manifest_path, "w") as fh:
            json.dump(manifest, fh, sort_keys=True, indent=1)
    try:
        result = run(config)
    except Exception as exc:  # numerical failure inside the run
        manifest["status"] = f"error: {exc}"
        manifest["end_time"] = time.time()
        if manifest_path:
            with open(manifest_path, "w") as fh:
                json.dump(manifest, fh, sort_keys=True, indent=1)
        print(f"run failed: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    events = result.events
    manifest["events"] = events
    manifest["status"] = "finished"
    manifest["end_time"] = time.time()
    if out_dir:
        write_run_outputs(result, out_dir, config)
        with open(manifest_path, "w") as fh:
            json.dump(manifest, fh, sort_keys=True, indent=1)
    else:
        for traj in (result.fx, result.direct):
            if traj is None:
                continue
            for rec in traj.records:
                print(json.dumps(rec, sort_keys=True))
    bad = {"blow_up", "constraint_abort"}
    if any(ev["type"] in bad for ev in events):
        return EXIT_NUMERIC
    return EXIT_OK


def _verify_rows(suite: str) -> list[tuple[str, float, float, bool]]:
    # imported lazily: the suites pull in most of the package
    from .verify import run_suite

    return run_suite(suite)


def cmd_verify(args) -> int:
    rows = _verify_rows(args.suite)
    print("suite,check,value,threshold,pass")
    ok = True
    for name, value, threshold, passed in rows:
        ok = ok and passed
        print(f"{args.suite},{name},{value:.6e},{threshold:.6e},{int(passed)}")
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_diagnose(args) -> int:
    tables = build_standard_tables()
    grid, f, x = load_checkpoint(args.checkpoint)
    state = IsometricState(grid=grid, f=f, x=x)
    torsion = torsion_of_state(tables, state)
    divt = div2(grid, torsion)
    record = {
        "checkpoint": args.checkpoint,
        "energy": energy(grid, torsion),
        "sup_T": sup_norm(torsion),
        "div_T_l2": integrate(grid, np.einsum("q...,q...->...", divt, divt)),
        "constraint_defect": state.constraint_defect(),
    }
    sigma = (grid.length / 8.0) ** 2
    ent = entropy(grid, torsion, sigma, sample_stride=max(1, grid.n // 8))
    record["entropy_estimate"] = ent.value
    record["entropy_argmax"] = {"center": list(ent.center), "scale": ent.scale}
    center = tuple(
        int(i)
        for i in np.unravel_index(
            int(np.argmax(np.einsum("pq...,pq...->...", torsion, torsion))), grid.shape
        )
    )
    spec = HeatKernelSpec(center=center, t0=sigma)
    record["theta"] = [[list(center), sigma, theta(grid, torsion, spec, 0.0)]]
    print(json.dumps(record, sort_keys=True))
    return EXIT_OK


def cmd_rescale_check(args) -> int:
    config = load_config(args.config)
    c = float(args.c)
    base = run(config)
    if base.fx is None:
        print("rescale-check needs an fx trajectory", file=sys.stderr)
        return EXIT_CONFIG
    rescaled = parabolic_rescale(base.fx, c)
    big = replace(
        config,
        grid=replace(config.grid, length=c * config.grid.length),
        dt=c * c * config.dt,
        t_end=c * c * config.t_end,
        scheme="fx",
    )
    second = run(big)
    if len(second.fx.states) != len(rescaled.states):
        print(
            f"rescale-check c={c}: the rescaled run kept {len(second.fx.states)} "
            f"of {len(rescaled.states)} snapshots",
            file=sys.stderr,
        )
        return EXIT_VERIFY
    worst = 0.0
    for s_resc, s_big in zip(rescaled.states, second.fx.states):
        worst = max(worst, float(np.max(np.abs(s_resc.f - s_big.f))))
        worst = max(worst, float(np.max(np.abs(s_resc.x - s_big.x))))
    print(f"rescale-check c={c}: max state discrepancy {worst:.3e} (tolerance {args.tol:g})")
    return EXIT_OK if worst <= args.tol else EXIT_VERIFY


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="g2flow",
        description="isometric-flow numerical laboratory on the flat 7-torus",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("validate-tables", help="check every structure-constant identity")

    p_run = sub.add_parser("run", help="integrate a configured flow")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out-dir", default=None)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument(
        "--suite", required=True, choices=["identities", "evolution", "connection"]
    )

    p_diag = sub.add_parser("diagnose", help="recompute functionals from a checkpoint")
    p_diag.add_argument("--checkpoint", required=True)

    p_resc = sub.add_parser("rescale-check", help="trajectory rescaling equivariance")
    p_resc.add_argument("--config", required=True)
    p_resc.add_argument("--c", default=2.0, type=float)
    p_resc.add_argument("--tol", default=1e-8, type=float)

    args = parser.parse_args(argv)
    handlers = {
        "validate-tables": cmd_validate_tables,
        "run": cmd_run,
        "verify": cmd_verify,
        "diagnose": cmd_diagnose,
        "rescale-check": cmd_rescale_check,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
