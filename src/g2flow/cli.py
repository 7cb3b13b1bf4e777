"""Command-line orchestration: config parsing, subcommands, run manifests.

Subcommands:

  validate-tables   print the structure-constant identity report
  run               execute a configured flow, streaming NDJSON diagnostics
  verify            run a verification suite, emitting a CSV report
  diagnose          recompute all functionals from a checkpoint
  rescale-check     end-to-end parabolic-rescaling equivariance check

Exit codes: 0 success, 1 configuration or usage error, 2 numerical abort
(NaN / constraint), 3 failed verification.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .algebra import build_standard_tables, validate_tables
from .diagnostics import entropy, entropy_tables, record_for_torsion
from .flow import ConfigError, FlowConfig, InitialSpec, parabolic_rescale, run, write_run_outputs
from .grid import Grid, load_checkpoint
from .states import DegenerateFormError, InvalidStateError, IsometricState, torsion_rows_of_state

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERIC = 2
EXIT_VERIFY = 3

# the failures of a run that exit with EXIT_NUMERIC; a run solves no linear system
# (connection.transport_frames is the one solver, and `run` never reaches it)
NUMERICAL_ERRORS = (DegenerateFormError, InvalidStateError, FloatingPointError)


# what JSON value each annotated field type accepts (a bool is never a number);
# a field of another type (theta_probes) is parsed on its own
_JSON_KINDS = {
    "float": "a finite number",
    "int": "an integer",
    "str": "a string",
    "tuple[int, ...]": "a list of integers",
}


def _coerce(type_name: str, value):
    """``value`` checked against the JSON kind of a field type, then converted."""
    kind = type_name.removesuffix(" | None")
    if kind not in _JSON_KINDS or (value is None and kind != type_name):
        return value
    if kind == "tuple[int, ...]" and isinstance(value, list):
        return tuple(_coerce("int", i) for i in value)
    if kind == "str" and isinstance(value, str):
        return value
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind == "float" and number and abs(value) <= sys.float_info.max:
        return float(value)
    if kind == "int" and number and (isinstance(value, int) or value.is_integer()):
        return int(value)
    raise TypeError(f"must be {_JSON_KINDS[kind]}, got {value!r}")


def _field(type_name: str, name: str, where: str, value):
    try:
        return _coerce(type_name, value)
    except TypeError as exc:
        raise ConfigError(f"{name} in {where} {exc}") from None


def _from_section(cls, section, where: str, **parsed):
    """``cls`` built from a JSON object: the dataclass supplies names and defaults."""
    if not isinstance(section, dict):
        raise ConfigError(f"{where} is not a JSON object")
    unknown = sorted(set(section) - {f.name for f in fields(cls)})
    if unknown:
        raise ConfigError(f"unknown key(s) {', '.join(map(repr, unknown))} in {where}")
    for f in fields(cls):
        if f.name in section and f.name not in parsed:
            parsed[f.name] = _field(f.type, f.name, where, section[f.name])
    return cls(**parsed)


def _theta_probe(entry) -> tuple:
    if not (isinstance(entry, list) and len(entry) == 2 and isinstance(entry[0], list)):
        raise ConfigError(f"theta probe {entry!r} is not a [center, t0] pair")
    return tuple(entry[0]), _field("float", "t0", f"theta probe {entry!r}", entry[1])


def load_config(path: str) -> FlowConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
        config = _from_section(
            FlowConfig,
            raw,
            "the config",
            grid=_from_section(Grid, raw["grid"], "grid"),
            initial=_from_section(InitialSpec, raw.get("initial", {}), "initial"),
            theta_probes=tuple(_theta_probe(p) for p in raw.get("theta_probes", ())),
            # FlowConfig's defaults serve the library; a config file states its time span
            dt=_field("float", "dt", "the config", raw["dt"]),
            t_end=_field("float", "t_end", "the config", raw["t_end"]),
        )
        config.validate()
    except (OSError, KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise ConfigError(f"bad configuration {path}: {exc}") from exc
    return config


def cmd_validate_tables(args) -> int:
    report = validate_tables(build_standard_tables())
    width = max(len(name) for name, _ in report)
    print(f"{'identity':<{width}}  defect")
    for name, defect in report:
        print(f"{name:<{width}}  {defect}")
    total = sum(d for _, d in report)
    print(f"{len(report)} identities, total defect {total}")
    return EXIT_OK if total == 0 else EXIT_VERIFY


def _write_manifest(path, manifest: dict) -> None:
    if path:
        with open(path, "w") as fh:
            json.dump(manifest, fh, sort_keys=True, indent=1)


def cmd_run(args) -> int:
    config = load_config(args.config)
    manifest = {
        "code_version": __version__,
        "config_hash": hashlib.sha256(Path(args.config).read_bytes()).hexdigest(),
        "grid": asdict(config.grid),
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
    manifest_path = os.path.join(out_dir, "manifest.json") if out_dir else None
    try:
        if out_dir:
            os.makedirs(out_dir, exist_ok=True)
        _write_manifest(manifest_path, manifest)
    except OSError as exc:
        raise ConfigError(f"cannot write to output directory {out_dir}: {exc}") from exc
    try:
        result = run(config)
    except Exception as exc:
        manifest.update(status=f"error: {exc}", end_time=time.time())
        _write_manifest(manifest_path, manifest)
        if not isinstance(exc, NUMERICAL_ERRORS):
            raise  # a ConfigError exits 1; anything else is a bug, with its traceback
        print(f"run failed: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    trajs = [traj for traj in (result.fx, result.direct) if traj is not None]
    manifest.update(events=result.events, status="finished", end_time=time.time())
    # how the run stepped: the fx step's parts (None without the fx route), and wall seconds
    manifest.update(fx_parts=result.fx and result.fx.parts, timing={t.scheme: t.timing for t in trajs})
    if out_dir:
        write_run_outputs(result, out_dir)
        _write_manifest(manifest_path, manifest)
    else:
        for traj in trajs:
            for rec in traj.records:
                print(json.dumps(rec, sort_keys=True))
    bad = {"blow_up", "constraint_abort"}
    if any(ev["type"] in bad for ev in manifest["events"]):
        return EXIT_NUMERIC
    return EXIT_OK


def cmd_verify(args) -> int:
    from .verify import run_suite  # imported lazily: the suites pull in most of the package

    rows = run_suite(args.suite)
    print("suite,check,value,threshold,pass")
    ok = True
    for name, value, threshold, passed in rows:
        ok = ok and passed
        print(f"{args.suite},{name},{value:.6e},{threshold:.6e},{int(passed)}")
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_diagnose(args) -> int:
    try:
        grid, u = load_checkpoint(args.checkpoint)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"bad checkpoint {args.checkpoint}: {exc}") from exc
    state = IsometricState(grid=grid, u=u)
    rows = torsion_rows_of_state(state)
    # one theta probe, at the torsion's peak, and the entropy, both at scale (L/8)^2
    sigma = (grid.length / 8.0) ** 2
    peak = np.argmax(np.einsum("pq...,pq...->...", rows, rows))
    center = tuple(int(i) for i in np.unravel_index(int(peak), grid.shape))
    record = record_for_torsion(
        grid, rows, 0.0, state.constraint_defect(), theta_probes=[(center, sigma)]
    )
    del record["t"]
    ent = entropy(entropy_tables(grid, sigma), rows)
    record.update(
        checkpoint=args.checkpoint,
        entropy_estimate=ent.value,
        entropy_argmax={"center": list(ent.center), "scale": ent.scale},
    )
    print(json.dumps(record, sort_keys=True))
    return EXIT_OK


def cmd_rescale_check(args) -> int:
    c, tol = args.c, args.tol
    # checked before the base run: a NaN passes every `if x > bound` gate
    if not (math.isfinite(c) and c > 0):
        raise ConfigError(f"--c must be finite and positive, got {c!r}")
    if not (math.isfinite(tol) and tol >= 0):
        raise ConfigError(f"--tol must be finite and non-negative, got {tol!r}")
    config = load_config(args.config)
    if config.scheme == "direct":
        print("rescale-check needs an fx trajectory", file=sys.stderr)
        return EXIT_CONFIG
    try:  # before the base run: c L must be a period that Grid accepts
        big_grid = replace(config.grid, length=c * config.grid.length)
    except ValueError as exc:
        raise ConfigError(f"--c {c!r} rescales the grid out of range: {exc}") from exc
    # only the fx route is compared, so a "both" config integrates it alone
    config = replace(config, scheme="fx")
    rescaled = parabolic_rescale(run(config).fx, c)
    initial = config.initial
    if initial.family == "localized":  # the bump's width is a length: it scales with L
        initial = replace(initial, width=c * initial.width)
    big = replace(config, grid=big_grid, initial=initial, dt=c * c * config.dt, t_end=c * c * config.t_end)
    second = run(big)
    if len(second.fx.states) != len(rescaled.states):
        print(
            f"rescale-check c={c}: the rescaled run kept {len(second.fx.states)} "
            f"of {len(rescaled.states)} snapshots",
            file=sys.stderr,
        )
        return EXIT_VERIFY
    worst = max(
        float(np.max(np.abs(s_resc.u - s_big.u)))
        for s_resc, s_big in zip(rescaled.states, second.fx.states)
    )
    print(f"rescale-check c={c}: max state discrepancy {worst:.3e} (tolerance {tol:g})")
    return EXIT_OK if worst <= tol else EXIT_VERIFY


class _ArgumentParser(argparse.ArgumentParser):
    """A parser whose usage errors exit 1, as configuration errors; its
    subparsers take its class."""

    def error(self, message):
        raise ConfigError(message)


def main(argv=None) -> int:
    parser = _ArgumentParser(
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

    handlers = {
        "validate-tables": cmd_validate_tables,
        "run": cmd_run,
        "verify": cmd_verify,
        "diagnose": cmd_diagnose,
        "rescale-check": cmd_rescale_check,
    }
    try:
        args = parser.parse_args(argv)
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
