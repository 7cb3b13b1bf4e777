"""Command-line surface: subcommands, exit codes, determinism."""

import json
import os
from dataclasses import replace

import numpy as np
import pytest

from g2flow import cli
from g2flow.cli import load_config, main
from g2flow.grid import load_checkpoint


def write_config(path, **overrides):
    config = {
        "grid": {"length": 1.0, "n": 16, "active_dims": [0, 1], "stencil_order": 2},
        "initial": {"family": "single_mode", "amplitude": 0.1, "seed": 3},
        "dt": 2e-4,
        "t_end": 2e-3,
        "integrator": "rk4",
        "scheme": "fx",
        "cfl_safety": 0.9,
        "diagnostics_every": 2,
    }
    config.update(overrides)
    with open(path, "w") as fh:
        json.dump(config, fh)
    return path


def test_validate_tables_exit_code(capsys):
    assert main(["validate-tables"]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l and not l.startswith("identity")]
    assert "18 identities, total defect 0" in out
    assert len(lines) == 19  # 18 identities + summary


def test_run_writes_outputs_and_manifest(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json")
    out_dir = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out-dir", str(out_dir)]) == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["status"] == "finished"
    assert manifest["end_time"] is not None
    assert manifest["config_hash"]
    nd = (out_dir / "diagnostics_fx.ndjson").read_text().strip().splitlines()
    recs = [json.loads(line) for line in nd]
    assert all("energy" in r and "div_T_l2" in r for r in recs)
    grid, f, x = load_checkpoint(out_dir / "final_fx.g2fl")
    assert grid.n == 16
    assert np.isfinite(f).all() and np.isfinite(x).all()


def test_run_stdout_when_no_out_dir(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", t_end=4e-4)
    assert main(["run", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert all(json.loads(line) for line in out)


def test_run_zero_torsion_energy_column(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", initial={"family": "single_mode", "amplitude": 0.0})
    assert main(["run", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert all(json.loads(line)["energy"] == 0.0 for line in out)


def test_run_determinism_bit_identical(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.json",
        initial={"family": "random_band", "amplitude": 0.2, "seed": 11},
        constraint_abort_tol=1e-4,
    )
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(cfg), "--out-dir", str(out1)]) == 0
    assert main(["run", "--config", str(cfg), "--out-dir", str(out2)]) == 0
    nd1 = (out1 / "diagnostics_fx.ndjson").read_bytes()
    nd2 = (out2 / "diagnostics_fx.ndjson").read_bytes()
    assert nd1 == nd2
    assert (out1 / "final_fx.g2fl").read_bytes() == (out2 / "final_fx.g2fl").read_bytes()


def test_config_error_exit_codes(tmp_path, capsys):
    bad = write_config(tmp_path / "bad.json", dt=1.0)  # violates the CFL bound
    assert main(["run", "--config", str(bad)]) == 1
    assert main(["run", "--config", str(tmp_path / "missing.json")]) == 1
    garbage = tmp_path / "garbage.json"
    garbage.write_text('{"grid": {}}')
    assert main(["run", "--config", str(garbage)]) == 1
    truncated = tmp_path / "truncated.json"
    truncated.write_text('{"grid": ')
    assert main(["run", "--config", str(truncated)]) == 1
    not_an_object = write_config(tmp_path / "list.json", initial=[])
    assert main(["run", "--config", str(not_an_object)]) == 1
    assert "configuration error" in capsys.readouterr().err


def test_load_config_reads_localized_width(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.json",
        initial={"family": "localized", "amplitude": 0.3, "width": 0.05},
    )
    assert load_config(str(cfg)).initial.width == 0.05


def test_numerical_abort_exit_code(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "cfg.json",
        initial={"family": "random_band", "amplitude": 0.6, "seed": 1},
        grid={"length": 1.0, "n": 12, "active_dims": [0, 1]},
        dt=5e-4,
        t_end=5e-3,
        cfl_safety=1.0,
        constraint_abort_tol=1e-9,
    )
    assert main(["run", "--config", str(cfg)]) == 2


def test_verify_suite_exit_codes(capsys):
    assert main(["verify", "--suite", "identities"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("suite,check,value,threshold,pass")
    assert ",0\n" not in out  # no failing rows


def test_diagnose_checkpoint(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json")
    out_dir = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out-dir", str(out_dir)]) == 0
    capsys.readouterr()
    assert main(["diagnose", "--checkpoint", str(out_dir / "final_fx.g2fl")]) == 0
    rec = json.loads(capsys.readouterr().out)
    for key in ("energy", "sup_T", "div_T_l2", "constraint_defect", "entropy_estimate", "theta"):
        assert key in rec
    assert rec["constraint_defect"] <= 1e-10


def test_rescale_check_subcommand(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "cfg.json",
        initial={"family": "single_mode", "amplitude": 0.2},
        snapshot_every=5,
        t_end=4e-3,
        constraint_abort_tol=1e-4,
    )
    assert main(["rescale-check", "--config", str(cfg), "--c", "2.0"]) == 0
    out = capsys.readouterr().out
    assert "max state discrepancy" in out


def test_rescale_check_keeps_config_fields(tmp_path, capsys, monkeypatch):
    overrides = dict(
        initial={"family": "random_band", "amplitude": 0.3, "seed": 2},
        grid={"length": 1.0, "n": 32, "active_dims": [0, 1]},
        dt=5e-5,
        t_end=1e-3,
        snapshot_every=5,
    )
    # at the default constraint_abort_tol the run aborts on drift alone
    strict = write_config(tmp_path / "strict.json", **overrides)
    assert main(["run", "--config", str(strict)]) == 2
    cfg = write_config(tmp_path / "cfg.json", constraint_abort_tol=1e-3, **overrides)
    configs = []
    real_run = cli.run

    def recording_run(config):
        configs.append(config)
        return real_run(config)

    monkeypatch.setattr(cli, "run", recording_run)
    capsys.readouterr()
    assert main(["rescale-check", "--config", str(cfg), "--c", "2.0"]) == 0
    assert "max state discrepancy 0.000e+00" in capsys.readouterr().out
    base, big = configs
    assert big == replace(
        base,
        grid=replace(base.grid, length=2.0),
        dt=4.0 * base.dt,
        t_end=4.0 * base.t_end,
        scheme="fx",
    )


def test_checkpoint_resume_round_trip(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json")
    out_dir = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out-dir", str(out_dir)]) == 0
    resumed = write_config(
        tmp_path / "resume.json",
        initial={"family": "checkpoint", "checkpoint": str(out_dir / "final_fx.g2fl")},
        t_end=4e-4,
    )
    assert main(["run", "--config", str(resumed)]) == 0
