"""Command-line surface: subcommands, exit codes, determinism."""

import json
from dataclasses import asdict, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2flow import cli
from g2flow.cli import load_config, main
from g2flow.flow import FlowConfig, InitialSpec
from g2flow.grid import Grid, load_checkpoint, save_checkpoint


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
    grid, u = load_checkpoint(out_dir / "final_fx.g2fl")
    assert grid.n == 16
    assert u.shape == (8,) + grid.shape and np.isfinite(u).all()


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
        scheme="both",
    )
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(cfg), "--out-dir", str(out1)]) == 0
    assert main(["run", "--config", str(cfg), "--out-dir", str(out2)]) == 0
    for scheme in ("fx", "direct"):
        nd1 = (out1 / f"diagnostics_{scheme}.ndjson").read_bytes()
        nd2 = (out2 / f"diagnostics_{scheme}.ndjson").read_bytes()
        assert nd1 and nd1 == nd2
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
    # a directory where a file is named
    assert main(["run", "--config", str(tmp_path)]) == 1
    assert main(["diagnose", "--checkpoint", str(tmp_path)]) == 1
    not_an_object = write_config(tmp_path / "list.json", initial=[])
    assert main(["run", "--config", str(not_an_object)]) == 1
    outside_chart = write_config(
        tmp_path / "amplitude.json", initial={"family": "single_mode", "amplitude": 0.95}
    )
    assert main(["run", "--config", str(outside_chart)]) == 1
    sigma_text = write_config(tmp_path / "sigma.json", entropy_sigma="0.01")
    assert main(["run", "--config", str(sigma_text)]) == 1
    # a checkpoint on a 16^2 grid named by a config for 32^2
    small = Grid(length=1.0, n=16)
    u = np.concatenate((np.ones((1,) + small.shape), small.zeros(1)))
    save_checkpoint(tmp_path / "small.g2fl", small, u)
    mismatch = write_config(
        tmp_path / "mismatch.json",
        grid={"length": 1.0, "n": 32, "active_dims": [0, 1]},
        initial={"family": "checkpoint", "checkpoint": str(tmp_path / "small.g2fl")},
    )
    assert main(["run", "--config", str(mismatch)]) == 1
    assert "configuration error" in capsys.readouterr().err
    # a misspelt key is named, not silently replaced by its default
    for key, overrides in (
        ("diagnostic_every", {"diagnostic_every": 2}),
        ("stencl_order", {"grid": {"length": 1.0, "n": 16, "stencl_order": 4}}),
        ("amplitud", {"initial": {"family": "single_mode", "amplitud": 0.2}}),
    ):
        typo = write_config(tmp_path / f"{key}.json", **overrides)
        assert main(["run", "--config", str(typo)]) == 1
        assert repr(key) in capsys.readouterr().err


def test_unvalidated_run_inputs_exit_1(tmp_path, capsys):
    # config values that pass the JSON checks but would otherwise fail inside the run
    for name, overrides in (
        ("wave_dim", {"initial": {"family": "single_mode", "wave_dim": 4}}),
        ("component", {"initial": {"family": "single_mode", "component": 9}}),
        ("seed", {"initial": {"family": "random_band", "seed": -1}}),
        ("width", {"initial": {"family": "localized", "amplitude": 0.2, "width": 0.0}}),
        ("negative_width", {"initial": {"family": "localized", "amplitude": 0.2, "width": -0.1}}),
        ("center", {"theta_probes": [[[8], 0.05]]}),
        ("index", {"theta_probes": [[["a", 1], 0.05]]}),
        # each used to exit 0: random_band ran the flat state, and the probe never recorded
        ("max_mode_zero", {"initial": {"family": "random_band", "max_mode": 0}}),
        ("max_mode_negative", {"initial": {"family": "random_band", "max_mode": -3}}),
        ("t0_negative", {"theta_probes": [[[8, 4], -1.0]]}),
        ("t0_zero", {"theta_probes": [[[8, 4], 0.0]]}),
    ):
        cfg = write_config(tmp_path / f"{name}.json", **overrides)
        assert main(["run", "--config", str(cfg)]) == 1, name
        assert "configuration error" in capsys.readouterr().err


def test_out_of_range_tolerances_and_intervals_exit_1(tmp_path, capsys):
    # each used to run: a negative tolerance aborted with exit 2, a ceiling of 0
    # ended the run at its first record, and the intervals were silently clamped
    for name, overrides in (
        ("metric_tol", {"metric_tol": -1.0}),
        ("constraint_abort_tol", {"constraint_abort_tol": -1e-3}),
        ("torsion_ceiling", {"torsion_ceiling": 0.0}),
        ("torsion_ceiling", {"torsion_ceiling": -5.0}),
        ("snapshot_every", {"snapshot_every": -1}),
        ("metric_check_every", {"metric_check_every": 0}),
        ("metric_check_every", {"metric_check_every": -2}),
    ):
        initial = {"family": "random_band", "amplitude": 0.3, "seed": 11}
        cfg = write_config(tmp_path / f"{name}.json", initial=initial, **{"scheme": "both", **overrides})
        assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / name)]) == 1, overrides
        err = capsys.readouterr().err
        assert "configuration error" in err and name in err, err
    # the edges stay valid: zero tolerances and endpoint-only snapshots
    edges = write_config(
        tmp_path / "edges.json", metric_tol=0.0, constraint_abort_tol=0.0, snapshot_every=0,
        metric_check_every=1,
    )
    config = load_config(str(edges))
    assert (config.metric_tol, config.constraint_abort_tol, config.snapshot_every) == (0.0, 0.0, 0)


def test_nonfinite_config_values_exit_1(tmp_path, capsys):
    # an infinite scale overflows the kernel's image count; a huge integer overflows float()
    for name, overrides in (
        ("sigma_inf", {"entropy_sigma": float("inf")}),
        ("sigma_nan", {"entropy_sigma": float("nan")}),
        ("t0_inf", {"theta_probes": [[[8, 4], float("inf")]]}),
        ("t0_nan", {"theta_probes": [[[8, 4], float("nan")]]}),
        # integers too large for a float
        ("sigma_huge", {"entropy_sigma": 10**400}),
        ("t0_huge", {"theta_probes": [[[8, 4], 10**400]]}),
        ("dt_huge", {"dt": 10**400}),
        # json reads the literals NaN and Infinity
        ("dt_nan", {"dt": float("nan")}),
        ("t_end_nan", {"t_end": float("nan")}),
        ("t_end_inf", {"t_end": float("inf")}),
        ("length_nan", {"grid": {"length": float("nan"), "n": 16, "active_dims": [0, 1]}}),
        # a NaN tolerance would switch its gate off
        ("abort_tol_nan", {"constraint_abort_tol": float("nan")}),
        ("metric_tol_nan", {"metric_tol": float("nan")}),
        ("ceiling_nan", {"torsion_ceiling": float("nan")}),
    ):
        cfg = write_config(tmp_path / f"{name}.json", **overrides)
        assert main(["run", "--config", str(cfg)]) == 1, name
        assert "configuration error" in capsys.readouterr().err, name


def test_config_fields_take_only_their_json_type(tmp_path, capsys):
    # a string is not a bool, a bool is not a number, and a fraction is not
    # an integer: each exits 1 and names its field
    for name, overrides in (
        ("track_frame", {"track_frame": "no"}),
        ("chart_positive", {"chart_positive": "false"}),
        ("n", {"grid": {"length": 1.0, "n": 16.7, "active_dims": [0, 1]}}),
        ("diagnostics_every", {"diagnostics_every": 2.9}),
        ("snapshot_every", {"snapshot_every": True}),
        ("seed", {"initial": {"family": "random_band", "seed": 1.5}}),
        ("active_dims", {"grid": {"length": 1.0, "n": 16, "active_dims": [0, 1.5]}}),
        ("dt", {"dt": True}),
        ("cfl_safety", {"cfl_safety": False}),
        ("amplitude", {"initial": {"family": "single_mode", "amplitude": "0.1"}}),
        ("checkpoint", {"initial": {"family": "checkpoint", "checkpoint": 5}}),
    ):
        cfg = write_config(tmp_path / f"{name}.json", **overrides)
        assert main(["run", "--config", str(cfg)]) == 1, name
        assert f"{name} in " in capsys.readouterr().err, name
    # integral numbers load whichever way JSON spells them
    integral = write_config(
        tmp_path / "integral.json",
        grid={"length": 1, "n": 16.0, "active_dims": [0, 1.0]},
        diagnostics_every=2.0,
    )
    config = load_config(str(integral))
    assert config.grid == Grid(length=1.0, n=16) and type(config.grid.n) is int
    assert config.diagnostics_every == 2 and type(config.diagnostics_every) is int
    # every field read from a JSON value has its type checked
    for cls in (FlowConfig, Grid, InitialSpec):
        for f in fields(cls):
            kind = f.type.removesuffix(" | None")
            assert f.name in ("grid", "initial", "theta_probes") or kind in cli._JSON_KINDS, f


def test_run_out_dir_that_cannot_be_made_exits_1(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json")
    taken = tmp_path / "taken"
    taken.write_text("")
    for out_dir in (taken, taken / "sub"):
        assert main(["run", "--config", str(cfg), "--out-dir", str(out_dir)]) == 1
        assert "configuration error" in capsys.readouterr().err


def test_heat_kernel_scales_above_length_squared_are_config_errors(tmp_path):
    # a wider kernel is flat to ~exp(-4 pi^2) but needs ~sqrt(scale) images:
    # a 16^2 run with entropy_sigma 1e9 does not finish.  load_config rejects
    # it before any run starts, so a regression fails here instead of hanging
    for length in (1.0, 2.0):
        grid = {"length": length, "n": 16, "active_dims": [0, 1]}
        edge = length * length
        for name, overrides in (
            ("sigma", {"entropy_sigma": edge * (1 + 1e-12)}),
            ("sigma_1e9", {"entropy_sigma": 1e9}),
            ("t0", {"theta_probes": [[[8, 4], edge * (1 + 1e-12)]]}),
            ("t0_1e9", {"theta_probes": [[[8, 4], 1e9]]}),
        ):
            cfg = write_config(tmp_path / f"{name}.json", grid=grid, **overrides)
            with pytest.raises(cli.ConfigError, match="at most L\\^2"):
                load_config(str(cfg))
        at_edge = write_config(
            tmp_path / "edge.json", grid=grid, entropy_sigma=edge, theta_probes=[[[8, 4], edge]]
        )
        config = load_config(str(at_edge))
        assert config.entropy_sigma == edge and config.theta_probes[0][1] == edge


def test_malformed_theta_probe_is_named_and_exits_1(tmp_path, capsys):
    for probe in ([[8, 4]], [], [8, 4], [[8, 4], 1e-3, 5]):
        cfg = write_config(tmp_path / "probe.json", theta_probes=[probe])
        assert main(["run", "--config", str(cfg)]) == 1, probe
        err = capsys.readouterr().err
        assert f"theta probe {probe!r} is not a [center, t0] pair" in err, err


def test_programming_error_in_run_is_raised_not_exit_2(tmp_path, monkeypatch):
    def broken(config):
        raise TypeError("a bug, not a numerical failure")

    monkeypatch.setattr(cli, "run", broken)
    cfg = write_config(tmp_path / "cfg.json")
    out_dir = tmp_path / "out"
    with pytest.raises(TypeError):
        main(["run", "--config", str(cfg), "--out-dir", str(out_dir)])
    status = json.loads((out_dir / "manifest.json").read_text())["status"]
    assert status == "error: a bug, not a numerical failure"


def test_direct_metric_gate_exit_code(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "cfg.json",
        initial={"family": "random_band", "amplitude": 0.3, "seed": 11},
        scheme="direct",
        metric_tol=0.0,
    )
    out_dir = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out-dir", str(out_dir)]) == 2
    status = json.loads((out_dir / "manifest.json").read_text())["status"]
    assert "metric defect" in status and "at t=0" in status


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


@pytest.mark.parametrize("command", ["diagnose", "run"])
@pytest.mark.parametrize("nbytes", [10, 200])
def test_truncated_checkpoint_exit_code(tmp_path, capsys, command, nbytes):
    cfg = write_config(tmp_path / "cfg.json", t_end=4e-4)
    out_dir = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out-dir", str(out_dir)]) == 0
    truncated = tmp_path / "truncated.g2fl"
    truncated.write_bytes((out_dir / "final_fx.g2fl").read_bytes()[:nbytes])
    capsys.readouterr()
    if command == "diagnose":
        argv = ["diagnose", "--checkpoint", str(truncated)]
    else:
        resumed = write_config(
            tmp_path / "resume.json",
            initial={"family": "checkpoint", "checkpoint": str(truncated)},
        )
        argv = ["run", "--config", str(resumed)]
    assert main(argv) == 1
    expected = "truncated checkpoint header" if nbytes == 10 else "payload has 178 bytes"
    assert expected in capsys.readouterr().err


def test_rescale_check_subcommand(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "cfg.json",
        initial={"family": "single_mode", "amplitude": 0.2},
        snapshot_every=5,
        t_end=4e-3,
    )
    assert main(["rescale-check", "--config", str(cfg), "--c", "2.0"]) == 0
    out = capsys.readouterr().out
    assert "max state discrepancy" in out
    direct = write_config(tmp_path / "direct.json", scheme="direct")
    assert main(["rescale-check", "--config", str(direct), "--c", "2.0"]) == 1
    assert "needs an fx trajectory" in capsys.readouterr().err


def test_rescale_check_keeps_config_fields(tmp_path, capsys, monkeypatch):
    overrides = dict(
        initial={"family": "random_band", "amplitude": 0.3, "seed": 2},
        grid={"length": 1.0, "n": 32, "active_dims": [0, 1]},
        dt=5e-5,
        t_end=1e-3,
        snapshot_every=5,
    )
    # a zero constraint_abort_tol aborts on the integrator's first drift
    strict = write_config(tmp_path / "strict.json", constraint_abort_tol=0.0, **overrides)
    assert main(["run", "--config", str(strict)]) == 2
    configs = []
    real_run = cli.run

    def recording_run(config):
        configs.append(config)
        return real_run(config)

    monkeypatch.setattr(cli, "run", recording_run)
    capsys.readouterr()
    # a "both" config compares the fx route only, so it integrates nothing else
    for scheme in ("fx", "both"):
        cfg = write_config(tmp_path / f"{scheme}.json", scheme=scheme, **overrides)
        configs.clear()
        assert main(["rescale-check", "--config", str(cfg), "--c", "2.0"]) == 0, scheme
        assert "max state discrepancy 0.000e+00" in capsys.readouterr().out
        base, big = configs
        assert base.scheme == big.scheme == "fx", scheme
        assert big == replace(
            base,
            grid=replace(base.grid, length=2.0),
            dt=4.0 * base.dt,
            t_end=4.0 * base.t_end,
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


@st.composite
def valid_configs(draw):
    dims = tuple(sorted(draw(st.sets(st.integers(0, 6), min_size=1, max_size=3))))
    grid = Grid(
        length=draw(st.floats(0.5, 4.0)),
        n=draw(st.sampled_from([6, 8, 16])),
        active_dims=dims,
        stencil_order=draw(st.sampled_from([2, 4])),
    )
    max_scale = grid.length * grid.length
    scales = st.floats(1e-4, max_scale)
    initial = InitialSpec(
        family=draw(st.sampled_from(["single_mode", "random_band", "localized", "checkpoint"])),
        amplitude=draw(st.floats(0.0, 0.9)),
        wave_dim=draw(st.none() | st.sampled_from(dims)),
        component=draw(st.integers(0, 6)),
        max_mode=draw(st.integers(1, 4)),
        seed=draw(st.integers(0, 2**32 - 1)),
        width=draw(st.floats(0.01, 1.0)),
        checkpoint=draw(st.none() | st.text(max_size=12)),
    )
    cfl_safety = draw(st.floats(0.05, 1.0))
    centers = st.tuples(*[st.integers(0, grid.n - 1)] * grid.k)
    return FlowConfig(
        grid=grid,
        initial=initial,
        dt=draw(st.floats(0.01, 1.0)) * cfl_safety * grid.h * grid.h / (2.0 * grid.k),
        t_end=draw(st.floats(1e-6, 10.0)),
        integrator=draw(st.sampled_from(["euler", "rk4"])),
        scheme=draw(st.sampled_from(["fx", "direct", "both"])),
        cfl_safety=cfl_safety,
        diagnostics_every=draw(st.integers(1, 100)),
        snapshot_every=draw(st.integers(0, 100)),
        chart_positive=draw(st.booleans()),
        torsion_ceiling=draw(st.floats(1.0, 1e3)),
        metric_tol=draw(st.floats(1e-9, 1.0)),
        metric_check_every=draw(st.integers(1, 100)),
        track_frame=draw(st.booleans()),
        frame_beta=draw(st.floats(0.0, 2.0)),
        constraint_abort_tol=draw(st.floats(1e-12, 1.0)),
        theta_probes=tuple(draw(st.lists(st.tuples(centers, scales), max_size=2))),
        entropy_sigma=draw(st.none() | scales),
    )


@settings(max_examples=60, deadline=None)
@given(config=valid_configs())
def test_config_round_trips_through_json(tmp_path_factory, config):
    config.validate()
    path = tmp_path_factory.mktemp("roundtrip") / "cfg.json"
    path.write_text(json.dumps(asdict(config)))
    assert load_config(str(path)) == config


def test_minimal_config_loads_to_the_dataclass_defaults(tmp_path):
    minimal = {"grid": {"length": 1.0, "n": 16}, "dt": 1e-4, "t_end": 1e-3}
    path = tmp_path / "minimal.json"
    path.write_text(json.dumps(minimal))
    assert load_config(str(path)) == FlowConfig(grid=Grid(length=1.0, n=16), dt=1e-4, t_end=1e-3)
    # the dataclasses default dt and t_end, but a config file must state them
    for section, key in ((None, "dt"), (None, "t_end"), ("grid", "length"), ("grid", "n")):
        partial = json.loads(json.dumps(minimal))
        del (partial[section] if section else partial)[key]
        path.write_text(json.dumps(partial))
        with pytest.raises(cli.ConfigError):
            load_config(str(path))
