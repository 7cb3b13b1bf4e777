"""Time integration: fixed points, orders, scheme agreement, rescaling."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conftest import fx_state
from g2flow import flow
from g2flow.algebra import dense_from_sorted, sorted_components
from g2flow.flow import (
    ConfigError,
    FlowConfig,
    InitialSpec,
    Trajectory,
    parabolic_rescale,
    rhs_fx,
    run,
    step_direct,
    step_fx,
)
from g2flow.grid import Grid, grad_scalar, grad_vector, laplacian
from g2flow.states import (
    div_torsion_of_state,
    phi_of_state,
    random_band_state,
    single_mode_state,
    torsion_of_state,
)


def direct_rate(grid, phi):
    """The direct route's rate (Div T) -| psi of a dense 3-form."""
    return dense_from_sorted(flow._rhs_direct_sorted(grid, sorted_components(phi, 3)), 3)


def test_config_validation_cfl():
    g = Grid(length=1.0, n=16, active_dims=(0, 1))
    with pytest.raises(ConfigError):
        FlowConfig(grid=g, dt=1.0, t_end=1.0).validate()
    with pytest.raises(ConfigError):
        FlowConfig(grid=g, dt=1e-5, t_end=1.0, integrator="leapfrog").validate()
    FlowConfig(grid=g, dt=2e-4, t_end=1e-2).validate()


def test_constant_state_is_fixed_point(tables, grid16):
    x = grid16.zeros(1)
    x[2] = 0.4
    s = fx_state(grid16, np.sqrt(1 - 0.16) * np.ones(grid16.shape), x)
    assert np.all(rhs_fx(s) == 0.0)
    stepped, _, defect = step_fx(tables, s, 1e-4)
    assert defect <= 1e-15
    assert np.allclose(stepped.f, s.f) and np.allclose(stepped.x, s.x)


def test_reference_phi_is_fixed_point_direct(tables, grid16):
    s = fx_state(grid16, np.ones(grid16.shape), grid16.zeros(1))
    phi = phi_of_state(tables, s)
    assert np.all(direct_rate(grid16, phi) == 0.0)
    stepped = step_direct(tables, grid16, phi, 1e-4)
    assert np.array_equal(stepped, phi)


def test_rhs_constraint_drift_is_round_off():
    # du = Lap u - <u, Lap u> u, so <u, du> = (1 - |u|^2) <u, Lap u> up to rounding
    for n, dims, order in ((16, (0, 1), 2), (32, (0, 1), 2), (32, (0, 1), 4), (8, (0, 1, 2), 2)):
        g = Grid(length=1.0, n=n, active_dims=dims, stencil_order=order)
        s = random_band_state(g, 0.3, seed=2)
        drift = np.einsum("a...,a...->...", s.u, rhs_fx(s))
        scale = float(np.max(np.abs(laplacian(g, s.u))))
        assert np.max(np.abs(drift)) <= 16 * np.finfo(float).eps * scale, (n, dims, order)


def test_small_amplitude_rhs_is_heat_equation(tables, grid32):
    s = single_mode_state(grid32, 1e-4)
    dx = rhs_fx(s)[1:]
    lx = laplacian(grid32, s.x)
    assert np.max(np.abs(dx - lx)) <= 1e-6 * np.max(np.abs(lx))


def _divergence_form_rhs_fx(tables, state):
    # the (f, X) rates written through the torsion divergence:
    # df = (1/2) <X, Div T>, dX = Lap X + (|grad f|^2 + |grad X|^2) X
    grid, f, x = state.grid, state.f, state.x
    df = 0.5 * np.einsum("q...,q...->...", x, div_torsion_of_state(tables, state))
    gf, gx = grad_scalar(grid, f), grad_vector(grid, x)
    grad_sq = np.sum(gf * gf, axis=0) + np.einsum("pq...,pq...->...", gx, gx)
    return df, laplacian(grid, x) + grad_sq * x


def _divergence_form_fx_rates(tables, state, iota, beta, out, work=None):
    du, diota = out
    du[0], du[1:] = _divergence_form_rhs_fx(tables, state)
    if iota is None:
        return
    divt = div_torsion_of_state(tables, state)
    phi3 = phi_of_state(tables, state, check=False)
    diota[...] = beta * np.einsum("mlp...,m...,la...->pa...", phi3, divt, iota)


@pytest.mark.parametrize(
    "n,dims,order", [(32, (0, 1), 2), (32, (0, 1), 4), (16, (0, 1, 2), 2)]
)
def test_rhs_fx_matches_divergence_form(tables, n, dims, order):
    # df is the divergence form's to round-off; dX = Lap X - <u, Lap u> X tends
    # to Lap X + |grad u|^2 X at the stencil order, from n to 2n
    errs = []
    for m in (n, 2 * n):
        g = Grid(length=1.0, n=m, active_dims=dims, stencil_order=order)
        s = random_band_state(g, 0.3, seed=9)
        du = rhs_fx(s)
        df, dx = _divergence_form_rhs_fx(tables, s)
        assert np.max(np.abs(du[0] - df)) <= 1e-12 * np.max(np.abs(df))
        errs.append(float(np.max(np.abs(du[1:] - dx))))
    assert errs[0] / errs[1] >= 2.0 ** (0.8 * order)


@pytest.mark.parametrize("track_frame", [False, True])
def test_fx_run_matches_divergence_form_run(tables, monkeypatch, track_frame):
    # the two runs part at the stencil order: halving h (and quartering dt)
    # shrinks the gap in the states, the frames and the energies 4x (>= 3x)
    def gaps(n, dt, every):
        cfg = FlowConfig(
            grid=Grid(length=1.0, n=n, active_dims=(0, 1)),
            initial=InitialSpec(family="random_band", amplitude=0.3, seed=5),
            dt=dt,
            t_end=2e-3,
            scheme="fx",
            cfl_safety=0.9,
            snapshot_every=every,
            diagnostics_every=every,
            track_frame=track_frame,
            # the divergence form's rates leave the sphere at O(h^2)
            constraint_abort_tol=1e-3,
        )
        new = run(cfg, tables).fx
        with monkeypatch.context() as m:
            m.setattr(flow, "_fx_rates", _divergence_form_fx_rates)
            ref = run(cfg, tables).fx
        assert not new.events and not ref.events
        assert len(new.states) == len(ref.states) == 6
        frame_gap = 0.0
        if track_frame:
            frame_gap = max(float(np.max(np.abs(a - b))) for a, b in zip(new.frames, ref.frames))
        return (
            max(float(np.max(np.abs(a.u - b.u))) for a, b in zip(new.states, ref.states)),
            frame_gap,
            max(abs(a["energy"] - b["energy"]) / b["energy"] for a, b in zip(new.records, ref.records)),
        )

    coarse, fine = gaps(16, 2e-4, 2), gaps(32, 5e-5, 8)
    assert coarse[0] / fine[0] >= 3.0
    assert coarse[2] / fine[2] >= 3.0
    if track_frame:
        assert coarse[1] / fine[1] >= 3.0


def test_rhs_direct_lies_in_vector_component(tables, grid16, rng):
    # <rhs, h <> phi> = 0 pointwise for symmetric traceless h: the flow
    # moves only within the isometric class
    from g2flow.algebra import diamond
    from oracles import form_inner

    s = random_band_state(grid16, 0.3, seed=5)
    phi = phi_of_state(tables, s)
    rhs = direct_rate(grid16, phi)
    h = rng.standard_normal((7, 7))
    h = h + h.T
    h -= np.trace(h) / 7.0 * np.eye(7)
    hphi = diamond(np.broadcast_to(h[:, :, None, None], (7, 7) + grid16.shape), phi)
    pairing = form_inner(rhs, hphi, 3)
    scale = math.sqrt(float(form_inner(rhs, rhs, 3).max()) * float(form_inner(hphi, hphi, 3).max()))
    assert np.max(np.abs(pairing)) <= 1e-10 * max(scale, 1e-30)


def test_rhs_direct_matches_fx_pushforward(tables):
    # d(phi)/dt from the direct route agrees with the finite-difference
    # pushforward of the (f, X) rates through the state parametrization
    errs = []
    for n in (16, 32):
        g = Grid(length=1.0, n=n, active_dims=(0, 1))
        s = random_band_state(g, 0.2, max_mode=1, seed=4)
        phi = phi_of_state(tables, s)
        got = direct_rate(g, phi)
        du = rhs_fx(s)
        eps = 1e-6
        plus = replace(s, u=s.u + eps * du)
        minus = replace(s, u=s.u - eps * du)
        push = (phi_of_state(tables, plus, check=False) - phi_of_state(tables, minus, check=False)) / (2 * eps)
        errs.append(float(np.max(np.abs(got - push))))
    assert errs[0] / errs[1] >= 3.0


def _pair_form_step_fx(tables, grid, f, x, dt, integrator, iota, beta=0.5):
    # the stepper with f and X held apart: _rk over the triple (f, X, iota),
    # then the pre-projection defect and the projection of each part
    def rates(y, out):
        f, x, io = y
        du, diota = np.empty((8,) + grid.shape), None if io is None else np.empty_like(io)
        flow._fx_rates(tables, fx_state(grid, f, x), io, beta, (du, diota))
        out[0][...], out[1][...] = du[0], du[1:]
        if io is not None:
            out[2][...] = diota

    f1, x1, io1 = flow._rk(rates, (f, x, iota), dt, integrator)
    norm_sq = f1 * f1 + np.sum(x1 * x1, axis=0)
    norm = np.sqrt(norm_sq)
    return f1 / norm, x1 / norm, io1, float(np.max(np.abs(norm_sq - 1.0)))


@pytest.mark.parametrize("integrator", ["euler", "rk4"])
@pytest.mark.parametrize("with_frame", [False, True])
@pytest.mark.parametrize("n,dims,order", [(16, (0, 1), 2), (8, (0, 1, 2), 4)])
def test_step_fx_matches_pair_form_stepper(tables, integrator, with_frame, n, dims, order):
    grid = Grid(length=1.0, n=n, active_dims=dims, stencil_order=order)
    state = random_band_state(grid, 0.3, seed=6)
    iota = None
    if with_frame:
        iota = np.zeros((7, 7) + grid.shape)
        iota[np.arange(7), np.arange(7)] = 1.0
    f, x, ref_iota = state.f, state.x, iota
    dt = 0.2 * grid.h * grid.h / (2 * grid.k)
    for _ in range(2):  # the second step starts from a rotated frame
        state, iota, defect = step_fx(tables, state, dt, integrator, iota)
        f, x, ref_iota, ref_defect = _pair_form_step_fx(tables, grid, f, x, dt, integrator, ref_iota)
        assert np.array_equal(state.f, f) and np.array_equal(state.x, x)
        assert defect == ref_defect
        if with_frame:
            assert np.array_equal(iota, ref_iota)
        else:
            assert iota is None and ref_iota is None
    assert state.t == 2 * dt


@pytest.mark.parametrize("integrator,min_order", [("euler", 1.9), ("rk4", 4.5)])
def test_step_richardson_order(tables, integrator, min_order):
    grid = Grid(length=1.0, n=16, active_dims=(0, 1))
    s = random_band_state(grid, 0.2, seed=3)
    errs = []
    for dt in (4e-4, 2e-4):
        full, _, _ = step_fx(tables, s, dt, integrator, project=False)
        half, _, _ = step_fx(tables, s, dt / 2, integrator, project=False)
        half, _, _ = step_fx(tables, half, dt / 2, integrator, project=False)
        errs.append(
            max(
                float(np.max(np.abs(full.f - half.f))),
                float(np.max(np.abs(full.x - half.x))),
            )
        )
    order = math.log2(errs[0] / errs[1])
    assert order >= min_order


def test_run_zero_torsion_stationary(tables, grid16):
    cfg = FlowConfig(
        grid=grid16,
        initial=InitialSpec(family="single_mode", amplitude=0.0),
        dt=2e-4,
        t_end=2e-3,
        scheme="fx",
    )
    traj = run(cfg, tables).fx
    assert all(rec["energy"] == 0.0 for rec in traj.records)
    assert all(rec["sup_T"] == 0.0 for rec in traj.records)


def test_energy_monotone_along_run(tables, grid32):
    cfg = FlowConfig(
        grid=grid32,
        initial=InitialSpec(family="random_band", amplitude=0.2, seed=6),
        dt=1e-4,
        t_end=5e-3,
        scheme="fx",
        cfl_safety=0.9,
        diagnostics_every=5,
    )
    traj = run(cfg, tables).fx
    assert not traj.events
    energies = [rec["energy"] for rec in traj.records]
    e0 = energies[0]
    assert all(b <= a + 1e-10 * e0 for a, b in zip(energies, energies[1:]))


def test_gradient_law_along_run(tables, grid32):
    g4 = replace(grid32, stencil_order=4)
    cfg = FlowConfig(
        grid=g4,
        initial=InitialSpec(family="single_mode", amplitude=0.1),
        dt=6e-5,
        t_end=3e-3,
        scheme="fx",
        cfl_safety=0.5,
        diagnostics_every=5,
    )
    traj = run(cfg, tables).fx
    recs = traj.records
    for i in range(1, len(recs) - 1):
        dedt = (recs[i + 1]["energy"] - recs[i - 1]["energy"]) / (
            recs[i + 1]["t"] - recs[i - 1]["t"]
        )
        assert abs(dedt + recs[i]["div_T_l2"]) <= 1e-3 * recs[i]["div_T_l2"]


def test_scheme_cross_check(tables):
    def run_both(n, dt):
        g = Grid(length=1.0, n=n, active_dims=(0, 1))
        cfg = FlowConfig(
            grid=g,
            initial=InitialSpec(family="single_mode", amplitude=0.1),
            dt=dt,
            t_end=0.02,
            scheme="both",
            cfl_safety=0.9,
            diagnostics_every=100,
        )
        res = run(cfg, tables)
        assert not res.fx.events and not res.direct.events
        phi_fx = phi_of_state(tables, res.fx.states[-1])
        return float(np.max(np.abs(phi_fx - res.direct.phis[-1])))

    e_coarse = run_both(16, 2.5e-4)
    e_fine = run_both(32, 1.25e-4)
    assert e_coarse / e_fine >= 2.0


def test_parabolic_rescale_identity_and_torsion_scaling(tables, grid32):
    cfg = FlowConfig(
        grid=grid32,
        initial=InitialSpec(family="single_mode", amplitude=0.2),
        dt=1e-4,
        t_end=1e-3,
        scheme="fx",
        snapshot_every=1,
        cfl_safety=0.9,
    )
    traj = run(cfg, tables).fx
    same = parabolic_rescale(traj, 1.0)
    assert same.grid == traj.grid
    assert np.array_equal(same.states[0].x, traj.states[0].x)

    resc = parabolic_rescale(traj, 2.0)
    assert resc.grid.length == pytest.approx(2.0)
    assert resc.times[-1] == pytest.approx(4.0 * traj.times[-1])
    t_orig = torsion_of_state(tables, traj.states[0])
    t_resc = torsion_of_state(tables, resc.states[0])
    assert np.max(np.abs(t_resc - 0.5 * t_orig)) == 0.0
    # gradient of torsion scales by 1/c^2
    from g2flow.grid import partial

    g1 = partial(traj.grid, t_orig, 0)
    g2 = partial(resc.grid, t_resc, 0)
    assert np.max(np.abs(g2 - 0.25 * g1)) <= 1e-14 * np.max(np.abs(g1))


def test_rescaled_trajectory_solves_rescaled_flow(tables):
    g = Grid(length=1.0, n=16, active_dims=(0, 1))
    cfg = FlowConfig(
        grid=g,
        initial=InitialSpec(family="single_mode", amplitude=0.2),
        dt=2e-4,
        t_end=4e-3,
        scheme="fx",
        snapshot_every=5,
        cfl_safety=0.9,
    )
    base = run(cfg, tables).fx
    resc = parabolic_rescale(base, 2.0)
    big = replace(cfg, grid=replace(g, length=2.0), dt=4.0 * cfg.dt, t_end=4.0 * cfg.t_end)
    second = run(big, tables).fx
    assert np.allclose(resc.times, second.times)
    for a, b in zip(resc.states, second.states):
        assert np.array_equal(a.f, b.f)
        assert np.array_equal(a.x, b.x)


def test_doubling_monitor_reports(tables, grid16):
    # the run loop's doubling-time event, with stub fields: the field is the
    # step count, and its record reads sup|T| from a fixed series
    def events(sups):
        cfg = FlowConfig(grid=grid16, dt=0.1, t_end=0.3, diagnostics_every=1)
        traj = Trajectory(scheme="fx", grid=grid16, times=[])
        flow._run_scheme(
            cfg,
            traj,
            0,
            lambda y, t, step: (y + 1, None),
            lambda y, t, **options: {"t": t, "sup_T": sups[y]},
            lambda y: None,
        )
        return traj.events

    assert events([1.0, 1.5, 2.5, 3.0]) == [
        {"type": "doubling_time", "t": 0.2, "empirical_C": 5.0}
    ]
    assert events([1.0, 1.0, 1.1, 0.9]) == []
    # along a gradient flow the torsion decays, so no doubling occurs
    cfg = FlowConfig(
        grid=grid16,
        initial=InitialSpec(family="single_mode", amplitude=0.1),
        dt=2e-4,
        t_end=4e-3,
        scheme="fx",
        cfl_safety=0.9,
        diagnostics_every=2,
    )
    traj = run(cfg, tables).fx
    assert not any(ev["type"] == "doubling_time" for ev in traj.events)


def test_constraint_abort_event(tables):
    # force an abort with an aggressive state on a coarse grid
    g = Grid(length=1.0, n=12, active_dims=(0, 1))
    cfg = FlowConfig(
        grid=g,
        initial=InitialSpec(family="random_band", amplitude=0.6, seed=1),
        dt=5e-4,
        t_end=5e-3,
        scheme="fx",
        cfl_safety=1.0,
        constraint_abort_tol=1e-9,
    )
    traj = run(cfg, tables).fx
    assert any(ev["type"] == "constraint_abort" for ev in traj.events)


def test_singularity_ceiling_event(tables, grid16):
    cfg = FlowConfig(
        grid=grid16,
        initial=InitialSpec(family="single_mode", amplitude=0.3),
        dt=2e-4,
        t_end=2e-3,
        scheme="fx",
        cfl_safety=0.9,
        diagnostics_every=1,
        torsion_ceiling=1e-6,
    )
    traj = run(cfg, tables).fx
    assert any(ev["type"] == "singularity_suspected" for ev in traj.events)


def test_direct_blow_up_event(tables, grid16):
    from g2flow.flow import _run_direct
    from g2flow.states import single_mode_state, sorted_phi_of_state

    # a conformally huge 3-form overflows the explicit step; the run ends
    # with a blow-up event carrying the last valid time, not an exception
    cfg = FlowConfig(
        grid=grid16,
        initial=InitialSpec(family="single_mode", amplitude=0.1),
        dt=2e-4,
        t_end=2e-2,
        scheme="direct",
        cfl_safety=0.9,
        diagnostics_every=1000,
        metric_check_every=10**9,
        metric_tol=float("inf"),
        torsion_ceiling=1e300,
    )
    s30 = 1e40 * sorted_phi_of_state(tables, single_mode_state(grid16, 0.1))
    with np.errstate(over="ignore", invalid="ignore"):
        traj = _run_direct(cfg, s30)
    assert traj.events and traj.events[0]["type"] == "blow_up"
    assert traj.events[0]["t"] == 0.0


def test_direct_run_starts_from_the_dense_formula_sorted(tables, grid16):
    import json

    from oracles import dense_phi_of_state

    cfg = FlowConfig(
        grid=grid16,
        initial=InitialSpec(family="random_band", amplitude=0.5, seed=3),
        dt=2e-4,
        t_end=1.2e-3,
        scheme="direct",
        cfl_safety=0.9,
        diagnostics_every=2,
        snapshot_every=3,
        metric_check_every=2,
    )
    got = run(cfg, tables).direct
    s30 = sorted_components(dense_phi_of_state(tables, flow.initial_state(cfg).project()), 3)
    want = flow._run_direct(cfg, s30)
    # the NDJSON lines and the snapshots, byte for byte
    assert [json.dumps(r, sort_keys=True) for r in got.records] == [
        json.dumps(r, sort_keys=True) for r in want.records
    ]
    assert got.times == want.times and len(got.sorted_phis) == 3
    assert [s.tobytes() for s in got.sorted_phis] == [s.tobytes() for s in want.sorted_phis]


def test_direct_records_carry_theta_entropy_and_ceiling_snapshot(tables, grid16):
    cfg = FlowConfig(
        grid=grid16,
        initial=InitialSpec(family="single_mode", amplitude=0.2),
        dt=2e-4,
        t_end=2e-3,
        scheme="direct",
        cfl_safety=0.9,
        diagnostics_every=2,
        torsion_ceiling=1e-6,
        theta_probes=(((8, 8), 0.5),),
        entropy_sigma=0.01,
    )
    traj = run(cfg, tables).direct
    assert len(traj.records) == 2
    for rec in traj.records:
        assert rec["theta"][0][0] == [8, 8]
        assert rec["entropy_estimate"] > 0.0
    assert [ev["type"] for ev in traj.events] == ["singularity_suspected"]
    # the run stops at its step-2 record and keeps that state as a snapshot
    assert traj.times == [0.0, 2 * cfg.dt]
    phi0 = phi_of_state(tables, single_mode_state(grid16, 0.2).project())
    stepped = step_direct(tables, grid16, step_direct(tables, grid16, phi0, cfg.dt), cfg.dt)
    assert np.array_equal(traj.phis[-1], stepped)


def test_fx_run_evaluates_torsion_once_per_record(tables, grid16, monkeypatch):
    from g2flow import diagnostics, states

    calls = []
    real = states.torsion_rows_of_state

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    for module in (states, diagnostics, flow):
        monkeypatch.setattr(module, "torsion_rows_of_state", counting, raising=False)
    cfg = FlowConfig(
        grid=grid16,
        initial=InitialSpec(family="single_mode", amplitude=0.1),
        dt=2e-4,
        t_end=2e-3,
        scheme="fx",
        cfl_safety=0.9,
        diagnostics_every=5,
    )
    traj = run(cfg, tables).fx
    assert len(traj.records) == 3
    assert len(calls) == 3


def test_direct_run_measures_metric_once_per_state(tables, grid16, monkeypatch):
    calls = []
    real = flow.metric_defect_sorted

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(flow, "metric_defect_sorted", counting)
    cfg = FlowConfig(
        grid=grid16,
        initial=InitialSpec(family="random_band", amplitude=0.3, seed=11),
        dt=1e-4,
        t_end=1.2e-3,
        scheme="direct",
        diagnostics_every=6,
        metric_check_every=4,
    )
    traj = run(cfg, tables).direct
    # records at steps 0, 6, 12 and checks at steps 0, 4, 8; the step-0
    # record and the step-0 check share one evaluation
    assert len(traj.records) == 3
    assert len(calls) == 5


def test_chart_exit_event(tables, grid16, tmp_path):
    from g2flow.grid import save_checkpoint

    # a smooth state dipping just past the f = 0 equator along the first
    # active direction, so min f < 0 on part of the grid
    sweep = 0.5 * np.pi + 0.3
    theta = 0.5 * sweep * (1.0 - np.cos(2 * np.pi * grid16.coordinate(0) / grid16.length))
    x = grid16.zeros(1)
    x[2] = np.sin(theta)
    f = np.cos(theta)
    path = tmp_path / "chart.g2fl"
    save_checkpoint(path, grid16, np.concatenate((f[None], x)))
    cfg = FlowConfig(
        grid=grid16,
        initial=InitialSpec(family="checkpoint", checkpoint=str(path)),
        dt=2e-4,
        t_end=1e-3,
        scheme="fx",
        cfl_safety=0.9,
        chart_positive=True,
    )
    traj = run(cfg, tables).fx
    assert any(ev["type"] == "chart_exit" for ev in traj.events)
    # the same run without the chart flag reports nothing
    cfg2 = replace(cfg, chart_positive=False)
    assert not any(ev["type"] == "chart_exit" for ev in run(cfg2, tables).fx.events)


def test_snapshot_cadence(tables, grid16):
    cfg = FlowConfig(
        grid=grid16,
        initial=InitialSpec(family="single_mode", amplitude=0.1),
        dt=2e-4,
        t_end=2e-3,
        scheme="fx",
        snapshot_every=2,
        cfl_safety=0.9,
    )
    traj = run(cfg, tables).fx
    assert len(traj.states) == 6  # steps 0,2,4,6,8,10
    assert traj.times == sorted(traj.times)
    assert all(b > a for a, b in zip(traj.times, traj.times[1:]))


@pytest.mark.parametrize("integrator", ["euler", "rk4"])
def test_steppers_leave_their_inputs_unmodified(tables, grid16, integrator):
    state = random_band_state(grid16, 0.4, seed=9)
    iota = np.broadcast_to(np.eye(7).reshape(7, 7, 1, 1), (7, 7) + grid16.shape).copy()
    kept = (state.f.copy(), state.x.copy(), iota.copy())
    new, new_iota, _ = step_fx(tables, state, 1e-4, integrator, iota=iota)
    for before, after in zip(kept, (state.f, state.x, iota)):
        assert after.tobytes() == before.tobytes()
    assert not np.shares_memory(new.x, state.x) and not np.shares_memory(new_iota, iota)
    phi = phi_of_state(tables, state)
    phi_kept = phi.copy()
    stepped = step_direct(tables, grid16, phi, 1e-4, integrator)
    assert phi.tobytes() == phi_kept.tobytes()
    assert not np.array_equal(stepped, phi)


def _poisoned_workspace(grid, frame):
    # every buffer starts as NaN, so a read before a write shows in the result
    work = flow._FxWorkspace(grid, frame)
    buffers = [work.lap, work.term, work.dot]
    for part in work.rk:
        buffers += [b for b in part if b is not None]
    for b in buffers:
        b.fill(np.nan)
    return work


@pytest.mark.parametrize("integrator,with_frame", [("rk4", False), ("rk4", True), ("euler", False)])
def test_steps_reusing_one_workspace_equal_steps_with_fresh_ones(tables, integrator, with_frame):
    grid = Grid(length=1.0, n=16, active_dims=(0, 1))
    state = random_band_state(grid, 0.3, seed=4)
    iota = None
    if with_frame:
        iota = np.zeros((7, 7) + grid.shape)
        iota[np.arange(7), np.arange(7)] = 1.0
    dt = 0.2 * grid.h * grid.h / (2 * grid.k)
    work = _poisoned_workspace(grid, with_frame)
    kept = fresh = (state, iota, None)
    for _ in range(3):
        kept = step_fx(tables, kept[0], dt, integrator, kept[1], work=work)
        fresh = step_fx(
            tables, fresh[0], dt, integrator, fresh[1], work=_poisoned_workspace(grid, with_frame)
        )
        assert kept[0].u.tobytes() == fresh[0].u.tobytes()
        assert kept[2] == fresh[2]
        if with_frame:
            assert kept[1].tobytes() == fresh[1].tobytes()
    # and a step that makes its own workspace, as the probe call does
    assert step_fx(tables, state, dt, integrator, iota)[0].u.tobytes() == step_fx(
        tables, state, dt, integrator, iota, work=_poisoned_workspace(grid, with_frame)
    )[0].u.tobytes()


@pytest.mark.parametrize(
    "grid", [Grid(length=1.0, n=64), Grid(length=1.0, n=16, active_dims=(0, 1, 2))], ids=["64^2", "16^3"]
)
def test_step_with_a_kept_workspace_allocates_little(tables, grid):
    state = random_band_state(grid, 0.3, seed=2)
    dt = 0.2 * grid.h * grid.h / (2 * grid.k)
    work = flow._FxWorkspace(grid)
    state, _, _ = step_fx(tables, state, dt, work=work)  # a warm workspace
    tracemalloc.start()
    try:
        step_fx(tables, state, dt, work=work)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the result, projected in place, and the constraint's f*f + X*X: about
    # 2.1 u (a step allocating fresh stage arrays peaks near 8.9 u)
    assert peak <= 2.5 * state.u.nbytes
