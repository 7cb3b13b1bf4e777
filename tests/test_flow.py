"""Time integration: fixed points, orders, scheme agreement, rescaling."""

import math
from dataclasses import replace

import numpy as np
import pytest

from g2flow import flow
from g2flow.diagnostics import doubling_monitor, energy, sup_norm
from g2flow.flow import (
    ConfigError,
    FlowConfig,
    InitialSpec,
    parabolic_rescale,
    rhs_direct,
    rhs_fx,
    run,
    step_direct,
    step_fx,
)
from g2flow.grid import Grid, grad_scalar, grad_vector, integrate, laplacian
from g2flow.states import (
    IsometricState,
    div_torsion_of_state,
    phi_of_state,
    psi_of_state,
    random_band_state,
    single_mode_state,
    torsion_of_state,
)


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
    s = IsometricState(grid=grid16, f=np.sqrt(1 - 0.16) * np.ones(grid16.shape), x=x)
    df, dx = rhs_fx(tables, s)
    assert np.all(df == 0.0) and np.all(dx == 0.0)
    stepped, _, defect = step_fx(tables, s, 1e-4)
    assert defect <= 1e-15
    assert np.allclose(stepped.f, s.f) and np.allclose(stepped.x, s.x)


def test_reference_phi_is_fixed_point_direct(tables, grid16):
    s = IsometricState(grid=grid16, f=np.ones(grid16.shape), x=grid16.zeros(1))
    phi = phi_of_state(tables, s)
    assert np.all(rhs_direct(tables, grid16, phi, metric_tol=None) == 0.0)
    stepped = step_direct(tables, grid16, phi, 1e-4)
    assert np.array_equal(stepped, phi)


def test_rhs_constraint_drift_vanishes_at_stencil_order(tables):
    errs = []
    for n in (16, 32):
        g = Grid(length=1.0, n=n, active_dims=(0, 1))
        s = random_band_state(g, 0.3, seed=2)
        df, dx = rhs_fx(tables, s)
        drift = s.f * df + np.einsum("q...,q...->...", s.x, dx)
        errs.append(float(np.max(np.abs(drift))))
    assert errs[0] / errs[1] >= 3.0


def test_small_amplitude_rhs_is_heat_equation(tables, grid32):
    s = single_mode_state(grid32, 1e-4)
    _, dx = rhs_fx(tables, s)
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


def _divergence_form_fx_rates(tables, state, iota, beta):
    df, dx = _divergence_form_rhs_fx(tables, state)
    if iota is None:
        return df, dx, None
    divt = div_torsion_of_state(tables, state)
    phi3 = phi_of_state(tables, state, check=False)
    return df, dx, beta * np.einsum("mlp...,m...,la...->pa...", phi3, divt, iota)


@pytest.mark.parametrize(
    "n,dims,order", [(32, (0, 1), 2), (32, (0, 1), 4), (8, (0, 1, 2), 2)]
)
def test_rhs_fx_matches_divergence_form(tables, n, dims, order):
    g = Grid(length=1.0, n=n, active_dims=dims, stencil_order=order)
    s = random_band_state(g, 0.3, seed=9)
    got = rhs_fx(tables, s)
    ref = _divergence_form_rhs_fx(tables, s)
    for a, b in zip(got, ref):
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))


@pytest.mark.parametrize("track_frame", [False, True])
def test_fx_run_matches_divergence_form_run(tables, monkeypatch, track_frame):
    cfg = FlowConfig(
        grid=Grid(length=1.0, n=16, active_dims=(0, 1)),
        initial=InitialSpec(family="random_band", amplitude=0.3, seed=5),
        dt=2e-4,
        t_end=4e-3,
        scheme="fx",
        cfl_safety=0.9,
        snapshot_every=5,
        diagnostics_every=5,
        track_frame=track_frame,
        constraint_abort_tol=1e-3,
    )
    assert cfg.n_steps == 20
    new = run(cfg, tables).fx
    monkeypatch.setattr(flow, "_fx_rates", _divergence_form_fx_rates)
    ref = run(cfg, tables).fx
    assert not new.events and not ref.events
    assert len(new.states) == len(ref.states) == 5
    for a, b in zip(new.states, ref.states):
        assert np.max(np.abs(a.f - b.f)) <= 1e-12
        assert np.max(np.abs(a.x - b.x)) <= 1e-12
    if track_frame:
        for a, b in zip(new.frames, ref.frames):
            assert np.max(np.abs(a - b)) <= 1e-12
    for a, b in zip(new.records, ref.records):
        assert a["energy"] == pytest.approx(b["energy"], rel=1e-12)


def test_rhs_direct_lies_in_vector_component(tables, grid16, rng):
    # <rhs, h <> phi> = 0 pointwise for symmetric traceless h: the flow
    # moves only within the isometric class
    from g2flow.algebra import diamond, form_inner

    s = random_band_state(grid16, 0.3, seed=5)
    phi = phi_of_state(tables, s)
    rhs = rhs_direct(tables, grid16, phi, metric_tol=None)
    h = rng.standard_normal((7, 7))
    h = h + h.T
    h -= np.trace(h) / 7.0 * np.eye(7)
    hphi = diamond(tables, np.broadcast_to(h[:, :, None, None], (7, 7) + grid16.shape), phi)
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
        got = rhs_direct(tables, g, phi, metric_tol=None)
        df, dx = rhs_fx(tables, s)
        eps = 1e-6
        plus = replace(s, f=s.f + eps * df, x=s.x + eps * dx)
        minus = replace(s, f=s.f - eps * df, x=s.x - eps * dx)
        push = (phi_of_state(tables, plus, check=False) - phi_of_state(tables, minus, check=False)) / (2 * eps)
        errs.append(float(np.max(np.abs(got - push))))
    assert errs[0] / errs[1] >= 3.0


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
        constraint_abort_tol=1e-4,
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
    times = [0.0, 0.1, 0.2, 0.3]
    sups = [1.0, 1.5, 2.5, 3.0]
    out = doubling_monitor(times, sups)
    assert out["doubled"] and out["t_double"] == pytest.approx(0.2)
    assert out["empirical_C"] == pytest.approx(1.0 / 0.2)
    out2 = doubling_monitor(times, [1.0, 1.0, 1.1, 0.9])
    assert not out2["doubled"]
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
    recs = traj.records
    out3 = doubling_monitor([r["t"] for r in recs], [r["sup_T"] for r in recs])
    assert not out3["doubled"]
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
        constraint_abort_tol=1e-3,
    )
    traj = run(cfg, tables).fx
    assert any(ev["type"] == "singularity_suspected" for ev in traj.events)


def test_direct_blow_up_event(tables, grid16):
    from g2flow.flow import _run_direct
    from g2flow.states import phi_of_state, single_mode_state

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
    phi0 = 1e40 * phi_of_state(tables, single_mode_state(grid16, 0.1))
    with np.errstate(over="ignore", invalid="ignore"):
        traj = _run_direct(tables, cfg, phi0)
    assert traj.events and traj.events[0]["type"] == "blow_up"
    assert traj.events[0]["t"] == 0.0


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
    save_checkpoint(path, grid16, f, x)
    cfg = FlowConfig(
        grid=grid16,
        initial=InitialSpec(family="checkpoint", checkpoint=str(path)),
        dt=2e-4,
        t_end=1e-3,
        scheme="fx",
        cfl_safety=0.9,
        chart_positive=True,
        constraint_abort_tol=1e-2,
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
