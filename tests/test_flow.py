"""Time integration: fixed points, orders, scheme agreement, rescaling."""

import math
import signal
import struct
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conftest import fx_state, reject_call
from g2flow import diagnostics, flow
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
    torsion_rows_of_state,
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


@pytest.mark.parametrize("order, k", [(2, k) for k in range(1, 8)] + [(4, k) for k in range(1, 5)])
def test_flat_state_is_an_exact_fixed_point(order, k):
    # the neighbour sums of f = 1 are exact integers, so Lap f is exactly 0
    n = 4 if order == 2 else 6
    g = Grid(length=1.0, n=n, active_dims=tuple(range(k)), stencil_order=order)
    s = fx_state(g, np.ones(g.shape), g.zeros(1))
    assert np.all(rhs_fx(s) == 0.0)


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


def test_a_state_with_a_transposed_layout_gives_the_same_rates_and_torsion(grid16):
    # the rates and the torsion rows write their stencils into C-ordered buffers,
    # not into buffers laid out like u, which the stencils refuse
    s = random_band_state(grid16, 0.3, seed=3)
    strided = replace(s, u=np.ascontiguousarray(np.swapaxes(s.u, 1, 2)).swapaxes(1, 2))
    assert np.array_equal(strided.u, s.u) and not strided.u.flags.c_contiguous
    assert rhs_fx(strided).tobytes() == rhs_fx(s).tobytes()
    assert torsion_rows_of_state(strided).tobytes() == torsion_rows_of_state(s).tobytes()


def test_small_amplitude_rhs_is_heat_equation(tables, grid32):
    s = single_mode_state(grid32, 1e-4)
    dx = rhs_fx(s)[1:]
    lx = laplacian(grid32, s.x)
    assert np.max(np.abs(dx - lx)) <= 1e-6 * np.max(np.abs(lx))


def _divergence_form_rhs_fx(state):
    # the (f, X) rates written through the torsion divergence:
    # df = (1/2) <X, Div T>, dX = Lap X + (|grad f|^2 + |grad X|^2) X
    grid, f, x = state.grid, state.f, state.x
    df = 0.5 * np.einsum("q...,q...->...", x, div_torsion_of_state(state))
    gf, gx = grad_scalar(grid, f), grad_vector(grid, x)
    grad_sq = np.sum(gf * gf, axis=0) + np.einsum("pq...,pq...->...", gx, gx)
    return df, laplacian(grid, x) + grad_sq * x


def _divergence_form_harmonic_map(grid, u, out, lap, dot, part=None):
    # in the step's lattice time: the rates times grid.laplacian_scale
    out[0], out[1:] = _divergence_form_rhs_fx(fx_state(grid, u[0], u[1:]))
    out *= grid.laplacian_scale


@pytest.mark.parametrize(
    "n,dims,order", [(32, (0, 1), 2), (32, (0, 1), 4), (16, (0, 1, 2), 2)]
)
def test_rhs_fx_matches_divergence_form(n, dims, order):
    # df is the divergence form's to round-off; dX = Lap X - <u, Lap u> X tends
    # to Lap X + |grad u|^2 X at the stencil order, from n to 2n
    errs = []
    for m in (n, 2 * n):
        g = Grid(length=1.0, n=m, active_dims=dims, stencil_order=order)
        s = random_band_state(g, 0.3, seed=9)
        du = rhs_fx(s)
        df, dx = _divergence_form_rhs_fx(s)
        assert np.max(np.abs(du[0] - df)) <= 1e-12 * np.max(np.abs(df))
        errs.append(float(np.max(np.abs(du[1:] - dx))))
    assert errs[0] / errs[1] >= 2.0 ** (0.8 * order)


def test_fx_run_matches_divergence_form_run(monkeypatch):
    # the two runs part at the stencil order: halving h (and quartering dt)
    # shrinks the gap in the states and the energies 4x (>= 3x)
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
            # the divergence form's rates leave the sphere at O(h^2)
            constraint_abort_tol=1e-3,
        )
        new = run(cfg).fx
        with monkeypatch.context() as m:
            m.setattr(flow, "_harmonic_map", _divergence_form_harmonic_map)
            ref = run(cfg).fx
        assert not new.events and not ref.events
        assert len(new.states) == len(ref.states) == 6
        return (
            max(float(np.max(np.abs(a.u - b.u))) for a, b in zip(new.states, ref.states)),
            max(abs(a["energy"] - b["energy"]) / b["energy"] for a, b in zip(new.records, ref.records)),
        )

    coarse, fine = gaps(16, 2e-4, 2), gaps(32, 5e-5, 8)
    assert coarse[0] / fine[0] >= 3.0
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


def _pair_form_step_fx(grid, f, x, dt, integrator, project):
    # the stepper with f and X held apart: flow._rk's sums, in its order, on
    # each of f and X, in the lattice time of flow._harmonic_map; then the
    # pre-projection defect and, with ``project``, the projection of each
    lap, dot = np.empty((8,) + grid.shape), np.empty(grid.shape)

    def rates(y):
        du = np.empty((8,) + grid.shape)
        flow._harmonic_map(grid, fx_state(grid, *y).u, du, lap, dot)
        return du[0], du[1:]

    def shift(k, c, y):  # k c + y
        return tuple(a * c + b for a, b in zip(k, y))

    h, y = dt / grid.laplacian_scale, (f, x)
    k1 = rates(y)
    if integrator == "euler":
        f1, x1 = shift(k1, h, y)
    else:
        k2 = rates(shift(k1, 0.5 * h, y))
        k3 = rates(shift(k2, 0.5 * h, y))
        acc = tuple(b * 2 + a for a, b in zip(k1, k2))
        k4 = rates(shift(k3, h, y))
        acc = tuple(a + c * 2 for a, c in zip(acc, k3))
        f1, x1 = shift(tuple(a + d for a, d in zip(acc, k4)), h / 6.0, y)
    norm_sq = f1 * f1  # then X_0^2 through X_6^2, in that order
    for xm in x1:
        norm_sq = norm_sq + xm * xm
    norm = np.sqrt(norm_sq) if project else 1.0
    return f1 / norm, x1 / norm, float(np.max(np.abs(norm_sq - 1.0)))


@pytest.mark.parametrize("n,order,exact", [(16, 2, True), (24, 2, False), (16, 4, False)])
def test_the_lattice_time_step_is_the_du_dt_step(tables, n, order, exact):
    # RK4 on rhs_fx's du/dt with the step dt gives step_fx's bytes where h^2 is a
    # power of two, since s = laplacian_scale then scales every product exactly;
    # elsewhere they part at round-off
    grid = Grid(length=1.0, n=n, active_dims=(0, 1), stencil_order=order)
    state = random_band_state(grid, 0.3, seed=6)
    dt = 0.2 * grid.h * grid.h / (2 * grid.k)
    want = flow._rk(lambda y, out: rhs_fx(replace(state, u=y), out), state.u, dt, "rk4")
    got = step_fx(tables, state, dt, project=False)[0].u
    assert np.array_equal(got, want) if exact else np.max(np.abs(got - want)) <= 4e-16


@pytest.mark.parametrize("integrator", ["euler", "rk4"])
@pytest.mark.parametrize("project", [False, True])
@pytest.mark.parametrize("n,dims,order", [(16, (0, 1), 2), (8, (0, 1, 2), 4)])
def test_step_fx_matches_pair_form_stepper(tables, integrator, project, n, dims, order):
    grid = Grid(length=1.0, n=n, active_dims=dims, stencil_order=order)
    state = random_band_state(grid, 0.3, seed=6)
    f, x = state.f, state.x
    dt = 0.2 * grid.h * grid.h / (2 * grid.k)
    for _ in range(2):  # without the projection the second step starts off the sphere
        state, none, defect = step_fx(tables, state, dt, integrator, project=project)
        f, x, ref_defect = _pair_form_step_fx(grid, f, x, dt, integrator, project)
        assert np.array_equal(state.f, f) and np.array_equal(state.x, x)
        assert defect == ref_defect and none is None


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


def test_run_zero_torsion_stationary(grid16):
    cfg = FlowConfig(
        grid=grid16,
        initial=InitialSpec(family="single_mode", amplitude=0.0),
        dt=2e-4,
        t_end=2e-3,
        scheme="fx",
    )
    traj = run(cfg).fx
    assert all(rec["energy"] == 0.0 for rec in traj.records)
    assert all(rec["sup_T"] == 0.0 for rec in traj.records)


def test_energy_monotone_along_run(grid32):
    cfg = FlowConfig(
        grid=grid32,
        initial=InitialSpec(family="random_band", amplitude=0.2, seed=6),
        dt=1e-4,
        t_end=5e-3,
        scheme="fx",
        cfl_safety=0.9,
        diagnostics_every=5,
    )
    traj = run(cfg).fx
    assert not traj.events
    energies = [rec["energy"] for rec in traj.records]
    e0 = energies[0]
    assert all(b <= a + 1e-10 * e0 for a, b in zip(energies, energies[1:]))


def test_gradient_law_along_run(grid32):
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
    traj = run(cfg).fx
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
        res = run(cfg)
        assert not res.fx.events and not res.direct.events
        phi_fx = phi_of_state(tables, res.fx.states[-1])
        return float(np.max(np.abs(phi_fx - res.direct.phis[-1])))

    e_coarse = run_both(16, 2.5e-4)
    e_fine = run_both(32, 1.25e-4)
    assert e_coarse / e_fine >= 2.0


def test_parabolic_rescale_identity_and_torsion_scaling(grid32):
    cfg = FlowConfig(
        grid=grid32,
        initial=InitialSpec(family="single_mode", amplitude=0.2),
        dt=1e-4,
        t_end=1e-3,
        scheme="fx",
        snapshot_every=1,
        cfl_safety=0.9,
    )
    traj = run(cfg).fx
    same = parabolic_rescale(traj, 1.0)
    assert same.grid == traj.grid
    assert np.array_equal(same.states[0].x, traj.states[0].x)

    resc = parabolic_rescale(traj, 2.0)
    assert resc.grid.length == pytest.approx(2.0)
    assert resc.times[-1] == pytest.approx(4.0 * traj.times[-1])
    t_orig = torsion_of_state(traj.states[0])
    t_resc = torsion_of_state(resc.states[0])
    assert np.max(np.abs(t_resc - 0.5 * t_orig)) == 0.0
    # gradient of torsion scales by 1/c^2
    from g2flow.grid import partial

    g1 = partial(traj.grid, t_orig, 0)
    g2 = partial(resc.grid, t_resc, 0)
    assert np.max(np.abs(g2 - 0.25 * g1)) <= 1e-14 * np.max(np.abs(g1))


def test_rescaled_trajectory_solves_rescaled_flow():
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
    base = run(cfg).fx
    resc = parabolic_rescale(base, 2.0)
    big = replace(cfg, grid=replace(g, length=2.0), dt=4.0 * cfg.dt, t_end=4.0 * cfg.t_end)
    second = run(big).fx
    assert np.allclose(resc.times, second.times)
    for a, b in zip(resc.states, second.states):
        assert np.array_equal(a.f, b.f)
        assert np.array_equal(a.x, b.x)


def test_doubling_monitor_reports(grid16):
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
    traj = run(cfg).fx
    assert not any(ev["type"] == "doubling_time" for ev in traj.events)


def test_constraint_abort_event():
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
    traj = run(cfg).fx
    assert any(ev["type"] == "constraint_abort" for ev in traj.events)


def test_singularity_ceiling_event(grid16):
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
    traj = run(cfg).fx
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
    got = run(cfg).direct
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
    traj = run(cfg).direct
    assert len(traj.records) == 2
    for rec in traj.records:
        assert rec["theta"][0][0] == [8, 8]
        assert rec["entropy_estimate"] > 0.0
    assert [ev["type"] for ev in traj.events] == ["singularity_suspected"]
    # the step-2 record trips the ceiling and carries its event
    assert traj.records[-1]["t"] == 2 * cfg.dt and traj.records[-1]["events"] == traj.events
    # the run stops at its step-2 record and keeps that state as a snapshot
    assert traj.times == [0.0, 2 * cfg.dt]
    phi0 = phi_of_state(tables, single_mode_state(grid16, 0.2).project())
    stepped = step_direct(tables, grid16, step_direct(tables, grid16, phi0, cfg.dt), cfg.dt)
    assert np.array_equal(traj.phis[-1], stepped)


def test_fx_run_evaluates_torsion_once_per_record(grid16, monkeypatch):
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
    traj = run(cfg).fx
    assert len(traj.records) == 3
    assert len(calls) == 3


def test_direct_run_measures_metric_once_per_state(grid16, monkeypatch):
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
    traj = run(cfg).direct
    # records at steps 0, 6, 12 and checks at steps 0, 4, 8; the step-0
    # record and the step-0 check share one evaluation
    assert len(traj.records) == 3
    assert len(calls) == 5


def test_snapshot_cadence(grid16):
    cfg = FlowConfig(
        grid=grid16,
        initial=InitialSpec(family="single_mode", amplitude=0.1),
        dt=2e-4,
        t_end=2e-3,
        scheme="fx",
        snapshot_every=2,
        cfl_safety=0.9,
    )
    traj = run(cfg).fx
    assert len(traj.states) == 6  # steps 0,2,4,6,8,10
    assert traj.times == sorted(traj.times)
    assert all(b > a for a, b in zip(traj.times, traj.times[1:]))


def _stop_config(grid, scheme, **overrides):
    cfg = FlowConfig(
        grid=grid,
        initial=InitialSpec(family="single_mode", amplitude=0.2),
        dt=2e-4,
        t_end=2e-3,
        scheme=scheme,
        cfl_safety=0.9,
    )
    return replace(cfg, **overrides)


def _stepped_twice(tables, cfg):
    """The last kept field of a run stopped after two steps: the state u, or
    the direct route's sorted 3-form."""
    state = flow.initial_state(cfg).project()
    if cfg.scheme == "fx":
        for _ in range(2):
            state, _, _ = step_fx(tables, state, cfg.dt, cfg.integrator)
        return state.u
    phi = phi_of_state(tables, state)
    for _ in range(2):
        phi = step_direct(tables, cfg.grid, phi, cfg.dt, cfg.integrator)
    return sorted_components(phi, 3)


def _last_kept(traj):
    return traj.states[-1].u if traj.scheme == "fx" else traj.sorted_phis[-1]


@pytest.mark.parametrize("scheme", ["fx", "direct"])
@pytest.mark.parametrize(
    "stop", [dict(snapshot_every=2), dict(t_end=4e-4)], ids=["snapshot-step", "last-step"]
)
def test_a_ceiling_stop_keeps_the_state_that_tripped_it(tables, grid16, scheme, stop):
    # the step-2 record trips the ceiling on a snapshot step, or on the last step
    cfg = _stop_config(grid16, scheme, diagnostics_every=2, torsion_ceiling=1e-6, **stop)
    traj = getattr(run(cfg), scheme)
    assert [ev["type"] for ev in traj.events] == ["singularity_suspected"]
    assert traj.events[0]["t"] == traj.records[-1]["t"] == 2 * cfg.dt
    assert traj.times == [0.0, 2 * cfg.dt]
    assert np.array_equal(_last_kept(traj), _stepped_twice(tables, cfg))


def _spoil_u(value, at=(3, 5, 7)):
    """Set one value of the integrator's stepped u to ``value``."""

    def spoil(out):
        out[at] = value
        return out

    return spoil


def _two_parts(monkeypatch):
    """Make every frame-less fx run step in two parts, on two usable CPUs."""
    monkeypatch.setattr(flow, "PARALLEL_MIN_POINTS", 0)
    monkeypatch.setattr(flow.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


SPOILS = (np.nan, np.inf, -np.inf, 1e200)


@pytest.mark.parametrize("snapshot_every", [0, 2])
@pytest.mark.parametrize(
    "scheme, name, spoil, kind, parts",
    [
        ("fx", "step_fx", lambda out: (*out[:2], 1.0), "constraint_abort", 1),
        # step_fx reads these from the ends of its f^2 + |X|^2, as it reads a
        # finite u whose square overflows
        *[("fx", "_rk", _spoil_u(v), "blow_up", 1) for v in SPOILS],
        ("direct", "_step_direct_sorted", lambda s3: np.full_like(s3, np.nan), "blow_up", 1),
        # in two parts, at a component and a grid point (199 of 256) of the worker's
        # part, whose defect the caller combines with its own
        *[("fx", "_rk", _spoil_u(v, (5, 12, 7)), "blow_up", 2) for v in SPOILS],
    ],
    ids=[
        "fx", "fx-nan", "fx-inf", "fx-minus-inf", "fx-overflowing-square", "direct",
        "fx-two-parts-nan", "fx-two-parts-inf", "fx-two-parts-minus-inf",
        "fx-two-parts-overflowing-square",
    ],
)
def test_a_rejected_step_ends_on_the_last_good_state(
    tables, grid16, monkeypatch, snapshot_every, scheme, name, spoil, kind, parts
):
    # the third step is rejected; with snapshot_every 2 the last good state
    # is its step's snapshot already, and is kept once
    if parts == 2:
        _two_parts(monkeypatch)
    reject_call(monkeypatch, name, 3, spoil, worker=parts == 2)
    cfg = _stop_config(grid16, scheme, snapshot_every=snapshot_every)
    with np.errstate(over="ignore", invalid="ignore"):
        traj = getattr(run(cfg), scheme)
    assert traj.parts == parts
    assert [ev["type"] for ev in traj.events] == [kind]
    assert traj.events[0]["t"] == 2 * cfg.dt
    assert traj.records[-1] == {"t": 2 * cfg.dt, "events": traj.events}
    assert traj.times == [0.0, 2 * cfg.dt]
    assert np.array_equal(_last_kept(traj), _stepped_twice(tables, cfg))


@pytest.mark.parametrize("scheme", ["fx", "direct"])
@pytest.mark.parametrize("ceiling", [1e300, 1e-6], ids=["no-stop", "ceiling-stop"])
def test_every_stamped_event_reaches_a_record(grid16, monkeypatch, scheme, ceiling):
    # records after t = 0 read sup|T| three times over, so the step-2 record
    # doubles it; its doubling_time used to reach no record, nor did the ceiling's event,
    # and a record carries the events its own sup|T| trips
    real = diagnostics.record_for_torsion

    def tripled(grid, rows, t, *args, **kwargs):
        rec = real(grid, rows, t, *args, **kwargs)
        if t > 0:
            rec["sup_T"] *= 3.0
        return rec

    monkeypatch.setattr(diagnostics, "record_for_torsion", tripled)
    cfg = _stop_config(grid16, scheme, diagnostics_every=2, t_end=8e-4, torsion_ceiling=ceiling)
    traj = getattr(run(cfg), scheme)
    carried = [(i, ev) for i, rec in enumerate(traj.records) for ev in rec["events"]]
    sup_t0 = traj.records[0]["sup_T"]
    for i, ev in carried:  # each event's number, from the record that tripped it
        if ev["type"] == "doubling_time":
            assert ev["empirical_C"] == 1.0 / (ev["t"] * sup_t0 * sup_t0)
        else:
            assert ev["sup_T"] == traj.records[i]["sup_T"]
    assert all("energy" in rec for rec in traj.records)  # no ending record of events alone
    if ceiling > 1:
        assert [(i, ev["type"], ev["t"]) for i, ev in carried] == [(1, "doubling_time", 2 * cfg.dt)]
        assert [rec["t"] for rec in traj.records] == [0.0, 2 * cfg.dt, 4 * cfg.dt]
    else:  # the step-2 record carries both events and ends the run
        assert [(i, ev["type"]) for i, ev in carried] == [(1, "doubling_time"), (1, "singularity_suspected")]
        assert [rec["t"] for rec in traj.records] == [0.0, 2 * cfg.dt]
        assert all(ev["t"] == 2 * cfg.dt for ev in traj.events)


@pytest.mark.parametrize(
    "n,dims,order,integrator",
    [
        (128, (0, 1), 2, "rk4"),
        (128, (0, 1), 4, "rk4"),
        (32, (0, 1, 2), 2, "rk4"),
        (30, (0, 1), 2, "euler"),
    ],
)
def test_two_part_steps_give_the_one_part_bytes(tables, n, dims, order, integrator):
    grid = Grid(length=1.0, n=n, active_dims=dims, stencil_order=order)
    one = two = (random_band_state(grid, 0.3, seed=8), None, None)
    dt = 0.2 * grid.h * grid.h / (2 * grid.k)
    with flow._FxWorkspace(grid, parts=2) as work:
        for _ in range(3):
            one = step_fx(tables, one[0], dt, integrator)
            two = step_fx(tables, two[0], dt, integrator, work=work)
            assert two[0].u.tobytes() == one[0].u.tobytes()
            assert struct.pack("<d", two[2]) == struct.pack("<d", one[2])


@pytest.mark.parametrize(
    "overrides, kinds",
    [
        ({}, []),
        (dict(constraint_abort_tol=0.0), ["constraint_abort"]),
        (dict(torsion_ceiling=1e-6, diagnostics_every=2), ["singularity_suspected"]),
    ],
    ids=["finished", "constraint-abort", "ceiling"],
)
def test_a_two_part_run_joins_its_one_daemon_worker(grid16, monkeypatch, overrides, kinds):
    cfg = _stop_config(grid16, "fx", snapshot_every=3, **overrides)
    want = run(cfg).fx
    _two_parts(monkeypatch)
    real, seen = flow._rk, set()

    def recording(*args, **kwargs):
        seen.add(threading.current_thread())
        return real(*args, **kwargs)

    monkeypatch.setattr(flow, "_rk", recording)
    before = threading.active_count()
    got = run(cfg).fx
    assert threading.active_count() == before
    (worker,) = seen - {threading.main_thread()}
    assert worker.daemon and not worker.is_alive()
    assert (want.parts, got.parts) == (1, 2)
    assert [ev["type"] for ev in got.events] == kinds
    assert got.records == want.records and got.times == want.times
    assert [s.u.tobytes() for s in got.states] == [s.u.tobytes() for s in want.states]


@pytest.mark.parametrize("in_worker", [False, True], ids=["caller", "worker"])
def test_an_exception_in_either_part_reaches_the_caller(grid16, monkeypatch, in_worker):
    _two_parts(monkeypatch)
    real = flow.laplacian

    def failing(*args, **kwargs):
        if (threading.current_thread() is not threading.main_thread()) == in_worker:
            raise RuntimeError("a part failed")
        return real(*args, **kwargs)

    monkeypatch.setattr(flow, "laplacian", failing)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="a part failed"):
        run(_stop_config(grid16, "fx"))
    assert threading.active_count() == before


def test_the_worker_takes_the_callers_floating_point_handling(tables):
    # a step moves u by at most four rows, so |u|^2 underflows to 0 in the
    # middle of rows 16-31, grid points of the worker's part alone, and only
    # its projection divides by zero
    grid = Grid(length=1.0, n=32)
    state = random_band_state(grid, 0.3, seed=5)
    state.u[:, 16:] *= 1e-200
    with flow._FxWorkspace(grid, parts=2) as work, np.errstate(divide="raise", under="ignore"):
        for step_work in (None, work):
            with pytest.raises(FloatingPointError, match="divide by zero"):
                step_fx(tables, state, 1e-4, work=step_work)


def test_a_two_part_step_under_a_timer_signal_gives_the_same_bytes(tables):
    # a benchmark's speed sampler runs its handler in the main thread every 10 ms;
    # here every 1 ms, while the caller waits at the barrier or steps its part
    grid = Grid(length=1.0, n=32)
    state = random_band_state(grid, 0.3, seed=5)
    dt = 0.2 * grid.h * grid.h / (2 * grid.k)
    want = step_fx(tables, state, dt)
    ticks = []
    previous = signal.signal(signal.SIGALRM, lambda signum, frame: ticks.append(signum))
    signal.setitimer(signal.ITIMER_REAL, 1e-3, 1e-3)
    try:
        with flow._FxWorkspace(grid, parts=2) as work:
            got = [step_fx(tables, state, dt, work=work) for _ in range(40)]
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, previous)
    assert ticks
    assert all(new.u.tobytes() == want[0].u.tobytes() and defect == want[2] for new, _, defect in got)


def test_two_part_steps_under_contention_give_the_one_part_bytes(tables):
    # two callers, each stepping with its own two-part workspace: four threads on
    # at most two cores, switching every microsecond
    grid = Grid(length=1.0, n=32)
    state = random_band_state(grid, 0.3, seed=7)
    dt = 0.2 * grid.h * grid.h / (2 * grid.k)
    want = state
    for _ in range(20):
        want = step_fx(tables, want, dt)[0]
    got = [None, None]

    def caller(i):
        with flow._FxWorkspace(grid, parts=2) as work:
            new = state
            for _ in range(20):
                new = step_fx(tables, new, dt, work=work)[0]
        got[i] = new.u.tobytes()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=caller, args=(i,)) for i in range(2)]
        for thread in callers:
            thread.start()
        for thread in callers:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in callers)
    assert got == [want.u.tobytes()] * 2


def test_the_run_takes_two_parts_on_large_frameless_grids_with_two_cpus(monkeypatch):
    # two parts lose at 96^2 and win at 128^2
    assert 96 * 96 < flow.PARALLEL_MIN_POINTS <= 128 * 128
    monkeypatch.setattr(flow, "PARALLEL_MIN_POINTS", 16 * 16)

    def parts(n, cpus, **overrides):
        monkeypatch.setattr(flow.os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        return run(_stop_config(Grid(length=1.0, n=n), "fx", t_end=2e-4, **overrides)).fx.parts

    assert [parts(16, 2), parts(14, 2), parts(16, 1)] == [2, 1, 1]
    monkeypatch.delattr(flow.os, "sched_getaffinity")  # where there is no affinity call
    monkeypatch.setattr(flow.os, "cpu_count", lambda: 2)
    assert run(_stop_config(Grid(length=1.0, n=16), "fx", t_end=2e-4)).fx.parts == 2


def test_step_fx_refuses_a_workspace_that_does_not_fit(tables, grid16):
    state = random_band_state(grid16, 0.3, seed=1)
    for grid in (Grid(length=1.0, n=32), replace(grid16, length=2.0)):
        with pytest.raises(ValueError, match="workspace"):
            step_fx(tables, state, 1e-4, work=flow._FxWorkspace(grid))


@pytest.mark.parametrize("integrator", ["euler", "rk4"])
def test_steppers_leave_their_inputs_unmodified(tables, grid16, integrator):
    state = random_band_state(grid16, 0.4, seed=9)
    kept = state.u.copy()
    new, _, _ = step_fx(tables, state, 1e-4, integrator)
    assert state.u.tobytes() == kept.tobytes()
    assert not np.shares_memory(new.u, state.u)
    phi = phi_of_state(tables, state)
    phi_kept = phi.copy()
    stepped = step_direct(tables, grid16, phi, 1e-4, integrator)
    assert phi.tobytes() == phi_kept.tobytes()
    assert not np.array_equal(stepped, phi)


def _poisoned_workspace(grid):
    # every buffer starts as NaN, so a read before a write shows in the result;
    # the rate buffers are the Laplacian's scratch too
    work = flow._FxWorkspace(grid)
    for b in (work.lap, work.dot, *work.rk):
        b.fill(np.nan)
    return work


@pytest.mark.parametrize("integrator,project", [("rk4", False), ("rk4", True), ("euler", False)])
def test_steps_reusing_one_workspace_equal_steps_with_fresh_ones(tables, integrator, project):
    grid = Grid(length=1.0, n=16, active_dims=(0, 1))
    state = random_band_state(grid, 0.3, seed=4)
    dt = 0.2 * grid.h * grid.h / (2 * grid.k)
    work = _poisoned_workspace(grid)
    kept = fresh = (state, None, None)
    for _ in range(3):
        kept = step_fx(tables, kept[0], dt, integrator, project, work=work)
        fresh = step_fx(tables, fresh[0], dt, integrator, project, work=_poisoned_workspace(grid))
        assert kept[0].u.tobytes() == fresh[0].u.tobytes()
        assert kept[2] == fresh[2]
    # and a step that makes its own workspace, as the probe call does
    assert step_fx(tables, state, dt, integrator, project)[0].u.tobytes() == step_fx(
        tables, state, dt, integrator, project, work=_poisoned_workspace(grid)
    )[0].u.tobytes()


@pytest.mark.parametrize(
    "grid, bound",
    [
        (Grid(length=1.0, n=64), 1.6),
        (Grid(length=1.0, n=16, active_dims=(0, 1, 2)), 1.6),
        (Grid(length=1.0, n=128), 1.2),
    ],
    ids=["64^2", "16^3", "128^2"],
)
def test_step_with_a_kept_workspace_allocates_little(tables, grid, bound):
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
    # the result, projected in place, and the grid scalar f^2 + |X|^2, whose
    # ends give the drift: about 1.13 u at 128^2.  At 64^2 and 16^3 a temporary
    # of fixed size sets the peak, about 1.38 u (a step allocating fresh stage
    # arrays peaks near 8.9 u)
    assert peak <= bound * state.u.nbytes


def test_rhs_fx_allocates_only_what_it_reads():
    grid = Grid(length=1.0, n=128)
    state = random_band_state(grid, 0.3, seed=2)
    rhs_fx(state)  # warm
    tracemalloc.start()
    try:
        rhs_fx(state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the rates, one Laplacian buffer and the grid scalar <u, Lap u>: about
    # 2.15 u (a whole fx workspace made it 5.15 u)
    assert peak <= 2.5 * state.u.nbytes
