"""Exact solutions of the fx route: a decaying great circle and a stationary winding.

On the flat torus the (f, X) system is the harmonic-map heat flow of
u = (f, X) into S^7.  A great circle of S^7 is totally geodesic, so
u = (cos theta, sin theta e_c) stays on it and theta solves the heat
equation: theta = a e^(-4 pi^2 t / L^2) sin(2 pi x_0 / L) is exact, with
|T|^2 = 4 |grad theta|^2 and E(t) = 4 pi^2 a^2 L^5 e^(-8 pi^2 t / L^2).  The
geodesic winding u = (cos 2 pi x_0 / L, sin 2 pi x_0 / L e_0) is a harmonic
map, so a fixed point; discretely Lap u = -lambda_h u, so the tangent rates
vanish on it to round-off.  Both states are built here; no config names them.
"""

import math

import numpy as np
import pytest

from g2flow import flow
from g2flow.diagnostics import energy
from g2flow.flow import step_fx
from g2flow.grid import Grid, laplacian
from g2flow.states import IsometricState, torsion_rows_of_state

AMPLITUDE, T_END, GRIDS = 0.4, 2e-3, (16, 32, 64)


def great_circle(grid, t):
    length = grid.length
    decay = AMPLITUDE * math.exp(-4.0 * math.pi**2 * t / length**2)
    theta = decay * np.sin(2.0 * math.pi * grid.coordinate(0) / length)
    u = np.zeros((8,) + grid.shape)
    u[0], u[3] = np.cos(theta), np.sin(theta)  # the circle through e_2
    return IsometricState(grid=grid, u=u)


def great_circle_energy(grid, t):
    length = grid.length
    return 4.0 * math.pi**2 * AMPLITUDE**2 * length**5 * math.exp(-8.0 * math.pi**2 * t / length**2)


def winding(grid):
    angle = 2.0 * math.pi * grid.coordinate(0) / grid.length
    u = np.zeros((8,) + grid.shape)
    u[0], u[1] = np.cos(angle), np.sin(angle)
    return IsometricState(grid=grid, u=u)


def cfl_dt(grid):
    return 0.25 * grid.h * grid.h / (2 * grid.k)


def evolve(tables, state, dt, steps, project=True):
    """RK4 steps on one workspace; returns the state and the largest drift."""
    work = flow._FxWorkspace(state.grid)
    drift = 0.0
    for _ in range(steps):
        state, _, defect = step_fx(tables, state, dt, project=project, work=work)
        drift = max(drift, defect)
    return state, drift


def great_circle_errors(tables, order, project=True):
    """Sup errors of u and relative errors of the energy at T_END, on GRIDS."""
    errs, energy_errs = [], []
    for n in GRIDS:
        grid = Grid(length=1.0, n=n, active_dims=(0, 1), stencil_order=order)
        steps = math.ceil(T_END / cfl_dt(grid))
        state, _ = evolve(tables, great_circle(grid, 0.0), T_END / steps, steps, project)
        errs.append(float(np.max(np.abs(state.u - great_circle(grid, T_END).u))))
        exact = great_circle_energy(grid, T_END)
        energy_errs.append(abs(energy(grid, torsion_rows_of_state(state)) - exact) / exact)
    return errs, energy_errs


def orders(errs):
    return [math.log2(a / b) for a, b in zip(errs, errs[1:])]


def within_band(errs, order):
    """Criterion 3's band: each observed order within 20 % of the stencil's."""
    return all(0.8 * order <= q <= 1.2 * order for q in orders(errs))


@pytest.mark.parametrize("order", [2, 4])
def test_great_circle_converges_at_the_stencil_order(tables, order):
    errs, energy_errs = great_circle_errors(tables, order)
    assert within_band(errs, order), (errs, orders(errs))
    assert within_band(energy_errs, order), (energy_errs, orders(energy_errs))


def test_unprojected_heat_flow_fails_the_order_gate(tables, monkeypatch):
    # du = Lap u drops the <u, Lap u> u term: an inconsistent scheme, whose
    # error does not shrink with h (the Laplacian in lattice units, as the step takes it)
    monkeypatch.setattr(
        flow,
        "_harmonic_map",
        lambda grid, u, out, lap, dot, part: laplacian(grid, u, out, lattice=True),
    )
    errs, _ = great_circle_errors(tables, 2, project=False)
    assert not within_band(errs, 2), (errs, orders(errs))
    assert min(errs) > 1e-3


@pytest.mark.parametrize("n", GRIDS)
def test_winding_is_stationary(tables, n):
    grid = Grid(length=1.0, n=n, active_dims=(0, 1))
    start = winding(grid)
    state, drift = evolve(tables, start, cfl_dt(grid), 100)
    assert np.max(np.abs(state.u - start.u)) <= 1e-10
    assert drift <= 1e-14
