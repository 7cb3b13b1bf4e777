"""Verification suites behind the `verify` subcommand.

Each suite returns rows (check name, measured value, threshold, pass).
Refinement checks report the factor by which a residual shrinks when grid
spacing and time step are halved; identities verified this way must shrink
by at least 3x, while negative controls (wrong connection parameter,
dropped term, non-torsion input) must not.
"""

from __future__ import annotations

import numpy as np

from .algebra import (
    build_standard_tables,
    cross,
    dense_from_sorted,
    hodge_star_3,
    hodge_star_4,
    validate_tables,
)
from .connection import (
    D_derivative,
    bianchi_residual,
    first_variation_residual,
    identity_frame,
    laplacian_D,
    lie_decomposition_residual,
    reaction_diffusion_residual,
    second_variation_pointwise_defect,
    torsion_evolution_residual,
)
from .diagnostics import sup_norm
from .flow import FlowConfig, InitialSpec, run
from .grid import Grid, partial
from .states import phi_of_state, random_band_state, torsion_of_state


def _ratio(coarse: float, fine: float) -> float:
    return coarse / max(fine, 1e-300)


def residual_trajectory(n: int, dt: float, steps: int, amplitude: float = 0.3, seed: int = 7):
    """Short, densely-snapshotted run used by the refinement studies."""
    grid = Grid(length=1.0, n=n, active_dims=(0, 1), stencil_order=2)
    config = FlowConfig(
        grid=grid,
        initial=InitialSpec(family="random_band", amplitude=amplitude, seed=seed),
        dt=dt,
        t_end=steps * dt,
        integrator="rk4",
        scheme="fx",
        cfl_safety=1.0,
        snapshot_every=1,
        diagnostics_every=max(1, steps),
        track_frame=True,
    )
    traj = run(config).fx
    if traj.events:
        raise RuntimeError(f"verification run hit events: {traj.events}")
    return traj


def _identities_suite() -> list[tuple[str, float, float, bool]]:
    tables = build_standard_tables()
    rows = [(name, float(d), 0.5, d == 0) for name, d in validate_tables(tables)]
    rng = np.random.default_rng(3)
    x, y = rng.standard_normal((2, 7))
    c = cross(tables, x, y)
    anti = float(np.max(np.abs(c + cross(tables, y, x))))
    rows.append(("cross_antisymmetry", anti, 1e-12, anti <= 1e-12))
    orth = abs(float(c @ x)) + abs(float(c @ y))
    rows.append(("cross_orthogonality", orth, 1e-12, orth <= 1e-12))
    alpha = dense_from_sorted(rng.standard_normal(35), 3)
    inv = float(np.max(np.abs(hodge_star_4(hodge_star_3(alpha)) - alpha)))
    rows.append(("hodge_involution", inv, 1e-12, inv <= 1e-12))
    gx = rng.standard_normal((7, 7, 1000))
    tt = rng.standard_normal((7, 7, 1000))
    xx = rng.standard_normal((7, 1000))
    d = float(np.max(np.abs(second_variation_pointwise_defect(tables, gx, tt, xx))))
    scale = float(np.max(np.abs(gx)) ** 2 + np.max(np.abs(tt)) ** 2 * np.max(np.abs(xx)) ** 2)
    rows.append(("second_variation_identity", d / scale, 1e-12, d / scale <= 1e-12))
    return rows


def _evolution_suite() -> list[tuple[str, float, float, bool]]:
    tables = build_standard_tables()
    coarse = residual_trajectory(n=16, dt=2e-4, steps=8)
    fine = residual_trajectory(n=32, dt=1e-4, steps=16)
    rows = []

    r = _ratio(
        sup_norm(torsion_evolution_residual(tables, coarse, index=4), 2),
        sup_norm(torsion_evolution_residual(tables, fine, index=8), 2),
    )
    rows.append(("torsion_evolution_refinement_ratio", r, 3.0, r >= 3.0))
    r = _ratio(
        sup_norm(torsion_evolution_residual(tables, coarse, index=4, include_gradient_term=False), 2),
        sup_norm(torsion_evolution_residual(tables, fine, index=8, include_gradient_term=False), 2),
    )
    rows.append(("torsion_evolution_negative_control", r, 2.0, r < 2.0))

    def bianchi_sup(traj, idx):
        state = traj.states[idx]
        return sup_norm(
            bianchi_residual(
                traj.grid, torsion_of_state(tables, state), phi_of_state(tables, state)
            ),
            3,
        )

    r = _ratio(bianchi_sup(coarse, 4), bianchi_sup(fine, 8))
    rows.append(("bianchi_refinement_ratio", r, 3.0, r >= 3.0))
    rng = np.random.default_rng(11)
    fake = rng.standard_normal((7, 7) + coarse.grid.shape)
    fake_res = sup_norm(
        bianchi_residual(coarse.grid, fake, phi_of_state(tables, coarse.states[4])), 3
    )
    rows.append(("bianchi_negative_control_nonzero", fake_res, 1e-2, fake_res > 1e-2))

    def lie_sup(n):
        grid = Grid(length=1.0, n=n, active_dims=(0, 1))
        state = random_band_state(grid, 0.4, seed=5)
        y = random_band_state(grid, 0.5, seed=9).x
        return sup_norm(lie_decomposition_residual(tables, state, y), 3)

    r = _ratio(lie_sup(16), lie_sup(32))
    rows.append(("lie_decomposition_refinement_ratio", r, 3.0, r >= 3.0))

    def first_var_sup(n):
        grid = Grid(length=1.0, n=n, active_dims=(0, 1))
        state = random_band_state(grid, 0.4, seed=5)
        v = random_band_state(grid, 0.5, seed=13).x
        return sup_norm(first_variation_residual(tables, state, v, eps=1e-3), 2)

    r = _ratio(first_var_sup(16), first_var_sup(32))
    rows.append(("first_variation_refinement_ratio", r, 3.0, r >= 3.0))
    return rows


def _connection_suite() -> list[tuple[str, float, float, bool]]:
    tables = build_standard_tables()
    rows = []

    def compat_sup(n):
        grid = Grid(length=1.0, n=n, active_dims=(0, 1))
        state = random_band_state(grid, 0.4, seed=21)
        torsion = torsion_of_state(tables, state)
        phi3 = phi_of_state(tables, state)
        frame = identity_frame(grid)
        s1 = random_band_state(grid, 0.5, seed=31).x
        s2 = random_band_state(grid, 0.5, seed=32).x
        d1 = D_derivative(grid, frame, torsion, phi3, 0, s1)
        d2 = D_derivative(grid, frame, torsion, phi3, 0, s2)
        lhs = partial(grid, np.einsum("a...,a...->...", s1, s2), 0)
        rhs = np.einsum("a...,a...->...", d1, s2) + np.einsum("a...,a...->...", s1, d2)
        return float(np.max(np.abs(lhs - rhs)))

    r = _ratio(compat_sup(16), compat_sup(32))
    rows.append(("metric_compatibility_refinement_ratio", r, 3.0, r >= 3.0))

    # quadratic-in-alpha coefficient of the connection Laplacian
    grid = Grid(length=1.0, n=16, active_dims=(0, 1))
    state = random_band_state(grid, 0.4, seed=21)
    torsion = torsion_of_state(tables, state)
    phi3 = phi_of_state(tables, state)
    rng = np.random.default_rng(2)
    a2 = rng.standard_normal((7, 7))[..., None, None] * np.ones((7, 7) + grid.shape)
    lap0, lap_half, lap_one = (
        laplacian_D(grid, identity_frame(grid, alpha), torsion, phi3, a2)
        for alpha in (0.0, -0.5, -1.0)
    )
    tsq = np.einsum("km...,km...->...", torsion, torsion)
    ttt = np.einsum("kq...,kp...->qp...", torsion, torsion)
    quad = tsq * a2 - np.einsum("iq...,qp...->ip...", a2, ttt)
    quad_mixed = np.einsum("ip...,pa...->ia...", quad, identity_frame(grid).iota)
    fitted = (lap_one - lap0) - 2.0 * (lap_half - lap0)
    defect = float(np.max(np.abs(fitted + 0.5 * quad_mixed)))
    scale = max(1.0, float(np.max(np.abs(quad_mixed))))
    rows.append(
        ("laplacian_quadratic_alpha_coefficient", defect / scale, 1e-10, defect / scale <= 1e-10)
    )

    coarse = residual_trajectory(n=16, dt=2e-4, steps=8)
    fine = residual_trajectory(n=32, dt=1e-4, steps=16)
    r = _ratio(
        sup_norm(reaction_diffusion_residual(tables, coarse, index=4), 2),
        sup_norm(reaction_diffusion_residual(tables, fine, index=8), 2),
    )
    rows.append(("reaction_diffusion_refinement_ratio", r, 3.0, r >= 3.0))
    r = _ratio(
        sup_norm(reaction_diffusion_residual(tables, coarse, index=4, alpha=0.0), 2),
        sup_norm(reaction_diffusion_residual(tables, fine, index=8, alpha=0.0), 2),
    )
    rows.append(("reaction_diffusion_negative_control", r, 2.0, r < 2.0))
    return rows


def run_suite(suite: str) -> list[tuple[str, float, float, bool]]:
    if suite == "identities":
        return _identities_suite()
    if suite == "evolution":
        return _evolution_suite()
    if suite == "connection":
        return _connection_suite()
    raise ValueError(f"unknown suite {suite!r}")
