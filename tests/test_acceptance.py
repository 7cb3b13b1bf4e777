"""Acceptance criteria, one test per criterion, at pinned tolerances.

Each test prints a PASS line with the measured quantities when it succeeds
(visible with `pytest -s` or in captured output), so the suite doubles as
the acceptance report.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from g2flow.algebra import build_standard_tables, validate_tables
from g2flow.connection import (
    bianchi_residual,
    reaction_diffusion_residual,
    second_variation_pointwise_defect,
    torsion_evolution_residual,
)
from g2flow.diagnostics import (
    HeatKernelSpec,
    decay_rate,
    entropy,
    entropy_tables,
    monotonicity_residual,
    sup_norm,
    theta,
)
from g2flow.flow import FlowConfig, InitialSpec, parabolic_rescale, run
from g2flow.grid import Grid
from g2flow.states import (
    metric_defect,
    phi_of_state,
    random_band_state,
    torsion_from_phi,
    torsion_of_state,
)
from g2flow.verify import residual_trajectory

TABLES = build_standard_tables()


def report(line):
    print(line)


def test_criterion_01_identity_suite():
    start = time.time()
    reports = validate_tables(TABLES)
    elapsed = time.time() - start
    assert all(defect == 0 for _, defect in reports)
    # the printed contraction values themselves
    phi, psi = TABLES.phi, TABLES.psi
    d = np.eye(7, dtype=np.int64)
    assert np.array_equal(np.einsum("ijk,ajk->ia", phi, phi), 6 * d)
    assert np.einsum("ijk,ijk->", phi, phi) == 42
    assert np.array_equal(np.einsum("ijk,abjk->iab", phi, psi), -4 * phi)
    assert np.array_equal(np.einsum("ijkl,ajkl->ia", psi, psi), 24 * d)
    assert np.einsum("ijkl,ijkl->", psi, psi) == 168
    gram = np.einsum("aijk,bijk->ab", psi, psi) / 6.0
    assert np.array_equal(np.rint(gram).astype(np.int64), 4 * d)
    assert elapsed < 10.0
    report(
        f"PASS criterion 1: {len(reports)} identities with defect 0 "
        f"(42/6g/-4phi/24g/168/4g verified) in {elapsed:.2f}s"
    )


def test_criterion_02_isometry_of_states():
    grid = Grid(length=1.0, n=32, active_dims=(0, 1))
    worst = 0.0
    for seed in range(100):
        amp = 0.1 + 0.7 * (seed / 99.0)
        state = random_band_state(grid, amplitude=amp, max_mode=2, seed=seed)
        worst = max(worst, metric_defect(phi_of_state(TABLES, state)))
    assert worst <= 1e-10
    report(f"PASS criterion 2: metric identity over 100 random states, worst defect {worst:.2e}")


def test_criterion_03_torsion_oracle_convergence_order():
    start = time.time()
    errs = {}
    for n in (16, 32, 64):
        grid = Grid(length=1.0, n=n, active_dims=(0, 1))
        state = random_band_state(grid, amplitude=0.3, max_mode=1, seed=7)
        t_state = torsion_of_state(state)
        t_phi = torsion_from_phi(grid, phi_of_state(TABLES, state), metric_tol=1e-6)
        errs[n] = float(np.max(np.abs(t_state - t_phi)))
    orders = [math.log2(errs[16] / errs[32]), math.log2(errs[32] / errs[64])]
    elapsed = time.time() - start
    for order in orders:
        assert (1 - 0.2) * 2.0 <= order <= (1 + 0.2) * 2.0
    assert elapsed < 300.0
    report(
        f"PASS criterion 3: oracle convergence orders {orders[0]:.3f}, {orders[1]:.3f} "
        f"(stencil order 2 +/- 20%) in {elapsed:.1f}s"
    )


def test_criterion_04_gradient_flow_law():
    grid = Grid(length=1.0, n=32, active_dims=(0, 1), stencil_order=4)
    cfg = FlowConfig(
        grid=grid,
        initial=InitialSpec(family="single_mode", amplitude=0.1),
        dt=6e-5,
        t_end=6e-3,
        integrator="rk4",
        scheme="fx",
        cfl_safety=0.5,
        diagnostics_every=5,
    )
    traj = run(cfg).fx
    assert not traj.events
    recs = traj.records
    energies = [r["energy"] for r in recs]
    worst_rel = 0.0
    for i in range(1, len(recs) - 1):
        dedt = (recs[i + 1]["energy"] - recs[i - 1]["energy"]) / (
            recs[i + 1]["t"] - recs[i - 1]["t"]
        )
        rel = abs(dedt + recs[i]["div_T_l2"]) / recs[i]["div_T_l2"]
        worst_rel = max(worst_rel, rel)
    assert worst_rel <= 1e-3
    e0 = energies[0]
    assert all(b <= a + 1e-10 * e0 for a, b in zip(energies, energies[1:]))
    report(
        f"PASS criterion 4: |dE/dt + int|DivT|^2| <= {worst_rel:.2e} * int|DivT|^2; "
        f"energy monotone over {len(recs)} samples"
    )


def test_criterion_05_scheme_cross_check():
    def discrepancy(n, dt):
        grid = Grid(length=1.0, n=n, active_dims=(0, 1))
        cfg = FlowConfig(
            grid=grid,
            initial=InitialSpec(family="single_mode", amplitude=0.1),
            dt=dt,
            t_end=0.05,
            scheme="both",
            cfl_safety=0.9,
            diagnostics_every=200,
        )
        res = run(cfg)
        assert not res.fx.events and not res.direct.events
        assert res.fx.times[-1] == pytest.approx(res.direct.times[-1])
        phi_fx = phi_of_state(TABLES, res.fx.states[-1])
        return float(np.max(np.abs(phi_fx - res.direct.phis[-1])))

    err_coarse = discrepancy(16, 2.5e-4)
    err_fine = discrepancy(32, 1.25e-4)
    ratio = err_coarse / err_fine
    assert ratio >= 2.0
    report(
        f"PASS criterion 5: scheme discrepancy {err_coarse:.3e} -> {err_fine:.3e} "
        f"(ratio {ratio:.2f} >= 2 when halving h and dt)"
    )


def test_criterion_06_decay_rate():
    start = time.time()
    grid = Grid(length=1.0, n=32, active_dims=(0, 1))
    cfg = FlowConfig(
        grid=grid,
        initial=InitialSpec(family="single_mode", amplitude=0.1),
        dt=1e-4,
        t_end=0.04,
        scheme="fx",
        cfl_safety=0.9,
        diagnostics_every=10,
    )
    recs = run(cfg).fx.records
    lam = (2.0 * math.pi / grid.length) ** 2
    assert max(r["sup_T"] for r in recs) ** 2 <= lam / 14.0
    out = decay_rate(
        [r["t"] for r in recs],
        [r["div_T_l2"] for r in recs],
        [r["sup_T"] for r in recs],
        grid.length,
    )
    elapsed = time.time() - start
    assert out["hypothesis_ok"]
    assert out["rate"] >= 0.9 * lam / 2.0
    assert elapsed < 300.0
    report(
        f"PASS criterion 6: fitted decay rate {out['rate']:.2f} >= 0.9*Lambda/2 = "
        f"{0.9 * lam / 2:.2f} in {elapsed:.1f}s"
    )


def test_criterion_07_reaction_diffusion_verification():
    coarse = residual_trajectory(16, 2e-4, 8)
    fine = residual_trajectory(32, 1e-4, 16)
    r_coarse = sup_norm(reaction_diffusion_residual(TABLES, coarse, index=4), 2)
    r_fine = sup_norm(reaction_diffusion_residual(TABLES, fine, index=8), 2)
    ratio = r_coarse / r_fine
    assert ratio >= 3.0
    n_coarse = sup_norm(reaction_diffusion_residual(TABLES, coarse, index=4, alpha=0.0), 2)
    n_fine = sup_norm(reaction_diffusion_residual(TABLES, fine, index=8, alpha=0.0), 2)
    neg_ratio = n_coarse / n_fine
    assert neg_ratio < 2.0
    report(
        f"PASS criterion 7: reaction-diffusion residual ratio {ratio:.2f} >= 3; "
        f"alpha=0 control ratio {neg_ratio:.2f} shows no decrease"
    )


def test_criterion_08_evolution_and_bianchi_verification():
    coarse = residual_trajectory(16, 2e-4, 8)
    fine = residual_trajectory(32, 1e-4, 16)
    r_coarse = sup_norm(torsion_evolution_residual(TABLES, coarse, index=4), 2)
    r_fine = sup_norm(torsion_evolution_residual(TABLES, fine, index=8), 2)
    ratio = r_coarse / r_fine
    assert ratio >= 3.0
    a_coarse = sup_norm(
        torsion_evolution_residual(TABLES, coarse, index=4, include_gradient_term=False), 2
    )
    a_fine = sup_norm(
        torsion_evolution_residual(TABLES, fine, index=8, include_gradient_term=False), 2
    )
    neg_ratio = a_coarse / a_fine
    assert neg_ratio < 2.0

    def bianchi_sup(traj, idx):
        state = traj.states[idx]
        return sup_norm(
            bianchi_residual(
                traj.grid, torsion_of_state(state), phi_of_state(TABLES, state)
            ),
            3,
        )

    b_ratio = bianchi_sup(coarse, 4) / bianchi_sup(fine, 8)
    assert b_ratio >= 3.0
    rng = np.random.default_rng(11)
    fake = rng.standard_normal((7, 7) + coarse.grid.shape)
    fake_sup = sup_norm(
        bianchi_residual(coarse.grid, fake, phi_of_state(TABLES, coarse.states[4])), 3
    )
    assert fake_sup > 1.0
    report(
        f"PASS criterion 8: evolution residual ratio {ratio:.2f}, ablation {neg_ratio:.2f}; "
        f"torsion identity ratio {b_ratio:.2f}, random-tensor control {fake_sup:.1f}"
    )


def test_criterion_09_second_variation_identity():
    rng = np.random.default_rng(123)
    n_samples = 10**5
    grad_x = rng.standard_normal((7, 7, n_samples))
    torsion = rng.standard_normal((7, 7, n_samples))
    x = rng.standard_normal((7, n_samples))
    defect = second_variation_pointwise_defect(grad_x, torsion, x)
    scale = (
        np.einsum("kp...,kp...->...", grad_x, grad_x)
        + np.einsum("km...,km...->...", torsion, torsion)
        * np.einsum("l...,l...->...", x, x)
    )
    rel = float(np.max(np.abs(defect) / scale))
    assert rel <= 1e-12
    report(f"PASS criterion 9: second-variation defect <= {rel:.2e} relative on 1e5 samples")


def test_criterion_10_rescaling():
    grid = Grid(length=1.0, n=16, active_dims=(0, 1))
    cfg = FlowConfig(
        grid=grid,
        initial=InitialSpec(family="single_mode", amplitude=0.2),
        dt=2e-4,
        t_end=4e-3,
        scheme="fx",
        cfl_safety=0.9,
        snapshot_every=5,
    )
    base = run(cfg).fx
    resc = parabolic_rescale(base, 2.0)
    big = replace(cfg, grid=replace(grid, length=2.0), dt=4.0 * cfg.dt, t_end=4.0 * cfg.t_end)
    second = run(big).fx
    worst = 0.0
    for a, b in zip(resc.states, second.states):
        worst = max(worst, float(np.max(np.abs(a.f - b.f))), float(np.max(np.abs(a.x - b.x))))
    assert worst <= 1e-10  # scheme-equivalence tolerance; exact for c = 2

    t_orig = torsion_of_state(base.states[0])
    t_resc = torsion_of_state(resc.states[0])
    th1 = theta(base.grid, t_orig, HeatKernelSpec(center=(4, 11), t0=0.01), 0.0)
    th2 = theta(resc.grid, t_resc, HeatKernelSpec(center=(4, 11), t0=0.04), 0.0)
    assert th2 == pytest.approx(th1, rel=1e-6)
    e1 = entropy(entropy_tables(base.grid, 0.01), t_orig)
    e2 = entropy(entropy_tables(resc.grid, 0.04), t_resc)
    assert e2.value == pytest.approx(e1.value, rel=1e-6)
    report(
        f"PASS criterion 10: rescaled trajectory reproduces the flow to {worst:.1e}; "
        f"theta and entropy invariant to 1e-6 relative "
        f"(entropy off by {abs(e2.value - e1.value) / e1.value:.1e})"
    )


def test_criterion_11_monotonicity():
    def study(n, dt, steps):
        grid = Grid(length=1.0, n=n, active_dims=(0, 1))
        cfg = FlowConfig(
            grid=grid,
            initial=InitialSpec(family="localized", amplitude=0.2, width=0.2),
            dt=dt,
            t_end=steps * dt,
            scheme="fx",
            cfl_safety=1.0,
            snapshot_every=1,
            diagnostics_every=steps,
        )
        traj = run(cfg).fx
        assert not traj.events
        spec = HeatKernelSpec(center=(n // 2, n // 2), t0=steps * dt + (1.0 / 8.0) ** 2)
        rows = monotonicity_residual(traj, spec)
        return rows[len(rows) // 2]

    row16 = study(16, 2e-4, 8)
    row32 = study(32, 1e-4, 16)
    ratio = abs(row16["residual"]) / abs(row32["residual"])
    assert ratio >= 3.0
    for row in (row16, row32):
        assert row["dtheta_dt"] <= row["hessian_correction"] + 1e-8
    report(
        f"PASS criterion 11: localized-energy identity residual ratio {ratio:.2f} >= 3; "
        f"d(theta)/dt = {row32['dtheta_dt']:.3f} <= hessian correction "
        f"{row32['hessian_correction']:.2e} + 1e-8"
    )
