"""The (f, X) parametrization: forms, torsion, divergence, metric."""

import math

import numpy as np
import pytest

from g2flow.algebra import antisymmetry_defect, hodge_star_3
from g2flow.grid import Grid, div2, laplacian
from g2flow.states import (
    DegenerateFormError,
    InvalidStateError,
    IsometricState,
    localized_state,
    metric_defect,
    metric_from_phi,
    phi_of_state,
    psi_of_state,
    random_band_state,
    single_mode_state,
    torsion_from_phi,
    torsion_of_state,
)


def reference_state(grid):
    return IsometricState(grid=grid, f=np.ones(grid.shape), x=grid.zeros(1))


def test_reference_state_gives_reference_forms(tables, grid16):
    s = reference_state(grid16)
    phi = phi_of_state(tables, s)
    psi = psi_of_state(tables, s)
    assert np.array_equal(phi, np.broadcast_to(tables.phi.astype(float).reshape(7, 7, 7, 1, 1), phi.shape))
    assert np.array_equal(psi, np.broadcast_to(tables.psi.astype(float).reshape(7, 7, 7, 7, 1, 1), psi.shape))


def test_antipodal_pair_gives_same_structure(tables, grid16):
    s = random_band_state(grid16, 0.5, seed=8)
    s_neg = IsometricState(grid=grid16, f=-s.f, x=-s.x)
    assert np.array_equal(phi_of_state(tables, s), phi_of_state(tables, s_neg))
    assert np.array_equal(psi_of_state(tables, s), psi_of_state(tables, s_neg))
    assert np.array_equal(torsion_of_state(tables, s), torsion_of_state(tables, s_neg))


def test_chart_pole_state_formula(tables, grid16):
    # (f=0, X=e0): phi -> -phi + 2 e^0 ^ (e0 -| phi), expanded by hand
    x = grid16.zeros(1)
    x[0] = 1.0
    s = IsometricState(grid=grid16, f=np.zeros(grid16.shape), x=x)
    got = phi_of_state(tables, s)
    interior = tables.phi[0].astype(float)  # (e0 -| phi)_jk
    wedge = np.zeros((7, 7, 7))
    for i in range(7):
        for j in range(7):
            for k in range(7):
                wedge[i, j, k] = (
                    (i == 0) * interior[j, k]
                    - (j == 0) * interior[i, k]
                    + (k == 0) * interior[i, j]
                )
    expected = -tables.phi.astype(float) + 2.0 * wedge
    assert np.allclose(got, expected.reshape(7, 7, 7, 1, 1))
    # and the 4-form matches the direct Hodge dual
    assert np.allclose(psi_of_state(tables, s), hodge_star_3(got), atol=1e-12)


def test_phi_of_state_rejects_invalid(tables, grid16):
    s = IsometricState(grid=grid16, f=np.full(grid16.shape, 0.9), x=grid16.zeros(1))
    with pytest.raises(InvalidStateError):
        phi_of_state(tables, s)


def test_star_consistency_random_state(tables, grid16):
    s = random_band_state(grid16, 0.6, seed=2)
    phi = phi_of_state(tables, s)
    psi = psi_of_state(tables, s)
    assert np.max(np.abs(hodge_star_3(phi) - psi)) <= 1e-10
    assert antisymmetry_defect(phi, 3) <= 1e-12
    assert antisymmetry_defect(psi, 4) <= 1e-12


def test_metric_identity_for_states(tables, grid16):
    for seed in range(5):
        s = random_band_state(grid16, 0.1 + 0.15 * seed, seed=seed)
        assert metric_defect(tables, grid16, phi_of_state(tables, s)) <= 1e-10


def test_metric_scaling_and_reference(tables, grid16):
    phi = np.broadcast_to(
        tables.phi.astype(float).reshape(7, 7, 7, 1, 1), (7, 7, 7) + grid16.shape
    ).copy()
    g = metric_from_phi(tables, grid16, phi)
    eye = np.eye(7).reshape(7, 7, 1, 1)
    assert np.max(np.abs(g - eye)) <= 1e-13
    g_scaled = metric_from_phi(tables, grid16, (2.0**3) * phi)
    assert np.max(np.abs(g_scaled - 4.0 * eye)) <= 1e-12


def test_metric_rejects_degenerate(tables, grid16):
    with pytest.raises(DegenerateFormError):
        metric_from_phi(tables, grid16, np.zeros((7, 7, 7) + grid16.shape))


def test_torsion_zero_for_constant_states(tables, grid16):
    x = grid16.zeros(1)
    x[4] = 0.3
    f = np.sqrt(1.0 - 0.09) * np.ones(grid16.shape)
    s = IsometricState(grid=grid16, f=f, x=x)
    assert np.all(torsion_of_state(tables, s) == 0.0)
    t_phi = torsion_from_phi(tables, grid16, phi_of_state(tables, s))
    assert np.max(np.abs(t_phi)) <= 1e-14


def test_reference_phi_has_zero_torsion(tables, grid16):
    s = reference_state(grid16)
    assert np.all(torsion_from_phi(tables, grid16, phi_of_state(tables, s)) == 0.0)


def test_torsion_oracle_equivalence_and_order(tables):
    errs = {}
    for n in (16, 32, 64):
        g = Grid(length=1.0, n=n, active_dims=(0, 1))
        s = random_band_state(g, amplitude=0.3, max_mode=1, seed=7)
        t_state = torsion_of_state(tables, s)
        t_phi = torsion_from_phi(tables, g, phi_of_state(tables, s), metric_tol=1e-6)
        errs[n] = float(np.max(np.abs(t_state - t_phi)))
    order1 = math.log2(errs[16] / errs[32])
    order2 = math.log2(errs[32] / errs[64])
    assert 1.6 <= order1 <= 2.4
    assert 1.6 <= order2 <= 2.4


def test_single_mode_torsion_sparsity(tables, grid16):
    # X = a sin(2 pi x_0) e_2: the closed form leaves only T_{0,2} nonzero
    # (the phi-contraction term carries X twice and cancels)
    s = single_mode_state(grid16, 0.3, wave_dim=0, component=2)
    torsion = torsion_of_state(tables, s)
    nonzero = {(p, q) for p in range(7) for q in range(7) if np.max(np.abs(torsion[p, q])) > 0}
    assert nonzero == {(0, 2)}


def test_torsion_oracle_order_4_stencils(tables):
    errs = {}
    for n in (16, 32):
        g = Grid(length=1.0, n=n, active_dims=(0, 1), stencil_order=4)
        s = random_band_state(g, amplitude=0.3, max_mode=1, seed=7)
        t_state = torsion_of_state(tables, s)
        t_phi = torsion_from_phi(tables, g, phi_of_state(tables, s), metric_tol=1e-6)
        errs[n] = float(np.max(np.abs(t_state - t_phi)))
    order = math.log2(errs[16] / errs[32])
    assert 0.8 * 4.0 <= order <= 1.2 * 4.0


def test_gradient_of_phi_reconstructed_from_torsion(tables):
    # d_p phi_ijk = T_pm psi_mijk at stencil accuracy, for the state's own forms
    from g2flow.grid import partial

    errs = []
    for n in (16, 32):
        g = Grid(length=1.0, n=n, active_dims=(0, 1))
        s = random_band_state(g, amplitude=0.3, max_mode=1, seed=7)
        phi = phi_of_state(tables, s)
        psi = psi_of_state(tables, s)
        torsion = torsion_of_state(tables, s)
        worst = 0.0
        for dim in g.active_dims:
            lhs = partial(g, phi, dim)
            rhs = np.einsum("m...,mijk...->ijk...", torsion[dim], psi)
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
        errs.append(worst)
    assert errs[0] / errs[1] >= 3.0


def test_divergence_oracle(tables):
    from g2flow.states import div_torsion_of_state

    errs = []
    for n in (16, 32):
        g = Grid(length=1.0, n=n, active_dims=(0, 1))
        s = random_band_state(g, amplitude=0.3, max_mode=1, seed=11)
        d_state = div_torsion_of_state(tables, s)
        d_oracle = div2(g, torsion_of_state(tables, s))
        errs.append(float(np.max(np.abs(d_state - d_oracle))))
    assert errs[0] / errs[1] >= 3.0


def test_divergence_closed_form_small_amplitude(tables, grid32):
    # X = a sin(2 pi x0) e2, f = sqrt(1-|X|^2): to O(a) the divergence is
    # -2 f Lap X + 2 (Lap f) X - 2 (Lap X x X -contraction) ~ -2 Lap X e2
    from g2flow.states import div_torsion_of_state

    a = 1e-5
    s = single_mode_state(grid32, a, wave_dim=0, component=2)
    got = div_torsion_of_state(tables, s)
    lx = laplacian(grid32, s.x)
    expected = -2.0 * lx  # leading order in a
    assert np.max(np.abs(got - expected)) <= 40.0 * a * a * (2 * np.pi) ** 2


def test_constant_state_divergence_zero(tables, grid16):
    x = grid16.zeros(1)
    x[1] = 0.5
    s = IsometricState(grid=grid16, f=np.sqrt(0.75) * np.ones(grid16.shape), x=x)
    from g2flow.states import div_torsion_of_state

    assert np.all(div_torsion_of_state(tables, s) == 0.0)


def test_bianchi_on_flat_background(tables):
    from g2flow.connection import bianchi_residual

    errs = []
    for n in (16, 32):
        g = Grid(length=1.0, n=n, active_dims=(0, 1))
        s = random_band_state(g, 0.3, max_mode=1, seed=7)
        res = bianchi_residual(
            tables, g, torsion_of_state(tables, s), phi_of_state(tables, s)
        )
        errs.append(float(np.max(np.abs(res))))
    assert errs[0] / errs[1] >= 3.0


def test_torsion_from_phi_rejects_non_isometric(tables, grid16):
    s = random_band_state(grid16, 0.3, seed=1)
    phi = 1.5 * phi_of_state(tables, s)  # conformal scaling breaks isometry
    with pytest.raises(DegenerateFormError):
        torsion_from_phi(tables, grid16, phi, metric_tol=1e-6)


def test_projection_and_defect(grid16, rng):
    f = 1.0 + 0.01 * rng.standard_normal(grid16.shape)
    x = 0.01 * rng.standard_normal((7,) + grid16.shape)
    s = IsometricState(grid=grid16, f=f, x=x)
    assert s.constraint_defect() > 1e-3
    p = s.project()
    assert p.constraint_defect() <= 1e-14


def test_localized_state_profile(grid32):
    s = localized_state(grid32, 0.4, component=3, width=0.2)
    assert s.constraint_defect() <= 1e-12
    mag = np.sqrt(np.sum(s.x**2, axis=0))
    assert mag.max() == pytest.approx(0.4)
    center = grid32.n // 2
    assert mag[center, center] == pytest.approx(0.4)
    assert mag[0, 0] < 0.02
