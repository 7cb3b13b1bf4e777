"""Twisted connection, gauge frame, and identity-residual evaluators."""

from dataclasses import replace

import numpy as np
import pytest

from conftest import fx_state
from g2flow import connection
from g2flow.connection import (
    D_derivative,
    bianchi_residual,
    first_variation_residual,
    identity_frame,
    laplacian_D,
    lie_decomposition_residual,
    lie_derivative_phi,
    reaction_diffusion_residual,
    second_variation_pointwise_defect,
    shrinker_soliton_residual,
    soliton_residual,
    torsion_evolution_residual,
    transport_frames,
)
from g2flow.diagnostics import sup_norm
from g2flow.flow import FlowConfig, InitialSpec, run
from g2flow.grid import Grid, grad_vector, laplacian, partial
from g2flow.states import (
    phi_of_state,
    random_band_state,
    torsion_of_state,
)


def residual_run(n, dt, steps, amplitude=0.3, seed=7, snapshot_every=1):
    grid = Grid(length=1.0, n=n, active_dims=(0, 1))
    cfg = FlowConfig(
        grid=grid,
        initial=InitialSpec(family="random_band", amplitude=amplitude, seed=seed),
        dt=dt,
        t_end=steps * dt,
        scheme="fx",
        cfl_safety=1.0,
        snapshot_every=snapshot_every,
        diagnostics_every=steps,
    )
    traj = run(cfg).fx
    assert not traj.events, traj.events
    return traj


def test_D_reduces_to_partial_for_zero_torsion(tables, grid16):
    sigma = random_band_state(grid16, 0.5, seed=2).x
    phi3 = phi_of_state(tables, random_band_state(grid16, 0.4, seed=21))
    out = D_derivative(grid16, grid16.zeros(2), phi3, 0, sigma)
    assert np.allclose(out, partial(grid16, sigma, 0))


def test_D_metric_compatibility_refines(tables):
    def compat(n):
        g = Grid(length=1.0, n=n, active_dims=(0, 1))
        s = random_band_state(g, 0.4, seed=21)
        torsion = torsion_of_state(s)
        phi3 = phi_of_state(tables, s)
        s1 = random_band_state(g, 0.5, seed=31).x
        s2 = random_band_state(g, 0.5, seed=32).x
        d1 = D_derivative(g, torsion, phi3, 0, s1)
        d2 = D_derivative(g, torsion, phi3, 0, s2)
        lhs = partial(g, np.einsum("a...,a...->...", s1, s2), 0)
        rhs = np.einsum("a...,a...->...", d1, s2) + np.einsum("a...,a...->...", s1, d2)
        return float(np.max(np.abs(lhs - rhs)))

    assert compat(16) / compat(32) >= 3.0


def test_alpha_term_cancels_in_compatibility_pointwise(tables, grid16, rng):
    # the twist contribution to d<s1,s2> cancels exactly by antisymmetry:
    # constant sections make the derivative terms vanish identically
    s = random_band_state(grid16, 0.4, seed=21)
    torsion = torsion_of_state(s)
    phi3 = phi_of_state(tables, s)
    c1 = np.broadcast_to(rng.standard_normal(7)[:, None, None], (7,) + grid16.shape).copy()
    c2 = np.broadcast_to(rng.standard_normal(7)[:, None, None], (7,) + grid16.shape).copy()
    d1 = D_derivative(grid16, torsion, phi3, 0, c1)
    d2 = D_derivative(grid16, torsion, phi3, 0, c2)
    pairing = np.einsum("a...,a...->...", d1, c2) + np.einsum("a...,a...->...", c1, d2)
    assert np.max(np.abs(pairing)) <= 1e-12


def connection_coefficients(grid, torsion, phi3, dim, alpha=-0.5):
    """Coefficients G[b, a] = (D_dim e_a)_b on the identity sections e_a of E."""
    return D_derivative(grid, torsion, phi3, dim, identity_frame(grid), alpha)


def pullback_phi_covariant_derivative(grid, torsion, phi3, dim, alpha):
    gam = connection_coefficients(grid, torsion, phi3, dim, alpha)
    out = partial(grid, phi3, dim)
    out -= np.einsum("ea...,ebc...->abc...", gam, phi3)
    out -= np.einsum("eb...,aec...->abc...", gam, phi3)
    out -= np.einsum("ec...,abe...->abc...", gam, phi3)
    return out


def test_one_third_twist_makes_structure_parallel(tables):
    def sup_dphi(n, alpha):
        g = Grid(length=1.0, n=n, active_dims=(0, 1))
        s = random_band_state(g, 0.4, seed=5)
        phi3 = phi_of_state(tables, s)
        torsion = torsion_of_state(s)
        worst = 0.0
        for dim in g.active_dims:
            worst = max(
                worst,
                sup_norm(pullback_phi_covariant_derivative(g, torsion, phi3, dim, alpha), 3),
            )
        return worst

    # alpha = -1/3 parallelizes the pulled-back 3-form at stencil order
    assert sup_dphi(16, -1.0 / 3.0) / sup_dphi(32, -1.0 / 3.0) >= 3.0
    # the flow's own value alpha = -1/2 does not
    assert sup_dphi(32, -0.5) > 10.0 * sup_dphi(32, -1.0 / 3.0)


def test_laplacian_D_alpha_zero_identity_frame(tables, grid16, rng):
    a2 = rng.standard_normal((7, 7, 1, 1)) * np.ones((7, 7) + grid16.shape)
    a2 = a2 * (1.0 + random_band_state(grid16, 0.4, seed=9).x[0])
    s = random_band_state(grid16, 0.3, seed=2)
    out = laplacian_D(
        grid16, identity_frame(grid16), torsion_of_state(s), phi_of_state(tables, s), a2, 0.0
    )
    assert np.allclose(out, laplacian(grid16, a2))


def test_laplacian_D_double_application_oracle(tables):
    def defect(n):
        g = Grid(length=1.0, n=n, active_dims=(0, 1))
        s = random_band_state(g, 0.4, seed=21)
        torsion = torsion_of_state(s)
        phi3 = phi_of_state(tables, s)
        frame = identity_frame(g)
        rng = np.random.default_rng(2)
        a2 = rng.standard_normal((7, 7))[:, :, None, None] * np.ones((7, 7) + g.shape)

        def dk(mixed, dim):
            gam = connection_coefficients(g, torsion, phi3, dim)
            return partial(g, mixed, dim) - np.einsum("ib...,ba...->ia...", mixed, gam)

        mixed = np.einsum("ip...,pa...->ia...", a2, frame)
        composed = sum(dk(dk(mixed, d), d) for d in g.active_dims)
        direct = laplacian_D(g, frame, torsion, phi3, a2)
        return sup_norm(direct - composed, 2)

    assert defect(16) / defect(32) >= 3.0


def test_laplacian_D_quadratic_alpha_coefficient(tables, grid16, rng):
    s = random_band_state(grid16, 0.4, seed=21)
    torsion = torsion_of_state(s)
    phi3 = phi_of_state(tables, s)
    a2 = rng.standard_normal((7, 7))[:, :, None, None] * np.ones((7, 7) + grid16.shape)
    lap0, lap_half, lap_one = (
        laplacian_D(grid16, identity_frame(grid16), torsion, phi3, a2, alpha)
        for alpha in (0.0, -0.5, -1.0)
    )
    tsq = np.einsum("km...,km...->...", torsion, torsion)
    ttt = np.einsum("kq...,kp...->qp...", torsion, torsion)
    quad = tsq * a2 - np.einsum("iq...,qp...->ip...", a2, ttt)
    quad_mixed = np.einsum("ip...,pa...->ia...", quad, identity_frame(grid16))
    fitted = (lap_one - lap0) - 2.0 * (lap_half - lap0)
    assert sup_norm(fitted + 0.5 * quad_mixed, 2) <= 1e-10 * max(1.0, sup_norm(quad_mixed, 2))


def test_transported_frames_stay_orthogonal(tables):
    traj = residual_run(16, 2e-4, 10)
    frames = transport_frames(tables, traj)
    assert len(frames) == len(traj.states) == 11
    eye = np.eye(7)[:, :, None, None]
    gram_defects = [np.max(np.abs(np.einsum("ma...,mb...->ab...", io, io) - eye)) for io in frames]
    assert max(gram_defects) <= 1e-13


def test_transported_frame_is_the_identity_without_divergence(tables, grid16):
    # the reference state has Div T = 0, so d(iota)/dt = beta (Div T) x iota vanishes
    cfg = FlowConfig(
        grid=grid16,
        initial=InitialSpec(amplitude=0.0),
        dt=1e-4,
        t_end=3e-4,
        scheme="fx",
        snapshot_every=1,
    )
    frames = transport_frames(tables, run(cfg).fx)
    assert len(frames) == 4
    for iota in frames:
        assert np.array_equal(iota, identity_frame(grid16))


def test_transported_frame_is_second_order_in_the_snapshot_spacing(tables):
    # against the frame transported over every step; the measured ratios are 4.2 and 5.0
    ref = transport_frames(tables, residual_run(16, 2e-4, 16))[-1]
    errs = [
        float(np.max(np.abs(transport_frames(tables, residual_run(16, 2e-4, 16, snapshot_every=every))[-1] - ref)))
        for every in (8, 4, 2)
    ]
    assert min(np.log2(errs[0] / errs[1]), np.log2(errs[1] / errs[2])) >= 1.8


def test_frame_beta_third_freezes_pullback(tables):
    # with the frame ODE d(iota)/dt = beta (Div T) x iota and this module's
    # sign-validated tables, the pulled-back 3-form is constant for
    # beta = +1/3 (the combined drift rate is (1 - 3 beta) DivT -| psi);
    # the flow's own beta = 1/2 leaves it moving
    traj = residual_run(16, 2e-4, 10, amplitude=0.2, snapshot_every=5)

    def pullback_drift(beta):
        frames = transport_frames(tables, traj, beta=beta)

        def pull(j):
            phi3 = phi_of_state(tables, traj.states[j])
            io = frames[j]
            return np.einsum("ijk...,ia...,jb...,kc...->abc...", phi3, io, io, io)

        return sup_norm(pull(len(traj.states) - 1) - pull(0), 3)

    frozen = pullback_drift(1.0 / 3.0)
    moving = pullback_drift(0.5)
    assert frozen <= moving / 20.0


def test_reaction_diffusion_residual_refines_and_negative_control(tables):
    coarse = residual_run(16, 2e-4, 8)
    fine = residual_run(32, 1e-4, 16)
    r_c = sup_norm(reaction_diffusion_residual(tables, coarse, index=4), 2)
    r_f = sup_norm(reaction_diffusion_residual(tables, fine, index=8), 2)
    assert r_c / r_f >= 3.0
    n_c = sup_norm(reaction_diffusion_residual(tables, coarse, index=4, alpha=0.0), 2)
    n_f = sup_norm(reaction_diffusion_residual(tables, fine, index=8, alpha=0.0), 2)
    assert n_c / n_f < 2.0
    assert n_f > 10.0 * r_f  # the wrong gauge leaves an O(1) defect


def test_reaction_diffusion_requires_three_snapshots(tables, grid16):
    cfg = FlowConfig(
        grid=grid16,
        initial=InitialSpec(family="single_mode", amplitude=0.1),
        dt=2e-4,
        t_end=1e-3,
        scheme="fx",
        cfl_safety=0.9,
    )
    traj = run(cfg).fx
    assert len(traj.states) == 2
    with pytest.raises(ValueError):
        reaction_diffusion_residual(tables, traj)
    # a direct-route trajectory stores 3-forms, not the fx states the residuals read
    direct = run(replace(cfg, scheme="direct", t_end=1.6e-3, snapshot_every=1)).direct
    assert direct.states is None and len(direct.sorted_phis) == 9
    for residual in (reaction_diffusion_residual, torsion_evolution_residual):
        with pytest.raises(ValueError, match="have 0"):
            residual(tables, direct)


def test_reaction_diffusion_transports_only_the_snapshots_it_reads(tables, monkeypatch):
    traj = residual_run(16, 2e-4, 8)
    full = transport_frames(tables, traj)
    handed = []

    def counting(tables, head, beta=0.5):
        handed.append(len(head.states))
        return transport_frames(tables, head, beta)

    monkeypatch.setattr(connection, "transport_frames", counting)
    resid = reaction_diffusion_residual(tables, traj, index=4)
    assert handed == [4 + 2]
    # the frames over the whole trajectory give the same bytes
    monkeypatch.setattr(connection, "transport_frames", lambda tables, head: full)
    assert resid.tobytes() == reaction_diffusion_residual(tables, traj, index=4).tobytes()


def test_torsion_free_run_residuals_vanish(tables, grid16):
    cfg = FlowConfig(
        grid=grid16,
        initial=InitialSpec(family="single_mode", amplitude=0.0),
        dt=2e-4,
        t_end=1e-3,
        scheme="fx",
        snapshot_every=1,
        cfl_safety=0.9,
    )
    traj = run(cfg).fx
    assert sup_norm(reaction_diffusion_residual(tables, traj), 2) == 0.0
    assert sup_norm(torsion_evolution_residual(tables, traj), 2) == 0.0


def test_torsion_evolution_residual_refines_and_ablation(tables):
    coarse = residual_run(16, 2e-4, 8)
    fine = residual_run(32, 1e-4, 16)
    r_c = sup_norm(torsion_evolution_residual(tables, coarse, index=4), 2)
    r_f = sup_norm(torsion_evolution_residual(tables, fine, index=8), 2)
    assert r_c / r_f >= 3.0
    a_c = sup_norm(torsion_evolution_residual(tables, coarse, index=4, include_gradient_term=False), 2)
    a_f = sup_norm(torsion_evolution_residual(tables, fine, index=8, include_gradient_term=False), 2)
    assert a_c / a_f < 2.0


def test_bianchi_zero_torsion_and_negative_control(tables, grid16, rng):
    ref = fx_state(grid16, np.ones(grid16.shape), grid16.zeros(1))
    assert sup_norm(bianchi_residual(grid16, grid16.zeros(2), phi_of_state(tables, ref)), 3) == 0.0
    s = random_band_state(grid16, 0.3, seed=7)
    fake = rng.standard_normal((7, 7) + grid16.shape)
    res = bianchi_residual(grid16, fake, phi_of_state(tables, s))
    assert sup_norm(res, 3) > 1.0


def test_lie_decomposition_trivial_cases(tables, grid16):
    s = random_band_state(grid16, 0.4, seed=5)
    assert sup_norm(lie_decomposition_residual(tables, s, grid16.zeros(1)), 3) == 0.0
    # constant Y on the reference structure: translation invariance
    ref = fx_state(grid16, np.ones(grid16.shape), grid16.zeros(1))
    y = np.broadcast_to(np.arange(1.0, 8.0)[:, None, None], (7,) + grid16.shape).copy()
    assert sup_norm(lie_decomposition_residual(tables, ref, y), 3) <= 1e-14


def test_lie_decomposition_refines(tables):
    def sup_res(n):
        g = Grid(length=1.0, n=n, active_dims=(0, 1))
        s = random_band_state(g, 0.4, seed=5)
        y = random_band_state(g, 0.5, seed=9).x
        return sup_norm(lie_decomposition_residual(tables, s, y), 3)

    assert sup_res(16) / sup_res(32) >= 3.0


def test_lie_derivative_of_constant_form_advects(tables, grid16):
    # L_Y of a constant 3-form reduces to the gradient terms; brute check
    y = random_band_state(grid16, 0.5, seed=9).x
    phi3 = np.broadcast_to(
        tables.phi.astype(float).reshape(7, 7, 7, 1, 1), (7, 7, 7) + grid16.shape
    ).copy()
    from g2flow.grid import grad_vector

    gy = grad_vector(grid16, y)
    expected = (
        np.einsum("im...,mjk->ijk...", gy, tables.phi)
        + np.einsum("jm...,imk->ijk...", gy, tables.phi)
        + np.einsum("km...,ijm->ijk...", gy, tables.phi)
    )
    assert np.allclose(lie_derivative_phi(grid16, y, phi3), expected)


def test_first_variation_trivial_and_refines(tables):
    g = Grid(length=1.0, n=16, active_dims=(0, 1))
    s = random_band_state(g, 0.4, seed=5)
    assert sup_norm(first_variation_residual(tables, s, g.zeros(1)), 2) == 0.0
    # constant V on the reference: both sides vanish
    ref = fx_state(g, np.ones(g.shape), g.zeros(1))
    v_const = np.broadcast_to(np.arange(1.0, 8.0)[:, None, None], (7,) + g.shape).copy()
    assert sup_norm(first_variation_residual(tables, ref, v_const), 2) <= 1e-12

    def sup_res(n, eps):
        gn = Grid(length=1.0, n=n, active_dims=(0, 1))
        sn = random_band_state(gn, 0.4, seed=5)
        v = random_band_state(gn, 0.5, seed=13).x
        return sup_norm(first_variation_residual(tables, sn, v, eps=eps), 2)

    assert sup_res(16, 1e-3) / sup_res(32, 1e-3) >= 3.0
    # the discrete torsion map is quadratic in the 3-form, so the centered
    # difference is exact in eps: halving eps changes nothing measurable
    assert abs(sup_res(16, 1e-3) - sup_res(16, 5e-4)) <= 1e-9 * sup_res(16, 1e-3)


def test_second_variation_identity_trivial_and_field(grid16, rng):
    x = random_band_state(grid16, 0.5, seed=3).x
    zero_t = grid16.zeros(2)
    gx = grad_vector(grid16, x)
    assert sup_norm(second_variation_pointwise_defect(gx, zero_t, x), 0) <= 1e-14
    t2 = rng.standard_normal((7, 7) + grid16.shape)
    defect = second_variation_pointwise_defect(gx, t2, x)
    scale = sup_norm(t2, 2) ** 2 * sup_norm(x, 1) ** 2 + 1.0
    assert np.max(np.abs(defect)) <= 1e-12 * scale
    assert np.max(np.abs(second_variation_pointwise_defect(grid16.zeros(2)[..., 0], t2[..., 0], np.zeros((7,) + (grid16.n,))))) <= 1e-14


def test_soliton_residuals_trivial(tables, grid16):
    ref = fx_state(grid16, np.ones(grid16.shape), grid16.zeros(1))
    assert sup_norm(shrinker_soliton_residual(ref, (8, 8), t0=1.0, t=0.0), 1) == 0.0
    x0 = grid16.zeros(1)
    assert sup_norm(soliton_residual(tables, ref, x0), 1) == 0.0
    # constant state with arbitrary center and time
    x = grid16.zeros(1)
    x[5] = 0.3
    const = fx_state(grid16, np.sqrt(0.91) * np.ones(grid16.shape), x)
    assert sup_norm(shrinker_soliton_residual(const, (3, 12), t0=0.7, t=0.2), 1) == 0.0


def test_soliton_residual_generic_nonzero(grid16):
    s = random_band_state(grid16, 0.3, seed=5)
    res = shrinker_soliton_residual(s, (8, 8), t0=0.1, t=0.0)
    assert np.isfinite(res).all()
    assert sup_norm(res, 1) > 0.0
    with pytest.raises(ValueError):
        shrinker_soliton_residual(s, (8, 8), t0=0.0, t=0.1)
