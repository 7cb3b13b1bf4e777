"""The (f, X) parametrization: forms, torsion, divergence, metric."""

import itertools
import math

import numpy as np
import pytest

from conftest import fx_state
from oracles import (
    antisymmetry_defect,
    dense_phi_of_state,
    dense_psi_of_state,
    first_slot_pairs_3,
    full_grid_band_state,
    pair_slices_4,
    stacked_torsion_rows,
)
from g2flow import algebra
from g2flow.algebra import (
    first_slot_slices_4,
    hodge_star_3,
    sorted_components,
    star_sorted_3,
)
from g2flow.flow import _rhs_direct_sorted
from g2flow.grid import Grid, div2, grad_scalar, grad_vector, laplacian, partial
from g2flow.states import (
    DegenerateFormError,
    InvalidStateError,
    _pairing,
    localized_state,
    metric_defect,
    metric_defect_sorted,
    metric_from_phi,
    metric_from_sorted,
    phi_of_state,
    psi_of_state,
    random_band_state,
    require_isometric,
    single_mode_state,
    sorted_phi_of_state,
    torsion_from_phi,
    torsion_from_sorted,
    torsion_of_state,
    torsion_rows_of_state,
)


def reference_state(grid):
    return fx_state(grid, np.ones(grid.shape), grid.zeros(1))


def test_reference_state_gives_reference_forms(tables, grid16):
    s = reference_state(grid16)
    phi = phi_of_state(tables, s)
    psi = psi_of_state(tables, s)
    assert np.array_equal(phi, np.broadcast_to(tables.phi.astype(float).reshape(7, 7, 7, 1, 1), phi.shape))
    assert np.array_equal(psi, np.broadcast_to(tables.psi.astype(float).reshape(7, 7, 7, 7, 1, 1), psi.shape))


@pytest.mark.parametrize("dims", [(3,), (0, 2), (0, 1, 5)])
@pytest.mark.parametrize("max_mode", [1, 3])
def test_random_band_state_from_1d_tables_is_the_full_grid_formula(dims, max_mode):
    grid = Grid(length=1.3, n=8, active_dims=dims)
    got = random_band_state(grid, 0.4, max_mode=max_mode, seed=9)
    assert got.u.tobytes() == full_grid_band_state(grid, 0.4, max_mode, 9).u.tobytes()


def test_antipodal_pair_gives_same_structure(tables, grid16):
    s = random_band_state(grid16, 0.5, seed=8)
    s_neg = fx_state(grid16, -s.f, -s.x)
    assert np.array_equal(phi_of_state(tables, s), phi_of_state(tables, s_neg))
    assert np.array_equal(psi_of_state(tables, s), psi_of_state(tables, s_neg))
    assert np.array_equal(torsion_of_state(s), torsion_of_state(s_neg))


def test_chart_pole_state_formula(tables, grid16):
    # (f=0, X=e0): phi -> -phi + 2 e^0 ^ (e0 -| phi), expanded by hand
    x = grid16.zeros(1)
    x[0] = 1.0
    s = fx_state(grid16, np.zeros(grid16.shape), x)
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
    s = fx_state(grid16, np.full(grid16.shape, 0.9), grid16.zeros(1))
    for build in (phi_of_state, sorted_phi_of_state):
        with pytest.raises(InvalidStateError):
            build(tables, s)
    assert sorted_phi_of_state(tables, s, check=False).shape == (35, 16, 16)


def test_star_consistency_random_state(tables, grid16):
    s = random_band_state(grid16, 0.6, seed=2)
    phi = phi_of_state(tables, s)
    psi = psi_of_state(tables, s)
    assert np.max(np.abs(hodge_star_3(phi) - psi)) <= 1e-10
    assert antisymmetry_defect(phi, 3) <= 1e-12
    assert antisymmetry_defect(psi, 4) <= 1e-12


ORACLE_GRIDS = [
    Grid(length=1.0, n=32, active_dims=(3,)),
    Grid(length=1.0, n=16, active_dims=(0, 1)),
    Grid(length=1.0, n=8, active_dims=(0, 2, 5)),
]


def oracle_states(grid):
    return (
        random_band_state(grid, 0.3, seed=4),
        random_band_state(grid, 0.9, seed=4),
        single_mode_state(grid, 0.2),
        localized_state(grid, 0.5),
    )


@pytest.mark.parametrize("grid", ORACLE_GRIDS, ids=lambda g: f"{g.k}d")
def test_sorted_phi_of_state_is_the_dense_formula_on_sorted_triples(tables, grid):
    for state in oracle_states(grid):
        want = sorted_components(dense_phi_of_state(tables, state), 3)
        got = sorted_phi_of_state(tables, state)
        assert got.shape == (35,) + grid.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("grid", ORACLE_GRIDS, ids=lambda g: f"{g.k}d")
def test_phi_of_state_is_antisymmetric_and_within_an_ulp_of_the_dense_formula(tables, grid):
    for state in oracle_states(grid):
        want = dense_phi_of_state(tables, state)
        got = phi_of_state(tables, state)
        assert antisymmetry_defect(got, 3) == 0.0
        # the dense formula rounds each ordering of ijk on its own; the entries
        # of a 3-form of the flat metric lie in [-1, 1], so 1 ulp of 1 bounds it
        assert np.max(np.abs(want)) <= 1.0 + 1e-15
        assert np.max(np.abs(got - want)) <= np.spacing(1.0)


@pytest.mark.parametrize("grid", ORACLE_GRIDS, ids=lambda g: f"{g.k}d")
def test_psi_of_state_is_the_star_of_phi_and_within_1e15_of_the_dense_formula(tables, grid):
    for state in oracle_states(grid):
        got = psi_of_state(tables, state)
        assert got.tobytes() == hodge_star_3(phi_of_state(tables, state)).tobytes()
        assert antisymmetry_defect(got, 4) == 0.0
        assert np.max(np.abs(got - dense_psi_of_state(tables, state))) <= 1e-15


def test_metric_identity_for_states(tables, grid16):
    for seed in range(5):
        s = random_band_state(grid16, 0.1 + 0.15 * seed, seed=seed)
        assert metric_defect(phi_of_state(tables, s)) <= 1e-10


def test_metric_scaling_and_reference(tables, grid16):
    phi = np.broadcast_to(
        tables.phi.astype(float).reshape(7, 7, 7, 1, 1), (7, 7, 7) + grid16.shape
    ).copy()
    g = metric_from_phi(phi)
    eye = np.eye(7).reshape(7, 7, 1, 1)
    assert np.max(np.abs(g - eye)) <= 1e-13
    g_scaled = metric_from_phi((2.0**3) * phi)
    assert np.max(np.abs(g_scaled - 4.0 * eye)) <= 1e-12


def test_metric_of_pullback_is_gram_matrix(tables, rng):
    # phi = A* phi_0, i.e. phi_ijk = A_ai A_bj A_ck phi0_abc, induces
    # g = A^T A when det A > 0, pointwise
    grid = Grid(length=1.0, n=4, active_dims=(0, 1))
    eye = np.eye(7).reshape(7, 7, 1, 1)
    a = eye + 0.2 * rng.standard_normal((7, 7) + grid.shape)
    assert np.all(np.linalg.det(np.moveaxis(a, (0, 1), (-2, -1))) > 0)
    phi = np.einsum("ai...,bj...,ck...,abc->ijk...", a, a, a, tables.phi)
    gram = np.einsum("ai...,aj...->ij...", a, a)
    assert np.max(np.abs(metric_from_phi(phi) - gram)) <= 1e-12
    assert abs(metric_defect(phi) - np.max(np.abs(gram - eye))) <= 1e-12


def test_metric_rejects_degenerate(tables, grid16):
    with pytest.raises(DegenerateFormError):
        metric_from_phi(np.zeros((7, 7, 7) + grid16.shape))


def test_torsion_zero_for_constant_states(tables, grid16):
    x = grid16.zeros(1)
    x[4] = 0.3
    f = np.sqrt(1.0 - 0.09) * np.ones(grid16.shape)
    s = fx_state(grid16, f, x)
    assert np.all(torsion_of_state(s) == 0.0)
    t_phi = torsion_from_phi(grid16, phi_of_state(tables, s))
    assert np.max(np.abs(t_phi)) <= 1e-14


def test_reference_phi_has_zero_torsion(tables, grid16):
    s = reference_state(grid16)
    assert np.all(torsion_from_phi(grid16, phi_of_state(tables, s)) == 0.0)


def test_torsion_oracle_equivalence_and_order(tables):
    errs = {}
    for n in (16, 32, 64):
        g = Grid(length=1.0, n=n, active_dims=(0, 1))
        s = random_band_state(g, amplitude=0.3, max_mode=1, seed=7)
        t_state = torsion_of_state(s)
        t_phi = torsion_from_phi(g, phi_of_state(tables, s), metric_tol=1e-6)
        errs[n] = float(np.max(np.abs(t_state - t_phi)))
    order1 = math.log2(errs[16] / errs[32])
    order2 = math.log2(errs[32] / errs[64])
    assert 1.6 <= order1 <= 2.4
    assert 1.6 <= order2 <= 2.4


@pytest.mark.parametrize(
    "grid",
    [
        Grid(length=1.0, n=16, active_dims=(3,)),
        Grid(length=1.0, n=32, active_dims=(0, 1)),
        Grid(length=2.0, n=16, active_dims=(1, 4), stencil_order=4),
        Grid(length=1.0, n=8, active_dims=(0, 2, 5)),
    ],
)
def test_torsion_rows_equal_the_stacked_gradient_formula(grid):
    # bit for bit, signed zeros included: a single mode leaves most products +-0
    for state in (random_band_state(grid, 0.4, seed=5), single_mode_state(grid, 0.3)):
        want = stacked_torsion_rows(state)
        assert torsion_rows_of_state(state).tobytes() == want.tobytes()


def test_single_mode_torsion_sparsity(grid16):
    # X = a sin(2 pi x_0) e_2: the closed form leaves only T_{0,2} nonzero
    # (the phi-contraction term carries X twice and cancels)
    s = single_mode_state(grid16, 0.3, wave_dim=0, component=2)
    torsion = torsion_of_state(s)
    nonzero = {(p, q) for p in range(7) for q in range(7) if np.max(np.abs(torsion[p, q])) > 0}
    assert nonzero == {(0, 2)}


def test_torsion_oracle_order_4_stencils(tables):
    errs = {}
    for n in (16, 32):
        g = Grid(length=1.0, n=n, active_dims=(0, 1), stencil_order=4)
        s = random_band_state(g, amplitude=0.3, max_mode=1, seed=7)
        t_state = torsion_of_state(s)
        t_phi = torsion_from_phi(g, phi_of_state(tables, s), metric_tol=1e-6)
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
        torsion = torsion_of_state(s)
        worst = 0.0
        for dim in g.active_dims:
            lhs = partial(g, phi, dim)
            rhs = np.einsum("m...,mijk...->ijk...", torsion[dim], psi)
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
        errs.append(worst)
    assert errs[0] / errs[1] >= 3.0


def test_divergence_oracle():
    from g2flow.states import div_torsion_of_state

    errs = []
    for n in (16, 32):
        g = Grid(length=1.0, n=n, active_dims=(0, 1))
        s = random_band_state(g, amplitude=0.3, max_mode=1, seed=11)
        d_state = div_torsion_of_state(s)
        d_oracle = div2(g, torsion_of_state(s))
        errs.append(float(np.max(np.abs(d_state - d_oracle))))
    assert errs[0] / errs[1] >= 3.0


def test_divergence_closed_form_small_amplitude(grid32):
    # X = a sin(2 pi x0) e2, f = sqrt(1-|X|^2): to O(a) the divergence is
    # -2 f Lap X + 2 (Lap f) X - 2 (Lap X x X -contraction) ~ -2 Lap X e2
    from g2flow.states import div_torsion_of_state

    a = 1e-5
    s = single_mode_state(grid32, a, wave_dim=0, component=2)
    got = div_torsion_of_state(s)
    lx = laplacian(grid32, s.x)
    expected = -2.0 * lx  # leading order in a
    assert np.max(np.abs(got - expected)) <= 40.0 * a * a * (2 * np.pi) ** 2


def test_constant_state_divergence_zero(grid16):
    x = grid16.zeros(1)
    x[1] = 0.5
    s = fx_state(grid16, np.sqrt(0.75) * np.ones(grid16.shape), x)
    from g2flow.states import div_torsion_of_state

    assert np.all(div_torsion_of_state(s) == 0.0)


def test_bianchi_on_flat_background(tables):
    from g2flow.connection import bianchi_residual

    errs = []
    for n in (16, 32):
        g = Grid(length=1.0, n=n, active_dims=(0, 1))
        s = random_band_state(g, 0.3, max_mode=1, seed=7)
        res = bianchi_residual(g, torsion_of_state(s), phi_of_state(tables, s))
        errs.append(float(np.max(np.abs(res))))
    assert errs[0] / errs[1] >= 3.0


def test_torsion_from_phi_rejects_non_isometric(tables, grid16):
    s = random_band_state(grid16, 0.3, seed=1)
    phi = 1.5 * phi_of_state(tables, s)  # conformal scaling breaks isometry
    with pytest.raises(DegenerateFormError):
        torsion_from_phi(grid16, phi, metric_tol=1e-6)


def test_projection_and_defect(grid16, rng):
    f = 1.0 + 0.01 * rng.standard_normal(grid16.shape)
    x = 0.01 * rng.standard_normal((7,) + grid16.shape)
    s = fx_state(grid16, f, x)
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


@pytest.mark.parametrize(
    "grid",
    [
        Grid(length=1.0, n=16, active_dims=(3,)),
        Grid(length=1.0, n=32, active_dims=(0, 1)),
        Grid(length=1.0, n=16, active_dims=(1, 4), stencil_order=4),
        Grid(length=1.0, n=8, active_dims=(0, 2, 5)),
    ],
)
def test_torsion_of_state_equals_seven_row_formula(tables, grid):
    # single_mode and localized states have exact zeros in X
    for s in (random_band_state(grid, 0.5, seed=6), single_mode_state(grid, 0.2),
              localized_state(grid, 0.5)):
        # every row p, built from the full (7, ...) gradients and the dense X_l phi_mlq
        gx, gf = grad_vector(grid, s.x), grad_scalar(grid, s.f)
        cxq = np.einsum("l...,mlq->mq...", s.x, tables.phi)
        want = -2.0 * np.einsum("pm...,mq...->pq...", gx, cxq)
        want += 2.0 * np.einsum("p...,q...->pq...", gf, s.x)
        want -= 2.0 * s.f * gx
        got = torsion_of_state(s)
        assert np.array_equal(got, want)
        active = list(grid.active_dims)
        assert got[active].tobytes() == want[active].tobytes()
        inactive = [p for p in range(7) if p not in grid.active_dims]
        assert np.all(got[inactive] == 0.0) and not np.signbit(got[inactive]).any()


@pytest.mark.parametrize("max_mode", [0, -3])
def test_random_band_state_needs_a_mode(grid16, max_mode):
    # with no Fourier mode the band would be the flat state
    with pytest.raises(ValueError, match="max_mode"):
        random_band_state(grid16, 0.3, max_mode=max_mode, seed=1)


# The direct route contracts psi on its nonzero entries only; the dense
# einsum forms over the gathered slices, which it replaced, are the oracles.


def dense_torsion(grid, s3):
    slices = first_slot_slices_4(star_sorted_3(s3))
    out = np.zeros((7, 7) + s3.shape[1:])
    for dim in grid.active_dims:
        out[dim] = 0.25 * np.einsum("s...,qs...->q...", partial(grid, s3, dim), slices)
    return out


def dense_rhs(grid, s3):
    slices = first_slot_slices_4(star_sorted_3(s3))
    return np.einsum("p...,ps...->s...", div2(grid, dense_torsion(grid, s3)), slices)


def dense_pairing(s3):
    w = first_slot_pairs_3(s3)
    pw = np.einsum("pq...,vq...->vp...", pair_slices_4(star_sorted_3(s3)), w)
    return -(1.0 / 6.0) * np.einsum("up...,vp...->uv...", w, pw)


def dense_metric(grid, s3):
    # the LAPACK determinant as the oracle of the product of the pivots
    b = dense_pairing(s3)
    det = np.linalg.det(np.moveaxis(b.reshape(7, 7, -1), -1, 0)).reshape(grid.shape)
    return b / det ** (1.0 / 9.0)


def assert_identical(got, want):
    # equal values and equal signs of zero
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


SPARSE_GRIDS = [
    Grid(length=1.0, n=32, active_dims=(3,)),
    Grid(length=1.0, n=16, active_dims=(0, 1)),
    Grid(length=1.0, n=16, active_dims=(2, 5), stencil_order=4),
    Grid(length=1.0, n=8, active_dims=(0, 1, 2), stencil_order=4),
    Grid(length=1.0, n=8, active_dims=(1, 3, 6)),
]


def sparse_fields(tables, grid):
    rng = np.random.default_rng(17)
    fields = []
    for state in (random_band_state(grid, 0.4, seed=5), single_mode_state(grid, 0.2)):
        fields.append(sorted_components(phi_of_state(tables, state), 3))
    # a 3-form off the isometric class, with no zero component
    fields.append(fields[0] + 0.05 * rng.standard_normal(fields[0].shape))
    return fields


SPARSE_IDS = lambda g: f"{g.active_dims}-order{g.stencil_order}"


@pytest.mark.parametrize("grid", SPARSE_GRIDS, ids=SPARSE_IDS)
def test_sparse_psi_contractions_equal_dense_einsum(tables, grid):
    lower = np.tril_indices(7)
    for s3 in sparse_fields(tables, grid):
        assert_identical(torsion_from_sorted(grid, s3), dense_torsion(grid, s3))
        assert_identical(_rhs_direct_sorted(grid, s3), dense_rhs(grid, s3))
        # the pairing's entries B_uv, u <= v (held at [v, u]), are the einsum's; its
        # determinant is the product of the Cholesky pivots, LAPACK's at round-off
        b, _ = _pairing(s3)
        assert_identical(b[lower], dense_pairing(s3)[lower[::-1]])
        assert np.max(np.abs(metric_from_sorted(s3) - dense_metric(grid, s3))) <= 1e-15


@pytest.mark.parametrize("grid", SPARSE_GRIDS, ids=SPARSE_IDS)
def test_metric_is_exactly_symmetric_and_its_defect_is_read_from_it(tables, grid):
    eye = np.eye(7).reshape((7, 7) + (1,) * grid.k)
    for s3 in sparse_fields(tables, grid):
        g = metric_from_sorted(s3)
        assert g.tobytes() == np.swapaxes(g, 0, 1).tobytes()
        assert metric_defect_sorted(s3) == float(np.max(np.abs(g - eye)))


def split_g2_form(tables, grid):
    """The sorted components of phi with the signs of e236 and e245 flipped,
    on every grid point: a split G2 form, whose pairing B has det B = +1 but
    signature (3, 4)."""
    s0 = sorted_components(tables.phi.astype(float), 3)
    triples = list(itertools.combinations(range(7), 3))
    for triple in ((2, 3, 6), (2, 4, 5)):
        s0[triples.index(triple)] *= -1.0
    return np.broadcast_to(s0.reshape((35,) + (1,) * grid.k), (35,) + grid.shape).copy()


def test_split_g2_pairing_has_unit_determinant_and_signature_3_4(tables, grid16):
    b = dense_pairing(split_g2_form(tables, grid16)[:, 0, 0])
    assert np.linalg.det(b) == pytest.approx(1.0, abs=1e-14)
    eigs = np.linalg.eigvalsh(b)
    assert (np.sum(eigs > 0.5), np.sum(eigs < -0.5)) == (3, 4)


def test_metric_rejects_split_g2_forms_and_nan(tables, grid16):
    # a determinant test alone would let the split form through
    nan = sorted_components(phi_of_state(tables, random_band_state(grid16, 0.3, seed=2)), 3)
    nan[4, 5, 9] = np.nan
    for s3 in (split_g2_form(tables, grid16), nan):
        with pytest.raises(DegenerateFormError, match="positive metric"):
            metric_from_sorted(s3)
        with pytest.raises(DegenerateFormError, match="positive metric"):
            metric_defect_sorted(s3)
        with pytest.raises(DegenerateFormError, match="positive metric"):
            require_isometric(s3, 1e-6)


def test_sparse_psi_contractions_use_no_einsum_or_gather(tables, grid16, monkeypatch):
    s3 = sorted_components(phi_of_state(tables, random_band_state(grid16, 0.3, seed=2)), 3)

    def forbidden(*args, **kwargs):
        raise AssertionError("dense contraction called")

    monkeypatch.setattr(np, "einsum", forbidden)
    monkeypatch.setattr(algebra, "_gather", forbidden)
    torsion_from_sorted(grid16, s3)
    _rhs_direct_sorted(grid16, s3)
    metric_from_sorted(s3)
