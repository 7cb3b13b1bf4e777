"""Test oracles: dense reference formulas, slices that no entry point runs,
and the heat kernels' full-grid products.

Each keeps the arithmetic it had in ``g2flow``, so a test that compares
with it compares with the same numbers as before.
"""

import itertools

import numpy as np

from g2flow.algebra import _PAIRS3, _PAIRS4, CROSS_ENTRIES, _gather, contract
from g2flow.diagnostics import _wrapped_parts
from g2flow.grid import integrate, partial
from g2flow.states import _state_from_x

_FACT = {1: 1.0, 2: 2.0, 3: 6.0, 4: 24.0}


def dense_phi_of_state(tables, state):
    """3-form of the state, all 343 dense entries from (7,7,7) einsums:

    (1 - 2|X|^2) phi_ijk - 2 f X_m psi_mijk
        + 2 (X_i X_m phi_mjk + X_j X_m phi_imk + X_k X_m phi_ijm)
    """
    f, x = state.f, state.x
    xsq = np.sum(x * x, axis=0)
    out = (1.0 - 2.0 * xsq) * tables.phi.reshape((7, 7, 7) + (1,) * state.grid.k)
    out = out - 2.0 * np.einsum("mijk,m...->ijk...", tables.psi, f * x)
    c = np.einsum("m...,mjk->jk...", x, tables.phi)
    out = out + 2.0 * np.einsum("i...,jk...->ijk...", x, c)
    out = out - 2.0 * np.einsum("j...,ik...->ijk...", x, c)
    out = out + 2.0 * np.einsum("k...,ij...->ijk...", x, c)
    return out


def dense_psi_of_state(tables, state):
    """4-form of the state, all 2401 dense entries from (7,)*4 einsums:

    psi_qjkl + 2 f (X_q phi_jkl - X_j phi_qkl + X_k phi_qjl - X_l phi_qjk)
        - 2 (X_q X_m psi_mjkl + X_j X_m psi_qmkl + X_k X_m psi_qjml + X_l X_m psi_qjkm)
    """
    f, x = state.f, state.x
    k = state.grid.k
    out = np.broadcast_to(tables.psi.reshape((7,) * 4 + (1,) * k).astype(float), (7,) * 4 + state.grid.shape).copy()
    fx = f * x
    out += 2.0 * np.einsum("q...,jkl->qjkl...", fx, tables.phi)
    out -= 2.0 * np.einsum("j...,qkl->qjkl...", fx, tables.phi)
    out += 2.0 * np.einsum("k...,qjl->qjkl...", fx, tables.phi)
    out -= 2.0 * np.einsum("l...,qjk->qjkl...", fx, tables.phi)
    c = np.einsum("m...,mjkl->jkl...", x, tables.psi)
    out -= 2.0 * np.einsum("q...,jkl...->qjkl...", x, c)
    out += 2.0 * np.einsum("j...,qkl...->qjkl...", x, c)
    out -= 2.0 * np.einsum("k...,qjl...->qjkl...", x, c)
    out += 2.0 * np.einsum("l...,qjk...->qjkl...", x, c)
    return out


def stacked_torsion_rows(state):
    """The torsion's active rows from all k gradients of u at once, stacked,
    as ``states.torsion_rows_of_state`` computed them before it took one
    direction at a time."""
    grid = state.grid
    f, x = state.f, state.x
    du = np.empty((grid.k,) + state.u.shape)
    for i, dim in enumerate(grid.active_dims):
        partial(grid, state.u, dim, out=du[i])
    gf, gx = du[:, 0], du[:, 1:]
    rows = np.empty((grid.k, 7) + grid.shape)
    for row, g in zip(rows, gx):
        contract(CROSS_ENTRIES, g, x, out=row)
    rows *= -2.0
    rows += 2.0 * np.einsum("p...,q...->pq...", gf, x)
    gx *= 2.0 * f
    rows -= gx
    return rows


def first_slot_pairs_3(s3):
    """(e_u -| alpha)_(ab) = alpha_{u a b} for sorted pairs (ab), from sorted
    3-form components; shape (7, 21) + batch."""
    return _gather(s3, _PAIRS3)


def pair_slices_4(s4):
    """beta_{(ab)(cd)} for sorted pairs (ab), (cd), from sorted 4-form
    components; shape (21, 21) + batch."""
    return _gather(s4, _PAIRS4)


def form_inner(alpha, beta, rank):
    """(1/rank!) * full component contraction, pointwise over trailing axes."""
    axes = list(range(rank))
    return np.einsum(alpha, axes + [Ellipsis], beta, axes + [Ellipsis]) / _FACT[rank]


def interior_psi(tables, x):
    """Interior product (x -| psi)_ijk = x_p psi_pijk."""
    return np.einsum("pijk,p...->ijk...", tables.psi, x)


def antisymmetry_defect(alpha, rank):
    """Max violation of total antisymmetry over adjacent index swaps."""
    worst = 0.0
    for ax in range(rank - 1):
        worst = max(worst, float(np.max(np.abs(alpha + np.swapaxes(alpha, ax, ax + 1)))))
    return worst


def full_grid_band_state(grid, amplitude, max_mode, seed):
    """``random_band_state`` with each mode's sin and cos evaluated on the
    whole grid's coordinates."""
    rng = np.random.default_rng(seed)
    x = grid.zeros(1)
    for comp in range(7):
        field = np.zeros(grid.shape)
        for dim in grid.active_dims:
            coord = grid.coordinate(dim) / grid.length
            for mode in range(1, max_mode + 1):
                a, b = rng.standard_normal(2)
                field = field + a * np.sin(2 * np.pi * mode * coord) + b * np.cos(
                    2 * np.pi * mode * coord
                )
        x[comp] = field
    sup = np.max(np.sqrt(np.sum(x * x, axis=0)))
    if sup > 0:
        x *= amplitude / sup
    return _state_from_x(grid, x)


def product_kernel(grid, tables):
    """L^-(7-k) times the outer product of one 1-D table per active axis: a
    full grid of L^-(7-k), multiplied by each table laid along its axis in
    axis order, each product a fresh grid."""
    u = np.full(grid.shape, grid.length ** -(7 - grid.k))
    for dim, w in zip(grid.active_dims, tables):
        u = u * grid.along(dim, w)
    return u


def entropy(grid, torsion, sigma, sample_stride=2, n_scales=12, scale_floor=0.01):
    """(value, center, scale) of the entropy loop, each (center, scale)
    building a fresh kernel and a fresh |T|^2 u: centers in lattice order,
    then scales, and only a strictly larger value moves the argmax."""
    tsq = np.einsum("pq...,pq...->...", torsion, torsion)
    scales = [float(tau) for tau in np.geomspace(scale_floor * sigma, sigma, n_scales)]
    best = (0.0, (0,) * grid.k, scales[-1])
    indices = range(0, grid.n, sample_stride)
    tables = [
        {
            c: _wrapped_parts(grid.length, tau, grid.displacement(c))[0]
            for c in indices
        }
        for tau in scales
    ]
    for center in itertools.product(indices, repeat=grid.k):
        for tau, table in zip(scales, tables):
            u = product_kernel(grid, [table[c] for c in center])
            val = tau * integrate(grid, tsq * u)
            if val > best[0]:
                best = (val, center, tau)
    return best
