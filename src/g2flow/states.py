"""The unit-pair parametrization (f, X) of the isometric class.

Every G2-structure inducing the flat metric is encoded by a scalar field f
and a vector field X with f^2 + |X|^2 = 1 pointwise; (f, X) and (-f, -X)
encode the same structure.  A state holds the pair as one 8-component
field u = (f, X) of shape (8, *grid), a map into S^7.  This module builds
the 3-form of a state on its 35 sorted components (the dense form is
expanded from them) and its 4-form as their flat Hodge star, the torsion
2-tensor and torsion divergence directly from (f, X), and provides the
independent route that recovers torsion and metric from an arbitrary
3-form field, computed on its 35 sorted components.

The reference structure is the flat, torsion-free one, so every formula
here is its flat-torus form.  The flow evolves (f, X) as a harmonic map
into S^7 (see ``flow.rhs_fx``); the closed-form torsion divergence here is
a test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .algebra import (
    CROSS_ENTRIES,
    METRIC_ENTRIES_BY_V,
    PHI,
    TORSION_ENTRIES,
    _AXES,
    StructureTables,
    contract,
    dense_from_sorted,
    sorted_components,
    star_sorted_3,
)
from .grid import Grid, laplacian, partial

__all__ = [
    "IsometricState",
    "InvalidStateError",
    "DegenerateFormError",
    "single_mode_state",
    "random_band_state",
    "localized_state",
    "sorted_phi_of_state",
    "phi_of_state",
    "psi_of_state",
    "torsion_rows_of_state",
    "torsion_of_state",
    "div_torsion_of_state",
    "torsion_from_phi",
    "torsion_rows_from_sorted",
    "torsion_from_sorted",
    "metric_from_phi",
    "metric_from_sorted",
    "metric_defect",
    "metric_defect_sorted",
    "require_isometric",
]

CONSTRAINT_TOL = 1e-8

# index pairs (v, u) of a 7x7 array: u <= v (by v, then u), and u > v
_LOWER, _UPPER = np.tril_indices(7), np.triu_indices(7, 1)
_DIAGONAL = np.flatnonzero(_LOWER[0] == _LOWER[1])  # the places of (v, v) in _LOWER


class InvalidStateError(ValueError):
    """Raised when f^2 + |X|^2 strays too far from 1."""


class DegenerateFormError(ValueError):
    """Raised when a 3-form field fails to induce a positive metric."""


@dataclass(frozen=True)
class IsometricState:
    """A point of the isometric class: u = (f, X), shape (8, *grid), with f^2 + |X|^2 = 1."""

    grid: Grid
    u: np.ndarray

    @property
    def f(self) -> np.ndarray:
        return self.u[0]

    @property
    def x(self) -> np.ndarray:
        return self.u[1:]

    def norm_sq(self) -> np.ndarray:
        """f^2 + |X|^2 at every grid point."""
        return np.einsum("a...,a...->...", self.u, self.u)

    def constraint_defect(self) -> float:
        return float(np.max(np.abs(self.norm_sq() - 1.0)))

    def project(self) -> "IsometricState":
        """Normalize u pointwise back onto the unit sphere."""
        return replace(self, u=self.u / np.sqrt(self.norm_sq()))

    def require_valid(self) -> None:
        defect = self.constraint_defect()
        if not np.isfinite(defect) or defect > CONSTRAINT_TOL:
            raise InvalidStateError(f"constraint defect {defect:g} exceeds {CONSTRAINT_TOL:g}")


def _state_from_x(grid: Grid, x: np.ndarray) -> IsometricState:
    sq = np.sum(x * x, axis=0)
    if np.max(sq) >= 1.0:
        raise ValueError("|X| must stay below 1 so that f = sqrt(1 - |X|^2) exists")
    return IsometricState(grid=grid, u=np.concatenate((np.sqrt(1.0 - sq)[None], x)))


def single_mode_state(
    grid: Grid, amplitude: float, wave_dim: int | None = None, component: int = 2
) -> IsometricState:
    """X = a sin(2 pi x_d / L) e_c with f = +sqrt(1 - |X|^2)."""
    if not 0 <= amplitude <= 0.9:
        raise ValueError("amplitude must lie in [0, 0.9] to keep |X| < 1")
    if wave_dim is None:
        wave_dim = grid.active_dims[0]
    x = grid.zeros(1)
    # the phase x_d / L first, as random_band_state takes it: a rescaled grid then
    # gets the same phases wherever its c h and c L are exact
    x[component] = amplitude * np.sin(2.0 * np.pi * (grid.coordinate(wave_dim) / grid.length))
    return _state_from_x(grid, x)


def random_band_state(
    grid: Grid, amplitude: float, max_mode: int = 2, seed: int = 0
) -> IsometricState:
    """Band-limited random X with sup |X| = amplitude, from the Fourier modes 1..max_mode."""
    if not 0 <= amplitude <= 0.9:
        raise ValueError("amplitude must lie in [0, 0.9] to keep |X| < 1")
    if max_mode < 1:  # no mode at all would be the flat state
        raise ValueError(f"max_mode must be at least 1, got {max_mode!r}")
    rng = np.random.default_rng(seed)
    # each mode's sin and cos on the n coordinates of one direction, laid along it
    coords = [grid.along(d, np.arange(grid.n) * grid.h) / grid.length for d in grid.active_dims]
    x = grid.zeros(1)
    for comp in range(7):
        field = np.zeros(grid.shape)
        for coord in coords:
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


def localized_state(
    grid: Grid, amplitude: float, component: int = 2, width: float = 0.1
) -> IsometricState:
    """X = a * (periodized Gaussian bump) e_c, centered at the grid index n/2
    on every active axis, for localized-energy studies."""
    if not 0 <= amplitude <= 0.9:
        raise ValueError("amplitude must lie in [0, 0.9] to keep |X| < 1")
    bump = np.ones(grid.shape)
    for dim in grid.active_dims:
        d = grid.lifted_displacement(dim, grid.n // 2)
        factor = np.zeros(grid.shape)
        for image in range(-2, 3):
            factor += np.exp(-((d + image * grid.length) ** 2) / (2.0 * width**2))
        bump *= factor
    bump /= np.max(bump)
    x = grid.zeros(1)
    x[component] = amplitude * bump
    return _state_from_x(grid, x)


def sorted_phi_of_state(
    tables: StructureTables, state: IsometricState, check: bool = True
) -> np.ndarray:
    """3-form of the state on its 35 sorted components ijk, shape (35, *grid):

    (1 - 2|X|^2) phi_ijk - 2 f X_m psi_mijk + 2 (X_i c_jk - X_j c_ik + X_k c_ij)

    with c_jk = X_m phi_mjk.  The direct route starts from these.
    """
    if check:
        state.require_valid()
    f, x = state.f, state.x
    i, j, k = _AXES[3]
    xsq = np.sum(x * x, axis=0)
    out = (1.0 - 2.0 * xsq) * tables.phi[i, j, k].reshape((35,) + (1,) * state.grid.k)
    # the integer tables as floats: the same sums, without einsum's buffered casts
    out = out - 2.0 * np.einsum("ms,m...->s...", tables.psi[:, i, j, k].astype(float), f * x)
    c = np.einsum("m...,mjk->jk...", x, tables.phi.astype(float))
    out = out + 2.0 * (x[i] * c[j, k])
    out = out - 2.0 * (x[j] * c[i, k])
    out = out + 2.0 * (x[k] * c[i, j])
    return out


def phi_of_state(
    tables: StructureTables, state: IsometricState, check: bool = True
) -> np.ndarray:
    """The dense, exactly antisymmetric form of ``sorted_phi_of_state``."""
    return dense_from_sorted(sorted_phi_of_state(tables, state, check), 3)


def psi_of_state(tables: StructureTables, state: IsometricState) -> np.ndarray:
    """4-form of the state, psi = *phi with the flat Hodge star (every state
    induces the flat metric), expanded from the 35 sorted components of phi."""
    return dense_from_sorted(star_sorted_3(sorted_phi_of_state(tables, state)), 4)


def torsion_rows_of_state(state: IsometricState) -> np.ndarray:
    """The active rows T_p. of the state's torsion, evaluated directly from (f, X):

    -2 d_p X_m X_l phi_mlq + 2 d_p f X_q - 2 f d_p X_q

    Shape (k, 7, *grid): row i is p = the i-th active direction.  The rows
    of inactive p vanish, since d_p does there.  Each row is built from
    d_p u alone, in one (8, *grid) buffer, so no stacked gradient is held.
    """
    grid = state.grid
    f, x = state.f, state.x
    rows = np.empty((grid.k, 7) + grid.shape)
    du = np.empty(state.u.shape)  # C-ordered, as partial writes
    gfx = np.empty_like(x)
    two_f = 2.0 * f
    for row, dim in zip(rows, grid.active_dims):
        partial(grid, state.u, dim, out=du)
        gf, gx = du[0], du[1:]         # d_p f and d_p X_m
        # d_p X_m X_l phi_mlq = (d_p X x X)_q on phi's 42 nonzero entries, summed from +0 in
        # ascending m as a dense einsum over m sums (its m = q term, +-0, never changes the sum)
        contract(CROSS_ENTRIES, gx, x, out=row)
        row *= -2.0
        # an einsum, not gf * x: it sums the product into +0, so a -0 product comes out +0
        np.einsum("...,q...->q...", gf, x, out=gfx)
        gfx *= 2.0
        row += gfx
        gx *= two_f
        row -= gx
    return rows


def _scatter_rows(grid: Grid, rows: np.ndarray) -> np.ndarray:
    """The dense (7, 7, *grid) tensor of the active rows; the other rows are +0."""
    out = np.zeros((7,) + rows.shape[1:])
    out[list(grid.active_dims)] = rows
    return out


def torsion_of_state(state: IsometricState) -> np.ndarray:
    """Torsion 2-tensor of the state, shape (7, 7, *grid): the rows of
    ``torsion_rows_of_state``, with exact zeros in the rows of inactive p."""
    return _scatter_rows(state.grid, torsion_rows_of_state(state))


def div_torsion_of_state(state: IsometricState) -> np.ndarray:
    """Divergence of the state's torsion, from the closed-form expression:

    2 (Lap f) X_q - 2 f (Lap X)_q - 2 (Lap X)_l X_m phi_lmq

    The flow does not call it; ``connection.transport_frames`` moves the
    gauge frame by it, and the stencil divergence of ``torsion_of_state``
    and the (f, X) rates are tested against it.
    """
    grid = state.grid
    f, x = state.f, state.x
    lx = laplacian(grid, x)
    lf = laplacian(grid, f)
    out = -2.0 * np.einsum("l...,m...,lmq->q...", lx, x, PHI)
    out += 2.0 * lf * x
    out -= 2.0 * f * lx
    return out


def _pairing(s3: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pairing B of ``metric_from_sorted`` and det B.  B_vu for u <= v
    fills the lower triangle of a (7, 7, *grid) array, whose upper triangle
    is left unset: row v is one pass, pw_v and then the v + 1 entries that
    read it.

    det B is the product of the pivots of the Cholesky factorization
    B = L L^T, computed column by column over the whole grid at once.
    Raises DegenerateFormError where a pivot is not > 0 (or is NaN), so
    where B is not positive definite.
    """
    shape = s3.shape[1:]
    b = np.empty((7, 7) + shape)
    pw = np.empty((21,) + shape)
    for v, (pw_entries, b_entries) in enumerate(METRIC_ENTRIES_BY_V):
        contract(pw_entries, s3, s3, out=pw)
        contract(b_entries, s3, pw, out=b[v, : v + 1])
        b[v, : v + 1] *= -(1.0 / 6.0)
    # column j of L: L_ij = (B_ij - L_ik L_jk over k < j) / L_jj for i >= j,
    # where L_jj^2 is the pivot
    low = np.empty_like(b)
    scratch = np.empty((7,) + shape)
    for j in range(7):
        col = low[j:, j]
        np.copyto(col, b[j:, j])
        for k in range(j):
            col -= np.multiply(low[j:, k], low[j, k], out=scratch[j:])
        pivot = col[0]
        if not np.all(pivot > 0):
            raise DegenerateFormError("3-form does not induce a positive metric")
        det = pivot.copy() if j == 0 else np.multiply(det, pivot, out=det)
        col[1:] /= np.sqrt(pivot, out=pivot)
    return b, det


def metric_from_sorted(s3: np.ndarray) -> np.ndarray:
    """Metric induced by a 3-form field, given by its sorted components, via
    B_uv * vol = -(1/6) (e_u -| phi) ^ (e_v -| phi) ^ phi and g = B / (det B)^(1/9).

    Over sorted pairs p, q the pairing reads B_uv = -(1/6) w_up pw_vp with
    pw_vp = P_pq w_vq, w = e_u -| phi and P the pair-pair slices of
    psi = *phi.  Both sums run over their nonzero products only, as signed
    products of two sorted components (``algebra.contract``).  B is
    positive definite exactly when phi is a G2 form (Bryant, "Some remarks
    on G2-structures", 2005); g is exactly symmetric.
    Raises DegenerateFormError when B fails to be positive definite.
    """
    b, det = _pairing(s3)
    b[_UPPER] = b[_UPPER[::-1]]  # B_uv for u < v, above the diagonal too
    return b / det ** (1.0 / 9.0)


def metric_defect_sorted(s3: np.ndarray) -> float:
    """Sup-norm deviation of the induced metric from the flat identity, read
    from the 28 entries g_uv, u <= v, of ``metric_from_sorted``."""
    b, det = _pairing(s3)
    g = b[_LOWER]
    g /= det ** (1.0 / 9.0)
    g[_DIAGONAL] -= 1.0
    return float(np.max(np.abs(g)))


def require_isometric(
    s3: np.ndarray, metric_tol: float | None, t: float | None = None, defect=None
) -> None:
    """Raise DegenerateFormError when the metric defect of the sorted 3-form
    s3 (``defect``, if already measured) exceeds ``metric_tol``; None skips
    the check.  A given ``t`` is named in the message."""
    if metric_tol is None:
        return
    if defect is None:
        defect = metric_defect_sorted(s3)
    if defect > metric_tol:
        at = "" if t is None else f" at t={t:g}"
        raise DegenerateFormError(f"3-form metric defect {defect:g} exceeds {metric_tol:g}{at}")


def torsion_rows_from_sorted(grid: Grid, s3: np.ndarray) -> np.ndarray:
    """Active rows, shape (k, 7, *grid), of the torsion
    T_pq = (1/24) (d_p phi)_ijk psi_qijk with psi = *phi, from the sorted
    components of phi: (1/4) times the sum over sorted triples, of the 20
    nonzero products per q (``algebra.contract``)."""
    rows = np.empty((grid.k, 7) + s3.shape[1:])
    for row, dim in zip(rows, grid.active_dims):
        contract(TORSION_ENTRIES, partial(grid, s3, dim), s3, out=row)
        row *= 0.25
    return rows


def torsion_from_sorted(grid: Grid, s3: np.ndarray) -> np.ndarray:
    """The dense torsion of ``torsion_rows_from_sorted``; rows p of inactive
    directions are exact zeros."""
    return _scatter_rows(grid, torsion_rows_from_sorted(grid, s3))


def metric_from_phi(phi: np.ndarray) -> np.ndarray:
    """Metric induced by a dense 3-form field; see ``metric_from_sorted``."""
    return metric_from_sorted(sorted_components(phi, 3))


def metric_defect(phi: np.ndarray) -> float:
    """Sup-norm deviation of the metric of a dense 3-form from the identity."""
    return metric_defect_sorted(sorted_components(phi, 3))


def torsion_from_phi(
    grid: Grid, phi: np.ndarray, metric_tol: float | None = 1e-6
) -> np.ndarray:
    """Torsion of a dense 3-form field; see ``torsion_from_sorted``.

    ``metric_tol`` gates the flat-isometry precondition; pass None to skip
    the check (for callers that already track the metric drift).
    """
    s3 = sorted_components(phi, 3)
    require_isometric(s3, metric_tol)
    return torsion_from_sorted(grid, s3)
