"""The unit-pair parametrization (f, X) of the isometric class.

Every G2-structure inducing the flat metric is encoded by a scalar field f
and a vector field X with f^2 + |X|^2 = 1 pointwise; (f, X) and (-f, -X)
encode the same structure.  This module builds the 3-form and 4-form of a
state, its torsion 2-tensor and torsion divergence directly from (f, X),
and provides the independent route that recovers torsion and metric from
an arbitrary 3-form field.

The reference structure is the flat, torsion-free one, so every formula
here is its flat-torus form.  The flow evolves (f, X) as a harmonic map
into S^7 (see ``flow.rhs_fx``); the closed-form torsion divergence here is
a test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .algebra import StructureTables, hodge_star_3
from .grid import Grid, grad_scalar, grad_vector, laplacian, partial

__all__ = [
    "IsometricState",
    "InvalidStateError",
    "DegenerateFormError",
    "single_mode_state",
    "random_band_state",
    "localized_state",
    "phi_of_state",
    "psi_of_state",
    "torsion_of_state",
    "div_torsion_of_state",
    "torsion_from_phi",
    "metric_from_phi",
    "metric_defect",
]

CONSTRAINT_TOL = 1e-8


class InvalidStateError(ValueError):
    """Raised when f^2 + |X|^2 strays too far from 1."""


class DegenerateFormError(ValueError):
    """Raised when a 3-form field fails to induce a positive metric."""


@dataclass(frozen=True)
class IsometricState:
    """A point of the isometric class: fields (f, X) with f^2 + |X|^2 = 1."""

    grid: Grid
    f: np.ndarray
    x: np.ndarray
    t: float = 0.0

    def constraint_defect(self) -> float:
        return float(np.max(np.abs(self.f * self.f + np.sum(self.x * self.x, axis=0) - 1.0)))

    def project(self) -> "IsometricState":
        """Normalize (f, X) pointwise back onto the unit sphere."""
        norm = np.sqrt(self.f * self.f + np.sum(self.x * self.x, axis=0))
        return replace(self, f=self.f / norm, x=self.x / norm)

    def require_valid(self, tol: float = CONSTRAINT_TOL) -> None:
        defect = self.constraint_defect()
        if not np.isfinite(defect) or defect > tol:
            raise InvalidStateError(f"constraint defect {defect:g} exceeds {tol:g}")


def _state_from_x(grid: Grid, x: np.ndarray, t: float = 0.0) -> IsometricState:
    sq = np.sum(x * x, axis=0)
    if np.max(sq) >= 1.0:
        raise ValueError("|X| must stay below 1 so that f = sqrt(1 - |X|^2) exists")
    return IsometricState(grid=grid, f=np.sqrt(1.0 - sq), x=x, t=t)


def single_mode_state(
    grid: Grid, amplitude: float, wave_dim: int | None = None, component: int = 2
) -> IsometricState:
    """X = a sin(2 pi x_d / L) e_c with f = +sqrt(1 - |X|^2)."""
    if not 0 <= amplitude <= 0.9:
        raise ValueError("amplitude must lie in [0, 0.9] to stay inside the chart")
    if wave_dim is None:
        wave_dim = grid.active_dims[0]
    x = grid.zeros(1)
    x[component] = amplitude * np.sin(2.0 * np.pi * grid.coordinate(wave_dim) / grid.length)
    return _state_from_x(grid, x)


def random_band_state(
    grid: Grid, amplitude: float, max_mode: int = 2, seed: int = 0
) -> IsometricState:
    """Band-limited random X with sup |X| = amplitude."""
    if not 0 <= amplitude <= 0.9:
        raise ValueError("amplitude must lie in [0, 0.9] to stay inside the chart")
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


def localized_state(
    grid: Grid,
    amplitude: float,
    component: int = 2,
    width: float = 0.1,
    center: tuple[int, ...] | None = None,
) -> IsometricState:
    """X = a * (periodized Gaussian bump) e_c, for localized-energy studies."""
    if not 0 <= amplitude <= 0.9:
        raise ValueError("amplitude must lie in [0, 0.9] to stay inside the chart")
    if center is None:
        center = (grid.n // 2,) * grid.k
    bump = np.ones(grid.shape)
    for pos, dim in enumerate(grid.active_dims):
        d = grid.lifted_displacement(dim, center[pos])
        factor = np.zeros(grid.shape)
        for image in range(-2, 3):
            factor += np.exp(-((d + image * grid.length) ** 2) / (2.0 * width**2))
        bump *= factor
    bump /= np.max(bump)
    x = grid.zeros(1)
    x[component] = amplitude * bump
    return _state_from_x(grid, x)


def phi_of_state(
    tables: StructureTables, state: IsometricState, check: bool = True
) -> np.ndarray:
    """3-form of the state:

    (1 - 2|X|^2) phi_ijk - 2 f X_m psi_mijk
        + 2 (X_i X_m phi_mjk + X_j X_m phi_imk + X_k X_m phi_ijm)
    """
    if check:
        state.require_valid()
    f, x = state.f, state.x
    xsq = np.sum(x * x, axis=0)
    out = (1.0 - 2.0 * xsq) * tables.phi.reshape((7, 7, 7) + (1,) * state.grid.k)
    out = out - 2.0 * np.einsum("mijk,m...->ijk...", tables.psi, f * x)
    c = np.einsum("m...,mjk->jk...", x, tables.phi)
    out = out + 2.0 * np.einsum("i...,jk...->ijk...", x, c)
    out = out - 2.0 * np.einsum("j...,ik...->ijk...", x, c)
    out = out + 2.0 * np.einsum("k...,ij...->ijk...", x, c)
    return out


def psi_of_state(
    tables: StructureTables, state: IsometricState, check: bool = True
) -> np.ndarray:
    """4-form of the state (its Hodge dual for the flat metric):

    psi_qjkl + 2 f (X_q phi_jkl - X_j phi_qkl + X_k phi_qjl - X_l phi_qjk)
        - 2 (X_q X_m psi_mjkl + X_j X_m psi_qmkl + X_k X_m psi_qjml + X_l X_m psi_qjkm)
    """
    if check:
        state.require_valid()
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


def torsion_of_state(tables: StructureTables, state: IsometricState) -> np.ndarray:
    """Torsion 2-tensor of the state, evaluated directly from (f, X):

    -2 d_p X_m X_l phi_mlq + 2 d_p f X_q - 2 f d_p X_q
    """
    grid = state.grid
    f, x = state.f, state.x
    gx = grad_vector(grid, x)          # gx[p, m] = d_p X_m
    gf = grad_scalar(grid, f)
    cxq = np.einsum("l...,mlq->mq...", x, tables.phi)   # X_l phi_mlq
    out = -2.0 * np.einsum("pm...,mq...->pq...", gx, cxq)
    out += 2.0 * np.einsum("p...,q...->pq...", gf, x)
    out -= 2.0 * f * gx
    return out


def div_torsion_of_state(tables: StructureTables, state: IsometricState) -> np.ndarray:
    """Divergence of the state's torsion, from the closed-form expression:

    2 (Lap f) X_q - 2 f (Lap X)_q - 2 (Lap X)_l X_m phi_lmq

    The flow does not call it; it is the oracle the stencil divergence of
    ``torsion_of_state`` and the (f, X) rates are tested against.
    """
    grid = state.grid
    f, x = state.f, state.x
    lx = laplacian(grid, x)
    lf = laplacian(grid, f)
    out = -2.0 * np.einsum("l...,m...,lmq->q...", lx, x, tables.phi)
    out += 2.0 * lf * x
    out -= 2.0 * f * lx
    return out


def metric_from_phi(tables: StructureTables, grid: Grid, phi: np.ndarray) -> np.ndarray:
    """Metric induced by a 3-form field, via the 7-form pairing

        B_uv * vol = -(1/6) (e_u -| phi) ^ (e_v -| phi) ^ phi,
        g = B / (det B)^(1/9).

    Raises DegenerateFormError when B fails to be positive definite.
    """
    psi = hodge_star_3(phi)
    c = np.einsum("vcd...,abcd...->vab...", phi, psi)
    b = -(1.0 / 24.0) * np.einsum("uab...,vab...->uv...", phi, c)
    bp = np.moveaxis(b.reshape(7, 7, -1), -1, 0)
    try:
        np.linalg.cholesky(bp)
    except np.linalg.LinAlgError as exc:
        raise DegenerateFormError("3-form does not induce a positive metric") from exc
    det = np.linalg.det(bp).reshape(grid.shape)
    return b / det ** (1.0 / 9.0)


def metric_defect(tables: StructureTables, grid: Grid, phi: np.ndarray) -> float:
    """Sup-norm deviation of the induced metric from the flat identity."""
    g = metric_from_phi(tables, grid, phi)
    eye = np.eye(7).reshape((7, 7) + (1,) * grid.k)
    return float(np.max(np.abs(g - eye)))


def torsion_from_phi(
    tables: StructureTables,
    grid: Grid,
    phi: np.ndarray,
    metric_tol: float | None = 1e-6,
) -> np.ndarray:
    """Torsion T_pq = (1/24) (d_p phi_ijk) psi_qijk with psi = *phi.

    ``metric_tol`` gates the flat-isometry precondition; pass None to skip
    the check (for callers that already track the metric drift).
    """
    if metric_tol is not None:
        defect = metric_defect(tables, grid, phi)
        if defect > metric_tol:
            raise DegenerateFormError(
                f"3-form metric defect {defect:g} exceeds {metric_tol:g}; not isometric to flat"
            )
    psi = hodge_star_3(phi)
    out = grid.zeros(2)
    for dim in grid.active_dims:
        dphi = partial(grid, phi, dim)
        out[dim] = np.einsum("ijk...,qijk...->q...", dphi, psi) / 24.0
    return out
