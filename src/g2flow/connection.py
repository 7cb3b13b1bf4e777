"""Modified connection, gauge frame, and identity residuals.

The flat connection on an auxiliary bundle E (a second copy of the tangent
bundle, trivialized by the grid coordinates) is twisted by
alpha (X -| T) x (.), where x is the cross product of the structure whose
torsion is T, so every operator here takes that structure's 3-form field,
and the twist alpha as an argument.  ``D_derivative`` works in the identity
gauge.  A frame iota: E -> TM is a plain array of shape (7, 7, *grid).
Together with a frame evolving by beta (Div T) x iota, which
``transport_frames`` carries along a trajectory's snapshots, the
gauge-transported torsion satisfies a clean reaction-diffusion equation
for alpha = -1/2, beta = 1/2.  Every residual
evaluator here differences two independently computed sides, so a
vanishing residual under refinement verifies the corresponding identity
numerically rather than by construction.

All curvature terms vanish identically on the flat torus; a non-flat
background is not representable in this module.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import replace

import numpy as np

from .algebra import INTERIOR_ENTRIES, PHI, StructureTables, contract, diamond
from .grid import Grid, div2, grad_vector, laplacian, partial
from .states import (
    IsometricState,
    div_torsion_of_state,
    metric_from_phi,
    phi_of_state,
    psi_of_state,
    sorted_phi_of_state,
    torsion_from_phi,
    torsion_of_state,
)

__all__ = [
    "identity_frame",
    "transport_frames",
    "D_derivative",
    "laplacian_D",
    "reaction_diffusion_residual",
    "torsion_evolution_residual",
    "bianchi_residual",
    "lie_derivative_phi",
    "lie_decomposition_residual",
    "first_variation_residual",
    "second_variation_pointwise_defect",
    "shrinker_soliton_residual",
    "soliton_residual",
]


def identity_frame(grid: Grid) -> np.ndarray:
    """The identity map E -> TM, of shape (7, 7, *grid): ``iota[m, a]`` is the
    TM component m of the a-th frame section.  It is also the stack of the
    identity sections e_a of E, so ``D_derivative`` of it gives the
    connection coefficients."""
    iota = np.zeros((7, 7) + grid.shape)
    iota[np.arange(7), np.arange(7)] = 1.0
    return iota


def D_derivative(
    grid: Grid,
    torsion: np.ndarray,
    phi3: np.ndarray,
    direction: int,
    sigma: np.ndarray,
    alpha: float = -0.5,
) -> np.ndarray:
    """Twisted covariant derivative of a section of E along a coordinate
    direction, in the identity gauge:

        D_dir sigma = d_dir sigma + alpha (e_dir -| T) x sigma,

    with the cross product of ``phi3``, the 3-form field of the structure
    whose torsion is ``torsion``.  ``sigma`` has shape (7, *grid), or
    (7, m, *grid) for m sections at once.
    """
    tw = torsion[direction]  # (e_dir -| T)_m = T_{dir m}
    return partial(grid, sigma, direction) + alpha * np.einsum(
        "mlp...,m...,l...->p...", phi3, tw, sigma
    )


def laplacian_D(
    grid: Grid,
    iota: np.ndarray,
    torsion: np.ndarray,
    phi3: np.ndarray,
    a2: np.ndarray,
    alpha: float = -0.5,
) -> np.ndarray:
    """Connection Laplacian of the mixed tensor A~ = (id x iota)* A, for a
    frame ``iota`` of shape (7, 7, *grid).

    Evaluates, in the mixed frame (tangent index i, bundle index a), with
    the twist ``alpha`` and phi = ``phi3``, the 3-form field of the
    structure whose torsion is ``torsion``:

        (Lap_D A~)_ia = (Lap A)_ip iota_pa
            - alpha^2 [ |T|^2 A_ip - (A o T^t o T)_ip ] iota_pa
            - 2 alpha (d_k A_ip) T_km iota_la phi_mlp
            - alpha A_ip (Div T)_m iota_la phi_mlp.
    """
    lap = laplacian(grid, a2)
    out = np.einsum("ip...,pa...->ia...", lap, iota)
    if alpha != 0.0:
        tsq = np.einsum("km...,km...->...", torsion, torsion)
        ttt = np.einsum("kq...,kp...->qp...", torsion, torsion)  # (T^t T)_qp
        quad = tsq * a2 - np.einsum("iq...,qp...->ip...", a2, ttt)
        out -= alpha * alpha * np.einsum("ip...,pa...->ia...", quad, iota)
        for dim in grid.active_dims:
            da = partial(grid, a2, dim)
            w = np.einsum("m...,mlp...->lp...", torsion[dim], phi3)
            out -= 2.0 * alpha * np.einsum("ip...,la...,lp...->ia...", da, iota, w)
        divt = div2(grid, torsion)
        w = np.einsum("m...,mlp...->lp...", divt, phi3)
        out -= alpha * np.einsum("ip...,la...,lp...->ia...", a2, iota, w)
    return out


def transport_frames(tables: StructureTables, traj, beta: float = 0.5) -> list[np.ndarray]:
    """The frame iota, shape (7, 7, *grid), at each snapshot of an fx
    trajectory: d iota / dt = beta (Div T) x iota, columnwise, from the
    identity at the first.  Each interval takes the Cayley step
    iota <- (I - h A)^{-1} (I + h A) iota, h = dt / 2, one solve over the
    grid, with A_pl = beta (Div T -| phi)_lp averaged over its two ends.  A
    is antisymmetric, so I - h A is invertible and the frames stay orthogonal
    (Iserles et al., Lie-group methods, Acta Numerica 2000), at second order
    in the snapshot spacing.  The steps run in order, so the frames of the
    first k snapshots are those of any trajectory that starts with them.
    """
    grid = traj.grid

    def rate(state):  # A per grid point, shape (points, 7, 7)
        divt = div_torsion_of_state(state)
        rot = contract(INTERIOR_ENTRIES, divt, sorted_phi_of_state(tables, state, check=False))
        return beta * np.moveaxis(rot.reshape(7, 7, -1), -1, 0).swapaxes(1, 2)

    eye = np.eye(7)
    iota = np.broadcast_to(eye, (math.prod(grid.shape), 7, 7))  # (points, m, a)
    frames = [identity_frame(grid)]
    for (t0, a0), (t1, a1) in itertools.pairwise(zip(traj.times, map(rate, traj.states))):
        ha = (0.25 * (t1 - t0)) * (a0 + a1)
        iota = np.linalg.solve(eye - ha, iota + ha @ iota)
        frames.append(np.moveaxis(iota, 0, -1).reshape((7, 7) + grid.shape))
    return frames


def _interior_index(traj, index: int | None) -> int:
    """``index``, by default the middle snapshot, checked to have a stored
    snapshot on each side."""
    count = len(traj.states or [])  # the fx snapshots: the residuals read no others
    if count < 3:
        raise ValueError(f"need at least 3 stored snapshots, have {count}")
    if index is None:
        index = count // 2
    if not 0 < index < count - 1:
        raise ValueError("index must be interior for centered differences")
    return index


def reaction_diffusion_residual(
    tables: StructureTables,
    traj,
    index: int | None = None,
    alpha: float = -0.5,
) -> np.ndarray:
    """Residual of the reaction-diffusion equation for the gauge-transported
    torsion T~ = T . iota at one interior snapshot:

        resid = dT~/dt - Lap_D T~ - alpha^2 ( |T~|^2 T~ - T o T^t o T~ ).

    The time derivative is a centered difference of stored snapshots, with
    the frames of ``transport_frames`` over the snapshots up to index + 1.
    """
    index = _interior_index(traj, index)
    head = replace(traj, times=traj.times[: index + 2], states=traj.states[: index + 2])
    frames = transport_frames(tables, head)
    grid = traj.grid

    def mixed(j):
        t = torsion_of_state(traj.states[j])
        return t, np.einsum("im...,ma...->ia...", t, frames[j])

    (_, m_prev), (t_mid, m_mid), (_, m_next) = (mixed(j) for j in (index - 1, index, index + 1))
    dt2 = traj.times[index + 1] - traj.times[index - 1]
    dmdt = (m_next - m_prev) / dt2

    phi3 = phi_of_state(tables, traj.states[index])
    lap = laplacian_D(grid, frames[index], t_mid, phi3, t_mid, alpha)
    msq = np.einsum("ia...,ia...->...", m_mid, m_mid)
    ttm = np.einsum("ip...,kp...->ik...", t_mid, t_mid)  # (T T^t)_ik
    reaction = alpha * alpha * (msq * m_mid - np.einsum("ik...,ka...->ia...", ttm, m_mid))
    return dmdt - lap - reaction


def torsion_evolution_residual(
    tables: StructureTables,
    traj,
    index: int | None = None,
    include_gradient_term: bool = True,
) -> np.ndarray:
    """Residual of the torsion evolution equation at one interior snapshot:

        resid_pq = dT/dt - Lap T_pq + (d_i T_pb) T_ia phi_abq.

    Dropping the gradient term is the negative control.
    """
    index = _interior_index(traj, index)
    grid = traj.grid
    t_prev = torsion_of_state(traj.states[index - 1])
    t_mid = torsion_of_state(traj.states[index])
    t_next = torsion_of_state(traj.states[index + 1])
    dt2 = traj.times[index + 1] - traj.times[index - 1]
    resid = (t_next - t_prev) / dt2 - laplacian(grid, t_mid)
    if include_gradient_term:
        phi_mid = phi_of_state(tables, traj.states[index])
        for dim in grid.active_dims:
            dtm = partial(grid, t_mid, dim)
            resid += np.einsum("pb...,a...,abq...->pq...", dtm, t_mid[dim], phi_mid)
    return resid


def bianchi_residual(grid: Grid, torsion: np.ndarray, phi3: np.ndarray) -> np.ndarray:
    """First-order torsion identity residual on the flat background:

        resid_ijk = d_i T_jk - d_j T_ik - T_ia T_jb phi_abk,

    with phi = ``phi3``, the 3-form of the structure the torsion belongs to.
    """
    gt = grad_vector(grid, torsion)
    resid = gt - np.swapaxes(gt, 0, 1)
    resid -= np.einsum("ia...,jb...,abk...->ijk...", torsion, torsion, phi3)
    return resid


def lie_derivative_phi(grid: Grid, y: np.ndarray, phi3: np.ndarray) -> np.ndarray:
    """Coordinate Lie derivative of a 3-form field along a vector field:

    (L_Y phi)_ijk = Y_m d_m phi_ijk + (d_i Y_m) phi_mjk
                    + (d_j Y_m) phi_imk + (d_k Y_m) phi_ijm.
    """
    out = np.zeros_like(phi3)
    for dim in grid.active_dims:
        out += y[dim] * partial(grid, phi3, dim)
    gy = grad_vector(grid, y)
    out += np.einsum("im...,mjk...->ijk...", gy, phi3)
    out += np.einsum("jm...,imk...->ijk...", gy, phi3)
    out += np.einsum("km...,ijm...->ijk...", gy, phi3)
    return out


def lie_decomposition_residual(
    tables: StructureTables, state: IsometricState, y: np.ndarray
) -> np.ndarray:
    """Residual of the Lie-derivative decomposition for the state's 3-form:

        L_Y phi - [ (Y -| T - curl(Y)/2) -| psi + (1/2)(L_Y g) <> phi ],

    with curl(Y)_m = (d_i Y_j) phi_ijm taken for the state's own 3-form.
    """
    grid = state.grid
    phi3 = phi_of_state(tables, state)
    psi4 = psi_of_state(tables, state)
    torsion = torsion_of_state(state)
    lhs = lie_derivative_phi(grid, y, phi3)

    gy = grad_vector(grid, y)
    y_t = np.einsum("l...,lp...->p...", y, torsion)
    curl = np.einsum("ij...,ijm...->m...", gy, phi3)
    vec = y_t - 0.5 * curl
    rhs = np.einsum("p...,pijk...->ijk...", vec, psi4)
    lyg = gy + np.swapaxes(gy, 0, 1)
    rhs += 0.5 * diamond(lyg, phi3)
    return lhs - rhs


def first_variation_residual(
    tables: StructureTables,
    state: IsometricState,
    v: np.ndarray,
    eps: float = 1e-4,
) -> np.ndarray:
    """Centered difference of the torsion under phi -> phi + eps (V -| psi),
    minus the first-variation formula  d_i V_j + V_l T_im phi_lmj.

    The perturbed forms leave the isometric class only at O(eps^2) and the
    symmetric error cancels in the central difference; the flat Hodge star
    is used throughout (metric re-projection).
    """
    grid = state.grid
    phi3 = phi_of_state(tables, state)
    psi4 = psi_of_state(tables, state)
    torsion = torsion_of_state(state)
    pert = np.einsum("p...,pijk...->ijk...", v, psi4)
    # raises DegenerateFormError if eps pushed the form out of the cone
    metric_from_phi(phi3 + eps * pert)
    t_plus = torsion_from_phi(grid, phi3 + eps * pert, metric_tol=None)
    t_minus = torsion_from_phi(grid, phi3 - eps * pert, metric_tol=None)
    numeric = (t_plus - t_minus) / (2.0 * eps)
    analytic = grad_vector(grid, v) + np.einsum(
        "l...,im...,lmj...->ij...", v, torsion, phi3
    )
    return numeric - analytic


def second_variation_pointwise_defect(
    grad_x: np.ndarray, torsion: np.ndarray, x: np.ndarray
) -> np.ndarray:
    """Pointwise defect of the twisted-gradient identity

        |D X|^2 = |grad X|^2 - T_km (grad X)_kp phi_mlp X_l
                  + (1/4)(|T|^2 |X|^2 - (T^t o T)(X, X)),

    with (D X)_kp = (grad X)_kp - (1/2) T_km X_l phi_mlp.  The identity is
    algebraic and holds for arbitrary (grad X, T, X) triples.
    """
    twist = np.einsum("km...,l...,mlp->kp...", torsion, x, PHI)
    dx = grad_x - 0.5 * twist
    lhs = np.einsum("kp...,kp...->...", dx, dx)
    rhs = np.einsum("kp...,kp...->...", grad_x, grad_x)
    rhs -= np.einsum("km...,kp...,l...,mlp->...", torsion, grad_x, x, PHI)
    tsq = np.einsum("km...,km...->...", torsion, torsion)
    xsq = np.einsum("l...,l...->...", x, x)
    ttxx = np.einsum("km...,kl...,m...,l...->...", torsion, torsion, x, x)
    rhs += 0.25 * (tsq * xsq - ttxx)
    return lhs - rhs


def shrinker_soliton_residual(
    state: IsometricState,
    center: tuple[int, ...],
    t0: float,
    t: float,
) -> np.ndarray:
    """Residual of the Euclidean shrinker equation

        Div T - (x - x0) / (2 (t0 - t)) -| T,

    with the displacement lifted periodically to (-L/2, L/2] per active
    dimension.
    """
    if t >= t0:
        raise ValueError("shrinker residual requires t < t0")
    grid = state.grid
    torsion = torsion_of_state(state)
    divt = div2(grid, torsion)
    scale = 0.5 / (t0 - t)
    pulled = np.zeros(torsion.shape[1:])
    for pos, dim in enumerate(grid.active_dims):
        w = grid.lifted_displacement(dim, center[pos]) * scale
        pulled = pulled + w * torsion[dim]
    return divt - pulled


def soliton_residual(
    tables: StructureTables, state: IsometricState, x0: np.ndarray
) -> np.ndarray:
    """General soliton residual for a candidate vector field X0:

        Div T - ( -(1/2) curl X0 + X0 -| T ),

    with curl taken for the state's own 3-form.
    """
    grid = state.grid
    phi3 = phi_of_state(tables, state)
    torsion = torsion_of_state(state)
    divt = div2(grid, torsion)
    gx0 = grad_vector(grid, x0)
    curl = np.einsum("ij...,ijm...->m...", gx0, phi3)
    pulled = np.einsum("l...,lq...->q...", x0, torsion)
    return divt - (-0.5 * curl + pulled)
