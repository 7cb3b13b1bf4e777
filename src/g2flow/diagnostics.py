"""Scalar functionals and monotonicity machinery for the flow.

Energy, the backwards heat kernel on the torus (wrapped-Gaussian image
sums), the parabolically scale-invariant localized energy, the entropy
functional, the localized-energy evolution identity split into its
gradient and kernel-Hessian terms, a quantitative decay-rate fit, and the
bounded-quantity monitors.

The kernel is a product of one-dimensional wrapped Gaussians over the
active directions; the inactive directions are integrated out analytically
(each contributes a factor 1/L after normalization over the torus, and an
exponentially small Hessian correction handled in closed form).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .grid import Grid, div2, integrate, partial
from .states import IsometricState, torsion_of_state, torsion_rows_of_state

__all__ = [
    "HeatKernelSpec",
    "energy",
    "sup_norm",
    "heat_kernel",
    "grad_log_kernel",
    "theta",
    "monotonicity_terms",
    "monotonicity_residual",
    "entropy",
    "entropy_tables",
    "decay_rate",
    "record_for_state",
    "record_for_torsion",
]

IMAGE_RADIUS = 3  # every kernel's least wrapped-Gaussian truncation radius, in periods
# the entropy's scales, SCALE_COUNT of them geometric from SCALE_RATIO * sigma up to
# sigma, and its centers, every max(1, n // CENTERS_PER_AXIS)-th index on each axis
SCALE_COUNT = 12
SCALE_RATIO = 0.01
CENTERS_PER_AXIS = 8


@dataclass(frozen=True)
class HeatKernelSpec:
    """Backwards heat kernel centered at a grid point, final time t0.

    ``center`` holds one grid index per active dimension.  The image sum
    runs over at least ``IMAGE_RADIUS`` periods each way, and over more
    whenever more images are needed to keep the kernel mass within 1e-8 of 1.
    """

    center: tuple[int, ...]
    t0: float


def energy(grid: Grid, torsion: np.ndarray) -> float:
    """E = (1/2) * integral of |T|^2 over the torus; T dense or its active rows."""
    return 0.5 * integrate(grid, np.einsum("pq...,pq...->...", torsion, torsion))


def sup_norm(tensor: np.ndarray, rank: int) -> float:
    """Sup over the grid of the pointwise norm (full component sum) of a
    field whose first ``rank`` axes are tensor slots and the rest grid axes.
    A slot may hold fewer than 7 entries, such as a torsion's k active rows."""
    sq = np.sum(tensor * tensor, axis=tuple(range(rank))) if rank else tensor * tensor
    return float(np.sqrt(np.max(sq)))


def _auto_radius(length: float, tau: float) -> int:
    # keep exp(-((R-1/2) L)^2 / 4 tau) below ~1e-20
    need = int(math.ceil((math.sqrt(184.0 * tau) / length) + 0.5)) + 1
    return max(IMAGE_RADIUS, need)


def _wrapped_parts(length: float, tau: float, d: np.ndarray):
    """1-D wrapped Gaussian w(d) and its first two derivatives."""
    r = _auto_radius(length, tau)
    norm = 1.0 / math.sqrt(4.0 * math.pi * tau)
    w = np.zeros_like(d)
    wp = np.zeros_like(d)
    wpp = np.zeros_like(d)
    for image in range(-r, r + 1):
        z = d + image * length
        g = norm * np.exp(-z * z / (4.0 * tau))
        w += g
        wp += -(z / (2.0 * tau)) * g
        wpp += (z * z / (4.0 * tau * tau) - 1.0 / (2.0 * tau)) * g
    return w, wp, wpp


def _kernel_axes(grid: Grid, spec: HeatKernelSpec, t: float):
    tau = spec.t0 - t
    if tau <= 0:
        raise ValueError("kernel requires t < t0")
    if len(spec.center) != grid.k:
        raise ValueError("kernel center needs one index per active dimension")
    axes = [
        _wrapped_parts(grid.length, tau, grid.displacement(c))
        for c in spec.center
    ]
    return tau, axes


def _product_kernel(grid: Grid, tables) -> np.ndarray:
    """((L^-(7-k) w_0) w_1) ..., one outer product per active axis in axis order; only
    the last spans the grid.  Every kernel here but the entropy's uses it; ``entropy``
    forms the same products from its tables' heads."""
    u = grid.length ** -(7 - grid.k)
    for w in tables:
        u = np.multiply.outer(u, w)
    return u


def _grad_log(grid: Grid, axes) -> np.ndarray:
    """grad f = -w'/w of the product kernel's axes; zero on inactive dims."""
    out = grid.zeros(1)
    for dim, (w, wp, _) in zip(grid.active_dims, axes):
        out[dim] = grid.along(dim, -wp / w)
    return out


def heat_kernel(grid: Grid, spec: HeatKernelSpec, t: float) -> np.ndarray:
    """Kernel values on the grid; mass-normalized to 1 over the torus."""
    _, axes = _kernel_axes(grid, spec, t)
    return _product_kernel(grid, [w for w, _, _ in axes])


def grad_log_kernel(grid: Grid, spec: HeatKernelSpec, t: float) -> np.ndarray:
    """grad f with u = exp(-f) / (4 pi (t0-t))^(7/2); zero on inactive dims."""
    return _grad_log(grid, _kernel_axes(grid, spec, t)[1])


def theta(grid: Grid, torsion: np.ndarray, spec: HeatKernelSpec, t: float) -> float:
    """Localized energy (t0 - t) * integral |T|^2 u; T dense or its active rows."""
    tau = spec.t0 - t
    if tau <= 0:
        raise ValueError("localized energy requires t < t0")
    u = heat_kernel(grid, spec, t)
    return tau * integrate(grid, np.einsum("pq...,pq...->...", torsion, torsion) * u)


def _inactive_hessian_integral(length: float, tau: float) -> float:
    """I = 1/(2 tau) - int_0^L w'^2 / w  (exponentially small for tau << L^2)."""
    m = 4096  # midpoint-rule points
    d = (np.arange(m) + 0.5) * length / m - length / 2
    w, wp, _ = _wrapped_parts(length, tau, d)
    j = float(np.sum(wp * wp / w)) * length / m
    return 1.0 / (2.0 * tau) - j


def monotonicity_terms(
    grid: Grid,
    torsion: np.ndarray,
    spec: HeatKernelSpec,
    t: float,
) -> dict:
    """Gradient and kernel-Hessian terms of the localized-energy identity.

    Returns the two integrals whose sum is d(theta)/dt on the flat torus:

        term1 = -2 (t0-t) int |Div T - grad f -| T|^2 u
        term2 = -2 (t0-t) int T_lq T_pq (H u)_pl ,

    with the Hessian factor of the product kernel reduced per direction;
    inactive directions contribute in closed form.
    """
    tau, axes = _kernel_axes(grid, spec, t)
    u = _product_kernel(grid, [w for w, _, _ in axes])
    gradf = _grad_log(grid, axes)
    eta = {
        dim: grid.along(dim, wpp / w - (wp / w) ** 2 + 1.0 / (2.0 * tau))
        for dim, (w, wp, wpp) in zip(grid.active_dims, axes)
    }
    i_eta = _inactive_hessian_integral(grid.length, tau)
    j_eta = 1.0 / (2.0 * tau) - i_eta

    divt = div2(grid, torsion)
    pulled = np.einsum("p...,pq...->q...", gradf, torsion)
    resid = divt - pulled
    term1 = -2.0 * tau * integrate(grid, np.einsum("q...,q...->...", resid, resid) * u)

    tt_diag = np.einsum("pq...,pq...->p...", torsion, torsion)  # (T T^t)_pp
    inactive_mass = 0.0
    term2 = 0.0
    for p in range(7):
        if p in grid.active_dims:
            term2 += -2.0 * tau * integrate(grid, tt_diag[p] * eta[p] * u)
        else:
            inactive_mass += integrate(grid, tt_diag[p] * u)
    term2 += -2.0 * tau * i_eta * inactive_mass
    term1 += -2.0 * tau * j_eta * inactive_mass
    return {
        "term1": term1,
        "term2": term2,
        "hessian_correction": abs(term2),
    }


def monotonicity_residual(traj, spec: HeatKernelSpec) -> list[dict]:
    """Centered d(theta)/dt minus the identity's right-hand side, per snapshot.

    ``traj`` needs at least three stored states; entries are produced for
    the interior snapshot times.
    """
    if traj.states is None or len(traj.states) < 3:
        raise ValueError("need at least 3 stored states for centered time differences")
    grid = traj.grid
    torsions = [torsion_of_state(s) for s in traj.states]
    thetas = [theta(grid, T, spec, tm) for T, tm in zip(torsions, traj.times)]
    out = []
    for j in range(1, len(torsions) - 1):
        dt2 = traj.times[j + 1] - traj.times[j - 1]
        dtheta = (thetas[j + 1] - thetas[j - 1]) / dt2
        terms = monotonicity_terms(grid, torsions[j], spec, traj.times[j])
        out.append(
            {
                "t": traj.times[j],
                "dtheta_dt": dtheta,
                "term1": terms["term1"],
                "term2": terms["term2"],
                "residual": dtheta - terms["term1"] - terms["term2"],
                "hessian_correction": terms["hessian_correction"],
                "theta": thetas[j],
            }
        )
    return out


@dataclass(frozen=True)
class EntropyResult:
    value: float
    center: tuple[int, ...]
    scale: float


@dataclass(frozen=True)
class EntropyTables:
    """The entropy's tables on ``grid``: its scales, upward, its sampled
    indices, and per scale the 1-D wrapped Gaussian w(x - x_c) at each sampled
    index c (``kernels``) and its head L^-(7-k) w(x - x_c) (``heads``), the
    first outer product of ``_product_kernel``."""

    grid: Grid
    scales: list
    indices: range
    kernels: list
    heads: list


def entropy_tables(grid: Grid, sigma: float) -> EntropyTables:
    """The entropy's kernel tables up to scale ``sigma``.  They depend on the
    grid and sigma alone, so a run builds them once for all its records."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    scales = [float(tau) for tau in np.geomspace(SCALE_RATIO * sigma, sigma, SCALE_COUNT)]
    indices = range(0, grid.n, max(1, grid.n // CENTERS_PER_AXIS))
    kernels = [
        {
            c: _wrapped_parts(grid.length, tau, grid.displacement(c))[0]
            for c in indices
        }
        for tau in scales
    ]
    factor = grid.length ** -(7 - grid.k)  # _product_kernel's first factor
    heads = [{c: np.multiply.outer(factor, w) for c, w in table.items()} for table in kernels]
    return EntropyTables(grid, scales, indices, kernels, heads)


def entropy(tables: EntropyTables, torsion: np.ndarray) -> EntropyResult:
    """Sampled maximization of t * int |T|^2 u_(x,t)(., 0) over the tables'
    centers and scales t in (0, sigma]; T dense or its active rows.

    A lower bound for the true maximum, with its argmax: the first maximizer, visiting centers
    in lattice order and at each the scales upward.  One wrapped Gaussian per (scale, sampled
    index) serves every center and axis.  Each kernel is its first index's head times the later
    axes' tables, as ``_product_kernel`` forms it; the last product, then |T|^2 times it, go
    into one kept buffer, whose sum times the cell weight is ``integrate``'s.
    """
    grid = tables.grid
    tsq = np.einsum("pq...,pq...->...", torsion, torsion)
    weight = grid.cell_weight
    outer = np.multiply.outer
    per_scale = list(zip(tables.scales, tables.heads, tables.kernels))
    best_value, best_center, best_tau = 0.0, (0,) * grid.k, tables.scales[-1]
    u = np.empty(grid.shape)
    for center in itertools.product(tables.indices, repeat=grid.k):
        first, *rest = center
        middle, last = rest[:-1], rest[-1:]
        for tau, heads, table in per_scale:
            v = heads[first]
            for c in middle:
                v = outer(v, table[c])
            for c in last:
                v = outer(v, table[c], out=u)
            val = tau * (float(np.multiply(tsq, v, out=u).sum()) * weight)
            if val > best_value:
                best_value, best_center, best_tau = val, center, tau
    return EntropyResult(best_value, best_center, best_tau)


def decay_rate(times, div_l2_series, sup_series, length: float) -> dict:
    """Least-squares exponential decay rate of int |Div T|^2.

    Valid only while sup|T|^2 <= Lambda/14 with Lambda = (2 pi / L)^2 the
    first nonzero rough-Laplacian eigenvalue; otherwise reports that the
    hypothesis is not met.
    """
    lam = (2.0 * math.pi / length) ** 2
    sup_sq = max(float(s) ** 2 for s in sup_series)
    if sup_sq > lam / 14.0:
        return {"hypothesis_ok": False, "sup_T_sq": sup_sq, "bound": lam / 14.0}
    vals = np.asarray(div_l2_series, dtype=float)
    ts = np.asarray(times, dtype=float)
    mask = vals > 0
    if mask.sum() < 2:
        return {"hypothesis_ok": True, "rate": None, "reason": "divergence identically zero"}
    slope, _ = np.polyfit(ts[mask], np.log(vals[mask]), 1)
    return {
        "hypothesis_ok": True,
        "rate": -float(slope),
        "threshold": lam / 2.0,
        "lambda": lam,
    }


def _shi_sups(grid: Grid, rows: np.ndarray) -> tuple[float, float]:
    """(sup|grad T|, sup|grad^2 T|) from the torsion's active rows (the other
    rows vanish, since d_p does there), one row's d_a T and d_b d_a T at a time
    in two kept buffers.  Each derivative's |.|^2 is summed term by term in
    (p, q) order into its own grid scalar before it joins the total, as
    ``np.einsum("pq...,pq...->...")`` sums it."""

    def add_sq(d, s, first):
        # s += sum_q d_q^2 term by term, squaring d in place; the first row's
        # sum is written by one einsum, which sums from +0 in q order
        if first:
            np.einsum("q...,q...->...", d, d, out=s)
            return
        for term in np.multiply(d, d, out=d):
            s += term

    sq1 = np.zeros(grid.shape)
    sq2 = np.zeros(grid.shape)
    sums = np.empty((1 + grid.k,) + grid.shape)  # |d_a T|^2, then |d_b d_a T|^2 per b
    da, dba = np.empty_like(rows[0]), np.empty_like(rows[0])
    for a in grid.active_dims:
        for p, row in enumerate(rows):
            partial(grid, row, a, out=da)
            for s, b in zip(sums[1:], grid.active_dims):
                partial(grid, da, b, out=dba)
                add_sq(dba, s, p == 0)
            add_sq(da, sums[0], p == 0)
        sq1 += sums[0]
        for s in sums[1:]:
            sq2 += s
    return float(np.sqrt(np.max(sq1))), float(np.sqrt(np.max(sq2)))


def record_for_torsion(
    grid: Grid,
    rows: np.ndarray,
    t: float,
    constraint_defect: float,
    theta_probes=(),
    sup_t_reference: float | None = None,
    ent_tables: EntropyTables | None = None,
) -> dict:
    """One diagnostics record, from the torsion's active rows (shape
    (k, 7, *grid), as ``torsion_rows_of_state`` returns them).  Each sum
    runs in the order it has over the dense tensor, less its zero rows.
    After t = 0, with a positive ``sup_t_reference`` = sup|T(0)|, it holds the
    scale-invariant Shi quantities sup|grad^m T| t^(m/2) / sup|T(0)|.

    With ``ent_tables``, ``entropy_tables`` of this grid, the record holds the
    entropy; a run builds them once for all its records."""
    if len(rows) != grid.k:
        raise ValueError(f"a record takes the torsion's {grid.k} active rows, got {len(rows)}")
    divt = div2(grid, rows, rows=True)
    tsq = np.einsum("pq...,pq...->...", rows, rows)  # |T|^2, as energy and sup_norm sum it
    rec = {
        "t": t,
        "energy": 0.5 * integrate(grid, tsq),
        "sup_T": float(np.sqrt(np.max(tsq))),
        "div_T_l2": integrate(grid, np.einsum("q...,q...->...", divt, divt)),
        "constraint_defect": constraint_defect,
    }
    del divt, tsq  # not held through the Shi sums' buffers
    thetas = []
    for center, t0 in theta_probes:
        spec = HeatKernelSpec(center=tuple(center), t0=float(t0))
        if t < t0:
            thetas.append([list(center), float(t0), theta(grid, rows, spec, t)])
    if thetas:
        rec["theta"] = thetas
    if ent_tables is not None:
        rec["entropy_estimate"] = entropy(ent_tables, rows).value
    if sup_t_reference and sup_t_reference > 0 and t > 0:
        m1, m2 = _shi_sups(grid, rows)
        rec["shi_quantities"] = {"m1": m1 * math.sqrt(t) / sup_t_reference, "m2": m2 * t / sup_t_reference}
    return rec


def record_for_state(state: IsometricState, t: float, **options) -> dict:
    """``record_for_torsion`` of the state's torsion rows, at time t."""
    rows = torsion_rows_of_state(state)
    return record_for_torsion(state.grid, rows, t, state.constraint_defect(), **options)
