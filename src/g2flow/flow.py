"""Time integration of the isometric flow.

Two independent routes integrate the same evolution: the parabolic system
for the pair (f, X), and the direct 3-form flow  d(phi)/dt = Div T -| psi.
Both use explicit method-of-lines stepping (Euler or classical RK4) under
a conservative parabolic CFL bound.  The (f, X) route re-normalizes the
pointwise constraint f^2 + |X|^2 = 1 after every step; the continuous flow
preserves it, so projection only removes discretization drift.

A trajectory optionally co-evolves a gauge frame iota on an auxiliary
bundle (d iota / dt = beta (Div T) x iota, columnwise) so that connection
residual diagnostics can difference the gauge-transported torsion in time.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import diagnostics as diag
from .algebra import (
    StructureTables,
    cross,
    dense_from_sorted,
    first_slot_slices_4,
    hodge_star_3,
    sorted_components,
    star_sorted_3,
)
from .grid import Grid, div2, laplacian, partial, save_checkpoint
from .states import (
    DegenerateFormError,
    IsometricState,
    localized_state,
    metric_defect,
    phi_of_state,
    random_band_state,
    single_mode_state,
    torsion_from_phi,
    torsion_of_state,
)

__all__ = [
    "ConfigError",
    "InitialSpec",
    "FlowConfig",
    "Trajectory",
    "RunResult",
    "rhs_fx",
    "rhs_direct",
    "step_fx",
    "step_direct",
    "run",
    "parabolic_rescale",
]


class ConfigError(ValueError):
    """Raised for invalid flow configurations."""


@dataclass(frozen=True)
class InitialSpec:
    """Named initial-condition families for the flow."""

    family: str = "single_mode"  # single_mode | random_band | localized | checkpoint
    amplitude: float = 0.1
    wave_dim: int | None = None
    component: int = 2
    max_mode: int = 2
    seed: int = 0
    width: float = 0.15
    checkpoint: str | None = None


@dataclass(frozen=True)
class FlowConfig:
    grid: Grid
    initial: InitialSpec = InitialSpec()
    dt: float = 1e-4
    t_end: float = 1e-2
    integrator: str = "rk4"  # euler | rk4
    scheme: str = "fx"  # fx | direct | both
    cfl_safety: float = 0.25
    diagnostics_every: int = 10
    snapshot_every: int = 0  # 0: endpoints only
    chart_positive: bool = False
    torsion_ceiling: float = 100.0
    metric_tol: float = 1e-3
    metric_check_every: int = 50
    track_frame: bool = False
    frame_beta: float = 0.5
    constraint_abort_tol: float = 1e-6
    theta_probes: tuple = ()
    entropy_sigma: float | None = None

    def validate(self) -> None:
        if self.dt <= 0 or self.t_end <= 0:
            raise ConfigError("dt and t_end must be positive")
        if self.integrator not in ("euler", "rk4"):
            raise ConfigError(f"unknown integrator {self.integrator!r}")
        if self.scheme not in ("fx", "direct", "both"):
            raise ConfigError(f"unknown scheme {self.scheme!r}")
        if not 0 < self.cfl_safety <= 1:
            raise ConfigError("cfl_safety must lie in (0, 1]")
        g = self.grid
        bound = self.cfl_safety * g.h * g.h / (2.0 * g.k)
        if self.dt > bound * (1 + 1e-12):
            raise ConfigError(
                f"dt {self.dt:g} violates the stability bound "
                f"cfl_safety*h^2/(2*k) = {bound:g}"
            )
        if self.diagnostics_every <= 0:
            raise ConfigError("diagnostics_every must be positive")
        if self.initial.family not in ("single_mode", "random_band", "checkpoint", "localized"):
            raise ConfigError(f"unknown initial family {self.initial.family!r}")

    @property
    def n_steps(self) -> int:
        return max(1, int(round(self.t_end / self.dt)))


@dataclass
class Trajectory:
    """Snapshots of one flow run plus the diagnostics stream."""

    scheme: str
    grid: Grid
    times: list
    states: list | None = None  # fx scheme
    phis: list | None = None  # direct scheme
    frames: list | None = None
    records: list = field(default_factory=list)
    events: list = field(default_factory=list)


@dataclass
class RunResult:
    fx: Trajectory | None = None
    direct: Trajectory | None = None

    @property
    def events(self) -> list:
        out = []
        for traj in (self.fx, self.direct):
            if traj is not None:
                out.extend(traj.events)
        return out


def initial_state(config: FlowConfig) -> IsometricState:
    spec = config.initial
    if spec.family == "single_mode":
        return single_mode_state(config.grid, spec.amplitude, spec.wave_dim, spec.component)
    if spec.family == "random_band":
        return random_band_state(config.grid, spec.amplitude, spec.max_mode, spec.seed)
    if spec.family == "localized":
        return localized_state(
            config.grid, spec.amplitude, spec.component, width=spec.width
        )
    if spec.family == "checkpoint":
        from .grid import load_checkpoint

        if spec.checkpoint is None:
            raise ConfigError("checkpoint family needs a checkpoint path")
        grid, f, x = load_checkpoint(spec.checkpoint)
        if grid != config.grid:
            raise ConfigError("checkpoint grid does not match the configured grid")
        return IsometricState(grid=grid, f=f, x=x)
    raise ConfigError(f"unknown initial family {spec.family!r}")


def _harmonic_map(grid: Grid, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Laplacian and rates of the stacked field u = (f, X), shape (8, *grid):

    df = (Lap f) |X|^2 - f <X, Lap X>,    dX = Lap X + |grad u|^2 X.
    """
    lu = laplacian(grid, u)
    grad_sq = np.zeros(grid.shape)
    for dim in grid.active_dims:
        du = partial(grid, u, dim)
        grad_sq += np.einsum("a...,a...->...", du, du)
    f, x, lf, lx = u[0], u[1:], lu[0], lu[1:]
    rates = np.empty_like(u)
    rates[0] = lf * np.einsum("q...,q...->...", x, x) - f * np.einsum("q...,q...->...", x, lx)
    rates[1:] = lx + grad_sq * x
    return lu, rates


def rhs_fx(
    tables: StructureTables, state: IsometricState
) -> tuple[np.ndarray, np.ndarray]:
    """Rates (df/dt, dX/dt) of the parabolic system.

    On the flat torus it is the harmonic-map heat flow of u = (f, X) into
    S^7, taken with one Laplacian of the stacked field:

        df = (Lap f) |X|^2 - f <X, Lap X>    (= Lap f - f <u, Lap u> on S^7)
        dX = Lap X + |grad u|^2 X

    df equals (1/2) <X, Div T>: the cross-product term of Div T is
    orthogonal to X.
    """
    _, rates = _harmonic_map(state.grid, np.concatenate((state.f[None], state.x)))
    return rates[0], rates[1:]


def _torsion_sorted(grid: Grid, s3: np.ndarray) -> np.ndarray:
    """Torsion from sorted 3-form components:

    T_pq = (1/24) (d_p phi)_ijk psi_qijk = (1/4) sum over sorted triples.
    """
    psi_slices = first_slot_slices_4(star_sorted_3(s3))  # (7, 35) + grid
    out = np.zeros((7, 7) + s3.shape[1:])
    for dim in grid.active_dims:
        ds3 = partial(grid, s3, dim)
        out[dim] = 0.25 * np.einsum("s...,qs...->q...", ds3, psi_slices)
    return out


def _rhs_direct_sorted(grid: Grid, s3: np.ndarray) -> np.ndarray:
    torsion = _torsion_sorted(grid, s3)
    divt = div2(grid, torsion)
    psi_slices = first_slot_slices_4(star_sorted_3(s3))
    return np.einsum("p...,ps...->s...", divt, psi_slices)


def rhs_direct(
    tables: StructureTables,
    grid: Grid,
    phi: np.ndarray,
    metric_tol: float | None = 1e-6,
) -> np.ndarray:
    """Right-hand side (Div T) -| psi of the direct 3-form flow."""
    if metric_tol is not None:
        t = torsion_from_phi(tables, grid, phi, metric_tol=metric_tol)
        divt = div2(grid, t)
        psi = hodge_star_3(phi)
        return np.einsum("p...,pijk...->ijk...", divt, psi)
    return dense_from_sorted(_rhs_direct_sorted(grid, sorted_components(phi, 3)), 3)


def _fx_rates(tables, state, iota, beta):
    if iota is None:
        return (*rhs_fx(tables, state), None)
    lu, rates = _harmonic_map(state.grid, np.concatenate((state.f[None], state.x)))
    # Div T = 2 (Lap f) X - 2 f Lap X - 2 Lap X x X, from the same Laplacians;
    # the gauge flow uses the evolving structure's own cross product
    divt = 2.0 * lu[0] * state.x - 2.0 * state.f * lu[1:] - 2.0 * cross(tables, lu[1:], state.x)
    phi3 = phi_of_state(tables, state, check=False)
    diota = beta * np.einsum("mlp...,m...,la...->pa...", phi3, divt, iota)
    return rates[0], rates[1:], diota


def step_fx(
    tables: StructureTables,
    state: IsometricState,
    dt: float,
    integrator: str = "rk4",
    iota: np.ndarray | None = None,
    beta: float = 0.5,
    project: bool = True,
):
    """One explicit step of the (f, X) system, then constraint projection.

    Returns (projected state, new iota or None, pre-projection defect).
    ``project=False`` skips the normalization, exposing the raw integrator
    for order studies.
    """

    def rates(y):
        f, x, io = y
        return _fx_rates(tables, replace(state, f=f, x=x), io, beta)

    def shift(y, c, k):
        return tuple(None if a is None else a + c * b for a, b in zip(y, k))

    y0 = (state.f, state.x, iota)
    if integrator == "euler":
        f1, x1, io1 = shift(y0, dt, rates(y0))
    elif integrator == "rk4":
        k1 = rates(y0)
        k2 = rates(shift(y0, 0.5 * dt, k1))
        k3 = rates(shift(y0, 0.5 * dt, k2))
        k4 = rates(shift(y0, dt, k3))
        f1, x1, io1 = (
            None if a is None else a + dt / 6.0 * (b1 + 2 * b2 + 2 * b3 + b4)
            for a, b1, b2, b3, b4 in zip(y0, k1, k2, k3, k4)
        )
    else:
        raise ConfigError(f"unknown integrator {integrator!r}")

    raw = replace(state, f=f1, x=x1, t=state.t + dt)
    defect = raw.constraint_defect()
    return (raw.project() if project else raw), io1, defect


def _step_direct_sorted(grid: Grid, s3: np.ndarray, dt: float, integrator: str) -> np.ndarray:
    if integrator == "euler":
        return s3 + dt * _rhs_direct_sorted(grid, s3)
    if integrator == "rk4":
        k1 = _rhs_direct_sorted(grid, s3)
        k2 = _rhs_direct_sorted(grid, s3 + 0.5 * dt * k1)
        k3 = _rhs_direct_sorted(grid, s3 + 0.5 * dt * k2)
        k4 = _rhs_direct_sorted(grid, s3 + dt * k3)
        return s3 + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    raise ConfigError(f"unknown integrator {integrator!r}")


def step_direct(
    tables: StructureTables,
    grid: Grid,
    phi: np.ndarray,
    dt: float,
    integrator: str = "rk4",
    metric_tol: float | None = None,
) -> np.ndarray:
    """One explicit step of the direct 3-form flow."""
    if metric_tol is not None:
        defect = metric_defect(tables, grid, phi)
        if defect > metric_tol:
            raise DegenerateFormError(
                f"3-form metric defect {defect:g} exceeds {metric_tol:g}"
            )
    s3 = _step_direct_sorted(grid, sorted_components(phi, 3), dt, integrator)
    return dense_from_sorted(s3, 3)


def _should_snapshot(step: int, n_steps: int, every: int) -> bool:
    if step == 0 or step == n_steps:
        return True
    return every > 0 and step % every == 0


def _run_fx(tables: StructureTables, config: FlowConfig, state0: IsometricState) -> Trajectory:
    grid = config.grid
    traj = Trajectory(scheme="fx", grid=grid, times=[], states=[], frames=[] if config.track_frame else None)
    state = state0.project()
    iota = None
    if config.track_frame:
        iota = np.zeros((7, 7) + grid.shape)
        iota[np.arange(7), np.arange(7)] = 1.0
    sup_t0 = diag.sup_norm(torsion_of_state(tables, state))
    doubling_seen = False
    chart_seen = False
    pending_events: list[dict] = []

    def emit(state, extra_events):
        rec = diag.record_for_state(
            tables,
            state,
            theta_probes=config.theta_probes,
            entropy_sigma=config.entropy_sigma,
            sup_t_reference=sup_t0,
        )
        rec["events"] = extra_events
        traj.records.append(rec)
        return rec

    emit(state, [])
    n_steps = config.n_steps
    for step in range(n_steps + 1):
        if _should_snapshot(step, n_steps, config.snapshot_every):
            traj.times.append(state.t)
            traj.states.append(state)
            if config.track_frame:
                traj.frames.append(iota.copy())
        if step == n_steps:
            break
        state_new, iota, defect = step_fx(
            tables, state, config.dt, config.integrator, iota, config.frame_beta
        )
        if not (np.isfinite(state_new.f).all() and np.isfinite(state_new.x).all()):
            ev = {"type": "blow_up", "t": state.t, "detail": "non-finite state"}
            traj.events.append(ev)
            traj.records.append({"t": state.t, "events": [ev]})
            break
        if defect > config.constraint_abort_tol:
            ev = {"type": "constraint_abort", "t": state_new.t, "defect": defect}
            traj.events.append(ev)
            traj.records.append({"t": state_new.t, "events": [ev]})
            break
        state = state_new
        if config.chart_positive and not chart_seen and float(np.min(state.f)) < 0.0:
            chart_seen = True
            ev = {"type": "chart_exit", "t": state.t}
            traj.events.append(ev)
            pending_events.append(ev)
        if (step + 1) % config.diagnostics_every == 0 or step + 1 == n_steps:
            rec = emit(state, pending_events)
            pending_events = []
            if sup_t0 > 0 and not doubling_seen and rec["sup_T"] > 2.0 * sup_t0:
                doubling_seen = True
                ev = {
                    "type": "doubling_time",
                    "t": state.t,
                    "empirical_C": 1.0 / (state.t * sup_t0 * sup_t0),
                }
                traj.events.append(ev)
            if rec["sup_T"] > config.torsion_ceiling:
                ev = {"type": "singularity_suspected", "t": state.t, "sup_T": rec["sup_T"]}
                traj.events.append(ev)
                if not _should_snapshot(step + 1, n_steps, config.snapshot_every):
                    traj.times.append(state.t)
                    traj.states.append(state)
                    if config.track_frame:
                        traj.frames.append(iota.copy())
                break
    return traj


def _run_direct(tables: StructureTables, config: FlowConfig, phi0: np.ndarray) -> Trajectory:
    grid = config.grid
    traj = Trajectory(scheme="direct", grid=grid, times=[], phis=[])
    s3 = sorted_components(phi0, 3).astype(float)
    t = 0.0
    sup_t0 = diag.sup_norm(_torsion_sorted(grid, s3))

    def emit(s3, t):
        torsion = _torsion_sorted(grid, s3)
        rec = diag.record_for_torsion(
            grid,
            torsion,
            t=t,
            constraint_defect=metric_defect(tables, grid, dense_from_sorted(s3, 3)),
            sup_t_reference=sup_t0,
        )
        rec["events"] = []
        traj.records.append(rec)
        return rec

    emit(s3, t)
    n_steps = config.n_steps
    for step in range(n_steps + 1):
        if _should_snapshot(step, n_steps, config.snapshot_every):
            traj.times.append(t)
            traj.phis.append(dense_from_sorted(s3, 3))
        if step == n_steps:
            break
        if step % max(1, config.metric_check_every) == 0:
            defect = metric_defect(tables, grid, dense_from_sorted(s3, 3))
            if defect > config.metric_tol:
                raise DegenerateFormError(
                    f"metric defect {defect:g} exceeded {config.metric_tol:g} at t={t:g}"
                )
        s3_new = _step_direct_sorted(grid, s3, config.dt, config.integrator)
        if not np.isfinite(s3_new).all():
            ev = {"type": "blow_up", "t": t, "detail": "non-finite 3-form"}
            traj.events.append(ev)
            traj.records.append({"t": t, "events": [ev]})
            break
        s3, t = s3_new, t + config.dt
        if (step + 1) % config.diagnostics_every == 0 or step + 1 == n_steps:
            rec = emit(s3, t)
            if rec["sup_T"] > config.torsion_ceiling:
                ev = {"type": "singularity_suspected", "t": t, "sup_T": rec["sup_T"]}
                traj.events.append(ev)
                break
    return traj


def run(config: FlowConfig, tables: StructureTables | None = None) -> RunResult:
    """Execute a configured flow and return the trajectory (or trajectories)."""
    from .algebra import build_standard_tables

    config.validate()
    tables = tables or build_standard_tables()
    state0 = initial_state(config)
    result = RunResult()
    if config.scheme in ("fx", "both"):
        result.fx = _run_fx(tables, config, state0)
    if config.scheme in ("direct", "both"):
        phi0 = phi_of_state(tables, state0.project())
        result.direct = _run_direct(tables, config, phi0)
    return result


def parabolic_rescale(traj: Trajectory, c: float) -> Trajectory:
    """Parabolic rescaling of a trajectory.

    The 3-form scales by c^3 and the metric by c^2; expressed in the
    rescaled orthonormal frame the component arrays are unchanged while
    the grid period becomes c*L and times become c^2*t.  Torsion measured
    on the rescaled fields then scales by 1/c per derivative order.
    """
    if c <= 0:
        raise ValueError("rescaling factor must be positive")
    new_grid = replace(traj.grid, length=c * traj.grid.length)
    out = Trajectory(
        scheme=traj.scheme,
        grid=new_grid,
        times=[c * c * t for t in traj.times],
        events=list(traj.events),
    )
    if traj.states is not None:
        out.states = [
            replace(s, grid=new_grid, t=c * c * s.t) for s in traj.states
        ]
    if traj.phis is not None:
        out.phis = [p.copy() for p in traj.phis]
    if traj.frames is not None:
        out.frames = [f.copy() for f in traj.frames]
    return out


def write_run_outputs(result: RunResult, out_dir, config: FlowConfig) -> None:
    """Write NDJSON diagnostics and final checkpoints under ``out_dir``."""
    import json
    import os

    os.makedirs(out_dir, exist_ok=True)
    for traj in (result.fx, result.direct):
        if traj is None:
            continue
        path = os.path.join(out_dir, f"diagnostics_{traj.scheme}.ndjson")
        with open(path, "w") as fh:
            for rec in traj.records:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
        if traj.scheme == "fx" and traj.states:
            final = traj.states[-1]
            save_checkpoint(
                os.path.join(out_dir, "final_fx.g2fl"), traj.grid, final.f, final.x
            )
