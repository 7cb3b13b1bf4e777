"""Time integration of the isometric flow.

Two independent routes integrate the same evolution: the parabolic system
for the pair (f, X), and the direct 3-form flow  d(phi)/dt = Div T -| psi.
Both share one explicit method-of-lines stepper (Euler or classical RK4)
under a conservative parabolic CFL bound, and one snapshot, record and
event loop.  The (f, X) route takes the tangent projection of the
Laplacian, du = Lap u - <u, Lap u> u, which is orthogonal to u at every
grid point, so the discrete flow keeps the constraint f^2 + |X|^2 = 1 up
to the time integrator's error; the route re-normalizes u after every
step, which removes only that drift.

A trajectory optionally co-evolves a gauge frame iota on an auxiliary
bundle (d iota / dt = beta (Div T) x iota, columnwise) so that connection
residual diagnostics can difference the gauge-transported torsion in time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import diagnostics as diag
from .algebra import (
    DIV_PSI_ENTRIES,
    StructureTables,
    contract,
    cross,
    dense_from_sorted,
    sorted_components,
)
# the step calls no partial; perfbench/test_tracing.py wraps the name here
from .grid import Grid, div2, is_integer, laplacian, load_checkpoint, partial, save_checkpoint  # noqa: F401
from .states import (
    IsometricState,
    localized_state,
    metric_defect_sorted,
    phi_of_state,
    random_band_state,
    require_isometric,
    single_mode_state,
    sorted_phi_of_state,
    torsion_rows_from_sorted,
)

__all__ = [
    "ConfigError",
    "InitialSpec",
    "FlowConfig",
    "Trajectory",
    "RunResult",
    "rhs_fx",
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
        # json reads NaN and Infinity, and a NaN slips through every `if x > bound` gate
        for part in (self, self.initial, self.grid):
            for f in fields(part):
                value = getattr(part, f.name)
                if isinstance(value, float) and not math.isfinite(value):
                    raise ConfigError(f"{f.name} must be finite, got {value!r}")
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
        if self.metric_check_every < 1:
            raise ConfigError(f"metric_check_every must be positive, got {self.metric_check_every!r}")
        if self.snapshot_every < 0:
            raise ConfigError(f"snapshot_every must be non-negative, got {self.snapshot_every!r}")
        if not self.torsion_ceiling > 0:
            raise ConfigError(f"torsion_ceiling must be positive, got {self.torsion_ceiling!r}")
        for name in ("metric_tol", "constraint_abort_tol"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative, got {getattr(self, name)!r}")
        if self.initial.family not in ("single_mode", "random_band", "checkpoint", "localized"):
            raise ConfigError(f"unknown initial family {self.initial.family!r}")
        ini = self.initial
        if not 0 <= ini.amplitude <= 0.9:
            raise ConfigError("initial amplitude must lie in [0, 0.9] to stay inside the chart")
        if ini.wave_dim is not None and ini.wave_dim not in g.active_dims:
            raise ConfigError(f"initial wave_dim {ini.wave_dim!r} is not an active direction")
        if ini.component not in range(7):
            raise ConfigError(f"initial component {ini.component!r} must lie in 0..6")
        if ini.seed < 0:
            raise ConfigError(f"initial seed {ini.seed} must be non-negative")
        if ini.max_mode < 1:
            raise ConfigError(f"initial max_mode {ini.max_mode} must be at least 1")
        if ini.family == "localized" and not ini.width > 0:
            raise ConfigError(f"initial width {ini.width!r} must be positive")
        # wider than L^2, a wrapped Gaussian is flat to ~exp(-4 pi^2) yet needs ~sqrt(scale) images
        max_scale = min(g.length * g.length, np.finfo(float).max)
        for center, t0 in self.theta_probes:
            if len(center) != g.k or not all(map(is_integer, center)):
                raise ConfigError(
                    f"theta probe center {list(center)!r} needs {g.k} integer grid indices"
                )
            # a probe records only while t < t0, so one with t0 <= 0 never records
            if not (math.isfinite(t0) and 0 < t0 <= max_scale):
                raise ConfigError(
                    f"theta probe t0 {t0!r} must be positive, finite and at most L^2"
                )
        sigma = self.entropy_sigma
        if sigma is not None and (
            isinstance(sigma, bool)
            or not isinstance(sigma, (int, float))
            or not 0 < sigma <= max_scale
        ):
            raise ConfigError(f"entropy_sigma must be a positive number at most L^2, got {sigma!r}")

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
    sorted_phis: list | None = None  # direct scheme: sorted 3-form components
    frames: list | None = None
    records: list = field(default_factory=list)
    events: list = field(default_factory=list)

    @property
    def phis(self) -> list | None:
        """Dense 3-forms of the direct scheme's snapshots."""
        if self.sorted_phis is None:
            return None
        return [dense_from_sorted(s3, 3) for s3 in self.sorted_phis]


@dataclass
class RunResult:
    fx: Trajectory | None = None
    direct: Trajectory | None = None

    @property
    def events(self) -> list:
        return [ev for traj in (self.fx, self.direct) if traj is not None for ev in traj.events]


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
        if spec.checkpoint is None:
            raise ConfigError("checkpoint family needs a checkpoint path")
        try:
            grid, u = load_checkpoint(spec.checkpoint)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read checkpoint {spec.checkpoint}: {exc}") from exc
        if grid != config.grid:
            raise ConfigError("checkpoint grid does not match the configured grid")
        return IsometricState(grid=grid, u=u)
    raise ConfigError(f"unknown initial family {spec.family!r}")


class _FxWorkspace:
    """Buffers that the RK stages of an fx step reuse, and a run's steps too:
    ``rk`` is the RK driver's two rate buffers and one stage buffer, each a
    pair shaped like the stepped (u, iota) (iota's None without a frame);
    ``lap`` and ``term`` are the Laplacian's output and per-direction term;
    ``dot`` is the grid scalar <u, Lap u>.

    All are views of one block.  glibc's malloc raises its mmap threshold
    to the size of a mapping it frees, so once a run frees the block, later
    temporaries up to that size (``diagnose``'s, say) reuse heap memory
    instead of faulting in fresh pages on every call.
    """

    def __init__(self, grid: Grid, frame: bool = False):
        n = math.prod(grid.shape)
        sizes = [8 * n] * 5 + [n] + [49 * n] * (3 if frame else 0)
        parts = np.split(np.empty(sum(sizes)), np.cumsum(sizes)[:-1])
        ka, kb, stage, self.lap, self.term = (p.reshape((8,) + grid.shape) for p in parts[:5])
        self.dot = parts[5].reshape(grid.shape)
        io = [p.reshape((7, 7) + grid.shape) for p in parts[6:]] or [None] * 3
        self.rk = ((ka, io[0]), (kb, io[1]), (stage, io[2]))


def _harmonic_map(grid: Grid, u: np.ndarray, out: np.ndarray, work: _FxWorkspace | None = None):
    """Write the rates of the state field u = (f, X), shape (8, *grid), into
    ``out`` and return Lap u (held in the workspace, allocated if not given):

    du = Lap u - <u, Lap u> u,

    the tangent projection of the discrete Laplacian (Alouges, SIAM J.
    Numer. Anal. 34, 1997), so <u, du> = (1 - |u|^2) <u, Lap u>.
    """
    work = work or _FxWorkspace(grid)
    lu = laplacian(grid, u, work.lap, work.term)
    dot = np.einsum("a...,a...->...", u, lu, out=work.dot)
    np.multiply(dot, u, out=out)
    np.subtract(lu, out, out=out)
    return lu


def rhs_fx(
    state: IsometricState, out: np.ndarray | None = None, work: _FxWorkspace | None = None
) -> np.ndarray:
    """Rate du/dt = (df/dt, dX/dt) of the parabolic system, shape (8, *grid).

    On the flat torus it is the harmonic-map heat flow of u = (f, X) into
    S^7, taken with one Laplacian of u and its tangent projection:

        du = Lap u - <u, Lap u> u

    so <u, du> vanishes pointwise up to round-off on a state with |u| = 1.
    There df = (Lap f) |X|^2 - f <X, Lap X>, which equals (1/2) <X, Div T>
    (the cross-product term of Div T is orthogonal to X), and dX differs
    from the divergence form Lap X + |grad u|^2 X at the stencil order.
    Written into ``out`` if given, with the scratch of ``work`` if given.
    """
    if out is None:
        out = np.empty_like(state.u)
    _harmonic_map(state.grid, state.u, out, work)
    return out


def _rhs_direct_sorted(grid: Grid, s3: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    divt = div2(grid, torsion_rows_from_sorted(grid, s3), rows=True)
    return contract(DIV_PSI_ENTRIES, divt, s3, out)


def _rk(rates, y: tuple, dt: float, integrator: str, work=None) -> tuple:
    """One explicit Euler or classical RK4 step of dy/dt = rates(y) for a
    tuple of arrays; None entries pass through.  ``rates(y, out)`` writes the
    rates of y into the tuple of arrays ``out``.

    ``work`` is three tuples of buffers shaped like y: two for rates, one for
    the stage state.  The stages reuse them, and so do the steps of a caller
    that keeps them; without it they are allocated for this step.  Only the
    result is a fresh tuple.  RK4 sums k1 + 2 k2 + 2 k3 + k4 as the rates
    come, in that order, so k3 and k4 reuse the buffer of k1.
    """
    if integrator not in ("euler", "rk4"):
        raise ConfigError(f"unknown integrator {integrator!r}")
    if work is None:
        work = [tuple(None if a is None else np.empty_like(a) for a in y) for _ in range(3)]
    ka, kb, stage = work
    live = [i for i, a in enumerate(y) if a is not None]

    def shift(c, k):  # stage = k c + y
        for i in live:
            np.add(np.multiply(k[i], c, out=stage[i]), y[i], out=stage[i])
        return stage

    def result(k, c):  # a fresh k c + y
        return tuple(
            None if a is None else np.add(np.multiply(k[i], c, out=k[i]), a)
            for i, a in enumerate(y)
        )

    rates(y, ka)
    if integrator == "euler":
        return result(ka, dt)
    rates(shift(0.5 * dt, ka), kb)
    shift(0.5 * dt, kb)
    for i in live:  # acc = 2 k2 + k1, in k2's buffer
        np.add(np.multiply(kb[i], 2, out=kb[i]), ka[i], out=kb[i])
    rates(stage, ka)
    shift(dt, ka)
    for i in live:  # acc += 2 k3
        np.add(kb[i], np.multiply(ka[i], 2, out=ka[i]), out=kb[i])
    rates(stage, ka)
    for i in live:  # acc += k4
        np.add(kb[i], ka[i], out=kb[i])
    return result(kb, dt / 6.0)


def _fx_rates(tables, state, iota, beta, out, work=None) -> None:
    """Write the rates of (u, iota) into the pair ``out``."""
    du, diota = out
    if iota is None:
        rhs_fx(state, du, work)
        return
    lu = _harmonic_map(state.grid, state.u, du, work)
    # Div T = 2 (Lap f) X - 2 f Lap X - 2 Lap X x X, from the same Laplacians;
    # the gauge flow uses the evolving structure's own cross product
    divt = 2.0 * lu[0] * state.x - 2.0 * state.f * lu[1:] - 2.0 * cross(tables, lu[1:], state.x)
    phi3 = phi_of_state(tables, state, check=False)
    np.multiply(beta, np.einsum("mlp...,m...,la...->pa...", phi3, divt, iota), out=diota)


def step_fx(
    tables: StructureTables,
    state: IsometricState,
    dt: float,
    integrator: str = "rk4",
    iota: np.ndarray | None = None,
    beta: float = 0.5,
    project: bool = True,
    work: _FxWorkspace | None = None,
):
    """One explicit step of the (f, X) system, then constraint projection.

    Returns (projected state, new iota or None, pre-projection defect).
    ``project=False`` skips the normalization, exposing the raw integrator
    for order studies.  ``work`` (``_FxWorkspace(grid, frame=iota is not
    None)``) lets a run reuse its buffers; without it the step allocates one.
    """
    work = work or _FxWorkspace(state.grid, iota is not None)

    def rates(y, out):
        u, io = y
        _fx_rates(tables, replace(state, u=u), io, beta, out, work)

    u1, io1 = _rk(rates, (state.u, iota), dt, integrator, work.rk)
    new = replace(state, u=u1, t=state.t + dt)
    # constraint_defect() and project() of new, from one f^2 + |X|^2
    norm_sq = new.norm_sq()
    defect = float(np.max(np.abs(norm_sq - 1.0)))
    if project:  # u1 is this step's own array
        np.divide(u1, np.sqrt(norm_sq, out=norm_sq), out=u1)
    return new, io1, defect


def step_direct(
    tables: StructureTables,
    grid: Grid,
    phi: np.ndarray,
    dt: float,
    integrator: str = "rk4",
    metric_tol: float | None = None,
) -> np.ndarray:
    """One explicit step of the direct 3-form flow."""
    s3 = sorted_components(phi, 3)
    require_isometric(grid, s3, metric_tol)
    (s3,) = _rk(lambda y, out: _rhs_direct_sorted(grid, *y, *out), (s3,), dt, integrator)
    return dense_from_sorted(s3, 3)


def _should_snapshot(step: int, n_steps: int, every: int) -> bool:
    if step == 0 or step == n_steps:
        return True
    return every > 0 and step % every == 0


def _run_scheme(config: FlowConfig, traj: Trajectory, y, advance, measure, keep, min_f=None):
    """Snapshot, record and event loop shared by both schemes, from t = 0.

    ``advance(y, t, step)`` returns the stepped fields and None, or None and
    the event that ends the run; ``measure(y, t, **options)`` builds a
    diagnostics record; ``keep(y)`` stores a snapshot; ``min_f(y)``, given
    for the (f, X) chart, is the least f for the chart-exit event.
    """

    def emit(y, t, events, sup_t_reference=None):
        rec = measure(
            y,
            t,
            theta_probes=config.theta_probes,
            entropy_sigma=config.entropy_sigma,
            sup_t_reference=sup_t_reference,
        )
        rec["events"] = events
        traj.records.append(rec)
        return rec

    t = 0.0
    sup_t0 = emit(y, t, [])["sup_T"]
    doubling_seen = False
    chart_seen = False
    pending_events: list[dict] = []
    n_steps = config.n_steps
    for step in range(n_steps + 1):
        if _should_snapshot(step, n_steps, config.snapshot_every):
            traj.times.append(t)
            keep(y)
        if step == n_steps:
            break
        y_new, ev = advance(y, t, step)
        if ev is not None:
            traj.events.append(ev)
            traj.records.append({"t": ev["t"], "events": [ev]})
            break
        y, t = y_new, t + config.dt
        if config.chart_positive and min_f is not None and not chart_seen and min_f(y) < 0.0:
            chart_seen = True
            ev = {"type": "chart_exit", "t": t}
            traj.events.append(ev)
            pending_events.append(ev)
        if (step + 1) % config.diagnostics_every == 0 or step + 1 == n_steps:
            rec = emit(y, t, pending_events, sup_t0)
            pending_events = []
            if sup_t0 > 0 and not doubling_seen and rec["sup_T"] > 2.0 * sup_t0:
                doubling_seen = True
                ev = {"type": "doubling_time", "t": t, "empirical_C": 1.0 / (t * sup_t0 * sup_t0)}
                traj.events.append(ev)
            if rec["sup_T"] > config.torsion_ceiling:
                ev = {"type": "singularity_suspected", "t": t, "sup_T": rec["sup_T"]}
                traj.events.append(ev)
                if not _should_snapshot(step + 1, n_steps, config.snapshot_every):
                    traj.times.append(t)
                    keep(y)
                break
    return traj


def _run_fx(tables: StructureTables, config: FlowConfig, state0: IsometricState) -> Trajectory:
    grid = config.grid
    traj = Trajectory(scheme="fx", grid=grid, times=[], states=[], frames=[] if config.track_frame else None)
    iota = None
    if config.track_frame:
        iota = np.zeros((7, 7) + grid.shape)
        iota[np.arange(7), np.arange(7)] = 1.0
    work = _FxWorkspace(grid, config.track_frame)

    def advance(y, t, step):
        state, io = y
        new, io, defect = step_fx(
            tables, state, config.dt, config.integrator, io, config.frame_beta, work=work
        )
        if not np.isfinite(new.u).all():
            return None, {"type": "blow_up", "t": t, "detail": "non-finite state"}
        if defect > config.constraint_abort_tol:
            return None, {"type": "constraint_abort", "t": new.t, "defect": defect}
        return (new, io), None

    def keep(y):
        traj.states.append(y[0])
        if config.track_frame:
            traj.frames.append(y[1].copy())

    return _run_scheme(
        config,
        traj,
        (state0.project(), iota),
        advance,
        lambda y, t, **options: diag.record_for_state(tables, y[0], **options),
        keep,
        min_f=lambda y: float(np.min(y[0].f)),
    )


def _run_direct(config: FlowConfig, s30: np.ndarray) -> Trajectory:
    """The direct route from the sorted components s30 of the initial 3-form."""
    grid = config.grid
    traj = Trajectory(scheme="direct", grid=grid, times=[], sorted_phis=[])
    measured = [None, None]  # (t, metric defect): a record and a check at one t share it

    def defect_at(s3, t):
        if measured[0] != t:
            measured[:] = t, metric_defect_sorted(grid, s3)
        return measured[1]

    def advance(s3, t, step):
        if step % config.metric_check_every == 0:
            require_isometric(grid, s3, config.metric_tol, t, defect_at(s3, t))
        (s3_new,) = _rk(
            lambda y, out: _rhs_direct_sorted(grid, *y, *out), (s3,), config.dt, config.integrator
        )
        if not np.isfinite(s3_new).all():
            return None, {"type": "blow_up", "t": t, "detail": "non-finite 3-form"}
        return s3_new, None

    def measure(s3, t, **options):
        return diag.record_for_torsion(
            grid,
            torsion_rows_from_sorted(grid, s3),
            t=t,
            constraint_defect=defect_at(s3, t),
            **options,
        )

    return _run_scheme(
        config,
        traj,
        s30,
        advance,
        measure,
        traj.sorted_phis.append,
    )


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
        result.direct = _run_direct(config, sorted_phi_of_state(tables, state0.project()))
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
    if traj.sorted_phis is not None:
        out.sorted_phis = [p.copy() for p in traj.sorted_phis]
    if traj.frames is not None:
        out.frames = [f.copy() for f in traj.frames]
    return out


def write_run_outputs(result: RunResult, out_dir) -> None:
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
            save_checkpoint(os.path.join(out_dir, "final_fx.g2fl"), traj.grid, traj.states[-1].u)
