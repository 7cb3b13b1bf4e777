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

No gauge frame is stepped here: ``connection.transport_frames`` derives
the frame of the connection residuals from a trajectory's snapshots.
"""

from __future__ import annotations

import copy
import math
import os
import threading
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import diagnostics as diag
from .algebra import (
    DIV_PSI_ENTRIES,
    StructureTables,
    build_standard_tables,
    contract,
    dense_from_sorted,
    sorted_components,
)
# the step calls no partial; perfbench/test_tracing.py wraps the name here
from .grid import Grid, div2, is_integer, laplacian, load_checkpoint, partial, save_checkpoint  # noqa: F401
from .states import (
    IsometricState,
    localized_state,
    metric_defect_sorted,
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


# an fx run on at least this many grid points steps in two parts when two CPUs
# are usable; below it the barriers cost more than the second core saves
PARALLEL_MIN_POINTS = 10240


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
    torsion_ceiling: float = 100.0
    metric_tol: float = 1e-3
    metric_check_every: int = 50
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
        if not math.isfinite(self.t_end / self.dt):  # n_steps rounds it to an int
            raise ConfigError(f"t_end / dt overflows: t_end {self.t_end!r}, dt {self.dt!r}")
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
            raise ConfigError("initial amplitude must lie in [0, 0.9] to keep |X| < 1")
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
            if len(center) != g.k or not all(is_integer(i) and 0 <= i < g.n for i in center):
                raise ConfigError(
                    f"theta probe center {list(center)!r} needs {g.k} integer grid indices "
                    f"in 0..{g.n - 1}"
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
    records: list = field(default_factory=list)
    parts: int = 1  # the threads an fx step ran on
    timing: dict = field(default_factory=dict)  # steps, step_s, record_s

    @property
    def events(self) -> list:
        """The run's events in order, read from the records that carry them."""
        return [ev for rec in self.records for ev in rec["events"]]

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
    ``rk`` is the RK driver's two rate buffers and one stage buffer, each
    shaped like u; ``lap`` is the Laplacian's output and ``dot`` the grid
    scalar <u, Lap u>.  The Laplacian's scratch, which holds each later
    direction's neighbour sum, then the centre term, is the rate buffer it
    is computing, so four state-sized buffers serve a step.

    All are views of one block.  glibc's malloc raises its mmap threshold
    to the size of a mapping it frees, so once a run frees the block, later
    temporaries up to that size (``diagnose``'s, say) reuse heap memory
    instead of faulting in fresh pages on every call.

    With ``parts=2``, inside its ``with`` block, a step runs in two parts, in
    the caller and in one worker thread, each on a view whose ``part`` holds
    its components (u[0:4] or u[4:8]), its half of the grid points (a half of
    the first grid axis) and the barrier's wait; each element takes the
    one-part step's operations in order.
    """

    part = (slice(None), slice(None), lambda: None)  # one part: the whole field, no wait

    def __init__(self, grid: Grid, parts: int = 1):
        n = math.prod(grid.shape)
        blocks = np.split(np.empty(33 * n), [8 * n, 16 * n, 24 * n, 32 * n])
        *self.rk, self.lap = (p.reshape((8,) + grid.shape) for p in blocks[:4])
        self.dot = blocks[4].reshape(grid.shape)
        self.grid, self._thread = grid, None
        self.barrier = threading.Barrier(parts)
        self.views = [self]  # one per part: the buffers, and the part's slices
        if parts == 2:
            self.views = [copy.copy(self), copy.copy(self)]
            halves = (slice(0, 4), slice(0, grid.n // 2)), (slice(4, 8), slice(grid.n // 2, None))
            for view, (comps, rows) in zip(self.views, halves):
                view.part = (comps, rows, self.barrier.wait)

    def __enter__(self):
        if len(self.views) > 1:
            self._thread = threading.Thread(target=self._serve, name="g2flow-fx-part", daemon=True)
            self._thread.start()
        return self

    def __exit__(self, *exc_info):
        if self._thread is not None:
            self.barrier.abort()  # the worker, waiting for a step, returns
            self._thread.join()
            self._thread = None
            self.barrier.reset()

    def _serve(self):
        try:
            while True:
                self.barrier.wait()
                with np.errstate(**self._errstate):
                    self._done = self._job(self.views[1])
                self.barrier.wait()
        except BaseException as exc:  # this part failed, or the barrier was aborted
            self._error = exc
            self.barrier.abort()

    def run(self, job) -> list:
        """``job(view)`` on every part, the first in this thread, in part order; an
        exception in either part aborts the barrier and is raised here."""
        if self._thread is None:
            return [job(self)]
        self._job, self._errstate = job, np.geterr()  # numpy's error handling is per thread
        try:
            self.barrier.wait()
            first = job(self.views[0])
            self.barrier.wait()
        except threading.BrokenBarrierError:
            raise self._error from None  # the worker's part failed
        except BaseException:
            self.barrier.abort()
            raise
        return [first, self._done]


def _harmonic_map(grid: Grid, u: np.ndarray, out: np.ndarray, lap: np.ndarray, dot: np.ndarray,
                  part=_FxWorkspace.part):
    """Write the lattice rates of the state field u = (f, X), shape (8, *grid),
    into ``out`` and return the lattice Laplacian N u, which it writes into
    ``lap`` (shaped like u); the grid scalar ``dot`` takes <u, N u>:

    s du = N u - <u, N u> u,  N u = s Lap u,  s = grid.laplacian_scale,

    the tangent projection of the discrete Laplacian (Alouges, SIAM J.
    Numer. Anal. 34, 1997), so <u, du> = (1 - |u|^2) <u, Lap u>.  The rates
    are du/dt in lattice time t / s, so a step takes s once, through dt / s.
    ``out`` serves as the Laplacian's scratch before it takes the rates.
    A ``part`` of an ``_FxWorkspace`` writes its components' Laplacian and
    rates and its grid points' dot product, and waits after each of the first two.
    """
    comps, rows, wait = part
    uc, lc, oc = u[comps], lap[comps], out[comps]
    laplacian(grid, uc, lc, oc, lattice=True)
    wait()
    np.einsum("a...,a...->...", u[:, rows], lap[:, rows], out=dot[rows])
    wait()
    np.multiply(dot, uc, out=oc)
    np.subtract(lc, oc, out=oc)
    return lap


def rhs_fx(state: IsometricState, out: np.ndarray | None = None) -> np.ndarray:
    """Rate du/dt = (df/dt, dX/dt) of the parabolic system, shape (8, *grid).

    On the flat torus it is the harmonic-map heat flow of u = (f, X) into
    S^7, taken with one Laplacian of u and its tangent projection:

        du = Lap u - <u, Lap u> u

    so <u, du> vanishes pointwise up to round-off on a state with |u| = 1.
    There df = (Lap f) |X|^2 - f <X, Lap X>, which equals (1/2) <X, Div T>
    (the cross-product term of Div T is orthogonal to X), and dX differs
    from the divergence form Lap X + |grad u|^2 X at the stencil order.
    Written into ``out`` if given (C-ordered, as the stencils write): the
    lattice rates, divided once by ``grid.laplacian_scale``.
    """
    if out is None:
        out = np.empty(state.u.shape)
    _harmonic_map(state.grid, state.u, out, np.empty(state.u.shape), np.empty(state.grid.shape))
    out /= state.grid.laplacian_scale
    return out


def _rhs_direct_sorted(grid: Grid, s3: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    divt = div2(grid, torsion_rows_from_sorted(grid, s3), rows=True)
    return contract(DIV_PSI_ENTRIES, divt, s3, out)


def _rk(rates, y: np.ndarray, dt: float, integrator: str, work=None, out=None, part=slice(None)):
    """One explicit Euler or classical RK4 step of dy/dt = rates(y) for an
    array y.  ``rates(y, out)`` writes the rates of y into the array ``out``.

    ``work`` is three buffers shaped like y: two for rates, one for the
    stage state.  The stages reuse them, and so do the steps of a caller
    that keeps them; without it they are allocated for this step.  The
    result goes into ``out`` (a fresh array if None), which is returned.
    RK4 sums k1 + 2 k2 + 2 k3 + k4 as the rates come, in that order, so k3
    and k4 reuse the buffer of k1.  The sums touch only the ``part`` of the
    leading axis and ``rates`` gets the whole stage, so calls on two parts
    whose rates fill their own parts make one step.
    """
    if integrator not in ("euler", "rk4"):
        raise ConfigError(f"unknown integrator {integrator!r}")
    if work is None:
        work = [np.empty_like(y) for _ in range(3)]
    ka, kb, stage, y0 = (a[part] for a in (*work, y))

    def shift(c, k):  # stage = k c + y
        np.add(np.multiply(k, c, out=stage), y0, out=stage)
        return work[2]

    def result(k, c):  # k c + y
        res = np.empty(y.shape) if out is None else out
        np.add(np.multiply(k, c, out=k), y0, out=res[part])
        return res

    rates(y, work[0])
    if integrator == "euler":
        return result(ka, dt)
    rates(shift(0.5 * dt, ka), work[1])
    shift(0.5 * dt, kb)
    np.add(np.multiply(kb, 2, out=kb), ka, out=kb)  # acc = 2 k2 + k1, in k2's buffer
    rates(work[2], work[0])
    shift(dt, ka)
    np.add(kb, np.multiply(ka, 2, out=ka), out=kb)  # acc += 2 k3
    rates(work[2], work[0])
    np.add(kb, ka, out=kb)  # acc += k4
    return result(kb, dt / 6.0)


def step_fx(
    tables: StructureTables,
    state: IsometricState,
    dt: float,
    integrator: str = "rk4",
    project: bool = True,
    work: _FxWorkspace | None = None,
):
    """One explicit step of the (f, X) system, then constraint projection.

    Returns (projected state, None, pre-projection defect).  ``tables`` is
    not read, and the None holds the place of the gauge frame a step once
    returned: perfbench/layers.py calls ``step_fx(tables, ...)`` and reads
    the defect at ``result[2]``.  The defect is NaN or inf exactly when
    f^2 + |X|^2 is not finite somewhere: when the stepped u holds a NaN or
    an inf, or its square sum overflows.  The stages run in lattice time,
    so the step is dt / ``grid.laplacian_scale``.  ``project=False`` skips
    the normalization, exposing the raw integrator for order studies.
    ``work`` (``_FxWorkspace(grid)``) lets a run reuse its buffers (and
    threads, see its doc); without it the step allocates one.
    """
    work = work or _FxWorkspace(state.grid)
    if work.grid != state.grid:
        raise ValueError("the workspace was made for another grid")
    dt = dt / state.grid.laplacian_scale
    # two parts write into one result and one f^2 + |X|^2, made before they
    # start; one part makes them after its stages, as a step always has
    out = norm_sq = None
    if work._thread is not None:
        out, norm_sq = np.empty(state.u.shape), np.empty(state.grid.shape)

    def step_part(view):
        comps, rows, wait = view.part
        new = _rk(lambda y, k: _harmonic_map(state.grid, y, k, view.lap, view.dot, view.part),
                  state.u, dt, integrator, view.rk, out, comps)
        wait()  # for the whole result
        mine = new[:, rows]
        sq = np.einsum("a...,a...->...", mine, mine, out=None if norm_sq is None else norm_sq[rows])
        ends = float(sq.max()), float(sq.min())  # NaN if a NaN is in the part
        if project:
            np.divide(mine, np.sqrt(sq, out=sq), out=mine)
        return new, ends

    # max |norm_sq - 1| without its two grid temporaries: fl(x - 1) is monotone
    # in x and fl(1 - x) = -fl(x - 1), so the ends of norm_sq give it exactly;
    # a part's NaN, as it is, makes the defect NaN, as one part's max would
    parts = work.run(step_part)
    tops, bottoms = zip(*(ends for _, ends in parts))
    top = next((x for x in tops if x != x), max(tops))
    bottom = next((x for x in bottoms if x != x), min(bottoms))
    return replace(state, u=parts[0][0]), None, max(top - 1.0, 1.0 - bottom)


def step_direct(
    tables: StructureTables,
    grid: Grid,
    phi: np.ndarray,
    dt: float,
    integrator: str = "rk4",
) -> np.ndarray:
    """One explicit step of the direct 3-form flow; ``tables`` is not read."""
    s3 = sorted_components(phi, 3)
    return dense_from_sorted(_step_direct_sorted(grid, s3, dt, integrator), 3)


def _step_direct_sorted(grid: Grid, s3: np.ndarray, dt: float, integrator: str) -> np.ndarray:
    """One explicit step of the direct flow on the sorted components s3."""
    return _rk(lambda y, out: _rhs_direct_sorted(grid, y, out), s3, dt, integrator)


def _run_scheme(config: FlowConfig, traj: Trajectory, y, advance, measure, keep):
    """Snapshot, record and event loop shared by both schemes, from t = 0.

    The loop's ``t`` is the run's only clock: it stamps every record and
    every event.  ``advance(y, t, step)`` returns the stepped fields and
    None, or None and the unstamped event that rejects the step;
    ``measure(y, t, **options)`` builds a diagnostics record; ``keep(y)``
    stores a snapshot.  Whatever ends the run (its last step, the torsion
    ceiling or a rejected step) keeps the current state, the last good one,
    as the last snapshot.  A record's own sup|T| events go into that record,
    and a rejected step's event into an ending record of its own.
    With ``entropy_sigma`` the entropy's kernel tables are built once, here,
    and every record reuses them.  ``traj.timing`` counts the ``advance``
    calls (a rejected one too) and the wall seconds in them and in the records.
    """
    sigma = config.entropy_sigma
    ent_tables = None if sigma is None else diag.entropy_tables(config.grid, sigma)
    timing = traj.timing = {"steps": 0, "step_s": 0.0, "record_s": 0.0}

    def emit(y, t, sup_t_reference=None):
        start = time.perf_counter()
        rec = measure(
            y,
            t,
            theta_probes=config.theta_probes,
            sup_t_reference=sup_t_reference,
            ent_tables=ent_tables,
        )
        timing["record_s"] += time.perf_counter() - start
        rec["events"] = []
        traj.records.append(rec)
        return rec

    def stamp(ev, rec):
        rec["events"].append({**ev, "t": t})

    t = 0.0
    sup_t0 = emit(y, t)["sup_T"]
    doubling_seen = False
    rejected = None
    every, n_steps = config.snapshot_every, config.n_steps
    for step in range(n_steps):
        if step == 0 or every and step % every == 0:
            traj.times.append(t)
            keep(y)
        start = time.perf_counter()
        y_new, rejected = advance(y, t, step)
        timing["steps"] += 1
        timing["step_s"] += time.perf_counter() - start
        if rejected is not None:
            break
        y, t = y_new, t + config.dt
        if (step + 1) % config.diagnostics_every == 0 or step + 1 == n_steps:
            rec = emit(y, t, sup_t0)
            if sup_t0 > 0 and not doubling_seen and rec["sup_T"] > 2.0 * sup_t0:
                doubling_seen = True
                stamp({"type": "doubling_time", "empirical_C": 1.0 / (t * sup_t0 * sup_t0)}, rec)
            if rec["sup_T"] > config.torsion_ceiling:
                stamp({"type": "singularity_suspected", "sup_T": rec["sup_T"]}, rec)
                break
    if rejected is not None:
        traj.records.append({"t": t, "events": [{**rejected, "t": t}]})
    if traj.times[-1] != t:  # a rejected step's state may be its step's snapshot already
        traj.times.append(t)
        keep(y)
    return traj


def _run_fx(config: FlowConfig, state0: IsometricState) -> Trajectory:
    """The fx route from the projected initial state0, in two parts (one
    worker thread, joined before the return) when two CPUs are usable and
    the grid has PARALLEL_MIN_POINTS points."""
    grid = config.grid
    traj = Trajectory(scheme="fx", grid=grid, times=[], states=[])
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    traj.parts = 2 if cpus >= 2 and math.prod(grid.shape) >= PARALLEL_MIN_POINTS else 1

    def advance(state, t, step):
        new, _, defect = step_fx(None, state, config.dt, config.integrator, work=work)
        if not math.isfinite(defect):  # the stepped u, or its |u|^2, is not finite
            return None, {"type": "blow_up", "detail": "non-finite state"}
        if defect > config.constraint_abort_tol:
            return None, {"type": "constraint_abort", "defect": defect}
        return new, None

    with _FxWorkspace(grid, traj.parts) as work:
        return _run_scheme(config, traj, state0, advance, diag.record_for_state, traj.states.append)


def _run_direct(config: FlowConfig, s30: np.ndarray) -> Trajectory:
    """The direct route from the sorted components s30 of the initial 3-form."""
    grid = config.grid
    traj = Trajectory(scheme="direct", grid=grid, times=[], sorted_phis=[])
    measured = [None, None]  # (t, metric defect): a record and a check at one t share it

    def defect_at(s3, t):
        if measured[0] != t:
            measured[:] = t, metric_defect_sorted(s3)
        return measured[1]

    def advance(s3, t, step):
        if step % config.metric_check_every == 0:
            require_isometric(s3, config.metric_tol, t, defect_at(s3, t))
        s3_new = _step_direct_sorted(grid, s3, config.dt, config.integrator)
        if not np.isfinite(s3_new).all():
            return None, {"type": "blow_up", "detail": "non-finite 3-form"}
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


def run(config: FlowConfig) -> RunResult:
    """Execute a configured flow and return the trajectory (or trajectories)."""
    config.validate()
    tables = build_standard_tables()
    state0 = initial_state(config).project()  # both routes start from this one copy
    result = RunResult()
    if config.scheme in ("fx", "both"):
        result.fx = _run_fx(config, state0)
    if config.scheme in ("direct", "both"):
        result.direct = _run_direct(config, sorted_phi_of_state(tables, state0))
    return result


def parabolic_rescale(traj: Trajectory, c: float) -> Trajectory:
    """Parabolic rescaling of an fx trajectory's snapshots.

    The 3-form scales by c^3 and the metric by c^2; expressed in the
    rescaled orthonormal frame the component arrays are unchanged while
    the grid period becomes c*L and times become c^2*t.  Torsion measured
    on the rescaled fields then scales by 1/c per derivative order.  The
    result holds the snapshots alone: no records, so no events.
    """
    if c <= 0:
        raise ValueError("rescaling factor must be positive")
    new_grid = replace(traj.grid, length=c * traj.grid.length)
    return Trajectory(
        scheme=traj.scheme,
        grid=new_grid,
        times=[c * c * t for t in traj.times],
        states=[replace(s, grid=new_grid) for s in traj.states],
    )


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
