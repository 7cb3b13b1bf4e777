"""Per-layer metrics: which functions the traced run wraps and what it derives.

Names have the form ``<module>.<function>.<stat>``.  Every wrapped function
reports ``calls`` and ``self_s`` (summed over one repetition, all CLI
commands of the workload, probes excluded).  A listed function that the
package no longer has, or a probe that no longer runs, fails the traced
repetition: it must not read as 0 calls, which would look like a saving.
"""

from __future__ import annotations

import math
import os
import sys

from tracing import Tracer, self_times

LAYERS = {
    "grid": [
        "partial", "laplacian", "grad_scalar", "grad_vector", "div2",
        "save_checkpoint", "load_checkpoint",
    ],
    "algebra": [
        "sorted_components", "dense_from_sorted", "star_sorted_3",
        "first_slot_slices_4", "hodge_star_3",
    ],
    "states": [
        "phi_of_state", "torsion_of_state", "div_torsion_of_state", "metric_defect",
        "IsometricState.project", "IsometricState.constraint_defect",
    ],
    "flow": ["run", "step_fx", "rhs_fx", "write_run_outputs"],
    "diagnostics": [
        "record_for_state", "record_for_torsion", "energy", "sup_norm", "theta",
        "heat_kernel", "entropy",
    ],
    "connection": [
        "torsion_evolution_residual", "reaction_diffusion_residual", "bianchi_residual",
        "lie_decomposition_residual", "first_variation_residual", "laplacian_D",
        "D_derivative",
    ],
    "verify": ["run_suite", "residual_trajectory"],
    "cli": ["main", "load_config"],
    "numpy": ["einsum", "roll"],
}

STENCILS = {f"grid.{fn}" for fn in ("partial", "laplacian", "grad_scalar", "grad_vector", "div2")}

# (name, unit, better) of every metric beyond calls/self_s
EXTRA_METRICS = [
    ("grid.stencil.min_bytes", "B", "lower"),
    ("grid.stencil.gbps", "GB/s", "higher"),
    ("grid.save_checkpoint.bytes", "B", "lower"),
    ("algebra.first_slot_slices_4.calls_per_rhs", "calls/rhs", "lower"),
    ("states.div_torsion_of_state.calls_per_rhs", "calls/rhs", "lower"),
    ("flow.step_fx.p50_ms", "ms", "lower"),
    ("flow.step_fx.tail_ms", "ms", "lower"),
    ("flow.step_fx.samples", "count", "higher"),
    ("flow.step_fx.drift_max", "abs", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
]

# RK4 evaluates the right-hand side four times per step
RHS_PER_STEP = 4

# run ids: each CLI command's spans carry the command's name (RUN_COMMAND for
# `g2flow run`); the one-step probes' run ids start with PROBE_PREFIX
RUN_COMMAND = "run"
PROBE_PREFIX = "probe-"


def function_names() -> list[str]:
    return [f"{module}.{fn}" for module, fns in LAYERS.items() for fn in fns]


def metric_specs() -> list[tuple[str, str, str]]:
    specs = []
    for name in function_names():
        specs.append((f"{name}.calls", "count", "lower"))
        specs.append((f"{name}.self_s", "s", "lower"))
    return specs + EXTRA_METRICS


def _stencil_bytes(args, kwargs, result):
    return float(args[1].nbytes + result.nbytes)


def _file_bytes(args, kwargs, result):
    return float(os.path.getsize(args[0] if args else kwargs["path"]))


def _step_defect(args, kwargs, result):
    return float(result[2])


def install(tracer: Tracer) -> None:
    """Wrap every listed function in every ``g2flow`` namespace that binds it."""
    import importlib

    import numpy

    modules = {"numpy": numpy}
    for module in LAYERS:
        if module != "numpy":
            modules[module] = importlib.import_module(f"g2flow.{module}")
    namespaces = [m for key, m in sys.modules.items() if key == "g2flow" or key.startswith("g2flow.")]
    for module, fns in LAYERS.items():
        for fn in fns:
            owner, attr = modules[module], fn
            if "." in fn:
                cls, attr = fn.split(".")
                owner = getattr(owner, cls)
            tracer.install(f"{module}.{fn}", owner, attr, namespaces)
    for name in STENCILS:
        tracer.observers[name] = _stencil_bytes
    tracer.observers["grid.save_checkpoint"] = _file_bytes
    tracer.observers["flow.step_fx"] = _step_defect


def session_metrics(spans) -> dict:
    """calls and self_s per function, stencil bytes and span count, for one
    repetition's spans (probe spans excluded)."""
    selfs = self_times(spans)
    out = {}
    for name in function_names():
        out[f"{name}.calls"] = 0
        out[f"{name}.self_s"] = 0.0
    min_bytes = stencil_time = ckpt_bytes = 0.0
    n_spans = 0
    for span, self_s in zip(spans, selfs):
        name, start, end, parent, run_id, extra = span
        if run_id.startswith(PROBE_PREFIX):
            continue
        n_spans += 1
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += self_s
        if name in STENCILS and (parent < 0 or spans[parent][0] not in STENCILS):
            min_bytes += extra
            stencil_time += end - start
        elif name == "grid.save_checkpoint":
            ckpt_bytes += extra
    out["grid.stencil.min_bytes"] = min_bytes
    out["grid.stencil.gbps"] = min_bytes / stencil_time / 1e9 if stencil_time > 0 else 0.0
    out["grid.save_checkpoint.bytes"] = ckpt_bytes
    out["trace.spans"] = n_spans
    return out


def calls_per_rhs(spans, run_id: str, name: str) -> float:
    """Calls of ``name`` per right-hand-side evaluation in a one-step probe
    recorded under ``run_id``."""
    calls = sum(1 for s in spans if s[4] == run_id and s[0] == name)
    return calls / RHS_PER_STEP


def run_probes(tracer: Tracer, tables, state, dt: float, integrator: str, direct: bool) -> dict:
    """One public RK4 step of each route on ``state``, traced under the run
    ids ``probe-fx`` and ``probe-direct``; returns the calls_per_rhs metrics.

    A probe that raises (say, a changed signature) fails the repetition.
    """
    import g2flow.flow
    from g2flow.states import phi_of_state

    fx_id, direct_id = PROBE_PREFIX + "fx", PROBE_PREFIX + "direct"
    tracer.run_id = fx_id
    g2flow.flow.step_fx(tables, state, dt, integrator)
    if direct:
        phi = phi_of_state(tables, state)
        tracer.run_id = direct_id
        g2flow.flow.step_direct(tables, state.grid, phi, dt, integrator)
    spans = tracer.spans
    return {
        "algebra.first_slot_slices_4.calls_per_rhs": calls_per_rhs(
            spans, direct_id, "algebra.first_slot_slices_4"
        ),
        "states.div_torsion_of_state.calls_per_rhs": calls_per_rhs(
            spans, fx_id, "states.div_torsion_of_state"
        ),
    }


def step_samples(spans) -> tuple[list[float], list[float]]:
    """Durations (ms) and returned pre-projection defects of the
    ``flow.step_fx`` calls made by the ``run`` command."""
    durations, defects = [], []
    for name, start, end, parent, run_id, extra in spans:
        if name == "flow.step_fx" and run_id == RUN_COMMAND:
            durations.append((end - start) * 1e3)
            defects.append(extra)
    return durations, defects


TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile; 0 for no samples."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest of TAIL_PERCENTILES with at least ten
    samples beyond it (nearest rank), else (100, max)."""
    n = len(values)
    for p in TAIL_PERCENTILES:
        if n - math.ceil(p / 100.0 * n) >= 10:
            return p, percentile(values, p)
    return 100.0, percentile(values, 100.0)
