"""Tests of the benchmark's tracing harness.

    PYTHONPATH=src python3 -m pytest -q -p no:cacheprovider perfbench/test_tracing.py
"""

from __future__ import annotations

import json
import os
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (HERE, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import layers  # noqa: E402
import speed  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402

import g2flow  # noqa: E402
import g2flow.cli  # noqa: E402
import g2flow.connection  # noqa: E402
import g2flow.verify  # noqa: E402
import numpy as np  # noqa: E402


def _g2flow_namespaces():
    return [m for k, m in sys.modules.items() if k == "g2flow" or k.startswith("g2flow.")]


def _bindings(obj):
    return [
        (ns.__name__, key)
        for ns in _g2flow_namespaces()
        for key, value in vars(ns).items()
        if value is obj
    ]


@pytest.fixture
def tracer():
    t = Tracer()
    yield t
    t.uninstall()


def test_wrapper_reaches_every_namespace_that_binds_the_function(tracer):
    original = g2flow.grid.partial
    bound = _bindings(original)
    # the package, grid and flow at least import it by name
    assert {"g2flow", "g2flow.grid", "g2flow.flow"} <= {name for name, _ in bound}
    tracer.install("grid.partial", g2flow.grid, "partial", _g2flow_namespaces())
    assert _bindings(original) == []
    wrapper = g2flow.grid.partial
    for name, key in bound:
        assert getattr(sys.modules[name], key) is wrapper

    grid = g2flow.Grid(length=1.0, n=8)
    g2flow.flow.partial(grid, np.ones(grid.shape), 0)
    g2flow.grad_scalar(grid, np.ones(grid.shape))  # calls partial once per active dim
    assert [s[0] for s in tracer.spans] == ["grid.partial"] * 3


def test_install_covers_methods_and_numpy_kernels(tracer):
    layers.install(tracer)
    state = g2flow.states.random_band_state(g2flow.Grid(length=1.0, n=8), 0.3, seed=1)
    state.project()
    np.roll(np.arange(3), 1)
    names = [s[0] for s in tracer.spans]
    assert "states.IsometricState.project" in names
    assert "numpy.roll" in names


def test_missing_function_raises(tracer):
    with pytest.raises(AttributeError):
        tracer.install("grid.no_such", g2flow.grid, "no_such_function")
    assert tracer._patches == []


def test_failing_probe_propagates(tracer, monkeypatch):
    # a probe that no longer runs must fail the repetition, not read 0 calls
    def broken(*args, **kwargs):
        raise TypeError("changed signature")

    monkeypatch.setattr(g2flow.flow, "step_fx", broken)
    state = g2flow.states.random_band_state(g2flow.Grid(length=1.0, n=8), 0.3, seed=1)
    with pytest.raises(TypeError):
        layers.run_probes(tracer, None, state, 1e-4, "rk4", direct=False)


def test_uninstall_restores_original_objects():
    namespaces = _g2flow_namespaces() + [np, g2flow.states.IsometricState]
    before = [dict(vars(ns)) for ns in namespaces]
    tracer = Tracer()
    layers.install(tracer)
    assert np.einsum is not before[-2]["einsum"]
    tracer.uninstall()
    for ns, snapshot in zip(namespaces, before):
        now = vars(ns)
        for key, value in snapshot.items():
            assert now[key] is value, (ns, key)


def test_self_time_on_synthetic_nested_spans():
    spans = [
        ["a", 0.0, 10.0, -1, "r", None],
        ["b", 1.0, 4.0, 0, "r", None],
        ["c", 5.0, 9.0, 0, "r", None],
        ["d", 6.0, 7.0, 2, "r", None],
        ["e", 20.0, 25.0, -1, "r", None],
    ]
    assert self_times(spans) == pytest.approx([3.0, 3.0, 3.0, 1.0, 5.0])


def test_recorded_spans_nest_and_self_times_sum_to_wall(tracer):
    ticks = iter(range(100))
    tracer.clock = lambda: float(next(ticks))
    ns = types.SimpleNamespace()
    ns.inner = lambda: 1
    ns.outer = lambda: ns.inner() + ns.inner()
    tracer.install("inner", ns, "inner")
    tracer.install("outer", ns, "outer")
    assert ns.outer() == 2
    spans = tracer.spans
    assert [(s[0], s[1], s[2], s[3]) for s in spans] == [
        ("outer", 0.0, 5.0, -1),
        ("inner", 1.0, 2.0, 0),
        ("inner", 3.0, 4.0, 0),
    ]
    assert self_times(spans) == [3.0, 1.0, 1.0]


def _probe_counts():
    """The derived calls_per_rhs counts and span count of one traced probe."""
    tables = g2flow.algebra.build_standard_tables()
    grid = g2flow.Grid(length=1.0, n=8)
    state = g2flow.states.random_band_state(grid, 0.3, seed=2).project()
    dt = 0.25 * grid.h * grid.h / (2 * grid.k)
    tracer = Tracer()
    layers.install(tracer)
    try:
        counts = layers.run_probes(tracer, tables, state, dt, "rk4", direct=True)
    finally:
        tracer.uninstall()
    return counts, len(tracer.spans)


def test_derived_counts_repeat_exactly_across_traced_runs():
    first, second = _probe_counts(), _probe_counts()
    assert first == second
    assert all(value > 0 for value in first[0].values())


def test_tail_percentile_keeps_ten_samples_beyond():
    values = [float(i) for i in range(1, 101)]
    assert layers.tail(values) == (90.0, 90.0)
    assert layers.tail(values[:36]) == (50.0, 18.0)
    assert layers.tail(values[:5]) == (100.0, 5.0)
    assert layers.percentile(values[:36], 50.0) == 18.0


def test_scaled_time_rescales_by_kernel_speed():
    sampler = speed.SpeedSampler()
    # an interval of 1 s whose kernel ran at half the reference speed, with
    # 0.1 s of sampler handlers inside it; samples outside it are ignored
    ref = speed.REF_FULL_S
    sampler.samples = [(t, ref, ref, 0.05) for t in (0.2, 0.7)] + [(2.0, 0.0, 0.0, 9.0)]
    assert sampler.scaled(0.0, 1.0) == pytest.approx(0.9 / 2.0**speed.EXPONENT)
    # one preempted kernel call does not move the median
    sampler.samples.insert(1, (0.5, 50 * ref, ref, 0.0))
    assert sampler.scaled(0.0, 1.0) == pytest.approx(0.9 / 2.0**speed.EXPONENT)
    # before numpy is in the kernel, the Python part alone sets the scale
    sampler.samples = [(0.5, speed.REF_PY_S / 2.0, None, 0.0)]
    assert sampler.scaled(0.0, 1.0) == pytest.approx(2.0**speed.EXPONENT)
    with pytest.raises(ValueError):
        sampler.scaled(3.0, 4.0)


def test_sampler_records_while_started_and_restores_the_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    sampler = speed.SpeedSampler()
    sampler.use_numpy()
    sampler.start()
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < 0.2:
        sum(range(1000))
    t1 = time.perf_counter()
    sampler.stop()
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(sampler.samples) >= 5
    assert all(s[2] is not None for s in sampler.samples)
    assert sampler.scaled(t0, t1) > 0.0


def test_middle_mean_drops_the_outer_quarters():
    import run

    assert run.middle_mean([9.0, 1.0, 2.0, 3.0, 100.0, 4.0, 5.0, 0.0]) == pytest.approx(3.5)
    assert run.middle_mean([2.0, 1.0, 3.0]) == pytest.approx(2.0)


def test_benchmark_json_lists_every_per_layer_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert listed == layers.metric_specs()
