import threading

import numpy as np
import pytest

from g2flow.algebra import build_standard_tables
from g2flow.grid import Grid
from g2flow.states import IsometricState


def fx_state(grid, f, x):
    """The state with fields (f, X), held as the one field u = (f, X)."""
    return IsometricState(grid=grid, u=np.concatenate((f[None], x)))


def reject_call(monkeypatch, name, call, spoil, worker=False):
    """Patch ``g2flow.flow.<name>`` so that its ``call``-th call returns its result
    spoiled; with ``worker``, its ``call``-th call outside the main thread."""
    from g2flow import flow

    real, calls = getattr(flow, name), []

    def patched(*args, **kwargs):
        counted = not worker or threading.current_thread() is not threading.main_thread()
        calls.append(counted)
        out = real(*args, **kwargs)
        return spoil(out) if counted and sum(calls) == call else out

    monkeypatch.setattr(flow, name, patched)


@pytest.fixture(scope="session")
def tables():
    return build_standard_tables()


@pytest.fixture
def grid16():
    return Grid(length=1.0, n=16, active_dims=(0, 1))


@pytest.fixture
def grid32():
    return Grid(length=1.0, n=32, active_dims=(0, 1))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
