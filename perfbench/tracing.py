"""In-memory span tracer that wraps functions from outside the program.

A span is ``[name, start, end, parent, run_id, extra]``: ``parent`` is the
index of the enclosing span (-1 at top level), ``run_id`` names the request
(one CLI command of one repetition) and ``extra`` is whatever the function's
observer returned (bytes moved, a returned defect), or None.

Installing a target wraps the function object once and rebinds that
wrapper under every attribute, in every namespace searched, that holds the
same object: ``g2flow.flow.partial`` is ``g2flow.grid.partial``, so patching
only the defining module would miss calls made through ``flow``.
"""

from __future__ import annotations

import functools
import json
import time


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.run_id = ""
        self.observers: dict = {}
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, self.clock
        observers = self.observers

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id, None]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            observe = observers.get(name)
            if observe is not None:
                span[5] = observe(args, kwargs, result)
            return result

        return traced

    def install(self, name: str, owner, attr: str, namespaces=()) -> None:
        """Wrap ``owner.attr`` and rebind it wherever the same object is bound.

        ``owner`` is a module or a class; ``namespaces`` are further modules
        or classes to search.  Raises AttributeError, patching nothing, when
        ``owner`` does not define ``attr``.
        """
        original = vars(owner).get(attr)
        if original is None:
            raise AttributeError(f"{owner!r} defines no {attr!r}")
        wrapper = self.wrap(name, original)
        for ns in (owner, *namespaces):
            for key, value in list(vars(ns).items()):
                if value is original:
                    self._patches.append((ns, key, value))
                    setattr(ns, key, wrapper)

    def uninstall(self) -> None:
        """Restore every rebound attribute to its original object."""
        while self._patches:
            ns, key, value = self._patches.pop()
            setattr(ns, key, value)

    def dump(self, path) -> None:
        """Write the spans as NDJSON, one ``[name, start, end, parent, run_id, extra]`` per line."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    The tracer is single-threaded and stack-based, so a child lies inside its
    parent and siblings never overlap.
    """
    out = [end - start for _, start, end, *_ in spans]
    for _, start, end, parent, *_ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out
