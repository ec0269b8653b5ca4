"""Spans recorded from outside the program.

The traced run wraps the objects the benchmark hands to the pipeline
(client, repository, registry, and the pipeline's reference to the ingest
module) in ``Traced`` proxies, and wraps its own calls into the program with
``Tracer.call``. Each call becomes a span: name, start, end, parent span and
run id. Spans stay in memory until the run ends.

A span's self time is its duration minus the time its child spans cover;
a layer's self time is the sum over its spans. Calls run on one thread, so
children never overlap.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from pathlib import Path
from typing import Any, Callable


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []

    def call(self, name: str, fn: Callable, *args, **kwargs) -> Any:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.ends[index] = time.perf_counter()
            self._stack.pop()

    def span_count(self) -> int:
        return len(self.names)

    def totals(self) -> tuple[Counter, Counter]:
        """Inclusive seconds per span name, and self seconds per layer (the
        name's part before the first dot)."""
        inclusive: Counter = Counter()
        child_time = [0.0] * len(self.names)
        for i, name in enumerate(self.names):
            duration = self.ends[i] - self.starts[i]
            inclusive[name] += duration
            if self.parents[i] >= 0:
                child_time[self.parents[i]] += duration
        layer_self: Counter = Counter()
        for i, name in enumerate(self.names):
            layer = name.split(".", 1)[0]
            layer_self[layer] += (self.ends[i] - self.starts[i]
                                  - child_time[i])
        return inclusive, layer_self

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps({
                    "run": self.run_id, "id": i, "name": name,
                    "parent": self.parents[i] if self.parents[i] >= 0
                    else None,
                    "start": self.starts[i], "end": self.ends[i]}) + "\n")


class Traced:
    """Proxy that turns each public method call on ``target`` into a span
    named ``<layer>.<method>``. ``hooks`` maps a method name to a callback
    that sees the call's result, for counts taken where the work happens."""

    def __init__(self, target: Any, layer: str, tracer: Tracer,
                 hooks: dict[str, Callable[[Any], None]] | None = None):
        self._target = target
        self._layer = layer
        self._tracer = tracer
        self._hooks = hooks or {}

    def __getattr__(self, attr: str) -> Any:
        value = getattr(self._target, attr)
        if attr.startswith("_") or not callable(value) \
                or isinstance(value, type):
            return value
        name = f"{self._layer}.{attr}"
        hook = self._hooks.get(attr)

        def traced(*args, **kwargs):
            result = self._tracer.call(name, value, *args, **kwargs)
            if hook is not None:
                hook(result)
            return result

        return traced


class Untraced:
    """Stands in for ``Tracer`` in the timed run: calls go straight
    through."""

    @staticmethod
    def call(name: str, fn: Callable, *args, **kwargs) -> Any:
        return fn(*args, **kwargs)
