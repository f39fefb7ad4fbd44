"""Spans and call counters recorded from the benchmark's side of the API.

The benchmark never edits loadbal.  In a traced run it replaces a few
public names with wrappers for the duration of the run:

* spans (name, start, end, parent, attributes) around the ``solve`` /
  ``parse_config`` names the CLI looks up and around ``Network`` as
  ``parse_config`` sees it; the benchmark adds its own spans around each
  pipeline call it makes, through :meth:`Tracer.wrap`;
* counters, and for two of them accumulated time, on the names the solver
  looks up at run time: ``partition_for_prices``, ``flow_residual``,
  ``aggregate_objective`` and the ``MM1NodeDelay`` marginal-delay methods.
  Each span stores how much every counter moved while it was open, so
  work can be attributed to the pipeline call that caused it.

Spans stay in memory and are written to a JSON file when the run ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path

#: counter keys; the ``_s`` keys accumulate seconds
COUNTERS = (
    "partition.calls", "partition.s",
    "residual.calls",
    "objective.calls", "objective.s",
    "delays.calls",
)


class Tracer:
    """Span recorder; disabled, :meth:`wrap` returns the function unchanged."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------------

    def wrap(self, name: str, fn, attrs=None):
        """``fn`` recording one span per call.

        ``attrs(args, kwargs, result)``, when given, returns extra
        attributes to store on the span after a successful call.
        """
        if not self.enabled:
            return fn

        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.spans[index]["error"] = type(exc).__name__
                raise
            finally:
                self._close(index)
            if attrs is not None:
                self.spans[index].update(attrs(args, kwargs, result))
            return result

        return traced

    def _open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append({
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
            "_at_open": dict(self.counters),
        })
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        span = self.spans[index]
        span["end"] = time.perf_counter()
        before = span.pop("_at_open")
        span["counters"] = {k: v - before[k] for k, v in self.counters.items() if v != before[k]}
        self._stack.pop()

    # -- counters on names the program looks up ---------------------------------

    def _replace(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _count(self, owner, attr: str, calls: str, seconds: str | None = None) -> None:
        fn = getattr(owner, attr)
        counters = self.counters
        clock = time.perf_counter
        if seconds is None:
            def counted(*args, **kwargs):
                counters[calls] += 1
                return fn(*args, **kwargs)
        else:
            def counted(*args, **kwargs):
                counters[calls] += 1
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    counters[seconds] += clock() - start
        self._replace(owner, attr, counted)

    def install(self, api) -> None:
        """Wrap the program's public names; undone by :meth:`uninstall`.

        ``api`` holds the span-wrapped ``solve`` and ``parse_config`` that
        the CLI's names are pointed at, so CLI calls record the same spans
        as the benchmark's own calls.
        """
        import loadbal.cli
        import loadbal.config
        import loadbal.solver
        from loadbal.delays import MM1NodeDelay

        self._count(loadbal.solver, "partition_for_prices", "partition.calls", "partition.s")
        self._count(loadbal.solver, "flow_residual", "residual.calls")
        self._count(loadbal.solver, "aggregate_objective", "objective.calls", "objective.s")
        self._count(MM1NodeDelay, "marginal_delay", "delays.calls")
        self._count(MM1NodeDelay, "inverse_marginal_delay", "delays.calls")
        self._replace(loadbal.cli, "solve", api.solve)
        self._replace(loadbal.cli, "parse_config", api.parse_config)
        self._replace(loadbal.config, "Network", self.wrap("network.build", loadbal.config.Network))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- reading the trace ------------------------------------------------------

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def moved(self, spans: list[dict]) -> dict[str, float]:
        """How far each counter moved inside ``spans``, summed."""
        return {key: sum(s["counters"].get(key, 0) for s in spans) for key in COUNTERS}

    def duration(self, span: dict) -> float:
        return span["end"] - span["start"]

    def self_times(self) -> dict[str, dict]:
        """Per span name: calls, total seconds, and self seconds.

        Self time is a span's duration minus the time its direct children
        cover; children never overlap because calls nest.
        """
        child_time = defaultdict(float)
        for span in self.spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += self.duration(span)
        table: dict[str, dict] = {}
        for index, span in enumerate(self.spans):
            row = table.setdefault(span["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += self.duration(span)
            row["self_s"] += self.duration(span) - child_time[index]
        return table

    def write(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {**meta, "self_times": self.self_times(), "counters": self.counters, "spans": self.spans}
        path.write_text(json.dumps(payload, indent=1) + "\n")
