"""Spans around the public entry points of each dali layer.

`Tracer.installed()` replaces each entry point with a wrapper that
records a span (name, start, end, parent, note) and restores the
originals on exit.  Names that a module imported from another module
(`from .model import validate_program`) are separate bindings, so the
wrapper is installed in every module that looks the name up, not only
where it is defined.  Nothing under `src/` is changed.
"""

from __future__ import annotations

import contextlib
import json
from time import perf_counter

import dali.engine
import dali.model
import dali.parser
import dali.runtime
import dali.semantics

NAME, START, END, PARENT, NOTE = range(5)

# (span name, defining module, attribute, other modules that import it,
#  what to note from the result)
_FUNCTIONS = (
    ("parser.parse", dali.parser, "parse_agent_file", (), lambda p: len(p.clauses)),
    ("parser.parse", dali.parser, "parse_event_script", (), lambda s: 0),
    ("model.validate", dali.model, "validate_program", (dali.engine, dali.runtime), None),
    ("semantics.transform", dali.semantics, "transform_program", (dali.runtime,),
     lambda tp: len(tp.clauses)),
    ("semantics.least_model", dali.semantics, "least_model", (dali.runtime,), len),
    ("engine.run_agent", dali.engine, "run_agent", (), None),
    ("runtime.load_config", dali.runtime, "load_system_config", (), None),
    ("runtime.evolve", dali.runtime, "evolve_system", (), lambda t: len(t.rounds)),
)
_METHODS = (
    ("engine.step", dali.engine.Engine, "step", lambda rec: rec.case if rec else None),
    ("engine.run", dali.engine.Engine, "run", None),
    ("runtime.run", dali.runtime.SystemRunner, "run", None),
    ("runtime.tick", dali.runtime.SystemRunner, "run_tick", None),
)


class Tracer:
    """Collects spans in memory; one instance per traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.deliveries = 0  # Engine.inject calls made inside a tick

    def _wrap(self, name, fn, note):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
            if note is not None:
                rec[NOTE] = note(out)
            return out

        return traced

    def _count_deliveries(self, fn):
        spans, stack = self.spans, self._stack

        def counted(*args, **kwargs):
            if stack and spans[stack[-1]][NAME] == "runtime.tick":
                self.deliveries += 1
            return fn(*args, **kwargs)

        return counted

    @contextlib.contextmanager
    def installed(self):
        saved = []

        def patch(owner, attr, value):
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)

        try:
            for name, module, attr, users, note in _FUNCTIONS:
                wrapped = self._wrap(name, getattr(module, attr), note)
                for owner in (module,) + users:
                    patch(owner, attr, wrapped)
            for name, cls, attr, note in _METHODS:
                patch(cls, attr, self._wrap(name, getattr(cls, attr), note))
            engine_cls = dali.engine.Engine
            patch(engine_cls, "inject", self._count_deliveries(engine_cls.inject))
            yield self
        finally:
            for owner, attr, value in reversed(saved):
                setattr(owner, attr, value)

    def reset(self):
        self.spans.clear()
        self.deliveries = 0

    # -- summaries ---------------------------------------------------------

    def total(self, name: str) -> float:
        return sum(s[END] - s[START] for s in self.spans if s[NAME] == name)

    def notes(self, name: str) -> list:
        return [s[NOTE] for s in self.spans if s[NAME] == name]

    def self_times(self) -> list[float]:
        """Per span: its duration minus the time its direct children cover."""
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def self_total(self, name: str) -> float:
        own = self.self_times()
        return sum(t for s, t in zip(self.spans, own) if s[NAME] == name)

    def write(self, path) -> None:
        """Spans as JSON lines, times in seconds from the first span."""
        t0 = self.spans[0][START] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i,
                    "name": s[NAME],
                    "start": s[START] - t0,
                    "end": s[END] - t0,
                    "parent": s[PARENT],
                    "note": s[NOTE],
                }) + "\n")
