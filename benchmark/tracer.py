"""Per-layer tracing of effvec from outside the package.

:meth:`Tracer.install` wraps every public function of each layer module
(names without a leading underscore, defined in that module), except the
per-scalar ones in ``UNTRACED``.  It rebinds the name in every effvec
module that holds it, so calls between modules and within one module both
pass through the wrapper.  Each call adds its total time, self time (total
minus traced children) and count, also by caller; generator functions also
count the items they yield.  Spans are kept in memory, up to a cap, and
written out by :meth:`Tracer.write`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

LAYERS = (
    "rationals",
    "matrices",
    "digraph",
    "cones",
    "decomposition",
    "perturbed",
    "reversals",
    "ranking",
    "formats",
    "cli",
)

SPAN_CAP = 50_000

# Called once per vector component: a wrapper would cost ten times the
# function itself and swamp the layers that call it.
UNTRACED = {"rationals.rationalize"}


class Stats:
    """What one traced name adds up over a run."""

    __slots__ = ("total", "self_time", "calls", "items", "parents")

    def __init__(self) -> None:
        self.total = 0.0
        self.self_time = 0.0
        self.calls = 0
        self.items = 0
        self.parents: Counter[str] = Counter()  # calls by the direct caller's name


class Tracer:
    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []
        self.stats: defaultdict[str, Stats] = defaultdict(Stats)
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.dropped = 0
        self._stack: list[list] = []  # frames: [child time, span id, root id, name]
        self._ids = itertools.count()

    # --- recording -------------------------------------------------------

    def _timed(self, name: str, fn, call: bool = True):
        """fn, with each call recorded as one span of ``name``."""
        stats, stack, spans, ids = self.stats[name], self._stack, self.spans, self._ids

        def timed(*args, **kwargs):
            span_id = next(ids)
            parent = stack[-1] if stack else None
            frame = [0.0, span_id, parent[2] if parent else span_id, name]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dt = t1 - t0
                stats.total += dt
                stats.self_time += dt - frame[0]
                parent_id, parent_name = -1, ""
                if parent is not None:
                    parent[0] += dt
                    parent_id, parent_name = parent[1], parent[3]
                if call:
                    stats.calls += 1
                    stats.parents[parent_name] += 1
                if len(spans) < SPAN_CAP:
                    spans.append((span_id, parent_id, frame[2], name, t0, t1))
                else:
                    self.dropped += 1

        return functools.wraps(fn)(timed)

    def span(self, name: str, fn, *args):
        """Run fn(*args) as a span of its own, e.g. one whole operation."""
        return self._timed(name, fn)(*args)

    def _wrap(self, name: str, fn):
        if not inspect.isgeneratorfunction(fn):
            return self._timed(name, fn)
        start, resume, stats = self._timed(name, fn), self._timed(name, next, call=False), self.stats[name]

        @functools.wraps(fn)
        def generator(*args, **kwargs):
            it = start(*args, **kwargs)
            while True:
                try:
                    item = resume(it)
                except StopIteration:
                    return
                stats.items += 1
                yield item

        return generator

    # --- installing ------------------------------------------------------

    def install(self) -> None:
        wrapped: dict[int, object] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"effvec.{layer}")
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__ or f"{layer}.{attr}" in UNTRACED:
                    continue
                wrapped[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "effvec" and not mod_name.startswith("effvec."):
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrapped:
                    setattr(module, attr, wrapped[id(obj)])
                    self._undo.append((module, attr, obj))

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._undo):
            setattr(module, attr, obj)
        self._undo.clear()

    # --- reading ---------------------------------------------------------

    def write(self, path: Path) -> None:
        """Spans as tab-separated lines: id, parent, root, name, start and duration in us."""
        path.parent.mkdir(parents=True, exist_ok=True)
        base = min((span[4] for span in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as out:
            out.write(f"# spans kept {len(self.spans)}, dropped {self.dropped}\n")
            out.write("id\tparent\troot\tname\tstart_us\tdur_us\n")
            for span_id, parent, root, name, t0, t1 in self.spans:
                out.write(
                    f"{span_id}\t{parent}\t{root}\t{name}\t{(t0 - base) * 1e6:.1f}\t{(t1 - t0) * 1e6:.1f}\n"
                )
