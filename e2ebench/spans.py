"""In-memory span and counter tracing installed from the benchmark side.

The program under test carries no tracing of its own.  :class:`Tracer`
wraps public functions of each layer in place (module functions, class
methods, entries of dispatch tables) for the length of a traced run and
restores the originals afterwards.  A *span* target records
``(id, name, parent, start, end)`` for every call; a *count* target
only bumps a counter, which keeps functions called a million times per
op cheap enough to count.

Spans and counts are recorded only inside a root span opened with
:meth:`Tracer.root` (one per timed op or event, or one per set-up), so
work the benchmark does itself — output checks, reference rebuilds —
never lands in the ledger.  A layer's *self time* is its span's duration minus the
time covered by its child spans; the root span's self time is the part
of the op no wrapped layer accounts for.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: kind of a target: time every call, or only count calls.
SPAN = "span"
COUNT = "count"

#: (metric name, kind, module, attribute path).  One metric may wrap
#: several callables (e.g. a function and the alias another module
#: imported by name); the survey-cold stage functions are reached through
#: ``repro.scenarios.base`` because the stage library's lambdas look
#: them up there at call time.
TARGETS: Sequence[Tuple[str, str, str, str]] = (
    ("topology.generate", SPAN, "repro.scenarios.base", "stage_topology"),
    ("ixp.build", SPAN, "repro.scenarios.base", "stage_ixps"),
    ("ixp.encode_policy", COUNT, "repro.ixp.community_schemes",
     "CommunityScheme.encode_policy"),
    ("runtime.csr.build", SPAN, "repro.topology.as_graph",
     "ASGraph.build_index"),
    ("topology.get_link", COUNT, "repro.topology.as_graph",
     "ASGraph.get_link"),
    ("topology.customers", COUNT, "repro.topology.as_graph",
     "ASGraph.customers"),
    ("bgp.propagation.propagate", SPAN, "repro.bgp.propagation",
     "PropagationEngine.batch_fragments"),
    ("collectors.collect", SPAN, "repro.scenarios.base", "stage_collectors"),
    ("collectors.ribentry_view", COUNT, "repro.collectors.archive",
     "RibEntryTable.entry"),
    ("ixp.looking_glass.load", SPAN, "repro.scenarios.base",
     "stage_viewpoints"),
    ("core.passive.extract", SPAN, "repro.core.passive",
     "PassiveInference.extract"),
    ("core.passive.extract", SPAN, "repro.core.passive",
     "PassiveInference.policy_observations"),
    ("core.active.collect", SPAN, "repro.core.active",
     "ActiveInference.collect"),
    ("core.active.collect", SPAN, "repro.core.engine",
     "collect_from_third_party_lg"),
    ("core.active.lg_query", COUNT, "repro.ixp.looking_glass",
     "LGQueryCounter.record"),
    ("core.communities.fingerprint", COUNT, "repro.core.communities",
     "RSCommunityInterpreter._members_fingerprint"),
    ("core.reachability.merge", SPAN, "repro.core.engine",
     "merge_observations"),
    ("runtime.reachmatrix.build", SPAN, "repro.runtime.reachmatrix",
     "ReachabilityMatrix.from_result"),
    ("analysis.table2", SPAN, "repro.pipeline.analyses", "FIGURES.table2"),
    ("analysis.visibility", SPAN, "repro.pipeline.analyses",
     "FIGURES.visibility"),
    ("analysis.degrees", SPAN, "repro.pipeline.analyses", "FIGURES.degrees"),
    ("analysis.density", SPAN, "repro.pipeline.analyses", "FIGURES.density"),
    ("scenarios.events.state_apply", SPAN, "repro.scenarios.events",
     "ReplayState.apply"),
    ("runtime.csr.splice", SPAN, "repro.runtime.csr", "CSRIndex.spliced"),
    ("runtime.delta.affected", SPAN, "repro.scenarios.events",
     "affected_update"),
    ("runtime.delta.patch", SPAN, "repro.scenarios.events",
     "patched_result"),
    ("service.artifact.save", SPAN, "repro.service.artifact", "save_matrix"),
    ("service.artifact.load", SPAN, "repro.service.artifact", "load_matrix"),
    ("service.artifact.load", SPAN, "repro.service.daemon", "load_matrix"),
    ("service.artifact.verify", SPAN, "repro.service.artifact",
     "verify_identity"),
)


class Tracer:
    """Spans (name, start, end, parent) and call counts, kept in memory."""

    def __init__(self) -> None:
        #: finished spans: (id, name, parent id, root id, start, end).
        self.spans: List[Tuple[int, str, Optional[int], int, float, float]] = []
        #: (root kind, name) -> self seconds / calls / counted calls.
        self.self_seconds: Dict[Tuple[str, str], float] = defaultdict(float)
        self.calls: Dict[Tuple[str, str], int] = defaultdict(int)
        self.counts: Dict[Tuple[str, str], int] = defaultdict(int)
        #: open spans: [id, name, start, child seconds].
        self._stack: List[list] = []
        self._root_kind: Optional[str] = None
        self._root_id = 0
        self._next_id = 1
        self._restore: List[Callable[[], None]] = []

    # -- recording -------------------------------------------------------------

    def _open(self, name: str) -> None:
        self._stack.append([self._next_id, name, time.perf_counter(), 0.0])
        self._next_id += 1

    def _close(self) -> None:
        end = time.perf_counter()
        span_id, name, start, child = self._stack.pop()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        key = (self._root_kind, name)
        self.self_seconds[key] += duration - child
        self.calls[key] += 1
        self.spans.append((span_id, name, parent[0] if parent else None,
                           self._root_id, start, end))

    @contextmanager
    def root(self, kind: str):
        """Open a root span of *kind* (``op``, ``setup``, ...)."""
        if self._stack:
            raise RuntimeError("root spans do not nest")
        self._root_kind, self._root_id = kind, self._next_id
        self._open(kind)
        try:
            yield
        finally:
            self._close()
            self._root_kind = None

    @contextmanager
    def span(self, name: str):
        """Time a block as a span named *name* (inside a root span)."""
        self._open(name)
        try:
            yield
        finally:
            self._close()

    # -- wrapping --------------------------------------------------------------

    def _span_wrapper(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._root_kind is None:
                return fn(*args, **kwargs)
            self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close()
        return wrapper

    def _count_wrapper(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._root_kind is not None:
                counts[(self._root_kind, name)] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self, targets: Sequence[Tuple[str, str, str, str]] = TARGETS
                ) -> None:
        """Wrap every target in place (undone by :meth:`uninstall`)."""
        for name, kind, module_name, path in targets:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = owner[part] if isinstance(owner, dict) \
                    else getattr(owner, part)
            make = self._span_wrapper if kind == SPAN else self._count_wrapper
            if isinstance(owner, dict):
                original = owner[attr]
                owner[attr] = make(name, original)
                self._restore.append(
                    functools.partial(owner.__setitem__, attr, original))
                continue
            original = inspect.getattr_static(owner, attr)
            if isinstance(original, classmethod):
                wrapped = classmethod(make(name, original.__func__))
            else:
                wrapped = make(name, original)
            setattr(owner, attr, wrapped)
            self._restore.append(
                functools.partial(setattr, owner, attr, original))

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    # -- reporting -------------------------------------------------------------

    def table(self, kind: str, ops: int) -> List[str]:
        """A self-time table of the spans under roots of *kind*, per
        *ops* (ops or set-ups)."""
        rows = [(name, self.calls[(k, name)], seconds)
                for (k, name), seconds in self.self_seconds.items()
                if k == kind]
        total = sum(seconds for _, _, seconds in rows) or 1.0
        lines = [f"self time under {kind!r} roots, per {kind} ({ops})",
                 f"  {'layer':<40} {'calls':>9} {'ms/' + kind:>11} {'share':>7}"]
        for name, calls, seconds in sorted(rows, key=lambda r: -r[2]):
            lines.append(f"  {name:<40} {calls:>9} "
                         f"{seconds * 1e3 / max(ops, 1):>11.4f} "
                         f"{seconds / total:>7.1%}")
        for (k, name), value in sorted(self.counts.items()):
            if k == kind:
                lines.append(f"  {name + ' (count)':<40} {value:>9} "
                             f"{value / max(ops, 1):>11.1f}")
        return lines

    def dump(self, path) -> None:
        """Write every span, then every counter, as JSON lines."""
        with open(path, "w") as out:
            for span_id, name, parent, root, start, end in self.spans:
                out.write(json.dumps({
                    "span": span_id, "name": name, "parent": parent,
                    "root": root, "start": start, "end": end}) + "\n")
            for (kind, name), value in sorted(self.counts.items()):
                out.write(json.dumps({
                    "count": name, "root_kind": kind, "value": value}) + "\n")
