"""Span tracing of the library's layers from outside the library.

``Tracer.install`` replaces each layer entry point with a wrapper at every
place the function is bound: the defining module, every ``subrep`` module
that imported it by name, the package namespace and the benchmark's own
``workloads`` module. So ``subrep.classify.components`` and
``subrep.construct.canonical_code`` are traced as well as
``subrep.poset.components``. A call into a layer that is already active on
the stack (``canonical_code`` calling ``_canonical_rows``) adds no span.

Spans (name, start, end, parent, root query, raised) are kept in arrays and
written out by ``write``. A layer's self time is its span time minus the
time covered by its child spans.
"""

from __future__ import annotations

import functools
import gzip
import sys
from array import array
from collections import Counter
from time import perf_counter

#: Span name -> the entry points, as "module.attribute", it covers.
LAYERS: dict[str, tuple[str, ...]] = {
    "poset.parse": ("subrep.cli.parse_poset_text", "subrep.poset.poset_from_cover"),
    "poset.canonical": ("subrep.poset.canonical_code", "subrep.poset._canonical_rows"),
    "poset.components": ("subrep.poset.components",),
    "poset.subposet": ("subrep.poset.subposet",),
    "embed.embeds": ("subrep.embed.embeds",),
    "embed.find_embedding": ("subrep.embed.find_embedding",),
    "classify.classify_finite": ("subrep.classify.classify_finite",),
    "construct.build_g": ("subrep.construct.build_g",),
    "construct.verify_subrep": ("subrep.construct.verify_subrep",),
    "oracle.enumerate_posets": ("subrep.oracle.enumerate_posets",),
    "oracle.oracle_subrep": ("subrep.oracle.oracle_subrep",),
    "oracle.survey": ("subrep.oracle.survey",),
    "pinboard.normalize_subset": ("subrep.pinboard.normalize_subset",),
    "pinboard.theta": ("subrep.pinboard.theta",),
    "pinboard.theta_subset": ("subrep.pinboard.theta_subset",),
    "pinboard.pin_embeds": ("subrep.pinboard.pin_embeds",),
    "pinboard.pinboard_poset": ("subrep.pinboard.pinboard_poset",),
    "cli.parse_pinboard": ("subrep.cli.parse_simple_pinboard", "subrep.cli.parse_pin_subset"),
    "cli.emit": ("workloads.emit",),
}

#: Name of the span around each whole query.
QUERY = "bench.query"


def _note_canonical(counts: Counter, args, result) -> None:
    counts["poset.canonical.big_calls"] += args[0].n >= 8


def _note_embeds(counts: Counter, args, result) -> None:
    counts["embed.embeds.true"] += bool(result)


def _note_enumerate(counts: Counter, args, result) -> None:
    counts["oracle.enumerate_posets.classes"] += len(result)


NOTES = {
    "poset.canonical": _note_canonical,
    "embed.embeds": _note_embeds,
    "oracle.enumerate_posets": _note_enumerate,
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.active: list[int] = []
        self.counts: Counter = Counter()
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_root = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_raised = array("b")
        self.stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        if name not in self.names:
            self.names.append(name)
            self.active.append(0)
        nid = self.names.index(name)
        note = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.active[nid]:
                return fn(*args, **kwargs)
            idx = len(self.span_name)
            stack = self.stack
            self.span_name.append(nid)
            self.span_parent.append(stack[-1] if stack else -1)
            self.span_root.append(stack[0] if stack else idx)
            self.span_raised.append(0)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            stack.append(idx)
            self.active[nid] = 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.span_raised[idx] = 1
                raise
            finally:
                end = perf_counter()
                self.span_start[idx] = start
                self.span_end[idx] = end
                stack.pop()
                self.active[nid] = 0
            if note is not None:
                note(self.counts, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every layer entry point wherever it is bound."""
        modules = [m for key, m in list(sys.modules.items())
                   if key == "subrep" or key.startswith("subrep.") or key == "workloads"]
        for name, targets in LAYERS.items():
            for target in targets:
                module, attr = target.rsplit(".", 1)
                original = getattr(sys.modules[module], attr)
                wrapper = self.wrap(name, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
                            self._patched.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self seconds, spans that raised; plus the
        embeds calls made under ``verify_subrep``."""
        n = len(self.span_name)
        covered = [0.0] * n
        for i in range(n):
            parent = self.span_parent[i]
            if parent >= 0:
                covered[parent] += self.span_end[i] - self.span_start[i]
        out = {name: {"calls": 0, "self_s": 0.0, "raised": 0} for name in self.names}
        for i in range(n):
            entry = out[self.names[self.span_name[i]]]
            entry["calls"] += 1
            entry["self_s"] += self.span_end[i] - self.span_start[i] - covered[i]
            entry["raised"] += self.span_raised[i]
        if "construct.verify_subrep" in self.names and "embed.embeds" in self.names:
            verify = self.names.index("construct.verify_subrep")
            embeds = self.names.index("embed.embeds")
            under = 0
            for i in range(n):
                if self.span_name[i] == embeds:
                    parent = self.span_parent[i]
                    while parent >= 0 and self.span_name[parent] != verify:
                        parent = self.span_parent[parent]
                    under += parent >= 0
            self.counts["construct.verify_subrep.embeds_calls"] = under
        return out

    def write(self, path) -> int:
        """Write the spans as gzipped CSV, times relative to the first span."""
        t0 = self.span_start[0] if self.span_start else 0.0
        with gzip.open(path, "wt", compresslevel=3) as fh:
            fh.write("span,name,start_s,end_s,parent,query,raised\n")
            for i in range(len(self.span_name)):
                fh.write(
                    f"{i},{self.names[self.span_name[i]]},{self.span_start[i] - t0:.7f},"
                    f"{self.span_end[i] - t0:.7f},{self.span_parent[i]},"
                    f"{self.span_root[i]},{self.span_raised[i]}\n"
                )
        return len(self.span_name)
