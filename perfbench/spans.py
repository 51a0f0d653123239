"""Spans around the calls into each permpat layer, recorded from outside.

The tracer replaces the public functions of the five layer modules with
timing wrappers, in every loaded ``permpat`` module that holds a reference to
them (the package imports names with ``from .x import y``, so patching only the
defining module would miss most calls).  Nothing under ``src/`` changes.

A span is ``(name, start, end, parent, run_id)``: ``parent`` is the index of
the enclosing span or -1, and ``run_id`` names the CLI command the span belongs
to.  Spans stay in memory until ``write`` dumps them as JSON lines.

``perms`` and ``partitions`` get no spans: their calls run inside the law
suites and the classifier, so their time lands in those callers' self time.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict
from typing import Callable

LAYERS = ("galois", "groups", "classify", "verify", "cli")

#: Private names traced on top of each module's public functions.  ``_comp_step``
#: is the level step; ``cli`` and ``verify`` import and call it by name.
EXTRA_FUNCTIONS = {"galois": ("_comp_step",)}

#: Classmethods traced as ``groups.PermGroup.<name>``.
CLASSMETHODS = {"groups": ("PermGroup", ("closure", "from_words"))}

LEVEL_STEP = "galois._comp_step"
FROM_WORDS = "groups.PermGroup.from_words"
ENUMERATE = "groups.enumerate_subgroups"

Span = tuple[str, float, float, int, str]


class Counts:
    """Work counted at the span boundaries, from arguments and results."""

    def __init__(self) -> None:
        self.level_words = 0
        self.level_candidates = 0
        self.max_level_words = 0
        self.from_words_elements = 0
        self.subgroups_found = 0
        self.subgroups_by_degree: dict[int, set[int]] = defaultdict(set)

    def observe(self, name: str, args: tuple, result) -> None:
        if name == LEVEL_STEP:
            words, k = args[0], args[1]
            self.level_candidates += len(words) * (k + 1)
            self.level_words += len(result)
            self.max_level_words = max(self.max_level_words, len(result))
        elif name == ENUMERATE:
            self.subgroups_found += len(result)
            self.subgroups_by_degree[args[0]].add(len(result))

    def observe_input(self, name: str, args: tuple) -> None:
        # counted before the call: from_words raises on sets that are not groups
        if name == FROM_WORDS:
            self.from_words_elements += len(args[1])

    def to_json(self) -> dict:
        return {
            "galois.level_words": self.level_words,
            "galois.level_candidates": self.level_candidates,
            "galois.max_level_words": self.max_level_words,
            "groups.from_words_elements": self.from_words_elements,
            "groups.subgroups_found": self.subgroups_found,
            "groups.subgroups_by_degree": {
                str(n): sorted(c) for n, c in sorted(self.subgroups_by_degree.items())
            },
        }


class Tracer:
    """Records spans for the traced functions while installed."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.counts = Counts()
        self.run_id = ""
        self._stack: list[int] = []
        self._origin = time.perf_counter()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counts.observe_input(name, args)
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.run_id)
            counts.observe(name, args, result)
            return result

        return traced

    def install(self) -> None:
        """Patch every loaded ``permpat`` module; call after importing the CLI."""
        holders = [m for k, m in sys.modules.items() if k == "permpat" or k.startswith("permpat.")]
        replaced: dict[int, Callable] = {}
        for layer in LAYERS:
            module = sys.modules[f"permpat.{layer}"]
            names = [
                n
                for n, obj in vars(module).items()
                if not n.startswith("_")
                and inspect.isfunction(obj)
                and obj.__module__ == module.__name__
            ]
            names += EXTRA_FUNCTIONS.get(layer, ())
            for n in names:
                fn = getattr(module, n)
                replaced[id(fn)] = self._wrap(f"{layer}.{n}", fn)
            if layer in CLASSMETHODS:
                cls_name, methods = CLASSMETHODS[layer]
                cls = getattr(module, cls_name)
                for m in methods:
                    fn = vars(cls)[m].__func__
                    setattr(cls, m, classmethod(self._wrap(f"{layer}.{cls_name}.{m}", fn)))
        for module in holders:
            for attr, obj in list(vars(module).items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None and wrapper.__wrapped__ is obj:
                    setattr(module, attr, wrapper)

    def write(self, path) -> None:
        """Append the spans as JSON lines, times in seconds from tracer start."""
        o = self._origin
        with open(path, "a", encoding="utf-8") as fh:
            for name, start, end, parent, run_id in self.spans:
                fh.write(json.dumps([name, start - o, end - o, parent, run_id]) + "\n")


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer times and call counts from a finished list of spans.

    A span's self time is its duration minus its direct children's.  A
    function's inclusive time counts only its outermost calls, so a call nested
    in another call of the same function is not counted twice.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_by_layer: dict[str, float] = defaultdict(float)
    self_by_name: dict[str, float] = defaultdict(float)
    inclusive: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for i, (name, start, end, parent, _) in enumerate(spans):
        duration = end - start
        own = duration - child_time[i]
        self_by_layer[name.split(".", 1)[0]] += own
        self_by_name[name] += own
        calls[name] += 1
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            inclusive[name] += duration

    def self_of(*names: str) -> float:
        return sum(self_by_name[n] for n in names)

    out = {
        "galois.comp_s": self_of(
            LEVEL_STEP, "galois.comp_set", "galois.comp_level_sequence", "galois.gcomp"
        ),
        "galois.comp_calls": calls[LEVEL_STEP],
        "galois.pat_s": self_of("galois.pat_set", "galois.gpat"),
        "groups.parse_s": inclusive["groups.parse_group"],
        "groups.from_words_s": inclusive[FROM_WORDS],
        "groups.from_words_calls": calls[FROM_WORDS],
        "groups.enumerate_s": inclusive[ENUMERATE],
        "classify.predict_s": inclusive["classify.predict_level"],
        "classify.predict_calls": calls["classify.predict_level"],
        "classify.eventual_s": inclusive["classify.predict_eventual"],
        "verify.laws_s": inclusive["verify.verify_laws"],
        "trace.spans": len(spans),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_by_layer[layer]
    return out
