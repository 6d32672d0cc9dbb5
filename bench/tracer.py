"""Traced CLI job: per-layer spans and counts recorded from outside the library.

Run as ``python bench/tracer.py --spans OUT --job ID -- <uniconstruct args>``
with ``src`` on ``PYTHONPATH``.  It wraps the public functions of the
library's working modules (and a few methods), calls
``uniconstruct.cli.main(argv)``, writes the spans as JSON when the job ends
and exits with the command's exit code.

Importing this module installs nothing; ``self_times`` and ``summarize`` are
the arithmetic the benchmark runner applies to the written spans.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("structures", "groups", "skew", "ucp", "encode", "uniform")

# Spans are timed in process CPU time, like the jobs themselves: time the
# machine spends on other tenants does not count.
CLOCK = time.process_time

# (module, class, method, span name); every other public module-level
# function of LAYERS is wrapped under "<module>.<function>"
METHODS = (
    ("structures", "SortedMap", "compose", "structures.SortedMap.compose"),
    ("groups", "FiniteGroup", "__init__", "groups.FiniteGroup.init"),
    ("groups", "GroupHom", "__init__", "groups.GroupHom.init"),
    ("uniform", "TripleSpace", "__init__", "uniform.TripleSpace.init"),
    ("uniform", "TripleSpace", "classes", "uniform.TripleSpace.classes"),
    ("uniform", "TripleSpace", "e_equiv", "uniform.TripleSpace.e_equiv"),
)

# Hot paths (up to millions of calls per job) are counted, never spanned.
COUNT_ONLY = frozenset({
    "structures.SortedMap.compose",
    "uniform.TripleSpace.e_equiv",
    "uniform.e_equiv",
    "groups.classify_section",
    "skew.skew_mul",
})


def _claims(report):
    return {
        "uniform.verify_claims.claims": len(report.entries),
        "uniform.verify_claims.passed": sum(1 for entry in report.entries if entry[1]),
    }


# span name -> function(result, args) giving counts to add to the job totals
HOOKS = {
    "structures.isomorphisms": lambda r, a: {"structures.isomorphisms.maps_out": len(r)},
    "groups.aut_group": lambda r, a: {"groups.aut_group.table_cells": r.group.order ** 2},
    "groups.classify_sections": lambda r, a: {
        "groups.classify_sections.candidates": r.n_candidates,
        "groups.classify_sections.found": len(r.splittings) + len(r.weak_splittings),
    },
    "groups.find_isomorphism": lambda r, a: {"groups.find_isomorphism.hits": int(r is not None)},
    "uniform.TripleSpace.init": lambda r, a: {"uniform.TripleSpace.triples": len(a[0].triples)},
    "uniform.TripleSpace.classes": lambda r, a: {"uniform.TripleSpace.classes.count": len(r[1])},
    "uniform.verify_claims": lambda r, a: _claims(r),
}

# span name -> {total name: counted name}: calls of the counted function made
# while the span is open
DELTAS = {
    "groups.classify_sections": {"groups.classify_sections.checked": "groups.classify_section"},
    "uniform.build_family": {"uniform.build_family.aut_group_calls": "groups.aut_group"},
}


class Recorder:
    """Spans (name, start, end, parent) and counts for one job, in memory."""

    def __init__(self, job: str):
        self.job = job
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list = []
        self.stack = [-1]
        self.counts: dict[str, int] = defaultdict(int)
        self.totals: dict[str, float] = defaultdict(float)

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def counter(self, fn, name):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def spanner(self, fn, name):
        nid = self.name_id(name)
        spans, stack, counts, totals = self.spans, self.stack, self.counts, self.totals
        hook = HOOKS.get(name)
        deltas = DELTAS.get(name, {})
        clock = CLOCK

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            counts[name] += 1
            before = {total: counts[inner] for total, inner in deltas.items()}
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (nid, start, end, parent)
            for total, inner in deltas.items():
                totals[total] += counts[inner] - before[total]
            if hook is not None:
                try:
                    values = hook(result, args)
                except (AttributeError, TypeError, IndexError):
                    values = {}  # the result changed shape: keep the job, drop its counts
                for key, value in values.items():
                    totals[key] += value
            return result

        return spanned

    def wrap(self, fn, name):
        return self.counter(fn, name) if name in COUNT_ONLY else self.spanner(fn, name)

    def document(self) -> dict:
        totals = dict(self.totals)
        for name, n in self.counts.items():
            totals[f"{name}.calls"] = n
        return {"job": self.job, "names": self.names, "spans": self.spans, "totals": totals}


def install(rec: Recorder) -> None:
    """Wrap every module-level binding of each traced function, in every
    uniconstruct module, since ``cli``, ``ucp`` and ``uniform`` import names
    directly."""
    import importlib

    import uniconstruct

    modules = {name: importlib.import_module(f"uniconstruct.{name}") for name in LAYERS}
    replaced = {}
    for layer, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                replaced[obj] = rec.wrap(obj, f"{layer}.{attr}")
    every = [uniconstruct, importlib.import_module("uniconstruct.cli"), *modules.values()]
    for mod in every:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in replaced:
                setattr(mod, attr, replaced[obj])
    for layer, cls_name, method, name in METHODS:
        cls = getattr(modules[layer], cls_name)
        setattr(cls, method, rec.wrap(getattr(cls, method), name))


# ---------------------------------------------------------------------------
# Arithmetic applied by the runner


def covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[float]:
    """Self time of each (name, start, end, parent) span: its duration minus
    the part of it that its direct child spans cover."""
    children = defaultdict(list)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        inside = [(max(s, start), min(e, end)) for s, e in children.get(i, ()) if e > start and s < end]
        out.append(end - start - covered(inside))
    return out


def summarize(doc: dict) -> dict[str, float]:
    """Totals of one job's span document: counts and hook values as recorded,
    plus ``<span>.self_s`` per span name and ``<layer>.self_s`` per layer."""
    out = defaultdict(float, doc["totals"])
    names = doc["names"]
    for span, self_s in zip(doc["spans"], self_times(doc["spans"])):
        name = names[span[0]]
        out[f"{name}.self_s"] += self_s
        out[f"{name.split('.')[0]}.self_s"] += self_s
    return dict(out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="where to write the span JSON")
    parser.add_argument("--job", required=True, help="job id stored with the spans")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    rec = Recorder(args.job)
    install(rec)
    from uniconstruct import cli

    nid = rec.name_id("cli.main")
    rec.spans.append(None)
    rec.stack.append(0)
    start = CLOCK()
    try:
        code = cli.main(cli_args)
    finally:
        rec.spans[0] = (nid, start, CLOCK(), -1)
        with open(args.spans, "w", encoding="utf-8") as fh:
            json.dump(rec.document(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
