"""Span recorder, self-time arithmetic and the per-layer metrics built on them.

A span is one call into a layer function: its name, start, end (in
nanoseconds of the monotonic clock) and the span that was open when it
started.  The recorder wraps the public functions of the `charblocks`
modules from outside, by replacing the module attributes that callers look
up, so no file of the program changes.  Spans are kept in flat arrays, one
entry per call, because the largest workload makes more than a million of
them, and are written out when the traced run ends.

A layer's self time is its span's duration minus the part of that interval
its direct child spans cover.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from collections import defaultdict
from pathlib import Path

# (span name, module name, attribute) for the module-level functions that are
# wrapped.  Every module of the package that holds the original function
# object under any name gets the wrapper, so callers that imported it with
# `from .partitions import e_core` are covered too.
FUNCTION_PROBES = (
    ("partitions.e_core", "partitions", "e_core"),
    ("partitions.remove_hooks_of_length", "partitions", "remove_hooks_of_length"),
    ("partitions.check_partition", "partitions", "check_partition"),
    ("partitions.partitions_of", "partitions", "partitions_of"),
    ("characters.character_table", "characters", "character_table"),
    ("characters.table_csv", "characters", "character_table_csv"),
    ("blocks.block_partitions", "blocks", "block_partitions"),
    ("blocks.c_mu", "blocks", "c_mu"),
    ("blocks.min_c_over_regular", "blocks", "min_c_over_regular"),
    ("blocks.blocks_of", "blocks", "blocks_of"),
)

# (span name, module name, class, method) for the wrapped methods.
METHOD_PROBES = (
    ("characters.char_value", "characters", "CharEngine", "char_value"),
    ("sweeps.to_json", "sweeps", "SweepReport", "to_json"),
)

MODULES = ("partitions", "characters", "blocks", "sweeps", "cli")

# Spans whose calls and self time are per-layer metrics.
CALLS_AND_SELF = (
    "partitions.e_core",
    "partitions.remove_hooks_of_length",
    "partitions.check_partition",
    "partitions.partitions_of",
    "characters.char_value",
    "blocks.block_partitions",
    "blocks.c_mu",
)
SELF_ONLY = (
    "characters.table_csv",
    "blocks.min_c_over_regular",
    "blocks.blocks_of",
    "sweeps.to_json",
)


class Recorder:
    """Collects spans in memory, one array entry per wrapped call."""

    def __init__(self):
        self.names: list[str] = []
        self.tags: list = []
        self._name_ids: dict = {}
        self._tag_ids: dict = {}
        self.name = array("H")
        self.parent = array("i")
        self.tag = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def tag_id(self, tag) -> int:
        """Index of a JSON-serialisable tag that groups spans, such as (e, n)."""
        if tag not in self._tag_ids:
            self._tag_ids[tag] = len(self.tags)
            self.tags.append(tag)
        return self._tag_ids[tag]

    def wrap(self, name: str, fn, tag_of=None):
        """fn wrapped so that each call records one span; tag_of(args) may
        return a tag id for the span."""
        nid = self._name_id(name)
        names, parents, tags = self.name, self.parent, self.tag
        starts, ends, stack = self.start, self.end, self._stack
        clock = time.monotonic_ns

        @functools.wraps(fn)
        def probe(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            tags.append(tag_of(args) if tag_of else -1)
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return probe

    def save(self, prefix: Path, meta: dict) -> None:
        """Write <prefix>.json (names, tags, meta) and <prefix>.bin (the arrays)."""
        prefix.parent.mkdir(parents=True, exist_ok=True)
        header = {"names": self.names, "tags": self.tags, "count": len(self.start),
                  "meta": meta}
        prefix.with_suffix(".json").write_text(json.dumps(header))
        with open(prefix.with_suffix(".bin"), "wb") as f:
            for arr in (self.name, self.parent, self.tag, self.start, self.end):
                arr.tofile(f)


def load(prefix: Path):
    """Read back what Recorder.save wrote: (header, name, parent, tag, start, end)."""
    header = json.loads(prefix.with_suffix(".json").read_text())
    n = header["count"]
    arrays = [array(code) for code in "Hiiqq"]
    with open(prefix.with_suffix(".bin"), "rb") as f:
        for arr in arrays:
            arr.fromfile(f, n)
    return (header, *arrays)


def install(recorder: Recorder, package) -> None:
    """Replace every wrapped function and method of `package` (charblocks)
    with a recording probe."""
    mods = [getattr(package, m) for m in MODULES] + [package]
    for span, mod_name, attr in FUNCTION_PROBES:
        original = getattr(getattr(package, mod_name), attr)
        tag_of = None
        if span == "blocks.c_mu":
            tag_of = lambda args: recorder.tag_id((args[0].e, args[0].n))  # noqa: E731
        probe = recorder.wrap(span, original, tag_of)
        for mod in mods:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, probe)
    for span, mod_name, cls_name, method in METHOD_PROBES:
        cls = getattr(getattr(package, mod_name), cls_name)
        setattr(cls, method, recorder.wrap(span, getattr(cls, method)))


def self_times(parent, start, end) -> array:
    """Self time of every span: its duration minus the union of its direct
    children's intervals, clipped to its own.

    Spans must be in start order, as the recorder appends them; children of
    one parent then arrive in start order too, so a running high-water mark
    per parent merges overlapping children exactly.
    """
    n = len(start)
    covered = array("q", bytes(8 * n))
    reach = array("q", start)
    for i in range(n):
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], reach[p])
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return array("q", (end[i] - start[i] - covered[i] for i in range(n)))


def summarize(header, name, parent, tag, start, end) -> dict:
    """Per span name: calls and self seconds; plus c_mu inclusive time per tag."""
    selfs = self_times(parent, start, end)
    calls = defaultdict(int)
    self_ns = defaultdict(int)
    by_tag = defaultdict(int)
    for i in range(len(start)):
        calls[name[i]] += 1
        self_ns[name[i]] += selfs[i]
        if tag[i] >= 0:
            by_tag[tag[i]] += end[i] - start[i]
    names = header["names"]
    return {
        "calls": {names[k]: v for k, v in calls.items()},
        "self_s": {names[k]: v / 1e9 for k, v in self_ns.items()},
        "tag_s": {tuple(header["tags"][k]): v / 1e9 for k, v in by_tag.items()},
    }


def layer_metrics(summary: dict, meta: dict) -> dict:
    """The per-layer metrics that come from one traced run.

    A layer that does not run on the workload reads 0 calls and 0 s.
    """
    calls, self_s = summary["calls"], summary["self_s"]
    out = {}
    for span in CALLS_AND_SELF:
        out[f"{span}.calls"] = (calls.get(span, 0), "count")
        out[f"{span}.self_s"] = (self_s.get(span, 0.0), "s")
    for span in SELF_ONLY:
        out[f"{span}.self_s"] = (self_s.get(span, 0.0), "s")
    cv_calls = calls.get("characters.char_value", 0)
    growth = meta["memo_after"] - meta["memo_before"]
    out["characters.memo_entries"] = (meta["memo_after"], "count")
    out["characters.memo_growth_per_call"] = (growth / cv_calls if cv_calls else 0.0,
                                              "ratio")
    tag_s = summary["tag_s"]
    total = sum(tag_s.values())
    out["sweeps.task_max_share"] = (max(tag_s.values()) / total if total else 0.0,
                                    "ratio")
    return out
