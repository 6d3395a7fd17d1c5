"""Spans around the program's public functions, for the traced run only.

Each wrapped name is patched where the calling module imported it (for
example `protocol.merge`, `codec.validate_descriptor`) or on its class, so
calls made inside a module are seen as well.  A span records a name, its
start and end, and the index of the span open when it began; spans are
kept in compact arrays and written out when the run ends.  Self time is a
span's length minus the length of its direct children.
"""

from __future__ import annotations

import contextlib
import gzip
import json
import time
from array import array
from collections import Counter

# (module or class attribute to patch, span name); the module is named by
# its attribute on the treesweep package
PATCHES = [
    ("cli", "main", "cli.main"),
    ("cli", "parse_edge_list", "forest.parse"),
    ("cli", "run_static", "protocol.run_static"),
    ("cli", "extract", "strategy.extract"),
    ("cli", "validate", "strategy.validate"),
    ("forest.Forest", "add_edge", "forest.add_edge"),
    ("forest.Graph", "component_of", "forest.component_of"),
    ("protocol", "merge", "hd.merge"),
    ("protocol", "evaluate", "hd.evaluate"),
    ("protocol", "encode", "codec.encode"),
    ("protocol", "decode", "codec.decode"),
    ("protocol.Schedule", "order", "protocol.order"),
    ("hd", "validate_descriptor", "hd.validate"),
    ("hd", "evaluate", "hd.evaluate"),
    ("codec", "validate_descriptor", "hd.validate"),
    ("strategy", "merge_detailed", "hd.merge"),
    ("strategy", "evaluate", "hd.evaluate"),
    ("dynamic", "run_static", "protocol.run_static"),
    ("dynamic", "merge", "hd.merge"),
    ("dynamic", "evaluate", "hd.evaluate"),
    ("dynamic", "encode", "codec.encode"),
    ("dynamic", "decode", "codec.decode"),
    ("dynamic.DynamicForest", "from_tree", "dynamic.from_tree"),
    ("dynamic.DynamicForest", "add_edge", "dynamic.add_edge"),
    ("dynamic.DynamicForest", "delete_edge", "dynamic.delete_edge"),
    ("dynamic.DynamicForest", "change_root", "dynamic.change_root"),
    ("dynamic.DynamicForest", "value_of", "dynamic.value_of"),
    ("dynamic.DynamicForest", "root_of", "dynamic.root_of"),
    ("dynamic.DynamicForest", "_notify", "dynamic.notify"),
]

# counts taken from a wrapped call's arguments or result, not its span
TALLIES = {
    "codec.encode": ("codec.bits", lambda args, result: len(result)),
    "strategy.extract": ("strategy.actions", lambda args, result: len(result)),
    "dynamic.notify": ("dynamic.reroot_hops", lambda args, result: args[1]),
}


def _resolve(package, dotted: str):
    obj = package
    for part in dotted.split("."):
        obj = getattr(obj, part)
    return obj


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.name = array("B")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.tallies: Counter = Counter()
        self.errors: Counter = Counter()

    def _wrap(self, fn, span: str):
        nid = self.ids.setdefault(span, len(self.ids))
        if nid == len(self.names):
            self.names.append(span)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack, clock = self.stack, time.perf_counter_ns
        tally = TALLIES.get(span)
        tallies, errors = self.tallies, self.errors

        def traced(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[span] += 1
                raise
            finally:
                ends[i] = clock()
                stack.pop()
            if tally is not None:
                tallies[tally[0]] += tally[1](args, result)
            return result

        return traced

    @contextlib.contextmanager
    def active(self, package):
        """Wrap every name in PATCHES for the duration of the block."""
        saved = []
        try:
            for owner_name, attr, span in PATCHES:
                owner = _resolve(package, owner_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(raw.__func__, span))
                else:
                    wrapped = self._wrap(raw, span)
                saved.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        count = len(self.name)
        child = [0] * count
        for i in range(count):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {n: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for n in self.names}
        for i in range(count):
            row = out[self.names[self.name[i]]]
            length = self.end[i] - self.start[i]
            row["calls"] += 1
            row["total_s"] += length * 1e-9
            row["self_s"] += (length - child[i]) * 1e-9
        return out

    def dump(self, path) -> None:
        """gzip file: one JSON header line, then the four arrays' bytes."""
        header = {"names": self.names, "count": len(self.name),
                  "arrays": [["name", "B"], ["parent", "i"],
                             ["start_ns", "q"], ["end_ns", "q"]]}
        with gzip.open(path, "wb", compresslevel=1) as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.start, self.end):
                fh.write(arr.tobytes())
