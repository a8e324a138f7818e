"""Spans around the calls into each netdisplay module, from outside.

`Tracer.install` replaces public functions at the module attributes their
callers look up (a caller that did `from .tcp import displays` looks up
`netdisplay.cli.displays`, not `netdisplay.tcp.displays`) with wrappers
that record one span per call: name, start, end and parent. Spans are kept
in flat arrays while the run lasts and written out when it ends; a layer's
self time is its span durations minus the time its child spans cover.
Wrappers record only while `Tracer.on` is set, so input checks made by the
benchmark between timed calls leave no spans.
"""

from __future__ import annotations

import re
import time
from array import array
from collections import Counter

import netdisplay
import netdisplay.bounds
import netdisplay.cli
import netdisplay.core
import netdisplay.generator
import netdisplay.newick_io
import netdisplay.tcp
from netdisplay.errors import GenerationExhaustedError

_PLACED_RE = re.compile(r"with (\d+) of \d+ reticulations placed")


def _count_cherry_steps(counts, args, res):
    counts["reductions.cherry_steps"] += len(res[2])


def _count_rounds(counts, args, res):
    counts["tcp.rounds"] += res.iterations


def _count_case(counts, args, res):
    counts[f"tcp.case.{res.case_id}"] += 1


def _count_parse_bytes(counts, args, res):
    counts["newick_io.parse.bytes"] += len(args[0].encode())


def _count_generator_classify(counts, args, res):
    counts["generator.classify.calls"] += 1


def _count_generate(counts, args, res):
    counts["generator.placed"] += res.num_reticulations


def _count_exhausted(counts, exc):
    counts["generator.exhausted"] += 1
    counts["generator.rejections"] += exc.rejections
    m = _PLACED_RE.search(str(exc))
    counts["generator.placed"] += int(m.group(1)) if m else 0


# (owner, attribute, span name, count hook on return)
def _sites():
    nd = netdisplay
    return [
        (nd.tcp, "displays", "tcp.displays", _count_rounds),
        (nd.cli, "displays", "tcp.displays", _count_rounds),
        (nd.tcp, "cherry_reduce", "reductions.cherry_reduce", _count_cherry_steps),
        (nd.tcp, "net_cherry", "reductions.net_cherry", None),
        (nd.tcp, "find_longest_root_leaf_path", "tcp.longest_path", None),
        (nd.tcp, "match_case", "tcp.match_case", _count_case),
        (nd.tcp, "simplify_at_case", "tcp.simplify_at_case", None),
        (nd.tcp, "oracle_displays", "tcp.oracle", None),
        (nd.cli, "oracle_displays", "tcp.oracle", None),
        (nd.core, "validate", "core.validate", None),
        (nd.newick_io, "validate", "core.validate", None),
        (nd.cli, "validate", "core.validate", None),
        (nd.core, "classify", "core.classify", None),
        (nd.tcp, "classify", "core.classify", None),
        (nd.cli, "classify", "core.classify", None),
        (nd.bounds, "classify", "core.classify", None),
        (nd.generator, "classify", "core.classify", _count_generator_classify),
        (nd.core.PhyloTree, "from_network", "core.from_network", None),
        (nd.core.NetworkEditor, "freeze", "core.freeze", None),
        (nd.newick_io, "parse_network", "newick_io.parse", _count_parse_bytes),
        (nd.newick_io, "parse_tree", "newick_io.parse", _count_parse_bytes),
        (nd.cli, "parse_network", "newick_io.parse", _count_parse_bytes),
        (nd.cli, "parse_tree", "newick_io.parse", _count_parse_bytes),
        (nd.cli, "serialize", "newick_io.serialize", None),
        (nd.cli, "class_stats", "bounds.class_stats", None),
        (nd.bounds, "class_stats", "bounds.class_stats", None),
        (nd.cli, "verify_bounds", "bounds.verify_bounds", None),
        (nd.cli, "ns_to_rv_transform", "bounds.ns_to_rv_transform", None),
        (nd.cli, "main", "cli.main", None),
        (nd.generator, "generate", "generator.generate", _count_generate),
    ]


def snapshot() -> dict:
    """The objects currently bound at every wrap site that exists."""
    return {
        (owner.__name__, attr): vars(owner)[attr]
        for owner, attr, _, _ in _sites()
        if attr in vars(owner)
    }


def assert_untraced(before: dict) -> None:
    """Fail unless every wrap site still holds what `before` recorded and
    none of them is a wrapper."""
    now = snapshot()
    if now.keys() != before.keys():
        raise RuntimeError("wrap sites appeared or vanished during the run")
    for key, obj in now.items():
        fn = getattr(obj, "__func__", obj)
        if obj is not before[key] or hasattr(fn, "_bench_span"):
            raise RuntimeError(f"{key[0]}.{key[1]} is not the original")


class Tracer:
    def __init__(self):
        self.on = False
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._patches: list = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span; the benchmark's own root spans use this."""
        idx = len(self.start)
        self.name.append(self._id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(0)
        self.end.append(0)
        self._stack.append(idx)
        self.start[idx] = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[idx] = time.perf_counter_ns()
            self._stack.pop()

    def _wrap(self, fn, name: str, hook):
        tracer = self
        self._id(name)

        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            try:
                res = tracer.span(name, fn, *args, **kwargs)
            except GenerationExhaustedError as exc:
                if hook is _count_generate:
                    _count_exhausted(tracer.counts, exc)
                raise
            if hook is not None:
                hook(tracer.counts, args, res)
            return res

        wrapper._bench_span = name
        wrapper.__wrapped__ = fn
        return wrapper

    def prepare(self) -> None:
        """Build a wrapper for every wrap site that exists."""
        for owner, attr, name, hook in _sites():
            if attr not in vars(owner):
                self.missing.append(f"{owner.__name__}.{attr}")
                continue
            orig = vars(owner)[attr]
            if isinstance(orig, classmethod):
                new = classmethod(self._wrap(orig.__func__, name, hook))
            else:
                new = self._wrap(orig, name, hook)
            self._patches.append((owner, attr, orig, new))

    def install(self) -> None:
        for owner, attr, _, new in self._patches:
            setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, orig, _ in self._patches:
            setattr(owner, attr, orig)

    def self_times(self) -> tuple[dict, Counter]:
        """Per span name: total self time in seconds, and the call count."""
        n = len(self.start)
        child_ns = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_ns[p] += self.end[i] - self.start[i]
        self_s: dict[str, float] = {}
        calls: Counter = Counter()
        for i in range(n):
            key = self.names[self.name[i]]
            own = self.end[i] - self.start[i] - child_ns[i]
            self_s[key] = self_s.get(key, 0.0) + own / 1e9
            calls[key] += 1
        return self_s, calls

    def write(self, path: str) -> None:
        """One line per span: name, start ns, end ns, parent index."""
        with open(path, "w", encoding="ascii") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{self.names[self.name[i]]}\t{self.start[i]}\t"
                    f"{self.end[i]}\t{self.parent[i]}\n"
                )
