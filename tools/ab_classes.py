#!/usr/bin/env python3
"""Time the class test of two checkouts against each other, interleaved.

    python3 tools/ab_classes.py <other-checkout> [--seed N]

Loads this checkout's `src/netdisplay` and the other checkout's into one
process, as `tools/same_outputs.py` does, and times `in_class` on three
corpora of the benchmark's workloads for `--seed` (default 1):

- `gen`: every candidate network that the generator hands to its class
  test while it makes the first block of gen-recipes draws (the
  workload's own `draw` in `bench/workloads.py`, with
  `generator.in_class` wrapped to record each candidate's maps and
  class), timed with the class it was tested for;
- `cli`: the networks of cli-batch, timed for "nearly_stable", the class
  that `contains` asks;
- `ns`: the ns-scaling networks (n = 100 to 800), timed for
  "nearly_stable", the class that `displays` asks.

Each of `REPS` repetitions runs every network of a corpus on both sides
back to back, and the side that goes first alternates. Every call gets
a fresh network with its validation memo filled outside the timer (a
parsed one, or for `gen` one built from the recorded maps), so only the
class test itself is timed.

It prints one JSON object. Per corpus: the median µs of each side, the
change of this side against the other in percent, in how many pairs
this side was faster, the quartiles and the median of the per-pair
change (this / other - 1, in percent), and how many networks this side
decided from its leaf chains alone (`chain_exact`) or with the
dominator pass (`fallback`), read off its memo.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from same_outputs import ROOT, _load, _ns_scaling  # noqa: E402

REPS = 10


def _gen_candidates(workloads, seed: int) -> list:
    """(out, labels, next_id, class) of each candidate the generator tests
    during the first gen-recipes block of `seed`."""
    gen = workloads.nd.generator
    real = gen.in_class
    found = []

    def recording(net, name):
        found.append((dict(net._out), dict(net._labels), net.next_id, name))
        return real(net, name)

    inp = workloads.GenRecipes().setup(seed, workdir=None)
    gen.in_class = recording
    try:
        for recipe, n, m, draw_seed in inp.data["schedule"][: inp.data["block"]]:
            workloads.draw(n, m, workloads.RECIPES[recipe][0], draw_seed)
    finally:
        gen.in_class = real
    return found


def _corpora(seed: int) -> dict:
    """Corpus -> list of (make, class), where make(nd) builds a fresh
    validated network on one side."""
    ns = _ns_scaling()  # puts this checkout's bench/ and src/ on sys.path
    import workloads

    def parsed(text):
        return lambda nd: nd.parse_network(text)

    def built(out, labels, next_id):
        def make(nd):
            net = nd.Network(out, labels, next_id)
            net.require_valid()
            return net
        return make

    gen = [(built(*c[:3]), c[3]) for c in _gen_candidates(workloads, seed)]
    with tempfile.TemporaryDirectory() as tmp:
        nets = workloads.CliBatch().setup(seed, tmp).data["nets"]
        cli_texts = []
        for entry in nets:
            with open(entry[3], encoding="ascii") as fh:
                cli_texts.append(fh.read().strip())
    data = ns.setup(seed, workdir=None).data
    ns_texts = [net for k in data if k != "neg800" for _, net, _, _ in data[k]]
    return {
        "gen": gen,
        "cli": [(parsed(t), "nearly_stable") for t in cli_texts],
        "ns": [(parsed(t), "nearly_stable") for t in ns_texts],
    }


def _time_class(nd, make, name: str) -> tuple:
    """(ns, whether the dominator pass ran) for one in_class call."""
    net = make(nd)
    t0 = time.perf_counter_ns()
    nd.in_class(net, name)
    ns = time.perf_counter_ns() - t0
    return ns, "idom" in net._cache


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("other")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    other_root = os.path.abspath(args.other)
    sides = []
    for tag, root in (("this", ROOT), ("other", other_root)):
        pkg = os.path.join(root, "src", "netdisplay")
        if not os.path.isfile(os.path.join(pkg, "__init__.py")):
            print(f"no netdisplay sources under {root}", file=sys.stderr)
            return 2
        sides.append(_load(pkg, f"netdisplay_{tag}"))
    corpora = _corpora(args.seed)
    report = {
        "this": ROOT,
        "other": other_root,
        "machine": f"{platform.machine()} {platform.processor() or platform.system()}",
        "python": platform.python_version(),
        "seed": args.seed,
        "reps": REPS,
        "corpora": {},
    }
    for corpus, cases in corpora.items():
        pairs = []  # (this ns, other ns) per back-to-back pair
        fallback = [False] * len(cases)
        for rep in range(REPS):
            for i, (make, name) in enumerate(cases):
                first = (rep + i) % 2
                got = {}
                for s in (first, 1 - first):
                    got[s] = _time_class(sides[s], make, name)
                pairs.append((got[0][0], got[1][0]))
                fallback[i] = got[0][1]
        mine, theirs = zip(*pairs)
        this_us, other_us = statistics.median(mine) / 1e3, statistics.median(theirs) / 1e3
        q1, mid, q3 = statistics.quantiles([(a / b - 1) * 100 for a, b in pairs], n=4)
        report["corpora"][corpus] = {
            "networks": len(cases),
            "pairs": len(pairs),
            "this_us": round(this_us, 3),
            "other_us": round(other_us, 3),
            "change_pct": round((this_us / other_us - 1) * 100, 2),
            "this_wins": sum(a < b for a, b in pairs),
            "pair_change_q1_pct": round(q1, 2),
            "pair_change_median_pct": round(mid, 2),
            "pair_change_q3_pct": round(q3, 2),
            "chain_exact": fallback.count(False),
            "fallback": fallback.count(True),
        }
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
