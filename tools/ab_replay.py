#!/usr/bin/env python3
"""Time `replay_trace` of two checkouts against each other, interleaved.

    python3 tools/ab_replay.py <other-checkout> [--seed N] [--reps N]

Loads this checkout's `src/netdisplay` and the other checkout's into one
process, as `tools/ab_decides.py` does, and takes the positive pairs of
the ns-scaling workload for `--seed` (default 1) from its own builder
(`NsScaling.setup` in `bench/workloads.py`): the classes n100, n200, n400
and n800. Each side decides each pair once, untimed, for its own trace.
Each of `--reps` (default 5) repetitions then replays each instance of
each class once on each side, back to back, on the side's own parsed
pair and trace, and the side that goes first alternates. Only the
`replay_trace` call is timed, with the garbage collector off; both sides
must return the same number of states.

It prints one JSON object: per class, the median seconds of each side,
the change of this side against the other in percent, in how many pairs
this side was faster, and the quartiles and the median of the per-pair
change (this / other - 1, in percent), as `tools/ab_decides.py` reports
them; and the number of states per replay of each instance.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from same_outputs import ROOT, _load, _ns_scaling  # noqa: E402


def _time_replay(nd, net, tree, trace) -> tuple[int, int]:
    """ns of one replay and the number of states it returned."""
    gc.disable()
    try:
        t0 = time.perf_counter_ns()
        states = nd.replay_trace(net, tree, trace)
        ns = time.perf_counter_ns() - t0
    finally:
        gc.enable()
    return ns, len(states)


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("other")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--reps", type=int, default=5)
    args = ap.parse_args(argv)
    other_root = os.path.abspath(args.other)
    sides = []
    for tag, root in (("this", ROOT), ("other", other_root)):
        pkg = os.path.join(root, "src", "netdisplay")
        if not os.path.isfile(os.path.join(pkg, "__init__.py")):
            print(f"no netdisplay sources under {root}", file=sys.stderr)
            return 2
        sides.append(_load(pkg, f"netdisplay_{tag}"))
    data = _ns_scaling().setup(args.seed, workdir=None).data  # no files written
    classes = {k: v for k, v in data.items() if k != "neg800"}

    # class -> per instance, per side: (net, tree, trace) of its own decide
    cases: dict = {}
    for k, instances in classes.items():
        cases[k] = []
        for _, net_text, tree_text, expected in instances:
            per_side = []
            for nd in sides:
                net, tree = nd.parse_network(net_text), nd.parse_tree(tree_text)
                verdict = nd.displays(net, tree)
                if verdict.displayed is not expected:
                    raise RuntimeError(f"{nd.__name__} decided {verdict.displayed}")
                verdict.trace.steps  # built before any timing
                per_side.append((net, tree, verdict.trace))
            cases[k].append(per_side)

    times: dict = {k: [] for k in classes}  # class -> (this ns, other ns) per pair
    states: dict = {k: [None] * len(v) for k, v in cases.items()}
    for rep in range(args.reps):
        for k, instances in cases.items():
            for i, per_side in enumerate(instances):
                first = (rep + i) % 2
                got = {}
                for s in (first, 1 - first):
                    got[s] = _time_replay(sides[s], *per_side[s])
                if got[0][1] != got[1][1]:
                    raise RuntimeError(f"{k}[{i}]: {got[0][1]} states against {got[1][1]}")
                states[k][i] = got[0][1]
                times[k].append((got[0][0], got[1][0]))
    report = {
        "this": ROOT,
        "other": other_root,
        "machine": f"{platform.machine()} {platform.processor() or platform.system()}",
        "python": platform.python_version(),
        "seed": args.seed,
        "reps": args.reps,
        "classes": {},
    }
    for k, pairs in times.items():
        mine, theirs = zip(*pairs)
        this_s, other_s = statistics.median(mine) / 1e9, statistics.median(theirs) / 1e9
        q1, mid, q3 = statistics.quantiles([(a / b - 1) * 100 for a, b in pairs], n=4)
        report["classes"][k] = {
            "pairs": len(pairs),
            "instances": len(cases[k]),
            "states": states[k],
            "this_s": round(this_s, 5),
            "other_s": round(other_s, 5),
            "change_pct": round((this_s / other_s - 1) * 100, 2),
            "this_wins": sum(a < b for a, b in pairs),
            "pair_change_q1_pct": round(q1, 2),
            "pair_change_median_pct": round(mid, 2),
            "pair_change_q3_pct": round(q3, 2),
        }
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
