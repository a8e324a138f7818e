#!/usr/bin/env python3
"""Time `displays` of two checkouts against each other, interleaved.

    python3 tools/ab_decides.py <other-checkout> [--seed N]

Loads this checkout's `src/netdisplay` and the other checkout's into one
process, as `tools/same_outputs.py` does, and takes the inputs of the
ns-scaling workload for `--seed` (default 1) from its own builder
(`NsScaling.setup` in `bench/workloads.py`): the classes n100, n200, n400
and n800 (positive pairs, m = n / 4) and neg800 (split-cherry negatives
at n = 800). Each of 20 repetitions runs each instance of each class
once on each side, back to back, and the side that goes first
alternates. Each decide gets a freshly parsed pair, so its memos are
cold, and only the `displays` call is timed. Beside each decide, in the
same order of sides, a second freshly parsed pair times the decide's
set-up split in two: `in_class(net, "nearly_stable")` and the
`ReductionState` build, each after the checks that `displays` makes
before it (untimed), so the whole-decide timing is unchanged.

It prints one JSON object. Per class: the median ms of each side, the
change of this side against the other in percent, and in how many pairs
this side was faster; beside them the quartiles and the median of the
per-pair change (this / other - 1, in percent) over every back-to-back
pair of the class, which a slow host phase during some repetitions moves
less than it moves either side's median, since both sides of a pair run
in it. Per class and side it also prints the median ms of the class test
(`this_in_class_ms`, `other_in_class_ms`) and of the state build
(`this_state_ms`, `other_state_ms`). `rate` is the share-weighted decide
rate of each side, the sum over classes of share / median seconds, with
the workload's `SHARES`, by which its `ops_per_s` weights its classes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from same_outputs import ROOT, _load, _ns_scaling  # noqa: E402

REPS = 20


def _time_decide(nd, net_text: str, tree_text: str, expected: bool) -> int:
    net, tree = nd.parse_network(net_text), nd.parse_tree(tree_text)
    t0 = time.perf_counter_ns()
    verdict = nd.displays(net, tree)
    ns = time.perf_counter_ns() - t0
    if verdict.displayed is not expected:
        raise RuntimeError(f"{nd.__name__} decided {verdict.displayed}, not {expected}")
    return ns


def _time_setup(nd, net_text: str, tree_text: str) -> tuple[int, int]:
    """ns of `in_class(net, "nearly_stable")` and of the `ReductionState`
    build on a freshly parsed pair, in the order `displays` runs them."""
    net, tree = nd.parse_network(net_text), nd.parse_tree(tree_text)
    net.require_valid(require_binary=True)
    nd.core.require_tree(tree)
    t0 = time.perf_counter_ns()
    nd.in_class(net, "nearly_stable")
    t1 = time.perf_counter_ns()
    nd.reductions.ReductionState(net, tree)
    return t1 - t0, time.perf_counter_ns() - t1


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
    ns = _ns_scaling()
    shares = ns.SHARES
    data = ns.setup(args.seed, workdir=None).data  # ns-scaling writes no files

    # class -> (this ns, other ns) per back-to-back pair
    times: dict = {k: [] for k in shares}
    # class -> side -> [(in_class ns, state build ns)]
    setup: dict = {k: ([], []) for k in shares}
    for rep in range(REPS):
        for k, cases in data.items():
            for i, (_, *case) in enumerate(cases):
                first = (rep + i) % 2
                got = {}
                for s in (first, 1 - first):
                    got[s] = _time_decide(sides[s], *case)
                times[k].append((got[0], got[1]))
                for s in (first, 1 - first):
                    setup[k][s].append(_time_setup(sides[s], *case[:2]))
    report = {
        "this": ROOT,
        "other": other_root,
        "machine": f"{platform.machine()} {platform.processor() or platform.system()}",
        "python": platform.python_version(),
        "seed": args.seed,
        "reps": REPS,
        "classes": {},
        "rate": {},
    }
    medians = {}  # class -> (this ms, other ms)
    for k, pairs in times.items():
        mine, theirs = zip(*pairs)
        medians[k] = this_ms, other_ms = (
            statistics.median(mine) / 1e6, statistics.median(theirs) / 1e6
        )
        q1, mid, q3 = statistics.quantiles([(a / b - 1) * 100 for a, b in pairs], n=4)
        report["classes"][k] = {
            "share": shares[k],
            "pairs": len(pairs),
            "this_ms": round(this_ms, 4),
            "other_ms": round(other_ms, 4),
            "change_pct": round((this_ms / other_ms - 1) * 100, 2),
            "this_wins": sum(a < b for a, b in pairs),
            "instances": len(data[k]),
            "pair_change_q1_pct": round(q1, 2),
            "pair_change_median_pct": round(mid, 2),
            "pair_change_q3_pct": round(q3, 2),
        }
        for tag, j in (("this", 0), ("other", 1)):
            for key, part in (("in_class", 0), ("state", 1)):
                ms = statistics.median(t[part] for t in setup[k][j]) / 1e6
                report["classes"][k][f"{tag}_{key}_ms"] = round(ms, 4)
    for tag, j in (("this", 0), ("other", 1)):
        report["rate"][tag] = round(
            sum(shares[k] / (ms[j] / 1e3) for k, ms in medians.items()), 2
        )
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
