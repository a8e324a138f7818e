#!/usr/bin/env python3
"""Time `netdisplay contains` against `displays` alone, per size.

    python3 tools/contains_ratio.py [<checkout>] [--reps 7]

Loads `src/netdisplay` of the checkout (default: this one) and builds the
benchmark's seed-1 nearly stable instances with `bench/inputs.py`, as its
ns-scaling workload names them (three per size, m = n / 4), at n = 40 and
at n = 50 to 1600 by doublings. Each network and its displayed tree are
written to a temporary directory. Every repetition times, in one process
and one after the other:

- in-process `cli.main(["contains", net_file, tree_file])`, stdout kept;
- `parse_network` and `parse_tree` on the files' text;
- `displays` alone, on a freshly parsed pair (its memos are cold, as in a
  `contains` call).

It prints one JSON object: per size the medians in ms over instances and
repetitions, and `ratio`, the median `contains` time over the median
`displays` time.
"""

from __future__ import annotations

import argparse
import importlib.util
import io
import json
import os
import platform
import random
import statistics
import sys
import tempfile
import time
from contextlib import redirect_stdout

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIZES = (40, 50, 100, 200, 400, 800, 1600)
INSTANCES = 3
SEED = 1


def _load_inputs():
    path = os.path.join(ROOT, "bench", "inputs.py")
    spec = importlib.util.spec_from_file_location("bench_inputs", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _ms(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return (time.perf_counter() - t0) * 1e3


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("checkout", nargs="?", default=ROOT)
    ap.add_argument("--reps", type=int, default=7)
    args = ap.parse_args(argv)
    checkout = os.path.abspath(args.checkout)
    sys.path.insert(0, os.path.join(checkout, "src"))
    import netdisplay
    from netdisplay import cli

    nd = netdisplay
    inputs = _load_inputs()

    def flags_of(g):
        return nd.classify(nd.Network(g.out, g.label))

    report = {
        "checkout": checkout,
        "machine": f"{platform.machine()} {platform.processor() or platform.system()}",
        "python": platform.python_version(),
        "seed": SEED,
        "instances_per_size": INSTANCES,
        "reps": args.reps,
        "sizes": {},
    }
    with tempfile.TemporaryDirectory() as tmp:
        for n in SIZES:
            times: dict[str, list[float]] = {"contains": [], "parse": [], "displays": []}
            for i in range(INSTANCES):
                rng = random.Random(f"ns-scaling:{SEED}:{n}:{i}")
                g = inputs.build_network(n, n // 4, rng, flags_of)
                net_text = inputs.enewick(g)
                tree_text = inputs.enewick(inputs.resolve(g, rng))
                net_file = os.path.join(tmp, f"net{n}_{i}.nwk")
                tree_file = os.path.join(tmp, f"tree{n}_{i}.nwk")
                for path, text in ((net_file, net_text), (tree_file, tree_text)):
                    with open(path, "w", encoding="utf-8") as fh:
                        fh.write(text + "\n")
                argv_contains = ["contains", net_file, tree_file]
                for _ in range(args.reps):
                    out = io.StringIO()
                    with redirect_stdout(out):
                        t = _ms(lambda: cli.main(argv_contains))
                    if not json.loads(out.getvalue())["displayed"]:
                        raise RuntimeError(f"contains says n = {n} #{i} is not displayed")
                    times["contains"].append(t)
                    times["parse"].append(
                        _ms(lambda: (nd.parse_network(net_text), nd.parse_tree(tree_text)))
                    )
                    net, tree = nd.parse_network(net_text), nd.parse_tree(tree_text)
                    times["displays"].append(_ms(lambda: nd.displays(net, tree)))
            row = {f"{k}_ms": statistics.median(v) for k, v in times.items()}
            row["ratio"] = row["contains_ms"] / row["displays_ms"]
            report["sizes"][str(n)] = row
            print(f"n={n}: {row}", file=sys.stderr)
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
