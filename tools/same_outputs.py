#!/usr/bin/env python3
"""Check that two checkouts of netdisplay decide identically.

    python3 tools/same_outputs.py <other-checkout>

Loads this checkout's `src/netdisplay` and the other checkout's into one
process, under two package names (the package imports only relatively),
and runs each side's `displays` on the same inputs:

- the golden pairs of `tests/data/golden_traces.json`;
- the ns-scaling builder inputs of seeds 1 and 101, positive and
  split-cherry negative pairs, built by `bench/inputs.py` as the
  benchmark builds them;
- 2000 generator draws (n = 3 to 60, nearly stable), each with one
  displayed tree and one random tree.

Inputs are eNewick text, made once and parsed by each side. Each decide
yields a record of `displayed`, `iterations`, `certificate`,
`reticulations_initial`, the trace text and every `replay_trace` state
serialized (or the error raised). The script prints one sha256 over the
records per side and exits 1 at the first record that differs.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import random
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# as bench/workloads.py's NsScaling.setup: instances per size, m = n / 4
NS_INSTANCES = {100: 8, 200: 6, 400: 4, 800: 3}
NS_SEEDS = (1, 101)
DRAWS = 2000
DRAW_SEED = 17


def _load(path: str, name: str, package: bool):
    """Import a file, or a package directory, under `name`."""
    if package:
        spec = importlib.util.spec_from_file_location(
            name, os.path.join(path, "__init__.py"), submodule_search_locations=[path]
        )
    else:
        spec = importlib.util.spec_from_file_location(name, path)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[name] = mod
    spec.loader.exec_module(mod)
    return mod


def _golden_pairs():
    with open(os.path.join(ROOT, "tests", "data", "golden_traces.json")) as f:
        for rec in json.load(f):
            yield f"golden:{rec['name']}", rec["net"], rec["tree"]


def _ns_scaling_pairs(nd, inputs):
    def flags_of(g):
        return nd.core.classify(nd.core.Network(g.out, g.label))

    for seed in NS_SEEDS:
        for n, count in NS_INSTANCES.items():
            for i in range(count):
                rng = random.Random(f"ns-scaling:{seed}:{n}:{i}")
                g = inputs.build_network(n, n // 4, rng, flags_of)
                tree = inputs.resolve(g, rng)
                net_text = inputs.enewick(g)
                yield f"ns:{seed}:{n}:{i}", net_text, inputs.enewick(tree)
                if n == 800:
                    swap = inputs.split_cherry_swap(g, rng)
                    yield f"ns:{seed}:{n}:{i}:neg", net_text, inputs.enewick(tree, swap)


def _generated_pairs(nd):
    rng = random.Random(DRAW_SEED)
    for i in range(DRAWS):
        n = rng.randint(3, 60)
        m = rng.randint(0, n // 4 + 1)
        spec = nd.GenSpec(n, m, "nearly_stable", seed=DRAW_SEED * 100_000 + i)
        try:
            net = nd.generate(spec)
        except nd.GenerationExhaustedError:
            continue
        kept = tuple(
            (r, nd.Branch(rng.choice(sorted(net.parents(r))), r))
            for r in net.reticulations
        )
        pos = nd.apply_resolution(net, nd.Resolution(kept))
        other = nd.random_tree(sorted(net.label_set()), seed=i)
        net_text = nd.serialize(net)
        yield f"gen:{i}", net_text, nd.serialize(pos)
        yield f"gen:{i}:random", net_text, nd.serialize(other)


def _record(nd, net_text: str, tree_text: str) -> str:
    """One decide and the replay of its trace, as text."""
    net, tree = nd.parse_network(net_text), nd.parse_tree(tree_text)
    try:
        v = nd.displays(net, tree)
    except nd.NetworkError as exc:
        return f"error {type(exc).__name__}: {exc}"
    cert = None if v.certificate is None else [
        (r, tuple(b)) for r, b in v.certificate.kept_in_branch
    ]
    states = [
        nd.serialize(s_net) + " " + nd.serialize(s_tree)
        for s_net, s_tree in nd.replay_trace(net, tree, v.trace)
    ]
    return "\n".join(
        [
            f"displayed={v.displayed} iterations={v.iterations}",
            f"certificate={cert} reticulations_initial={v.reticulations_initial}",
            v.trace.to_text(),
            *states,
        ]
    )


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    other_root = os.path.abspath(argv[0])
    sides = []
    for tag, root in (("this", ROOT), ("other", other_root)):
        pkg = os.path.join(root, "src", "netdisplay")
        if not os.path.isfile(os.path.join(pkg, "__init__.py")):
            print(f"no netdisplay sources under {root}", file=sys.stderr)
            return 2
        sides.append((tag, _load(pkg, f"netdisplay_{tag}", True)))
    mine = sides[0][1]
    inputs = _load(os.path.join(ROOT, "bench", "inputs.py"), "bench_inputs", False)

    hashes = {tag: hashlib.sha256() for tag, _ in sides}
    count = 0
    for groups in (_golden_pairs(), _ns_scaling_pairs(mine, inputs), _generated_pairs(mine)):
        for name, net_text, tree_text in groups:
            records = [(tag, _record(nd, net_text, tree_text)) for tag, nd in sides]
            for tag, rec in records:
                hashes[tag].update(f"{name}\n{rec}\n".encode())
            if records[0][1] != records[1][1]:
                print(f"DIFFERENT at {name}")
                for tag, rec in records:
                    print(f"--- {tag}\n{rec[:2000]}")
                return 1
            count += 1
    for tag, root in (("this", ROOT), ("other", other_root)):
        print(f"{hashes[tag].hexdigest()}  {tag} ({root})")
    print(f"{count} decides, all records equal")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
