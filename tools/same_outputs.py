#!/usr/bin/env python3
"""Check that two checkouts of netdisplay decide identically.

    python3 tools/same_outputs.py <other-checkout>

Loads this checkout's `src/netdisplay` and the other checkout's into one
process, under two package names (the package imports only relatively),
and runs each side on the same inputs:

- `displays` on the golden pairs of `tests/data/golden_traces.json`;
- `displays` on the ns-scaling inputs of seeds 1 and 101, positive and
  split-cherry negative pairs, from the workload's own builder
  (`NsScaling.setup` in `bench/workloads.py`);
- 2000 generator specs (n = 3 to 60, nearly stable). Each side runs
  `generate` on the spec and `random_tree` on its labels, and each
  side's bytes and the network's parent tuples (or the error) are a
  record. From this checkout's network, each side runs `apply_resolution`
  on one random resolution, `ns_to_rv_transform` (output bytes, its
  parent tuples and both ClassStats) and `displays` with the resolved
  tree and with the random tree.
- a stability record for each golden, ns-scaling and generated network:
  the `stability` report's witness and stable maps item by item (so in
  key order), the three `in_class` flags and `class_stats`, each read
  from a freshly parsed network so that none answers from another's
  memo.
- 300 generator specs for each of the classes "any",
  "reticulation_visible" and "tree_child" (n = 3 to 30), whose networks
  the class test often cannot decide from leaf chains alone, and
  `MEET_STABLE`, which is nearly stable only through a dominator meet.
  Each spec gives each side's draw, and each network a stability record
  as above, followed by `reticulations` read after the class test.
- the differential parse corpus of `tests/test_parse_differential.py`
  (valid texts, multi-statement streams, grammar-aware mutants, hand
  cases, fuzz-lite and random latin-1 strings), each text through
  `parse_network`, `parse_networks`, `parse_tree` and `parse_trees`. A
  parse yields the networks (type, root, next id, the child, parent and
  label maps item by item, and the validation memo; of a tree also its
  `reticulations` and its label -> vertex map item by item, which a
  parsed tree answers from the parser's memos) or the exception text and
  every diagnostic.

Inputs are eNewick text, made once and parsed by each side. Each decide
yields a record of `displayed`, `iterations`, the trace's length read
before anything reads its steps, then its text, then both again (pending
work that runs twice, or two reads that disagree, show there),
`certificate`, `reticulations_initial` and every `replay_trace` state
serialized, with a sha256 of each side's parent tuples (or the error
raised). Parent tuples are recorded exactly, key by key in map order,
because `serialize` hides their order and the oracle's certificate
enumerates `parents()` in order. The script prints one sha256 over the
records per side and exits 1 at the first record that differs.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import random
import sys
from functools import partial

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

NS_SEEDS = (1, 101)
DRAWS = 2000
DRAW_SEED = 17
CLASS_DRAWS = 300
# nearly stable, but vertex 1 is stable only through the meet at #H1
MEET_STABLE = "((((x)#H1,(y)#H2),(#H1,(z)#H3)),(#H2,#H3));"


def _load(path: str, name: str):
    """Import a package directory under `name`."""
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(path, "__init__.py"), submodule_search_locations=[path]
    )
    mod = importlib.util.module_from_spec(spec)
    sys.modules[name] = mod
    spec.loader.exec_module(mod)
    return mod


def _ns_scaling():
    """The ns-scaling workload, imported with this checkout's package."""
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]
    import workloads

    return workloads.NsScaling()


def _golden_pairs():
    with open(os.path.join(ROOT, "tests", "data", "golden_traces.json")) as f:
        for rec in json.load(f):
            yield f"golden:{rec['name']}", partial(_decide, rec["net"], rec["tree"])
            yield f"golden:{rec['name']}:stability", partial(_stability, rec["net"])


def _ns_scaling_pairs():
    """Each positive pair, per size and instance, then its network's
    stability record and, at n = 800, its split-cherry negative."""
    ns = _ns_scaling()
    for seed in NS_SEEDS:
        data = ns.setup(seed, workdir=None).data  # ns-scaling writes no files
        for n in ns.SIZES:
            for i, (_, net_text, tree_text, _) in enumerate(data[f"n{n}"]):
                yield f"ns:{seed}:{n}:{i}", partial(_decide, net_text, tree_text)
                yield f"ns:{seed}:{n}:{i}:stability", partial(_stability, net_text)
                if n == 800:
                    neg_text = data["neg800"][i][2]
                    yield f"ns:{seed}:{n}:{i}:neg", partial(_decide, net_text, neg_text)


def _generated(nd):
    """Per spec: each side's draw and random tree, then, on this side's
    draw, each side's resolution, transform and two decides."""
    rng = random.Random(DRAW_SEED)
    for i in range(DRAWS):
        n = rng.randint(3, 60)
        m = rng.randint(0, n // 4 + 1)
        spec = (n, m, "nearly_stable", DRAW_SEED * 100_000 + i)
        yield f"gen:{i}:generate", partial(_generate, spec, i)
        try:
            net_text = nd.serialize(nd.generate(nd.GenSpec(*spec)))
        except nd.GenerationExhaustedError:
            continue
        net = nd.parse_network(net_text)  # with the ids each side parses
        kept = tuple(
            (r, (rng.choice(sorted(net.parents(r))), r)) for r in net.reticulations
        )
        yield f"gen:{i}:resolve", partial(_resolve, net_text, kept)
        yield f"gen:{i}:transform", partial(_transform, net_text)
        yield f"gen:{i}:stability", partial(_stability, net_text)
        pos = nd.apply_resolution(net, nd.Resolution(_kept(nd, kept)))
        other = nd.random_tree(sorted(net.label_set()), seed=i)
        yield f"gen:{i}", partial(_decide, net_text, nd.serialize(pos))
        yield f"gen:{i}:random", partial(_decide, net_text, nd.serialize(other))


def _class_networks(nd):
    """Per spec of each other class: each side's draw, then, on this
    side's draw, each side's class record; last the hand network's."""
    rng = random.Random(DRAW_SEED + 1)
    for cls in ("any", "reticulation_visible", "tree_child"):
        for i in range(CLASS_DRAWS):
            n = rng.randint(3, 30)
            spec = (n, rng.randint(0, n // 2 + 1), cls, DRAW_SEED * 100_000 + i)
            yield f"cls:{cls}:{i}:generate", partial(_generate, spec, i)
            try:
                net_text = nd.serialize(nd.generate(nd.GenSpec(*spec)))
            except nd.GenerationExhaustedError:
                continue
            yield f"cls:{cls}:{i}:stability", partial(_class_record, net_text)
    yield "meet:stability", partial(_class_record, MEET_STABLE)


def _parents(net) -> str:
    """A network's parent tuples, vertex by vertex in map order."""
    return repr(list(net._in.items()))


def _parents_sha(net) -> str:
    return hashlib.sha256(_parents(net).encode()).hexdigest()[:16]


def _kept(nd, kept) -> tuple:
    return tuple((r, nd.Branch(*b)) for r, b in kept)


def _generate(spec, i, nd) -> str:
    """One generator draw and one random tree on its labels, as text."""
    try:
        net = nd.generate(nd.GenSpec(*spec))
    except nd.GenerationExhaustedError as exc:
        return f"error {type(exc).__name__}: {exc}"
    tree = nd.random_tree(sorted(net.label_set()), seed=i)
    return f"{nd.serialize(net)}\n{nd.serialize(tree)}\nparents={_parents(net)}"


def _resolve(net_text: str, kept, nd) -> str:
    net = nd.parse_network(net_text)
    return nd.serialize(nd.apply_resolution(net, nd.Resolution(_kept(nd, kept))))


def _transform(net_text: str, nd) -> str:
    """ns_to_rv_transform's output and both ClassStats (or the error
    raised), as text."""
    try:
        out, before, after = nd.ns_to_rv_transform(nd.parse_network(net_text))
    except nd.NetworkError as exc:
        return f"error {type(exc).__name__}: {exc}"
    return (
        f"{nd.serialize(out)}\nparents={_parents(out)}\nbefore={before}\nafter={after}"
    )


def _stability(net_text: str, nd) -> str:
    """The stability report, the class flags and the census of one
    network (or the error raised), as text."""
    try:
        rep = nd.stability(nd.parse_network(net_text))
        net = nd.parse_network(net_text)
        flags = [nd.in_class(net, name) for name in nd.CLASSES]
        stats = nd.class_stats(nd.parse_network(net_text))
    except nd.NetworkError as exc:
        return f"error {type(exc).__name__}: {exc}"
    return (
        f"witness={list(rep.witness.items())}\nstable={list(rep.stable.items())}"
        f"\nclasses={flags}\nstats={stats}"
    )


def _class_record(net_text: str, nd) -> str:
    """_stability's record and the reticulations of the network whose
    class flags it read, as text."""
    net = nd.parse_network(net_text)
    for name in nd.CLASSES:
        nd.in_class(net, name)
    return f"{_stability(net_text, nd)}\nreticulations={net.reticulations}"


def _parse_corpus():
    """Each text of the differential parse corpus through each entry point."""
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]
    import test_parse_differential as diff

    texts = (
        diff.valid_texts() + diff.stream_texts() + diff.mutant_texts()
        + diff.HAND_CASES + diff.fuzz_lite_texts() + diff.latin1_texts()
    )
    for i, text in enumerate(texts):
        for entry in ("parse_network", "parse_networks", "parse_tree", "parse_trees"):
            yield f"parse:{i}:{entry}", partial(_parse, text, entry)


def _parse(text: str, entry: str, nd) -> str:
    """The parsed networks with their memos, or the error and its
    diagnostics, as text."""
    try:
        got = getattr(nd, entry)(text)
    except nd.NewickParseError as exc:
        diags = [(d.offset, d.message, d.severity) for d in exc.diagnostics]
        return f"error {exc}\n{diags}"
    return "\n".join(
        f"{type(net).__name__} root={net._root} next={net.next_id}"
        f" out={list(net._out.items())} in={list(net._in.items())}"
        f" labels={list(net._labels.items())}"
        f" valid={net._cache.get('valid')} topo={net._cache.get('topo')}"
        + (_tree_memos(net, nd) if type(net) is nd.PhyloTree else "")
        for net in (got if type(got) is list else [got])
    )


def _tree_memos(tree, nd) -> str:
    """A parsed tree's reticulations and label -> vertex map, item by
    item. A checkout whose parser keeps no label map (no
    `core._leaf_of`) gives the inverse of the labels."""
    leaf_of = getattr(nd.core, "_leaf_of", None)
    if leaf_of is None:
        found = {lab: v for v, lab in tree._labels.items()}
    else:
        found = leaf_of(tree)
    return f" rets={tree.reticulations} leaf_of={list(found.items())}"


def _decide(net_text: str, tree_text: str, nd) -> str:
    """One decide and the replay of its trace, as text."""
    net, tree = nd.parse_network(net_text), nd.parse_tree(tree_text)
    try:
        v = nd.displays(net, tree)
    except nd.NetworkError as exc:
        return f"error {type(exc).__name__}: {exc}"
    trace = v.trace
    # len first: it may run pending collapses, and it builds no step
    reads = [len(trace), trace.to_text(), len(trace), trace.to_text()]
    cert = None if v.certificate is None else [
        (r, tuple(b)) for r, b in v.certificate.kept_in_branch
    ]
    states = [
        f"{nd.serialize(s_net)} {nd.serialize(s_tree)}"
        f" parents={_parents_sha(s_net)},{_parents_sha(s_tree)}"
        for s_net, s_tree in nd.replay_trace(net, tree, v.trace)
    ]
    return "\n".join(
        [
            f"displayed={v.displayed} iterations={v.iterations} rows={reads[0]}",
            reads[1],
            f"rows={reads[2]}",
            reads[3],
            f"certificate={cert} reticulations_initial={v.reticulations_initial}",
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
        sides.append((tag, _load(pkg, f"netdisplay_{tag}")))
    mine = sides[0][1]

    hashes = {tag: hashlib.sha256() for tag, _ in sides}
    count = 0
    groups_in_order = (
        _parse_corpus(), _golden_pairs(), _ns_scaling_pairs(), _generated(mine),
        _class_networks(mine),
    )
    for groups in groups_in_order:
        for name, record in groups:
            records = [(tag, record(nd)) for tag, nd in sides]
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
    print(f"{count} records, all equal")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
