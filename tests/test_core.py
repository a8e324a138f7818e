"""Structural model: validation, vertex kinds, stability, classification."""

import random

import networkx as nx
import pytest

from netdisplay.core import (
    CLASSES,
    Network,
    NetworkEditor,
    classify,
    in_class,
    stability,
    validate,
)
from netdisplay.errors import InvalidNetworkError
from netdisplay.generator import GenSpec, generate, random_tree
from netdisplay.newick_io import parse_network, parse_tree
from netdisplay.reductions import ReductionState
from netdisplay.tcp import displays

from helpers import (
    GOLDEN,
    NOT_NEARLY_STABLE,
    RUNNING,
    UNSTABLE_OVER_STABLE,
    class_sample,
    deletion_stability,
    reference_in_class,
    reference_validate,
)

# the invalid networks validated here and in test_cli.py, as (out, labels)
INVALID = [
    ({0: [1], 1: [2], 2: []}, {2: "a"}),  # suppressible vertex
    ({0: [1, 1], 1: [2], 2: []}, {2: "a"}),  # parallel branches
    ({0: [1], 1: [2, 3], 2: [1], 3: []}, {3: "a"}),  # cycle
    (
        {0: [2, 3], 1: [2, 4], 2: [5], 3: [], 4: [], 5: []},
        {3: "a", 4: "b", 5: "c"},
    ),  # second root
    ({0: [1, 2, 3], 1: [], 2: [], 3: []}, {1: "a", 2: "b", 3: "c"}),  # (a,b,c);
    ({0: [1, 3], 1: [2], 2: [], 3: []}, {2: "a", 3: "b"}),  # ((a),b);
]


def _networkx_witnesses(net):
    """Smallest dominated leaf per vertex, from networkx's dominator tree."""
    g = nx.DiGraph()
    g.add_nodes_from(net.vertices)
    g.add_edges_from(net.branches())
    idom = nx.immediate_dominators(g, net.root)
    witness = {v: None for v in net.vertices}
    for leaf in net.leaves:
        v = leaf
        while True:
            if witness[v] is None or leaf < witness[v]:
                witness[v] = leaf
            if v == net.root:
                break
            v = idom[v]
    return witness


def test_validate_running_example_binary_ok():
    net = parse_network(RUNNING)
    outcome = validate(net, require_binary=True)
    assert outcome.ok
    assert outcome.violations == ()


def test_validate_single_leaf_ok():
    net = parse_network("a;")
    assert validate(net, require_binary=True).ok
    assert net.n_leaves == 1


def test_validate_flags_suppressible_vertex():
    # 0 -> 1 -> 2 with vertex 1 at indegree 1, outdegree 1
    net = Network({0: [1], 1: [2], 2: []}, {2: "a"})
    outcome = validate(net)
    assert not outcome.ok
    assert any("suppressible" in str(v) for v in outcome.violations)


def test_validate_flags_parallel_branches():
    net = Network({0: [1, 1], 1: [2], 2: []}, {2: "a"})
    outcome = validate(net)
    assert not outcome.ok
    assert any("parallel" in str(v) for v in outcome.violations)


def test_validate_flags_cycle():
    net = Network({0: [1], 1: [2, 3], 2: [1], 3: []}, {3: "a"})
    outcome = validate(net)
    assert not outcome.ok


def test_validate_flags_second_root():
    net = Network({0: [2, 3], 1: [2, 4], 2: [5], 3: [], 4: [], 5: []},
                  {3: "a", 4: "b", 5: "c"})
    outcome = validate(net)
    assert not outcome.ok


def test_validate_nonbinary_only_with_flag():
    net = parse_network("(a,b,c);")
    assert validate(net).ok
    strict = validate(net, require_binary=True)
    assert not strict.ok


def _random_digraphs(count, seed):
    """Small random digraphs as (out, labels): cycles, self-loops, several
    roots, parallel branches, unlabeled and duplicate-labelled vertices
    and every degree pattern all occur."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 7)
        out = {}
        for v in range(n):
            k = rng.choice((0, 0, 1, 2, 2, 3))
            out[v] = [rng.randrange(n) for _ in range(k)]
        labels = {v: rng.choice("abcd") for v in range(n) if rng.random() < 0.6}
        yield out, labels


def test_validate_flavours_match_uncached_reference():
    graphs = list(INVALID)
    for rec in GOLDEN:
        for net in (parse_network(rec["net"]), parse_tree(rec["tree"])):
            ed = NetworkEditor(net)
            graphs.append((ed.out, ed.labels))
    sample = list(_random_digraphs(3000, seed=7))
    kinds = set()
    for out, labels in sample:
        outcome = reference_validate(Network(out, labels), True)
        kinds.update(v.message.split(":")[0] for v in outcome.violations)
        kinds.add("ok" if outcome.ok else "invalid")
    assert {
        "directed cycle present",
        "multiple indegree-0 vertices",
        "unlabeled leaf",
        "parallel branches",
        "not binary",
        "ok",
    } <= kinds
    graphs += sample
    for out, labels in graphs:
        want = {
            flag: reference_validate(Network(out, labels), flag)
            for flag in (False, True)
        }
        # either flavour may be asked for first
        for flags in ((False, True), (True, False)):
            net = Network(out, labels)
            for flag in flags:
                assert validate(net, require_binary=flag) == want[flag]
                assert validate(net, require_binary=flag) is validate(net, flag)


def test_validate_keeps_an_acyclic_order_only():
    cyclic = Network(*INVALID[2])
    validate(cyclic)
    with pytest.raises(InvalidNetworkError):
        cyclic.topological_order()
    net = parse_network(RUNNING)
    assert net.topological_order() == net._try_topological_order()


def test_one_topological_sort_per_network_through_displays(monkeypatch):
    sorts = {}
    real = Network._try_topological_order

    def counting(self):
        # the network stays referenced, so its id is not reused
        sorts.setdefault(id(self), [self, 0])[1] += 1
        return real(self)

    monkeypatch.setattr(Network, "_try_topological_order", counting)
    for rec in GOLDEN:
        displays(parse_network(rec["net"]), parse_tree(rec["tree"]))
    assert len(sorts) >= 2 * len(GOLDEN)  # each net, and each tree as parsed
    assert {n for _, n in sorts.values()} == {1}


def test_one_validation_pass_per_network_through_displays(monkeypatch):
    import netdisplay.core as core

    passes = {}
    real = core._violations

    def counting(net):
        passes.setdefault(id(net), [net, 0])[1] += 1
        return real(net)

    def unused(self, start):
        raise AssertionError("validation walked reachability")

    monkeypatch.setattr(core, "_violations", counting)
    monkeypatch.setattr(Network, "reachable_from", unused)
    for rec in GOLDEN:
        net, tree = parse_network(rec["net"]), parse_tree(rec["tree"])
        displays(net, tree)
        for flag in (False, True):
            assert validate(net, flag).ok and validate(tree, flag).ok
    assert len(passes) >= 2 * len(GOLDEN)
    assert {n for _, n in passes.values()} == {1}


def test_require_valid_raises():
    net = Network({0: [1], 1: [2], 2: []}, {2: "a"})
    with pytest.raises(InvalidNetworkError):
        net.require_valid()


def _is_tree_vertex(net, v):
    return net.in_degree(v) == 1 and net.out_degree(v) >= 2


def test_vertex_kind_running_example():
    # every vertex is exactly one of root, leaf, tree vertex, reticulation,
    # and the running example has all four
    net = parse_network(RUNNING)
    kinds = [
        (
            v == net.root,
            net.is_leaf(v),
            _is_tree_vertex(net, v),
            v in net.reticulations,
        )
        for v in net.vertices
    ]
    assert all(sum(kind) == 1 for kind in kinds)
    assert all(any(column) for column in zip(*kinds))
    (h1,) = net.reticulations
    assert net.in_degree(h1) == 2 and net.out_degree(h1) == 1
    assert net.in_degree(net.root) == 0
    a = {lab: v for v, lab in net.leaf_labels.items()}["a"]
    assert net.is_leaf(a)


def test_stability_running_example_witness():
    net = parse_network(RUNNING)
    report = stability(net)
    (h1,) = net.reticulations
    assert report.stable[h1]
    assert net.leaf_labels[report.witness[h1]] == "b"
    assert all(report.stable.values())


def test_stability_tree_all_stable():
    tree = parse_tree("((a,b),(c,d));")
    report = stability(tree)
    assert all(report.stable.values())


def test_stability_root_always_stable():
    for text in (RUNNING, UNSTABLE_OVER_STABLE, NOT_NEARLY_STABLE):
        net = parse_network(text)
        assert stability(net).stable[net.root]


def test_stability_methods_agree_with_witnesses():
    rng = random.Random(40)
    for i in range(150):
        spec = GenSpec(rng.randint(2, 6), rng.randint(0, 4), "any", seed=i)
        net = generate(spec)
        dom = stability(net)
        dele = deletion_stability(net)
        assert dom.stable == dele.stable
        assert dom.witness == dele.witness
        assert dom.witness == _networkx_witnesses(net)


def test_stability_local_structure_invariants():
    # (1) stable tree-vertex child makes the parent stable
    # (2) a reticulation is stable iff its child is a stable tree vertex
    #     or a leaf
    # (3) a stable tree vertex never has two reticulation children
    rng = random.Random(41)
    for i in range(200):
        net = generate(GenSpec(rng.randint(2, 7), rng.randint(0, 5), "any", seed=1000 + i))
        report = stability(net)
        for v in net.vertices:
            kids = net.children(v)
            if any(report.stable[c] and _is_tree_vertex(net, c) for c in kids):
                assert report.stable[v]
            if v in net.reticulations:
                (c,) = kids
                expect = net.is_leaf(c) or (
                    report.stable[c] and _is_tree_vertex(net, c)
                )
                assert report.stable[v] == expect
            if _is_tree_vertex(net, v) and report.stable[v]:
                ret_kids = [c for c in kids if c in net.reticulations]
                assert len(ret_kids) < 2


def test_classify_running_example_all_flags():
    flags = classify(parse_network(RUNNING))
    assert flags.to_dict() == {
        "binary": True,
        "tree_child": True,
        "reticulation_visible": True,
        "nearly_stable": True,
        "subphylogeny_free": True,
    }


def test_classify_cherry_tree_not_subphylogeny_free():
    flags = classify(parse_tree("((a,b),c);"))
    assert flags.tree_child
    assert not flags.subphylogeny_free


def test_classify_unstable_over_stable_not_rv():
    flags = classify(parse_network(UNSTABLE_OVER_STABLE))
    assert flags.nearly_stable
    assert not flags.reticulation_visible


def test_classify_not_nearly_stable_fixture():
    flags = classify(parse_network(NOT_NEARLY_STABLE))
    assert not flags.nearly_stable
    assert flags.binary


def test_classify_single_vertex_counts_as_binary():
    flags = classify(parse_network("a;"))
    assert flags.binary
    assert flags.tree_child


def test_classify_is_memoized_per_network(monkeypatch):
    import netdisplay.core as core

    calls = []
    real = core.stability
    monkeypatch.setattr(core, "stability", lambda net: calls.append(net) or real(net))
    net = parse_network(RUNNING)
    first = classify(net)
    assert len(calls) == 1
    assert classify(net) is first
    assert len(calls) == 1
    # a distinct object with the same structure is classified afresh
    assert classify(parse_network(RUNNING)) == first
    assert len(calls) == 2


def test_classify_monotone_tree_child_implies_nearly_stable():
    rng = random.Random(42)
    hits = 0
    for i in range(1000):
        net = generate(GenSpec(rng.randint(2, 6), rng.randint(0, 3), "any", seed=2000 + i))
        flags = classify(net)
        if flags.tree_child:
            hits += 1
            assert flags.reticulation_visible
            assert flags.nearly_stable
    assert hits > 50


def test_in_class_matches_reference_and_classify():
    sample = class_sample(40, 500)
    seen = set()
    for net in sample:
        flags = classify(net).to_dict()
        member = tuple(in_class(net, name) for name in CLASSES)
        assert member == tuple(reference_in_class(net, name) for name in CLASSES)
        assert member == tuple(flags[name] for name in CLASSES)
        seen.add(member)
    # tree-child, visible but not tree-child, nearly stable only, neither,
    # and visible but not nearly stable all occur
    assert seen >= {
        (True, True, True),
        (False, True, True),
        (False, False, True),
        (False, False, False),
        (False, True, False),
    }


def test_in_class_names_and_errors():
    assert CLASSES == ("tree_child", "reticulation_visible", "nearly_stable")
    net = parse_network(RUNNING)
    with pytest.raises(ValueError, match="unknown network class"):
        in_class(net, "any")
    with pytest.raises(InvalidNetworkError):
        in_class(Network(*INVALID[0]), "nearly_stable")


def test_topological_order_respects_branches():
    net = parse_network(UNSTABLE_OVER_STABLE)
    order = net.topological_order()
    pos = {v: i for i, v in enumerate(order)}
    assert sorted(order) == sorted(net.vertices)
    for t in net.vertices:
        for h in net.children(t):
            assert pos[t] < pos[h]


def test_phylo_tree_parent_map():
    # the case rules read the tree through the working state's tree side,
    # which keeps no child lists: its vertex -> parent and label -> parent
    # maps must follow cherry collapses
    text = "((a,b),c);"
    state = ReductionState(parse_network(text), parse_tree(text))
    tree = state.tree
    c = {lab: v for v, lab in tree.labels.items()}["c"]
    assert tree.par[c] == tree.root
    assert tree.parent_of["c"] == tree.root
    assert tree.parent_of["a"] == tree.parent_of["b"]
    assert tree.parent_of["a"] != tree.root
    state.collapse_cherries()
    assert set(tree.labels.values()) == {"c", "__r0"}
    assert tree.parent_of["__r0"] == tree.parent_of["c"] == tree.root
    assert tree.par == {tree.root: None, c: tree.root, tree.leaf["__r0"]: tree.root}


def test_random_tree_is_valid_binary():
    tree = random_tree(["a", "b", "c", "d"], seed=5)
    assert validate(tree, require_binary=True).ok
    assert sorted(tree.leaf_labels.values()) == ["a", "b", "c", "d"]


def test_random_tree_needs_a_label():
    with pytest.raises(ValueError, match="at least one leaf label"):
        random_tree([])
