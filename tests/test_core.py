"""Structural model: validation, vertex kinds, stability, classification."""

import random
from collections import Counter

import networkx as nx
import pytest

from netdisplay import newick_io
from netdisplay.bounds import ns_to_rv_transform
from netdisplay.core import (
    CLASSES,
    Branch,
    Network,
    NetworkEditor,
    PhyloTree,
    _subphylogeny_free,
    _topological_order,
    _violations,
    classify,
    in_class,
    require_tree,
    stability,
    validate,
)
from netdisplay.errors import (
    InternalConsistencyError,
    InvalidNetworkError,
    NewickParseError,
)
from netdisplay.generator import GenSpec, generate, random_tree
from netdisplay.newick_io import parse_network, parse_tree
from netdisplay.reductions import ReductionState, replay_trace
from netdisplay.tcp import Resolution, apply_resolution, displays

from helpers import (
    GOLDEN,
    MEET_STABLE,
    NOT_NEARLY_STABLE,
    RUNNING,
    UNSTABLE_OVER_STABLE,
    class_sample,
    deletion_stability,
    gen_with_fallback,
    reference_in_class,
    reference_subphylogeny_free,
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
    # an editor refuses to make one
    ed = NetworkEditor(parse_network("(a,b);"))
    with pytest.raises(InternalConsistencyError, match="would create a parallel"):
        ed.add_branch(0, 1)
    assert ed.out[0] == (1, 2)


def test_validate_flags_cycle():
    net = Network({0: [1], 1: [2, 3], 2: [1], 3: []}, {3: "a"})
    outcome = validate(net)
    assert not outcome.ok
    # every vertex of this one is on the cycle, so it has no root either
    rootless = Network({0: [1], 1: [0]}, {})
    assert not validate(rootless).ok
    with pytest.raises(InvalidNetworkError, match="network has no root"):
        rootless.root


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


def _parsed_corpus(monkeypatch) -> list[Network]:
    """Every network the parser validates on the golden texts, on
    grammar-aware mutants of generated networks (test_cli_mutants) and on
    the fuzz-lite strings (test_newick_io), valid or not."""
    from test_cli_mutants import MUTATIONS, _corpus

    seen: list = []
    real = newick_io.validate

    def recording(net, *args):
        seen.append(net)
        return real(net, *args)

    monkeypatch.setattr(newick_io, "validate", recording)
    texts = [rec["net"] for rec in GOLDEN] + [rec["tree"] for rec in GOLDEN]
    pairs = _corpus(seed=7000)
    for name, mutate in sorted(MUTATIONS.items()):
        rng = random.Random(name)
        texts += [mutate(net_text, rng) for net_text, _ in pairs]
    rng = random.Random(99)
    alphabet = "()#;,Hh123abz _\t-.'\"\\\x00\xff"
    for _ in range(3000):
        texts.append("".join(rng.choice(alphabet) for _ in range(rng.randint(0, 30))))
    for text in texts:
        try:
            parse_network(text)
        except NewickParseError:
            pass
    monkeypatch.undo()
    return seen


def test_violations_on_editor_maps_match_validate(monkeypatch):
    """_violations on an editor's maps gives validate's violations, in
    the same order, and validate agrees with the reference: on what the
    parser validates, and on the invalid and random digraphs above, which
    show every kind of violation."""
    parsed = _parsed_corpus(monkeypatch)
    assert len(parsed) > 100
    assert not all(validate(net, True).ok for net in parsed)
    nets = parsed + [
        Network(out, labels)
        for out, labels in INVALID + list(_random_digraphs(3000, seed=7))
    ]
    kinds = set()
    for net in nets:
        ed = NetworkEditor(net)
        order = _topological_order(ed.out, ed.ins)
        plain, degree = _violations(ed.out, ed.ins, ed.labels, order)
        assert tuple(plain) == validate(net).violations
        assert tuple(plain + degree) == validate(net, True).violations
        for flag in (False, True):
            assert validate(net, flag) == reference_validate(net, flag)
        kinds.update(v.message.split(" (")[0] for v in plain + degree)
    assert {
        "no root: every vertex has a parent",
        "multiple indegree-0 vertices",
        "directed cycle present",
        "unlabeled leaf",
        "leaf with multiple parents",
        "label on a non-leaf vertex",
        "suppressible vertex",
        "degenerate root",
        "vertex fits no kind",
        "duplicate leaf label 'a'",
        "parallel branches",
        "not binary: indegree 1, outdegree 3",
    } <= kinds


def test_validate_keeps_an_acyclic_order_only():
    cyclic = Network(*INVALID[2])
    validate(cyclic)
    with pytest.raises(InvalidNetworkError):
        cyclic.topological_order()
    net = parse_network(RUNNING)
    assert net.topological_order() == _topological_order(net._out, net._in)


def test_one_topological_sort_per_network_through_displays(monkeypatch):
    import netdisplay.core as core

    sorts = {}
    real = core._topological_order

    def counting(out, ins):
        # the map stays referenced, so its id is not reused
        sorts.setdefault(id(out), [out, 0])[1] += 1
        return real(out, ins)

    monkeypatch.setattr(core, "_topological_order", counting)
    trees = []
    for rec in GOLDEN:
        trees.append(parse_tree(rec["tree"]))
        displays(parse_network(rec["net"]), trees[-1])
    assert len(sorts) >= len(GOLDEN)  # each net, as parsed
    # a parsed tree comes with its order, so it is never sorted
    assert not any(id(tree._out) in sorts for tree in trees)
    assert {n for _, n in sorts.values()} == {1}


def test_one_validation_pass_per_network_through_displays(monkeypatch):
    import netdisplay.core as core

    passes = {}
    real = core._violations

    def counting(out, *maps):
        # one network, one child map; the map stays referenced, so its id
        # is not reused
        passes.setdefault(id(out), [out, 0])[1] += 1
        return real(out, *maps)

    def unused(self, start):
        raise AssertionError("validation walked reachability")

    monkeypatch.setattr(core, "_violations", counting)
    monkeypatch.setattr(Network, "reachable_from", unused)
    trees = []
    for rec in GOLDEN:
        net, tree = parse_network(rec["net"]), parse_tree(rec["tree"])
        displays(net, tree)
        for flag in (False, True):
            assert validate(net, flag).ok and validate(tree, flag).ok
        trees.append(tree)
    assert len(passes) >= len(GOLDEN)  # each net, as parsed
    # a parsed tree is valid by construction, so it is never checked
    assert not any(id(tree._out) in passes for tree in trees)
    assert {n for _, n in passes.values()} == {1}


def test_require_valid_raises():
    net = Network({0: [1], 1: [2], 2: []}, {2: "a"})
    with pytest.raises(InvalidNetworkError):
        net.require_valid()
    # maps that do not agree are refused at construction, before validation
    with pytest.raises(ValueError, match="adjacency references unknown vertex 3"):
        Network({0: [1, 3], 1: []}, {1: "a"})
    with pytest.raises(ValueError, match="label references unknown vertex 5"):
        Network({0: []}, {5: "a"})


def test_require_tree_refuses_a_built_reticulation():
    """A parsed tree answers require_tree from the parser's memo of no
    reticulation. A Network or PhyloTree built by its constructor has no
    such memo, and one with a reticulation is refused."""
    net = parse_network(RUNNING)
    for built in (Network(net._out, net._labels), PhyloTree(net._out, net._labels)):
        assert "rets" not in built._cache
        with pytest.raises(InvalidNetworkError, match="reticulations; not a tree"):
            require_tree(built)
    with pytest.raises(InvalidNetworkError, match="reticulations; not a tree"):
        PhyloTree.from_network(net)
    tree = parse_tree("((a,b),c);")
    assert tree._cache["rets"] == ()
    require_tree(tree)


@pytest.mark.parametrize(
    "text, branches, message",
    [
        ("((a)#H1,(#H1,b));", [(0, 3)], "root chain child 1 has extra parents"),
        ("(a,b);", [(0, 1), (0, 2)], "network degenerated to nothing"),
        ("((a,b),c);", [(0, 1)], "vertex 1 lost all parents but is not the root"),
    ],
)
def test_prune_names_each_broken_suppression(text, branches, message):
    # removals that no reduction rule makes: each leaves a state that
    # suppression cannot bring back to a network
    ed = NetworkEditor(parse_network(text))
    with pytest.raises(InternalConsistencyError, match=message):
        ed.prune([Branch(*b) for b in branches])


def _is_tree_vertex(net, v):
    return len(net.parents(v)) == 1 and len(net.children(v)) >= 2


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
    assert len(net.parents(h1)) == 2 and len(net.children(h1)) == 1
    assert len(net.parents(net.root)) == 0
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


def _stability_sample() -> tuple[list, list]:
    """Generated networks of class "any" (n <= 6, m <= 4) and nearly
    stable and reticulation-visible ones up to n = 30; and networks whose
    ids have gaps: stabilizing-transform outputs and replayed states of
    decides on the nearly stable ones."""
    rng = random.Random(40)
    nets = [
        generate(GenSpec(rng.randint(2, 6), rng.randint(0, 4), "any", seed=i))
        for i in range(150)
    ]
    classed = {
        cls: [
            gen_with_fallback(n := rng.randint(7, 30), rng.randint(1, n // 2), cls, 4000 + i)
            for i in range(30)
        ]
        for cls in ("nearly_stable", "reticulation_visible")
    }
    gapped = []
    for net in classed["nearly_stable"]:
        gapped.append(ns_to_rv_transform(net)[0])
        kept = tuple((r, Branch(min(net.parents(r)), r)) for r in net.reticulations)
        tree = apply_resolution(net, Resolution(kept))
        states = replay_trace(net, tree, displays(net, tree).trace)
        gapped += [s_net for s_net, _ in states[1::4]]
    return nets + classed["nearly_stable"] + classed["reticulation_visible"], gapped


def test_stability_methods_agree_with_witnesses():
    nets, gapped = _stability_sample()
    assert sum(max(net.vertices) >= len(net) for net in gapped) > 20
    assert max(net.n_leaves for net in nets) >= 25
    for net in nets + gapped:
        dom = stability(net)
        dele = deletion_stability(net)
        assert dom.stable == dele.stable
        assert dom.witness == dele.witness
        assert dom.witness == _networkx_witnesses(net)
        assert list(dom.witness) == list(dom.stable) == list(net.topological_order())
        # the class flags on a fresh copy, which has no report built
        fresh = Network(net._out, net._labels, net.next_id)
        member = tuple(in_class(fresh, name) for name in CLASSES)
        assert member == tuple(reference_in_class(net, name) for name in CLASSES)
        assert member == tuple(getattr(classify(fresh), name) for name in CLASSES)


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


def test_nearly_stable_through_a_meet_takes_the_dominator_pass(monkeypatch):
    import netdisplay.core as core

    passes = []
    real = core._dominators
    monkeypatch.setattr(core, "_dominators", lambda net: passes.append(net) or real(net))
    net = parse_network(MEET_STABLE)
    h1 = 3
    assert net.children(1) == net.parents(h1) == (2, 7)
    stable, unstable = core._stability(net)
    assert passes == [net]
    assert stable[1] and stable[net.root]
    assert unstable == [2, 7, 10]
    assert [in_class(net, name) for name in CLASSES] == [False, True, True]
    assert net.reticulations == (3, 5, 8)
    # a network the leaf chains decide alone takes no dominator pass
    chained = parse_network(RUNNING)
    assert core._stability(chained)[1] == []
    assert passes == [net]
    # the witness report reads the same dominators, once
    assert stability(net).stable == {v: stable[v] for v in net.topological_order()}
    assert passes == [net, net] and "idom" in net._cache


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
    real = core._stability
    monkeypatch.setattr(core, "_stability", lambda net: calls.append(net) or real(net))
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


def test_in_class_matches_reference_and_classify(monkeypatch):
    """in_class against reference_in_class and classify, and under it
    _stability's flags and its unstable list, in topological order,
    against deletion_stability, on networks that the leaf chains decide
    alone and on networks that need the dominator pass, and with each of
    its two starts: generated and hand networks, copied by the
    constructor with a cold memo, which mostly have V < 6m, and the
    ns-scaling builder's at n <= 400, V near 10m, parsed and as such
    copies. On each network both starts give the same marks, and the
    generator's or parser's reticulation memo is the derived one."""
    import netdisplay.core as core
    from test_parse_differential import ns_scaling_instances

    leaf_marks, reticulation_marks = core._leaf_marks, core._reticulation_marks
    runs = Counter()
    for name in ("_dominators", "_leaf_marks", "_reticulation_marks"):
        real = getattr(core, name)
        monkeypatch.setattr(
            core, name, lambda *a, real=real, name=name: runs.update((name,)) or real(*a)
        )
    texts = [rec["net"] for rec in GOLDEN] + [MEET_STABLE, NOT_NEARLY_STABLE]
    sample = class_sample(40, 500) + [parse_network(text) for text in texts]
    ns = [parse_network(t[0]) for t in ns_scaling_instances() if len(t) == 2]
    seen = set()
    taken = {False: 0, True: 0}  # by whether the dominator pass ran
    for net in sample + ns:
        verts = net.vertices
        rets = tuple(v for v in verts if len(net.parents(v)) > 1 and net.children(v))
        assert net.reticulations == rets
        up, down = leaf_marks(net), reticulation_marks(net, rets)
        assert [up[v] for v in verts] == [down[v] for v in verts]
        ref = deletion_stability(net).stable
        fresh = Network(net._out, net._labels, net.next_id)  # cold memo
        for subject in (fresh, net) if net in ns else (fresh,):
            before = runs["_dominators"]
            stable, unstable = core._stability(subject)
            taken[runs["_dominators"] > before] += 1
            assert {v: stable[v] for v in verts} == ref
            assert unstable == [v for v in net.topological_order() if not ref[v]]
        assert fresh.reticulations == rets
        member = tuple(in_class(fresh, name) for name in CLASSES)
        assert member == tuple(classify(net).to_dict()[name] for name in CLASSES)
        if net not in ns:  # reference_in_class redoes deletion_stability
            assert member == tuple(reference_in_class(net, name) for name in CLASSES)
        seen.add(member)
    assert len(ns) == 36 and taken[False] >= 50 and taken[True] >= 50
    assert runs["_leaf_marks"] >= 50 and runs["_reticulation_marks"] >= 50
    # tree-child, visible but not tree-child, nearly stable only, neither,
    # and visible but not nearly stable all occur
    assert seen >= {
        (True, True, True),
        (False, True, True),
        (False, False, True),
        (False, False, False),
        (False, True, False),
    }


def test_subphylogeny_free_matches_reference():
    # _subphylogeny_free stops at the first pendant subtree with two or
    # more leaves; the reference checks every vertex's descendant set
    verdicts = []
    for net in class_sample(40, 500):
        got = _subphylogeny_free(net)
        assert got == reference_subphylogeny_free(net)
        assert classify(net).subphylogeny_free == got
        verdicts.append(got)
    assert verdicts.count(True) >= 10 and verdicts.count(False) >= 10


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
    # a label -> leaf map over the parsed tree's parent tuples with no
    # child lists: the parents it reads must follow cherry collapses
    text = "((a,b),c);"
    parsed = parse_tree(text)
    state = ReductionState(parse_network(text), parsed)
    tree, root = state.tree, parsed.root

    def parent_of(lab):
        return tree.tin[tree.leaf[lab]][0]

    c = tree.leaf["c"]
    assert tree.tin[c] == (root,)
    assert parent_of("c") == root
    assert parent_of("a") == parent_of("b")
    assert parent_of("a") != root
    state.collapse_cherries()
    assert set(tree.leaf) == {"c", "__r0"}
    assert parent_of("__r0") == parent_of("c") == root
    r0 = tree.leaf["__r0"]
    out, ins, labels = tree.live()
    assert ins == {root: (), c: (root,), r0: (root,)}
    assert out == {root: tree.tout[root], c: (), r0: ()} and set(out[root]) == {c, r0}
    assert labels == {c: "c", r0: "__r0"}


def test_random_tree_is_valid_binary():
    tree = random_tree(["a", "b", "c", "d"], seed=5)
    assert validate(tree, require_binary=True).ok
    assert sorted(tree.leaf_labels.values()) == ["a", "b", "c", "d"]


def test_random_tree_needs_a_label():
    with pytest.raises(ValueError, match="at least one leaf label"):
        random_tree([])
