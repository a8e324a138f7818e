"""Containment: oracle, case dispatch, pruning rules, the main loop."""

import random

import pytest

from netdisplay import tcp
from netdisplay.core import Branch, Network, NetworkEditor, PhyloTree, classify
from netdisplay.errors import (
    ClassPreconditionError,
    InternalConsistencyError,
    InvalidNetworkError,
    LeafSetMismatchError,
    OracleCapExceededError,
    PatternMismatchError,
)
from netdisplay.generator import GenSpec, generate
from netdisplay.newick_io import parse_network, parse_tree, serialize
from netdisplay.reductions import ReductionState, ReductionTrace
from netdisplay.tcp import (
    CaseMatch,
    Resolution,
    _case_removals,
    apply_resolution,
    displays,
    find_longest_root_leaf_path,
    match_case,
    oracle_displays,
    trees_equal,
)

from helpers import (
    CASE_FIXTURES,
    GOLDEN,
    NOT_NEARLY_STABLE,
    RUNNING,
    all_trees,
    gen_with_fallback,
    reference_oracle_displays,
    tree_from_shape,
)


def _random_tree(labels, rng):
    nodes = [lab for lab in labels]
    rng.shuffle(nodes)
    while len(nodes) > 1:
        i = rng.randrange(len(nodes) - 1)
        nodes[i] = (nodes[i], nodes.pop(i + 1))
    return tree_from_shape(nodes[0])


def _resolved_tree(net, rng):
    kept = tuple(
        (r, Branch(rng.choice(sorted(net.parents(r))), r))
        for r in net.reticulations
    )
    return apply_resolution(net, Resolution(kept))


# ids in the running example: root 0, 1 -> {a=2, H1=3 -> b=4}, 5 -> {H1, c=6}


def test_apply_resolution_keep_left():
    net = parse_network(RUNNING)
    tree = apply_resolution(net, Resolution(((3, Branch(1, 3)),)))
    assert serialize(tree) == "((a,b),c);"


def test_apply_resolution_keep_right():
    net = parse_network(RUNNING)
    tree = apply_resolution(net, Resolution(((3, Branch(5, 3)),)))
    assert serialize(tree) == "(a,(b,c));"


def test_apply_resolution_rejects_bad_coverage():
    net = parse_network(RUNNING)
    with pytest.raises(ValueError):
        apply_resolution(net, Resolution(()))
    with pytest.raises(ValueError):
        apply_resolution(net, Resolution(((3, Branch(0, 3)),)))
    with pytest.raises(ValueError):
        apply_resolution(
            net, Resolution(((3, Branch(1, 3)), (4, Branch(3, 4))))
        )


def test_apply_resolution_keeps_every_label():
    rng = random.Random(5)
    for i in range(200):
        net = generate(GenSpec(rng.randint(2, 7), rng.randint(0, 5), "any", seed=i))
        tree = _resolved_tree(net, rng)
        assert tree.label_set() == net.label_set()


def test_trees_equal_is_label_isomorphism():
    assert trees_equal(parse_tree("((a,b),c);"), parse_tree("(c,(b,a));"))
    assert not trees_equal(parse_tree("((a,b),c);"), parse_tree("((a,c),b);"))
    # different label sets compare unequal instead of raising
    assert not trees_equal(parse_tree("((a,b),c);"), parse_tree("((a,b),d);"))
    assert not trees_equal(parse_tree("(a,b);"), parse_tree("((a,b),c);"))
    # a reticulation-free plain Network equals its PhyloTree
    plain = parse_network("((a,b),(c,d));")
    assert type(plain) is not PhyloTree
    assert trees_equal(plain, PhyloTree.from_network(plain))
    assert trees_equal(plain, parse_tree("((d,c),(b,a));"))
    assert not trees_equal(plain, parse_tree("((a,c),(b,d));"))
    one = parse_tree("a;")
    assert trees_equal(one, one)
    assert trees_equal(one, parse_tree("a;"))


def test_oracle_matches_reference_oracle():
    # the cluster check against the whole-string fold it replaced: same
    # verdict and the same certificate, the first in product order
    rng = random.Random(11)
    constraints = ("any", "nearly_stable", "tree_child", "reticulation_visible")
    displayed = 0
    for i in range(500):
        net = gen_with_fallback(
            rng.randint(3, 14), rng.randint(0, 8), rng.choice(constraints), i
        )
        for tree in (_resolved_tree(net, rng), _random_tree(sorted(net.label_set()), rng)):
            got = oracle_displays(net, tree)
            ref = reference_oracle_displays(net, tree)
            assert got.displayed == ref.displayed, serialize(net)
            assert got.certificate == ref.certificate, serialize(net)
            displayed += got.displayed
    assert 500 < displayed < 1000


def test_oracle_certificate_is_first_in_product_order():
    # chained reticulations: #H1's only child is #H2. Where #H2 keeps its
    # other parent, #H1 is a dead end and both of its parents give the
    # same tree, and the certificate must keep the first of them
    net = parse_network(
        "(((t1,((t5)#H2)#H1),(#H2,t8)),(t2,((((t3,t7),#H1),t6),t4)));"
    )
    h1, h2 = net.reticulations
    assert net.children(h1) == (h2,)
    (p1, q1), (p2, q2) = (sorted(net.parents(r)) for r in (h1, h2))
    assert p2 == h1
    for text, h1_choices, h2_choice in (
        ("(((t1,t5),t8),(t2,(((t3,t7),t6),t4)));", (p1,), p2),
        ("((t1,(t5,t8)),(t2,(((t3,t7),t6),t4)));", (p1, q1), q2),
    ):
        tree = parse_tree(text)
        resolving = [
            p
            for p in (p1, q1)
            if trees_equal(
                apply_resolution(
                    net, Resolution(((h1, Branch(p, h1)), (h2, Branch(h2_choice, h2))))
                ),
                tree,
            )
        ]
        assert tuple(resolving) == h1_choices
        verdict = oracle_displays(net, tree)
        assert verdict.certificate == reference_oracle_displays(net, tree).certificate
        assert verdict.certificate.kept_in_branch == (
            (h1, Branch(p1, h1)),
            (h2, Branch(h2_choice, h2)),
        )


def test_oracle_on_running_example():
    net = parse_network(RUNNING)
    assert oracle_displays(net, parse_tree("((a,b),c);")).displayed
    assert oracle_displays(net, parse_tree("(a,(b,c));")).displayed
    verdict = oracle_displays(net, parse_tree("((a,c),b);"))
    assert not verdict.displayed
    assert verdict.certificate is None
    assert verdict.reticulations_initial == 1


def test_oracle_certificate_resolves_to_the_tree():
    net = parse_network(RUNNING)
    tree = parse_tree("(a,(b,c));")
    verdict = oracle_displays(net, tree)
    assert verdict.displayed
    assert trees_equal(apply_resolution(net, verdict.certificate), tree)


def test_oracle_cap():
    net = parse_network(RUNNING)
    with pytest.raises(OracleCapExceededError):
        oracle_displays(net, parse_tree("((a,b),c);"), cap=0)


def test_oracle_requires_same_leaves():
    with pytest.raises(LeafSetMismatchError):
        oracle_displays(parse_network(RUNNING), parse_tree("((a,b),d);"))
    # every label of the network, and one more
    with pytest.raises(LeafSetMismatchError, match=r"differ: \['d'\]"):
        oracle_displays(parse_network(RUNNING), parse_tree("(((a,b),c),d);"))


def test_longest_path_running_example():
    # deterministic tie-breaks: smallest id wins
    assert find_longest_root_leaf_path(parse_network(RUNNING)) == [0, 1, 3, 4]


def test_longest_path_on_trees():
    assert find_longest_root_leaf_path(parse_network("((a,b),c);")) == [0, 1, 2]
    assert find_longest_root_leaf_path(parse_network("a;")) == [0]


def test_longest_path_without_a_live_leaf_is_empty():
    # a graph with no vertex, and a kept search after its editor lost
    # every vertex
    assert find_longest_root_leaf_path(Network({}, {})) == []
    ed = NetworkEditor(parse_network("((a,b),c);"))
    paths = tcp.LongestPaths(ed.out, ed.ins, (0, 1, 2, 3, 4), set())
    assert paths.path() == [0, 1, 2]
    ed.out.clear()
    ed.ins.clear()
    assert paths.path() == []


@pytest.mark.parametrize("name", sorted(CASE_FIXTURES))
def test_match_case_fixture(name):
    net = parse_network(CASE_FIXTURES[name])
    net.require_valid(require_binary=True)
    assert classify(net).nearly_stable
    path = find_longest_root_leaf_path(net)
    m = match_case(NetworkEditor(net), path)
    assert m.case_id == name.split("_")[0]
    b = m.bindings
    assert path[-4:] == [b["w"], b["u"], b["v"], b["l"]]
    if name.endswith("_triangle"):
        assert b["g"] == b["w"]


def test_match_case_needs_long_path():
    net = parse_network("(a,b);")
    with pytest.raises(Exception):
        match_case(NetworkEditor(net), find_longest_root_leaf_path(net))


def test_match_case_dumps_local_structure_on_failure():
    net = parse_network("(((a,b),c),d);")
    with pytest.raises(InternalConsistencyError, match="local structure") as err:
        match_case(NetworkEditor(net), find_longest_root_leaf_path(net))
    assert "is not a reticulation" in str(err.value)


def _leaf_under(ed, v, label):
    x = ed.new_vertex()
    ed.add_branch(v, x)
    ed.labels[x] = label


def _label_below(ed, v):
    """Move leaf v's label to a new child of v."""
    _leaf_under(ed, v, ed.labels.pop(v))


def _cherry_under(ed, v):
    """Turn leaf v into the parent of two new leaves."""
    label = ed.labels.pop(v)
    _leaf_under(ed, v, label + "1")
    _leaf_under(ed, v, label + "2")


# every check of match_case that fails: the fixture, the edit of its
# editor (the path stays the fixture's), the message and the vertices
# the local structure dump shows
MISMATCHES = {
    "leaf_has_a_child": (
        "C",
        lambda ed: _label_below(ed, 4),
        "path does not end in a leaf (4)",
        [1, 2, 3, 4],
    ),
    "leaf_parent_is_a_tree_vertex": (
        "C",
        lambda ed: ed.remove_branch(7, 3),
        "parent 3 of the path leaf is not a reticulation",
        [1, 2, 3, 4],
    ),
    "chain_top_has_two_children": (
        "A",
        lambda ed: _leaf_under(ed, 2, "y"),
        "vertex 2 is not a reticulation onto 3",
        [1, 2, 3, 4],
    ),
    "chain_parent_has_three_children": (
        "A",
        lambda ed: _leaf_under(ed, 1, "y"),
        "vertex 1 is not a binary parent of 2",
        [1, 2, 3, 4],
    ),
    "chain_sibling_heads_no_uncle_nephew": (
        "A",
        lambda ed: _cherry_under(ed, 5),
        "vertex 5 does not head an uncle-nephew pattern",
        [1, 2, 3, 4, 5],
    ),
    "tree_parent_has_three_children": (
        "C",
        lambda ed: _leaf_under(ed, 2, "y"),
        "vertex 2 is not a binary parent of 3",
        [1, 2, 3, 4],
    ),
    "sibling_is_a_cherry": (
        "C",
        lambda ed: _cherry_under(ed, 5),
        "sibling 5 of 3 is neither a leaf nor a reticulation onto a leaf",
        [1, 2, 3, 4, 5],
    ),
    "grandparent_has_three_children": (
        "D",
        lambda ed: _leaf_under(ed, 1, "y"),
        "vertex 1 is not a binary parent of 2",
        [1, 2, 3, 4],
    ),
    "uncle_is_unary": (
        "D",
        lambda ed: _label_below(ed, 7),
        "vertex 7 is neither a leaf nor a tree vertex",
        [1, 2, 3, 4, 7],
    ),
    "cousin_is_a_cherry": (
        "G",
        lambda ed: _cherry_under(ed, 8),
        "vertex 8 is neither a leaf nor a reticulation onto a leaf",
        [1, 2, 3, 4, 7, 8],
    ),
    "uncle_heads_no_uncle_nephew": (
        "J",
        lambda ed: _cherry_under(ed, 10),
        "vertex 7 does not head an uncle-nephew pattern",
        [1, 2, 3, 4, 7],
    ),
}


@pytest.mark.parametrize(
    "fixture, edit, message, dumped", MISMATCHES.values(), ids=MISMATCHES
)
def test_match_case_names_each_mismatch(fixture, edit, message, dumped):
    net = parse_network(CASE_FIXTURES[fixture])
    path = find_longest_root_leaf_path(net)
    assert path[-4:] == [1, 2, 3, 4]
    ed = NetworkEditor(net)
    edit(ed)
    with pytest.raises(InternalConsistencyError) as err:
        match_case(ed, path)
    head, *rows = str(err.value).split("\n")
    assert head == f"{message}; local structure:"
    want = []
    for x in dumped:
        row = f"  {x}: in={list(ed.ins[x])} out={list(ed.out[x])}"
        want.append(row + (f" label={ed.labels[x]}" if x in ed.labels else ""))
    assert rows == want


@pytest.mark.parametrize("name", sorted(CASE_FIXTURES))
def test_simplify_preserves_verdict(name):
    net = parse_network(CASE_FIXTURES[name])
    labels = sorted(net.label_set())
    if len(labels) <= 5:
        trees = all_trees(labels)
    else:
        rng = random.Random(hash(name) & 0xFFFF)
        trees = [_random_tree(labels, rng) for _ in range(60)]
    path = find_longest_root_leaf_path(net)
    m = match_case(NetworkEditor(net), path)
    for tree in trees:
        before = oracle_displays(net, tree).displayed
        state = ReductionState(net, tree)
        state.remove(f"case_{m.case_id}", _case_removals(state.net, state.tree, m))
        [step] = ReductionTrace(state.rows).steps
        reduced = state.net.freeze()
        reduced.require_valid(require_binary=True)
        assert reduced.num_reticulations < net.num_reticulations
        assert oracle_displays(reduced, tree).displayed == before
        assert step.kind == f"case_{m.case_id}"
        assert step.removed_branches


def test_simplify_case_a_variants():
    net = parse_network(CASE_FIXTURES["A"])
    path = find_longest_root_leaf_path(net)
    m = match_case(NetworkEditor(net), path)
    labels = sorted(net.label_set())
    sib = tree_from_shape((("l", "lp"), "z"))
    non = tree_from_shape((("l", "z"), "lp"))
    rows = []
    for tree in (sib, non):
        state = ReductionState(net, tree)
        state.remove(f"case_{m.case_id}", _case_removals(state.net, state.tree, m))
        rows += state.rows
        state.net.freeze().require_valid(require_binary=True)
    step_sib, step_non = ReductionTrace(rows).steps
    assert len(step_sib.removed_branches) == 2
    assert step_non.removed_branches == (Branch(m.bindings["w"], m.bindings["u"]),)
    assert set(labels) == {"l", "lp", "z"}


def test_displays_running_example():
    net = parse_network(RUNNING)
    for text in ("((a,b),c);", "(a,(b,c));"):
        verdict = displays(net, parse_tree(text))
        assert verdict.displayed
        assert verdict.reticulations_initial == 1
        assert verdict.iterations >= 1
    assert not displays(net, parse_tree("((a,c),b);")).displayed


def test_displays_tree_against_itself():
    tree_net = parse_network("((a,b),(c,d));")
    tree = parse_tree("((a,b),(c,d));")
    verdict = displays(tree_net, tree)
    assert verdict.displayed
    assert verdict.certificate == Resolution(())
    assert all(s.kind == "cherry" for s in verdict.trace.steps)


@pytest.mark.parametrize("k", range(1, 6))
def test_displays_matches_tree_equality_on_every_tree_pair(k, monkeypatch):
    # m = 0: a one-sided cherry decides each negative, and the oracle
    # tail, comparing the one resolution's clusters, each positive
    tails = []
    real_tail = tcp._tail_displays
    monkeypatch.setattr(tcp, "_tail_displays", lambda s: tails.append(s) or real_tail(s))
    trees = all_trees([chr(ord("a") + i) for i in range(k)])
    for net in trees:
        for tree in trees:
            before = len(tails)
            verdict = displays(net, tree)
            assert verdict.displayed == trees_equal(net, tree)
            assert len(tails) - before == verdict.displayed
            assert verdict.certificate == (
                Resolution(()) if verdict.displayed else None
            )


def test_displays_rejects_leaf_mismatch():
    # as many labels, not the same ones
    with pytest.raises(LeafSetMismatchError, match=r"differ: \['c', 'd'\]$"):
        displays(parse_network(RUNNING), parse_tree("((a,b),d);"))
    # every label of the network, and one more
    with pytest.raises(LeafSetMismatchError, match=r"differ: \['d'\]"):
        displays(parse_network(RUNNING), parse_tree("(((a,b),c),d);"))
    # every label of the tree, and one more on the network side
    with pytest.raises(LeafSetMismatchError, match=r"^leaf label sets differ: \['c'\]$"):
        displays(parse_network(RUNNING), parse_tree("(a,b);"))


def test_displays_rejects_not_nearly_stable():
    net = parse_network(NOT_NEARLY_STABLE)
    tree = _random_tree(sorted(net.label_set()), random.Random(0))
    with pytest.raises(ClassPreconditionError):
        displays(net, tree)
    # the class is tested first, but a leaf label mismatch is reported first
    with pytest.raises(LeafSetMismatchError):
        displays(parse_network(NOT_NEARLY_STABLE), parse_tree("((a,b),d);"))


def test_deciders_reject_a_tree_argument_that_is_not_a_tree():
    net = parse_network(RUNNING)
    polytomy = PhyloTree({0: [1, 2, 3], 1: [], 2: [], 3: []}, {1: "a", 2: "b", 3: "c"})
    for decide in (displays, oracle_displays):
        with pytest.raises(InvalidNetworkError, match="reticulations"):
            decide(net, net)
        with pytest.raises(InvalidNetworkError, match="not binary"):
            decide(net, polytomy)


def test_deciders_take_a_reticulation_free_binary_network_as_tree():
    net = parse_network(RUNNING)
    for text, expect in (("((a,b),c);", True), ("((a,c),b);", False)):
        plain = parse_network(text)  # a Network, not a PhyloTree
        for decide in (displays, oracle_displays):
            assert decide(net, plain).displayed is expect
            assert decide(net, parse_tree(text)).displayed is expect


def test_displays_asks_only_for_near_stability(monkeypatch):
    import netdisplay.core as core

    calls = []
    real = core._subphylogeny_free
    monkeypatch.setattr(
        core, "_subphylogeny_free", lambda net: calls.append(net) or real(net)
    )
    for rec in GOLDEN:
        net = parse_network(rec["net"])
        displays(net, parse_tree(rec["tree"]))
    assert calls == []
    # classify still folds every class flag of the same network
    assert classify(net).nearly_stable
    assert calls == [net]


def test_case_helpers_refuse_a_missing_structure():
    # ids: root 0 -> {1 -> {a=2, b=3}, c=4}
    text = "((a,b),c);"
    state = ReductionState(parse_network(text), parse_tree(text))
    ed = state.net
    with pytest.raises(PatternMismatchError, match="vertex 1 lacks a unique child besides 9"):
        tcp._other_child(ed, 1, 9)
    with pytest.raises(PatternMismatchError, match="vertex 1 lacks a unique parent besides 0"):
        tcp._other_parent(ed, 1, 0)
    with pytest.raises(PatternMismatchError, match="unknown case id 'K'"):
        _case_removals(ed, state.tree, CaseMatch("K", {}))
    bound = {"u": 0, "e": 3, "g": 1, "v": 2}
    with pytest.raises(PatternMismatchError, match="bound branch 0->3 is absent"):
        _case_removals(ed, state.tree, CaseMatch("E", bound))
    with pytest.raises(InternalConsistencyError) as err:
        tcp._fail_match(ed, "no match", [99, 1])
    assert str(err.value).splitlines() == [
        "no match; local structure:",
        "  1: in=[0] out=[2, 3]",
        "  99: <absent>",
    ]


def test_displays_loop_guards(monkeypatch):
    # three reticulations: one case step, then the tail. No case rule can
    # trip these guards, so the working state is made to misbehave.
    (rec,) = (r for r in GOLDEN if r["name"] == "case_B")

    def decide():
        return displays(parse_network(rec["net"]), parse_tree(rec["tree"]))

    with monkeypatch.context() as m:
        m.setattr(tcp, "_case_removals", lambda ed, tree, match: ())
        with pytest.raises(InternalConsistencyError, match="case B removed no reticulation"):
            decide()

    class Stalling(ReductionState):
        """Each case step removes nothing but hides one reticulation, and
        the next round's cherry collapses show it again, so every step
        passes the progress guard and the loop never ends by itself."""

        hidden = None

        def remove(self, kind, branches):
            self.hidden = self.rets.pop()

        def collapse_cherries(self):
            if self.hidden is not None:
                self.rets.add(self.hidden)
            super().collapse_cherries()

    monkeypatch.setattr(tcp, "ReductionState", Stalling)
    with pytest.raises(InternalConsistencyError, match="exceeded its iteration bound"):
        decide()


def test_displays_rejects_nonbinary():
    net = parse_network("(a,b,c);")
    with pytest.raises(InvalidNetworkError):
        displays(net, parse_tree("((a,b),c);"))


def test_displays_case_fixtures_agree_with_oracle():
    for text in CASE_FIXTURES.values():
        net = parse_network(text)
        labels = sorted(net.label_set())
        rng = random.Random(17)
        trees = all_trees(labels) if len(labels) <= 5 else [
            _random_tree(labels, rng) for _ in range(40)
        ]
        for tree in trees:
            assert (
                displays(net, tree).displayed
                == oracle_displays(net, tree).displayed
            )


def test_displays_agrees_with_oracle_on_random_instances():
    rng = random.Random(23)
    for i in range(150):
        n = rng.randint(2, 7)
        net = generate(
            GenSpec(
                n,
                rng.randint(0, min(6, 2 * (n - 1))),
                "nearly_stable",
                seed=1000 + i,
            )
        )
        tree = (
            _resolved_tree(net, rng)
            if i % 2 == 0
            else _random_tree(sorted(net.label_set()), rng)
        )
        fast = displays(net, tree)
        slow = oracle_displays(net, tree)
        assert fast.displayed == slow.displayed
        assert fast.iterations <= net.num_reticulations + net.n_leaves


def test_displays_own_resolutions():
    rng = random.Random(31)
    for i in range(100):
        n = rng.randint(2, 7)
        net = generate(
            GenSpec(n, rng.randint(1, min(6, 2 * (n - 1))), "nearly_stable", seed=i)
        )
        assert displays(net, _resolved_tree(net, rng)).displayed


def test_displays_trace_replays_to_the_same_verdict():
    rng = random.Random(47)
    checked = 0
    for i in range(60):
        net = generate(GenSpec(6, 4, "nearly_stable", seed=500 + i))
        tree = (
            _resolved_tree(net, rng)
            if i % 2 == 0
            else _random_tree(sorted(net.label_set()), rng)
        )
        verdict = displays(net, tree)
        if len(verdict.trace) == 0:
            continue
        from netdisplay.reductions import replay_trace

        states = replay_trace(net, tree, verdict.trace)
        for s_net, s_tree in states:
            assert s_net.label_set() == s_tree.label_set()
            assert classify(s_net).nearly_stable
            assert (
                oracle_displays(s_net, s_tree).displayed == verdict.displayed
            )
        checked += 1
    assert checked >= 20
