"""Suppression, cherry and uncle-nephew rewriting, trace replay."""

import dataclasses
import re

import pytest

from netdisplay.core import Branch, Network, NetworkEditor, PhyloTree
from netdisplay.errors import InternalConsistencyError, PatternMismatchError
from netdisplay.newick_io import canonical_equal, parse_network, parse_tree, serialize
from netdisplay.reductions import (
    ReductionState,
    ReductionStep,
    ReductionTrace,
    _cherry_at,
    replay_trace,
)
from netdisplay.tcp import CaseMatch, _case_removals, displays, oracle_displays

from helpers import GOLDEN, RUNNING


def _without_branch(text, tail, head):
    ed = NetworkEditor(parse_network(text))
    ed.remove_branch(tail, head)
    return ed.freeze()


def _suppressed(net):
    ed = NetworkEditor(net)
    contracted = ed.suppress(set(ed.out))
    return ed.freeze(), tuple(contracted)


# ids in the running example: root 0, 1 -> {a=2, H1=3 -> b=4}, 5 -> {H1, c=6}


def _uncle_nephew(net, tree, site):
    """The uncle-nephew rule below `site`, as case C applies it, on a fresh
    working state; returns the frozen, validated net and the step."""
    state = ReductionState(net, tree)
    removed = _case_removals(state.net, state.tree, CaseMatch("C", {"u": site}))
    state.remove("case_C", removed)
    [step] = ReductionTrace(state.rows).steps
    reduced = state.net.freeze()
    reduced.require_valid(require_binary=True)
    return reduced, step


def test_suppress_after_left_in_branch_removed():
    net, contracted = _suppressed(_without_branch(RUNNING, 1, 3))
    assert serialize(net) == "(a,(b,c));"
    assert set(contracted) == {1, 3}


def test_suppress_after_right_in_branch_removed():
    net, _ = _suppressed(_without_branch(RUNNING, 5, 3))
    assert serialize(net) == "((a,b),c);"


def test_suppress_idempotent():
    net, _ = _suppressed(_without_branch(RUNNING, 1, 3))
    again, contracted = _suppressed(net)
    assert contracted == ()
    assert canonical_equal(net, again)
    assert [again.label(v) for v in again.vertices] == [
        net.label(v) for v in net.vertices
    ]


def test_suppress_dummy_cascade():
    # unlabeled outdegree-0 vertex disappears and takes its chain with it
    net = Network({0: [1, 4], 1: [2], 2: [3], 3: [], 4: []}, {4: "a"})
    out, contracted = _suppressed(net)
    assert out.n_leaves == 1
    assert len(out.vertices) == 1
    assert out.label(out.root) == "a"
    # the chain contracts upward; the dummy 3 is deleted, not contracted
    assert set(contracted) == {0, 1, 2}


def test_suppress_root_chain():
    net = Network({0: [1], 1: [2, 3], 2: [], 3: []}, {2: "a", 3: "b"})
    out, _ = _suppressed(net)
    assert serialize(out) == "(a,b);"


def test_suppress_merges_parallel_pair():
    # contracting 1 would duplicate the branch 0->2; the copies carry the
    # same resolutions so one of them goes instead
    net = Network({0: [1, 2], 1: [2], 2: [3], 3: []}, {3: "a"})
    out, _ = _suppressed(net)
    assert len(out.vertices) == 1
    assert out.label(out.root) == "a"


def _net_cherries(net):
    return [c for v in net.vertices if (c := _cherry_at(net._out, net._in, v))]


def test_net_cherry_detection():
    # a reticulation parent does not make a cherry
    assert _net_cherries(parse_network(RUNNING)) == []
    [(l1, l2, p)] = _net_cherries(parse_network("((a,b),c);"))
    assert l1 < l2
    assert {l1, l2} == {2, 3} and p == 1
    assert _net_cherries(parse_network("(a,(b,c));")) != []
    # the working state files a net cherry as common or one-sided
    net = parse_network("((a,b),c);")
    common = ReductionState(net, parse_tree("((a,b),c);"))
    assert common.common == [(2, 3, 1)] and common.one_sided == set()
    one_sided = ReductionState(net, parse_tree("(a,(b,c));"))
    assert one_sided.common == [] and one_sided.one_sided == {1}
    running = ReductionState(parse_network(RUNNING), parse_tree("((a,b),c);"))
    assert running.common == [] and running.one_sided == set()


def test_cherry_reduce_no_common_cherry_is_noop():
    net = parse_network(RUNNING)
    tree = parse_tree("((a,b),c);")
    state = ReductionState(net, tree)
    state.collapse_cherries()
    assert state.rows == []
    assert canonical_equal(state.net.freeze(), net)
    assert canonical_equal(state.tree.freeze(state.tree.live()), tree)


def test_cherry_reduce_collapses_both_cherries():
    net = parse_network("((a,b),(c,d));")
    tree = parse_tree("((a,b),(c,d));")
    state = ReductionState(net, tree)
    state.collapse_cherries()
    trace = ReductionTrace(state.rows)
    out_net, out_tree = state.net.freeze(), state.tree.freeze(state.tree.live())
    # the root is not a strict tree vertex, so (__r0,__r1) stays put
    assert len(trace) == 2
    assert len(out_net.vertices) == 3
    assert out_net.label_set() == out_tree.label_set()
    labels = [s.introduced_leaf[1] for s in trace.steps]
    assert len(set(labels)) == 2
    assert all(lab.startswith("__r") for lab in labels)


def test_cherry_reduce_keeps_leaf_sets_aligned():
    net = parse_network("(((a,b),(c)#H1),(#H1,d));")
    tree = parse_tree("(((a,b),c),d);")
    state = ReductionState(net, tree)
    state.collapse_cherries()
    trace = ReductionTrace(state.rows)
    out_net, out_tree = state.net.freeze(), state.tree.freeze(state.tree.live())
    assert len(trace) == 1
    assert out_net.label_set() == out_tree.label_set()
    assert out_net.num_reticulations == 1
    # only the common cherry went; (c,d) is a net cherry of neither side
    assert trace.steps[0].kind == "cherry"


def test_cherry_reduce_ignores_one_sided_cherries():
    net = parse_network("((a,b),c);")
    tree = parse_tree("(a,(b,c));")
    state = ReductionState(net, tree)
    state.collapse_cherries()
    assert state.rows == []


def test_uncle_nephew_nonsibling_removes_site_branch():
    net = parse_network(RUNNING)
    tree = parse_tree("((a,b),c);")
    # below 5: leaf c and reticulation 3 over leaf b; b,c not siblings
    out, step = _uncle_nephew(net, tree, 5)
    assert step.removed_branches == (Branch(5, 3),)
    assert serialize(out) == "((a,b),c);"
    assert oracle_displays(out, tree).displayed


def test_uncle_nephew_sibling_removes_outside_branch():
    net = parse_network(RUNNING)
    tree = parse_tree("(a,(b,c));")
    out, step = _uncle_nephew(net, tree, 5)
    assert step.removed_branches == (Branch(1, 3),)
    assert serialize(out) == "(a,(b,c));"
    assert oracle_displays(out, tree).displayed


def test_uncle_nephew_preserves_the_verdict_both_ways():
    net = parse_network(RUNNING)
    for text in ("((a,b),c);", "(a,(b,c));", "((a,c),b);"):
        tree = parse_tree(text)
        before = oracle_displays(net, tree).displayed
        out, _ = _uncle_nephew(net, tree, 5)
        assert oracle_displays(out, tree).displayed == before


def test_uncle_nephew_rejects_bad_sites():
    net = parse_network(RUNNING)
    tree = parse_tree("((a,b),c);")
    with pytest.raises(PatternMismatchError):
        _uncle_nephew(net, tree, 0)  # root heads no such pattern
    with pytest.raises(PatternMismatchError):
        _uncle_nephew(net, tree, 2)  # a leaf
    with pytest.raises(PatternMismatchError):
        _uncle_nephew(net, tree, 99)  # not a vertex


def test_reduction_step_line_format():
    step = ReductionStep(
        "cherry", (Branch(1, 2), Branch(1, 3)), (), (1, "__r0")
    )
    assert step.to_line() == "cherry removed=1->2,1->3 contracted= introduced=1:__r0"
    case = ReductionStep("case_C", (Branch(5, 3),), (4, 5))
    assert case.to_line() == "case_C removed=5->3 contracted=4,5"


def test_trace_text_one_line_per_step():
    net = parse_network("((a,b),(c,d));")
    tree = parse_tree("((a,b),(c,d));")
    state = ReductionState(net, tree)
    state.collapse_cherries()
    text = ReductionTrace(state.rows).to_text()
    assert len(text.splitlines()) == len(state.rows)
    assert all(line.startswith("cherry") for line in text.splitlines())


def test_replay_trace_reproduces_states():
    net = parse_network("((a,b),(c,d));")
    tree = parse_tree("((a,b),(c,d));")
    state = ReductionState(net, tree)
    state.collapse_cherries()
    trace = ReductionTrace(state.rows)
    out_net, out_tree = state.net.freeze(), state.tree.freeze(state.tree.live())
    states = replay_trace(
        parse_network("((a,b),(c,d));"), parse_tree("((a,b),(c,d));"), trace
    )
    assert len(states) == len(trace) + 1
    final_net, final_tree = states[-1]
    assert serialize(final_net) == serialize(out_net)
    assert serialize(final_tree) == serialize(out_tree)
    # leaf label sets stay equal at every intermediate state
    for s_net, s_tree in states:
        assert s_net.label_set() == s_tree.label_set()


def test_replay_trace_covers_uncle_nephew():
    net = parse_network(RUNNING)
    tree = parse_tree("(a,(b,c));")
    out, step = _uncle_nephew(net, tree, 5)
    trace = ReductionTrace([step])
    states = replay_trace(parse_network(RUNNING), tree, trace)
    assert serialize(states[-1][0]) == serialize(out)


def test_replay_trace_rejects_altered_contractions():
    rec = next(r for r in GOLDEN if re.search(r"^case_.* contracted=\d", r["trace"], re.M))
    net, tree = parse_network(rec["net"]), parse_tree(rec["tree"])
    trace = displays(net, tree).trace
    assert len(replay_trace(net, tree, trace)) == len(trace) + 1
    i, step = next(
        (i, s) for i, s in enumerate(trace.steps) if s.kind != "cherry" and s.contracted
    )
    altered = (step.contracted[0] + 1000,) + step.contracted[1:]
    steps = list(trace.steps)
    steps[i] = dataclasses.replace(step, contracted=altered)
    with pytest.raises(InternalConsistencyError):
        replay_trace(net, tree, ReductionTrace(steps))


def _unread_trace(rec):
    """The trace of a golden decide, which nobody has read yet."""
    return displays(parse_network(rec["net"]), parse_tree(rec["tree"])).trace


def test_unread_trace_matches_its_built_steps_on_golden():
    # each check starts from a fresh trace, whose rows it builds itself
    for rec in GOLDEN:
        built = ReductionTrace(list(_unread_trace(rec).steps))
        assert len(_unread_trace(rec)) == len(built)
        assert _unread_trace(rec) == built
        assert built == _unread_trace(rec)
        assert repr(_unread_trace(rec)) == repr(built)
        assert _unread_trace(rec).to_text() == built.to_text() == rec["trace"]
        lazy = _unread_trace(rec)
        assert len(lazy.steps) == len(built.steps)
        for got, want in zip(lazy.steps, built.steps):
            assert got == want and hash(got) == hash(want)
            assert repr(got) == repr(want) and got.to_line() == want.to_line()
        for trace in (_unread_trace(rec), built):
            with pytest.raises(TypeError):
                hash(trace)
        net, tree = parse_network(rec["net"]), parse_tree(rec["tree"])
        want_states = [
            (serialize(n), serialize(t)) for n, t in replay_trace(net, tree, built)
        ]
        got_states = replay_trace(net, tree, _unread_trace(rec))
        assert [(serialize(n), serialize(t)) for n, t in got_states] == want_states


def test_trace_constructor_repr_and_equality():
    steps = [
        ReductionStep("cherry", (Branch(1, 2), Branch(1, 3)), (), (1, "__r0")),
        ReductionStep("case_C", (Branch(5, 3),), (4, 5)),
    ]
    trace = ReductionTrace(steps)
    assert trace.steps is steps and ReductionTrace(steps=steps).steps is steps
    # the rows a working state records build in place into the given list
    rows = [(1, 2, 3, "__r0"), ("case_C", (Branch(5, 3),), (4, 5))]
    lazy = ReductionTrace(rows)
    assert len(lazy) == 2 and rows[0] == (1, 2, 3, "__r0")
    assert lazy.steps is rows and rows == steps
    assert repr(ReductionTrace()) == "ReductionTrace(steps=[])"
    assert repr(trace) == (
        "ReductionTrace(steps=[ReductionStep(kind='cherry', removed_branches="
        "(Branch(tail=1, head=2), Branch(tail=1, head=3)), contracted=(), "
        "introduced_leaf=(1, '__r0')), ReductionStep(kind='case_C', "
        "removed_branches=(Branch(tail=5, head=3),), contracted=(4, 5), "
        "introduced_leaf=None)])"
    )
    assert trace == ReductionTrace(list(steps)) != ReductionTrace(steps[:1])
    assert trace != steps and ReductionTrace() == ReductionTrace()


# ids in ((a,b),(c,d)): root 0, 1 -> {a=2, b=3}, 4 -> {c=5, d=6}


def test_replay_trace_rejects_branches_with_different_tails():
    text = "((a,b),(c,d));"
    step = ReductionStep("cherry", (Branch(1, 2), Branch(4, 5)), (), (1, "__r0"))
    with pytest.raises(InternalConsistencyError, match="no net cherry"):
        replay_trace(parse_network(text), parse_tree(text), ReductionTrace([step]))


def test_replay_trace_rejects_a_cherry_the_tree_lacks():
    # a and b are a net cherry, but the tree pairs a with c
    step = ReductionStep("cherry", (Branch(1, 2), Branch(1, 3)), (), (1, "__r0"))
    net, tree = parse_network("((a,b),(c,d));"), parse_tree("((a,c),(b,d));")
    with pytest.raises(InternalConsistencyError, match="no tree cherry"):
        replay_trace(net, tree, ReductionTrace([step]))
    # the same step replays where the tree holds a and b as siblings
    tree = parse_tree("((a,b),(c,d));")
    [_, (out_net, out_tree)] = replay_trace(net, tree, ReductionTrace([step]))
    assert out_net.label_set() == out_tree.label_set() == {"__r0", "c", "d"}
    out_net.require_valid(require_binary=True)


def test_replay_trace_rejects_a_cherry_step_on_a_non_cherry():
    # 0 is the root (not a strict tree vertex), and 1 has lost no leaf
    text = "((a,b),(c,d));"
    net, tree = parse_network(text), parse_tree(text)
    for branches, intro in (
        ((Branch(0, 1), Branch(0, 4)), (0, "__r0")),
        ((Branch(1, 3), Branch(1, 2)), (1, "__r0")),  # heads out of order
        ((Branch(1, 2), Branch(1, 3)), (4, "__r0")),
    ):
        step = ReductionStep("cherry", branches, (), intro)
        with pytest.raises(InternalConsistencyError):
            replay_trace(net, tree, ReductionTrace([step]))


def test_replay_trace_rejects_a_case_step_on_an_absent_branch():
    # the running example has no branch 0->99, and 0->1 cannot go twice
    net, tree = parse_network(RUNNING), parse_tree("((a,b),c);")
    for branches in ((Branch(0, 99),), (Branch(0, 1), Branch(0, 1))):
        step = ReductionStep("case_C", branches, ())
        with pytest.raises(InternalConsistencyError, match="no such branch") as err:
            replay_trace(net, tree, ReductionTrace([step]))
        assert str(err.value).startswith(step.to_line())


@pytest.mark.parametrize(
    "step",
    [
        ReductionStep("cherry", (Branch(1, 2),), (), (1, "__r0")),
        ReductionStep("cherry", (Branch(1, 2), Branch(1, 3)), (), None),
        ReductionStep("cherry", (Branch(1, 2), Branch(1, 3)), (), (1, "c")),
        ReductionStep("case_Z", (), ()),
        ReductionStep("case_C", (), ()),
    ],
    ids=["one-branch", "no-introduced-leaf", "live-label", "unknown-case", "no-branch"],
)
def test_replay_trace_rejects_a_malformed_step(step):
    # ids in ((a,b),(c,d)) as above; c is a live label
    text = "((a,b),(c,d));"
    with pytest.raises(InternalConsistencyError, match="malformed") as err:
        replay_trace(parse_network(text), parse_tree(text), ReductionTrace([step]))
    assert str(err.value).startswith(step.to_line())
