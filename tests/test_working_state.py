"""The in-place reduction loop against references that rebuild everything.

`reference_suppress` is the full-sweep suppression, `reference_longest_path`
the whole longest-path dynamic program, `reference_displays` the loop over
frozen structures and `reference_collapse_cherry` the cherry collapse on
full editors of both sides (all in helpers.py). The working state's seeded
sweep, cherry heap, reticulation set, kept longest-path table and
parent-map tree side must reproduce them exactly.
"""

import copy
import heapq
import random
import re

import pytest

from netdisplay import reductions, tcp
from netdisplay.core import Branch, Network, NetworkEditor, PhyloTree, require_tree
from netdisplay.errors import InternalConsistencyError
from netdisplay.generator import GenSpec, generate, random_tree
from netdisplay.newick_io import parse_network, parse_tree, serialize
from netdisplay.reductions import ReductionState, replay_trace
from netdisplay.tcp import LongestPaths, Resolution, apply_resolution, displays

from helpers import (
    GOLDEN,
    RUNNING,
    ReferenceTreeEditor,
    reference_collapse_cherry,
    reference_displays,
    reference_longest_path,
    reference_suppress,
    tree_from_shape,
)


def _graph(ed: NetworkEditor):
    return ed.out, ed.ins, ed.labels, ed.root


def _check_seeded_suppress(net: Network, removed) -> list[int]:
    """Remove branches from a valid network, suppress seeded from their
    ends and by the full sweep, and compare; returns the contracted ids."""
    seeded, full = NetworkEditor(net), NetworkEditor(net)
    for b in removed:
        full.remove_branch(*b)
    contracted, touched = seeded.prune(removed)
    assert contracted == reference_suppress(full)
    assert _graph(seeded) == _graph(full)
    # every surviving vertex whose adjacency changed was reported touched
    for v in seeded.out:
        if (tuple(seeded.out[v]), sorted(seeded.ins[v])) != (
            net.children(v),
            sorted(net.parents(v)),
        ):
            assert v in touched
    return contracted


def _assert_kept_paths(paths: LongestPaths, path: list, limit=None) -> None:
    """The kept table agrees with a fresh run over the live graph on dist
    and pred of every live vertex, and `path` is the reference path, or
    its last `limit` vertices."""
    live = paths.out
    ref_path, ref_dist, ref_pred = reference_longest_path(Network(live, {}))
    assert path == (ref_path if limit is None else ref_path[-limit:])
    assert {v: paths.dist[v] for v in live} == ref_dist
    assert {v: paths.pred[v] for v in live} == ref_pred


def _check_kept_paths_after_removal(net: Network, removed) -> None:
    """Query a kept table, remove branches and suppress as a case round
    does, then query it again."""
    ed = NetworkEditor(net)
    changed: set = set()
    paths = LongestPaths(ed.out, ed.ins, net.topological_order(), changed)
    _assert_kept_paths(paths, paths.path())
    changed.update(ed.prune(removed)[1])
    _assert_kept_paths(paths, paths.path())


@pytest.fixture
def path_queries(monkeypatch):
    """Check the kept table at every path query displays makes, and that
    each query returns the last four vertices of the reference path (all
    of it when shorter); the returned tails are collected in the list."""
    real = tcp.find_longest_root_leaf_path
    queries = []

    def checked(paths):
        tail = real(paths)
        _assert_kept_paths(paths, tail, 4)
        queries.append(tail)
        return tail

    monkeypatch.setattr(tcp, "find_longest_root_leaf_path", checked)
    return queries


def test_seeded_suppress_matches_full_sweep_on_golden_case_steps():
    steps = 0
    for rec in GOLDEN:
        net, tree = parse_network(rec["net"]), parse_tree(rec["tree"])
        trace = displays(net, tree).trace
        states = replay_trace(net, tree, trace)
        for (before, _), step in zip(states, trace.steps):
            if step.kind == "cherry":
                continue
            contracted = _check_seeded_suppress(before, step.removed_branches)
            assert tuple(contracted) == step.contracted
            steps += 1
    assert steps > 100


def test_seeded_suppress_parallel_merge():
    # removing 2->4 leaves 2 with parent 1 and child 3, and 1->3 exists:
    # the sweep drops 2->3 instead of contracting, and 2 dies as a dead end
    net = Network(
        {
            0: [1, 6], 1: [2, 3], 2: [3, 4], 3: [5], 4: [7],
            5: [], 6: [4, 8], 7: [], 8: [],
        },
        {5: "a", 7: "b", 8: "c"},
    )
    net.require_valid(require_binary=True)
    contracted = _check_seeded_suppress(net, [Branch(2, 4)])
    assert 2 not in contracted
    _check_kept_paths_after_removal(net, [Branch(2, 4)])
    ed = NetworkEditor(net)
    ed.prune([Branch(2, 4)])
    assert 2 not in ed.out
    assert serialize(ed.freeze()) == "(a,(b,c));"


def test_seeded_suppress_root_chain():
    # removing the root's branch into the reticulation leaves the root
    # with one child, so the root itself is contracted away
    net = Network({0: [1, 3], 1: [2, 3], 2: [], 3: [4], 4: []}, {2: "a", 4: "b"})
    net.require_valid(require_binary=True)
    assert _check_seeded_suppress(net, [Branch(0, 3)]) == [0, 3]
    # the new root's distance drops to 0, and so does every one below it
    _check_kept_paths_after_removal(net, [Branch(0, 3)])
    ed = NetworkEditor(net)
    ed.prune([Branch(0, 3)])
    assert ed.root == 1


def _assert_same_run(net, tree):
    got = displays(net, tree)
    ref = reference_displays(net, tree)
    assert got.displayed == ref.displayed
    assert got.iterations == ref.iterations
    assert got.certificate == ref.certificate
    assert got.trace.to_text() == ref.trace.to_text()
    return got


@pytest.mark.parametrize("rec", GOLDEN, ids=[r["name"] for r in GOLDEN])
def test_displays_matches_frozen_loop_on_golden(rec, path_queries):
    _assert_same_run(parse_network(rec["net"]), parse_tree(rec["tree"]))


def _swapped(tree, rng):
    """The tree with two random leaf labels exchanged."""
    labels = sorted(tree.label_set())
    a, b = rng.sample(labels, 2)
    swap = {a: b, b: a}

    def shape(v):
        if tree.is_leaf(v):
            lab = tree.label(v)
            return swap.get(lab, lab)
        return tuple(shape(c) for c in tree.children(v))

    return tree_from_shape(shape(tree.root))


def _generated_pairs(n, rng):
    """(net, displayed tree, swapped tree) of generated nearly stable
    networks on n leaves with n // 4 reticulations."""
    for i in range(6 if n < 200 else 2):
        net = generate(GenSpec(n, n // 4, "nearly_stable", seed=900 + i))
        kept = tuple(
            (r, Branch(rng.choice(sorted(net.parents(r))), r))
            for r in net.reticulations
        )
        pos = apply_resolution(net, Resolution(kept))
        yield net, pos, _swapped(pos, rng)


@pytest.mark.parametrize("n", [10, 20, 40, 80, 200])
def test_displays_matches_frozen_loop_on_generated(n, path_queries):
    rng = random.Random(n)
    rounds = cases = 0
    for i, (net, pos, swapped) in enumerate(_generated_pairs(n, rng)):
        trees = [pos, swapped]
        if n <= 40:
            # a random tree's negative may stop with collapses pending
            trees.append(random_tree(sorted(net.label_set()), seed=i))
        for tree in trees:
            got = _assert_same_run(net, tree)
            assert got.displayed or tree is not pos
            rounds += got.iterations
            cases += sum(step.kind != "cherry" for step in got.trace.steps)
    assert rounds > n // 4
    # each case round queries the path once; the oracle tail does not
    assert len(path_queries) == cases


def _assert_same_tree_side(ted, ref: ReferenceTreeEditor) -> None:
    """The label-map tree side holds what the full tree editor holds: the
    same label -> leaf map, the same label -> parent map read through the
    source tree's parent tuples, the same live vertices and parents, and
    the same frozen tree."""
    assert ted.leaf == {lab: v for v, lab in ref.labels.items()}
    assert list(ted.leaf) == list(ref.labels.values())
    assert {lab: (ted.tin[v] or [None])[0] for lab, v in ted.leaf.items()} == ref.parent_of
    ins = ted.live()[1]
    assert ins == {v: tuple(ps) for v, ps in ref.ins.items()}
    assert [v for v, ps in ins.items() if not ps] == [ref.root]
    got, want = ted.freeze(ted.live()), ref.freeze()
    assert type(got) is type(want) and got.next_id == want.next_id
    assert got._out == want._out and got._labels == want._labels
    assert list(got._labels.items()) == list(want._labels.items())


@pytest.fixture
def shadowed_collapses(monkeypatch):
    """Run every cherry collapse, of displays and of replay_trace, also on
    full editors of both sides with the reference collapse, and compare.
    The reference tree editor starts from the tree the working state was
    built from (only collapses edit the tree side) and follows it; the net
    side is copied before each collapse, since case rounds edit it in
    between. Returns the list of (net editor, tree side) pairs seen, one
    entry per collapse."""
    real = reductions._collapse_cherry
    shadows: dict = {}  # id(tree side) -> (tree side, reference editor)
    seen: list = []

    def shadowed(ned, ted, l1, l2, p, lab):
        if id(ted) not in shadows:
            # before its first collapse the tree side freezes to its source
            shadows[id(ted)] = (ted, ReferenceTreeEditor(ted.freeze(ted.live())))
        ref_ted = shadows[id(ted)][1]
        ref_ned = copy.deepcopy(ned)
        row = real(ned, ted, l1, l2, p, lab)
        step = reductions._step_of(row)
        assert reference_collapse_cherry(ref_ned, ref_ted, l1, l2, p, lab) == step
        assert (ned.out, ned.ins) == (ref_ned.out, ref_ned.ins)
        assert ned.labels == ref_ned.labels
        _assert_same_tree_side(ted, ref_ted)
        seen.append((ned, ted))
        return row

    monkeypatch.setattr(reductions, "_collapse_cherry", shadowed)
    return seen


def _decide_and_replay(net, tree, seen: list) -> int:
    """displays, then replay_trace of its trace, both shadowed; returns the
    number of cherry steps, after checking both runs collapsed each."""
    start = len(seen)
    trace = displays(net, tree).trace
    replay_trace(net, tree, trace)
    cherries = sum(step.kind == "cherry" for step in trace.steps)
    assert len(seen) - start == 2 * cherries
    return cherries


def test_tree_side_matches_full_editor_on_golden(shadowed_collapses):
    cherries = sum(
        _decide_and_replay(
            parse_network(rec["net"]), parse_tree(rec["tree"]), shadowed_collapses
        )
        for rec in GOLDEN
    )
    assert cherries > 300


def test_tree_side_matches_full_editor_on_generated(shadowed_collapses):
    rng = random.Random(13)
    cherries = 0
    for i in range(100):
        n = rng.randint(5, 40)
        m = rng.randint(1, n // 3 + 1)
        net = generate(GenSpec(n, m, "nearly_stable", seed=3000 + i))
        kept = tuple(
            (r, Branch(rng.choice(sorted(net.parents(r))), r))
            for r in net.reticulations
        )
        pos = apply_resolution(net, Resolution(kept))
        cherries += _decide_and_replay(net, pos, shadowed_collapses)
        cherries += _decide_and_replay(net, _swapped(pos, rng), shadowed_collapses)
    assert cherries > 1000


def test_tree_side_freezes_without_history_on_golden():
    """Carry every step of each golden decide on a net editor and a tree
    side that never freezes in between, with the reference collapse on
    full editors beside them; one freeze at the end equals the
    reference's."""
    cherries = 0
    for rec in GOLDEN:
        net, tree = parse_network(rec["net"]), parse_tree(rec["tree"])
        ned, ted = NetworkEditor(net), reductions._TreeEditor(tree)
        ref_ned, ref_ted = NetworkEditor(net), ReferenceTreeEditor(tree)
        for step in displays(net, tree).trace.steps:
            if step.kind != "cherry":
                ned.prune(step.removed_branches)
                ref_ned.prune(step.removed_branches)
                continue
            (p, l1), (_, l2) = step.removed_branches
            lab = step.introduced_leaf[1]
            reductions._collapse_cherry(ned, ted, l1, l2, p, lab)
            reference_collapse_cherry(ref_ned, ref_ted, l1, l2, p, lab)
            cherries += 1
        got, want = ted.freeze(ted.live()), ref_ted.freeze()
        assert got._out == want._out and got.next_id == want.next_id
        assert list(got._labels.items()) == list(want._labels.items())
    assert cherries > 300


def test_tree_side_is_one_label_map_over_the_parsed_tree():
    """Set-up builds one n-entry map on the tree side and holds the parsed
    tree's parent and child maps themselves; each collapse removes one
    entry, and no collapse edits the parsed tree."""
    net, tree = _n200_pair()
    tree = parse_tree(serialize(tree))
    tin, tout = dict(tree._in), dict(tree._out)
    state = ReductionState(net, tree)
    ted = state.tree
    maps = {k for k, v in vars(ted).items() if isinstance(v, dict)}
    assert maps == {"tin", "tout", "leaf"}
    assert ted.tin is tree._in and ted.tout is tree._out and len(ted.leaf) == 200
    l1, l2, p = heapq.heappop(state.common)
    reductions._collapse_cherry(state.net, ted, l1, l2, p, "x0")
    assert ted.tin is tree._in and len(ted.leaf) == 199
    state.collapse_cherries()
    cherries = len(state.rows)
    assert cherries > 10 and len(ted.leaf) == 199 - cherries
    assert ted.tin is tree._in and tree._in == tin
    assert ted.tout is tree._out and tree._out == tout


def test_decides_leave_the_parsed_tree_label_map_as_parsed():
    """A parsed tree carries the parser's label -> vertex map and its memo
    of no reticulation. A whole decide, with its pending collapses run,
    and a replay of its trace leave that map as parsed: the tree side
    edits a copy. Over the golden pairs and the ns-scaling instances of
    seeds 1 and 101, the split-cherry negatives included."""
    from test_parse_differential import ns_scaling_instances

    pairs = [(rec["net"], rec["tree"], True) for rec in GOLDEN]
    for net_text, *tree_texts in ns_scaling_instances():
        pairs += [(net_text, text, False) for text in tree_texts]
    negatives = 0
    for net_text, tree_text, replay in pairs:
        net, tree = parse_network(net_text), parse_tree(tree_text)
        memo = tree._cache["leaf_of"]
        parsed = list(memo.items())
        assert tree._cache["rets"] == () and len(parsed) == len(tree._labels)
        verdict = displays(net, tree)
        verdict.trace.to_text()  # runs the pending collapses
        if replay:
            replay_trace(net, tree, verdict.trace)
        assert tree._cache["leaf_of"] is memo and list(memo.items()) == parsed
        negatives += not verdict.displayed
    assert len(pairs) == len(GOLDEN) + 48 and negatives >= 6


class _CountingDict(dict):
    """A dict that logs every read of its values into `log`."""

    def __init__(self, data, log: list, event: str):
        super().__init__(data)
        self._log, self._event = log, event

    def __getitem__(self, key):
        self._log.append(self._event)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self._log.append(self._event)
        return super().get(key, default)

    def items(self):
        self._log.append(self._event)
        return super().items()

    def values(self):
        self._log.append(self._event)
        return super().values()


def _n200_pair():
    net = generate(GenSpec(200, 50, "nearly_stable", seed=900))
    kept = tuple((r, Branch(min(net.parents(r)), r)) for r in net.reticulations)
    return net, apply_resolution(net, Resolution(kept))


class _KeyLog(dict):
    """A dict that logs the key of every `[]` read while `on` is set."""

    def __init__(self, data, log: list, on: list):
        super().__init__(data)
        self._log, self._on = log, on

    def __getitem__(self, key):
        if self._on:
            self._log.append(key)
        return super().__getitem__(key)


def test_displays_builds_one_lean_working_state(monkeypatch):
    """Counts, not times, over one decide at n = 200 that ends in the
    oracle tail: one NetworkEditor (the net side), no Network built, no
    tree-side freeze, no call of oracle_displays, and the tree's child
    lists read only by the tail, once per vertex of the live tree, which
    is a small part of the tree; and the set-up cherry scan reads child
    lists only at parents of leaves, once each at most, with no cherry
    test call, and files exactly the cherries a cherry test of every
    vertex finds."""
    net, tree = _n200_pair()
    require_tree(tree)  # memoizes the checks displays makes of the tree
    events: list = []
    tree._out = _CountingDict(tree._out, events, "tree child list")
    in_setup: list = []
    setup_child_reads: list = []
    net._out = _KeyLog(net._out, setup_child_reads, in_setup)

    def logged(owner, name, event):
        real = getattr(owner, name)

        def wrapper(*args, **kwargs):
            events.append(event)
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    logged(NetworkEditor, "__init__", "editor")
    logged(Network, "__init__", "network")
    logged(reductions._TreeEditor, "freeze", "tree freeze")
    logged(tcp, "oracle_displays", "oracle")
    real_tail, tail_leaves = tcp._tail_displays, []

    def tail(state):
        events.append("tail")
        tail_leaves.append(len(state.tree.leaf))
        return real_tail(state)

    monkeypatch.setattr(tcp, "_tail_displays", tail)
    setup_cherry_tests: list = []
    states: list = []
    real_init, real_cherry_at = ReductionState.__init__, reductions._cherry_at

    def init(self, *args):
        in_setup.append(True)
        real_init(self, *args)
        in_setup.pop()
        states.append((list(self.common), set(self.one_sided)))

    def cherry_at(out, ins, v):
        if in_setup:
            setup_cherry_tests.append(v)
        return real_cherry_at(out, ins, v)

    monkeypatch.setattr(ReductionState, "__init__", init)
    monkeypatch.setattr(reductions, "_cherry_at", cherry_at)
    assert displays(net, tree).displayed
    (k,) = tail_leaves  # a binary tree on k leaves has 2k - 1 vertices
    assert events == ["editor", "tail"] + ["tree child list"] * (2 * k - 1)
    assert 2 * k - 1 < len(tree) // 4
    assert setup_cherry_tests == []
    leaf_parents = {net.parents(v)[0] for v in net.leaves}
    assert len(setup_child_reads) == len(set(setup_child_reads)) > 10
    assert set(setup_child_reads) <= leaf_parents
    common, one_sided = _filed_by_cherry_tests(net, tree)
    ((setup_common, setup_one_sided),) = states
    assert sorted(setup_common) == sorted(common) and setup_one_sided == one_sided
    assert common and not one_sided


def _filed_by_cherry_tests(net: Network, tree: PhyloTree) -> tuple[list, set]:
    """The sorted common cherries (l1, l2, p) and the parents of the
    one-sided ones that a cherry test of every vertex of the net finds,
    as _note_cherry files them."""
    sides = {tree.label(v): tree.parents(v)[0] for v in tree.leaves}
    common, one_sided = [], set()
    for v in net.vertices:
        found = reductions._cherry_at(net._out, net._in, v)
        if found is None:
            continue
        l1, l2, _ = found
        if sides[net.label(l1)] == sides[net.label(l2)]:
            common.append(found)
        else:
            one_sided.add(v)
    return sorted(common), one_sided


def test_split_cherry_negative_runs_one_stability_pass_and_no_path_query(
    monkeypatch,
):
    """Counts over one split-cherry negative decide at n = 200: the net
    cherry whose labels the tree splits is filed one-sided at set-up, so
    the decide runs the stability pass once, decided by the leaf chains
    without the dominator pass, builds no StabilityReport, never runs
    LongestPaths' first pass, collapses no cherry and builds no
    NetworkEditor. Set-up reads the net's labelled leaves only up to the
    second leaf of the first one-sided cherry in label order. The first
    len of its trace files the rest, builds the one editor and runs the
    pending collapses, one per row, the rows of a state that files every
    cherry and collapses at once; later reads run none."""
    import netdisplay.core as core

    net, tree = _n200_pair()
    net = parse_network(serialize(net))  # with a cold stability memo
    # a net cherry under a vertex with one parent survives every resolution
    p = next(
        v for v in net.vertices
        if len(net.parents(v)) == 1 and reductions._cherry_at(net._out, net._in, v)
    )
    l1, l2 = net.children(p)
    l3 = next(v for v in net.leaves if v not in (l1, l2))
    swap = {net.label(l2): net.label(l3), net.label(l3): net.label(l2)}
    tree = parse_tree(serialize(PhyloTree(
        tree._out, {v: swap.get(lab, lab) for v, lab in tree._labels.items()}
    )))
    # the leaves in label order up to the first one-sided cherry's second
    tparent = {tree.label(v): tree.parents(v)[0] for v in tree.leaves}
    met, order = {}, list(net._labels)
    for stop, leaf in enumerate(order):
        q = net.parents(leaf)[0]
        other = met.setdefault(q, leaf)
        cherry = reductions._cherry_at(net._out, net._in, q)
        if other != leaf and cherry and tparent[net.label(leaf)] != tparent[net.label(other)]:
            break
    assert 0 < stop < len(order) - 10
    in_setup: list = []
    leaf_reads: list = []
    net._in = _KeyLog(net._in, leaf_reads, in_setup)
    real_init = ReductionState.__init__

    def init(self, *args):
        in_setup.append(True)
        real_init(self, *args)
        in_setup.pop()

    monkeypatch.setattr(ReductionState, "__init__", init)
    passes: list = []
    dominated: list = []
    firsts: list = []
    collapses: list = []
    editors: list = []
    real_stability, real_first = core._stability, LongestPaths._first
    real_dominators = core._dominators
    real_collapse = reductions._collapse_cherry
    real_editor = NetworkEditor.__init__

    def counting_stability(n):
        if "stab" not in n._cache:
            passes.append(n)
        return real_stability(n)

    def counting_dominators(n):
        dominated.append(n)
        return real_dominators(n)

    def counting_first(self):
        firsts.append(self)
        return real_first(self)

    def counting_collapse(*args):
        collapses.append(args)
        return real_collapse(*args)

    def counting_editor(self, source):
        editors.append(source)
        real_editor(self, source)

    def no_report(*args):
        raise AssertionError("the decide built a StabilityReport")

    monkeypatch.setattr(core, "_stability", counting_stability)
    monkeypatch.setattr(core, "_dominators", counting_dominators)
    monkeypatch.setattr(core, "StabilityReport", no_report)
    monkeypatch.setattr(LongestPaths, "_first", counting_first)
    monkeypatch.setattr(reductions, "_collapse_cherry", counting_collapse)
    monkeypatch.setattr(NetworkEditor, "__init__", counting_editor)
    got = displays(net, tree)
    assert not got.displayed
    assert got.iterations == 1
    assert passes == [net]
    assert dominated == []
    assert firsts == []
    assert collapses == []
    assert editors == []
    leaves = set(net._labels)
    assert [v for v in leaf_reads if v in leaves] == order[: stop + 1]
    in_setup.append(True)  # log the reads that the pending collapses make
    rows = len(got.trace)
    in_setup.pop()
    assert rows > 10 and len(collapses) == rows
    assert editors == [net]
    assert [v for v in leaf_reads if v in leaves] == order
    assert len(got.trace) == rows
    text = got.trace.to_text()
    assert len(collapses) == rows and editors == [net]
    assert [line.split()[0] for line in text.splitlines()] == ["cherry"] * rows
    eager = ReductionState(net, tree)
    eager.net  # files every cherry
    assert (sorted(eager.common), eager.one_sided) == _filed_by_cherry_tests(net, tree)
    eager.collapse_cherries()
    assert got.trace == reductions.ReductionTrace(eager.rows)


def test_fresh_labels_start_above_the_reserved_labels_of_the_input():
    """The API-built net (((a,b),(__r3,__r7)),c), whose labels the parser
    would refuse, gets ``__r8`` as its first fresh label: on a positive,
    and on a negative that the one-sided cherry (a,b), first in label
    order, decides at set-up, before set-up reaches the common cherry or
    reads the labels for the next fresh one. Reading that negative's
    trace files and collapses the common cherry."""
    out = {0: [1, 8], 1: [2, 3], 2: [4, 5], 3: [6, 7], 4: [], 5: [], 6: [], 7: [], 8: []}
    labels = {4: "a", 5: "b", 6: "__r3", 7: "__r7", 8: "c"}
    net = Network(out, labels)
    same = displays(net, PhyloTree(out, labels))
    assert same.displayed
    assert [s.introduced_leaf[1] for s in same.trace.steps] == [
        "__r8", "__r9", "__r10"
    ]
    split = {**labels, 5: "c", 8: "b"}  # (((a,c),(__r3,__r7)),b)
    got = displays(net, PhyloTree(out, split))
    assert not got.displayed and got.iterations == 1
    assert got.trace.to_text() == "cherry removed=3->6,3->7 contracted= introduced=3:__r8"


def test_removal_rounds_refile_only_live_vertices(monkeypatch):
    """Counts over one decide at n = 200: removal rounds touch vertices
    that prune deletes, and no cherry test runs on any of them."""
    net, tree = _n200_pair()
    deleted_touched: list = []
    real_prune = NetworkEditor.prune

    def prune(self, branches):
        contracted, touched = real_prune(self, branches)
        deleted_touched.extend(v for v in touched if v not in self.out)
        return contracted, touched

    tests_on: list = []  # (vertex, live) per cherry test
    real_cherry_at = reductions._cherry_at

    def cherry_at(out, ins, v):
        tests_on.append((v, v in out))
        return real_cherry_at(out, ins, v)

    monkeypatch.setattr(NetworkEditor, "prune", prune)
    monkeypatch.setattr(reductions, "_cherry_at", cherry_at)
    got = displays(net, tree)
    assert sum(step.kind != "cherry" for step in got.trace.steps) > 10
    assert len(deleted_touched) > 10
    assert tests_on and all(live for _, live in tests_on)


def test_trace_builds_steps_only_when_read(monkeypatch):
    """Counts over one decide at n = 200: the decide builds no
    ReductionStep, and no Branch for its cherry steps; the first read of
    the trace builds one step per row, and a second read builds none."""
    net, tree = _n200_pair()
    built = {"steps": 0, "branches": 0}
    real_init, real_branch = reductions.ReductionStep.__init__, reductions.Branch

    def init(self, *args, **kwargs):
        built["steps"] += 1
        real_init(self, *args, **kwargs)

    def branch(*args):
        built["branches"] += 1
        return real_branch(*args)

    monkeypatch.setattr(reductions.ReductionStep, "__init__", init)
    monkeypatch.setattr(reductions, "Branch", branch)
    trace = displays(net, tree).trace
    rows = len(trace)
    assert built == {"steps": 0, "branches": 0}
    steps = trace.steps
    cherries = sum(step.kind == "cherry" for step in steps)
    assert cherries > 100 and rows - cherries > 10
    assert len(steps) == len(trace) == rows
    assert built == {"steps": rows, "branches": 2 * cherries}
    assert trace.steps is steps and trace.to_text()
    assert built == {"steps": rows, "branches": 2 * cherries}


@pytest.fixture
def checked_tails(monkeypatch):
    """Compare every oracle tail displays runs with oracle_displays on the
    frozen sides of the same working state: the same verdict and the same
    chosen in-branches. Returns the list of tail verdicts seen."""
    real = tcp._tail_displays
    seen: list = []

    def checked(state):
        frozen = state.net.freeze(), state.tree.freeze(state.tree.live())
        want = tcp.oracle_displays(*frozen).certificate
        got = real(state)
        assert got == want
        seen.append(got is not None)
        return got

    monkeypatch.setattr(tcp, "_tail_displays", checked)
    return seen


def test_tail_matches_oracle_on_golden(checked_tails):
    for rec in GOLDEN:
        displays(parse_network(rec["net"]), parse_tree(rec["tree"]))
    assert len(checked_tails) > len(GOLDEN) // 2
    assert True in checked_tails


@pytest.mark.parametrize("n", [10, 20, 40, 80, 200])
def test_tail_matches_oracle_on_generated(n, checked_tails):
    for net, pos, swapped in _generated_pairs(n, random.Random(n)):
        assert displays(net, pos).displayed
        displays(net, swapped)
    assert True in checked_tails


def test_tail_matches_oracle_on_random_trees(checked_tails):
    # a swapped tree mostly ends in a one-sided cherry before the tail; a
    # random tree on the labels reaches it with either verdict
    rng = random.Random(5)
    for i in range(200):
        n = rng.randint(4, 12)
        net = generate(GenSpec(n, rng.randint(1, 4), "nearly_stable", seed=5000 + i))
        displays(net, random_tree(sorted(net.label_set()), i))
    assert checked_tails.count(True) > 5 and checked_tails.count(False) > 5


def _running_state():
    return ReductionState(parse_network(RUNNING), parse_tree("((a,b),c);"))


def test_tail_decides_the_running_example():
    found = tcp._tail_displays(_running_state())
    assert found is not None and len(found.kept_in_branch) == 1


def _subdivide_net_branch(state):
    ned = state.net
    leaf = min(ned.labels)
    ned.subdivide(ned.ins[leaf][0], leaf)


def _relabel_net_leaf(state):
    state.net.labels[min(state.net.labels)] = "zz"


def _drop_tree_leaf(state):
    ted = state.tree
    del ted.leaf[min(ted.leaf, key=ted.leaf.get)]  # the smallest leaf's label


@pytest.mark.parametrize(
    "breaks, message",
    [
        (_subdivide_net_branch, "(net): suppressible vertex (indegree 1, outdegree 1)"),
        (_relabel_net_leaf, "leaf label sets differ"),
        (_drop_tree_leaf, "(tree): suppressible vertex (indegree 1, outdegree 1)"),
    ],
)
def test_tail_rejects_a_broken_working_state(breaks, message):
    state = _running_state()
    breaks(state)
    with pytest.raises(InternalConsistencyError, match=re.escape(message)):
        tcp._tail_displays(state)


def test_path_queries_walk_only_the_tail(monkeypatch):
    """Counts, not times, over one decide at n = 200: each longest-path
    query reads at most four `pred` entries, whatever the path's length,
    and the first query relaxes in one pass, popping nothing from a heap
    of order positions."""
    net, tree = _n200_pair()
    reads: list = []
    real_init = LongestPaths.__init__

    def init(self, *args):
        real_init(self, *args)
        self.pred = _CountingDict(self.pred, reads, "pred")

    pops: list = []
    real_pop = heapq.heappop

    def pop(heap):
        item = real_pop(heap)
        pops.append(item)
        return item

    queries: list = []  # (pred reads, positions popped, full path length)
    real_find = tcp.find_longest_root_leaf_path

    def find(paths):
        start_reads, start_pops = len(reads), len(pops)
        tail = real_find(paths)
        positions = [p for p in pops[start_pops:] if isinstance(p, int)]
        length = paths.dist[tail[-1]] + 1 if tail else 0
        queries.append((len(reads) - start_reads, positions, length))
        return tail

    monkeypatch.setattr(LongestPaths, "__init__", init)
    monkeypatch.setattr(heapq, "heappop", pop)
    monkeypatch.setattr(tcp, "find_longest_root_leaf_path", find)
    displays(net, tree)
    assert len(queries) > 10
    assert max(length for _, _, length in queries) > 10
    assert all(n_reads <= 4 for n_reads, _, _ in queries)
    assert queries[0][1] == []
    # later queries do relax from the heap, so the pop counter sees them
    assert any(positions for _, positions, _ in queries[1:])
