"""The in-place reduction loop against references that rebuild everything.

`reference_suppress` is the full-sweep suppression, `reference_longest_path`
the whole longest-path dynamic program and `reference_displays` the loop
over frozen structures (all in helpers.py). The working state's seeded
sweep, cherry heap, reticulation set, kept longest-path table and
tree-parent map must reproduce them exactly.
"""

import random

import pytest

from netdisplay import tcp
from netdisplay.core import Branch, Network, NetworkEditor
from netdisplay.generator import GenSpec, generate
from netdisplay.newick_io import parse_network, parse_tree, serialize
from netdisplay.reductions import replay_trace
from netdisplay.tcp import LongestPaths, Resolution, apply_resolution, displays

from helpers import (
    GOLDEN,
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


def _assert_kept_paths(paths: LongestPaths, path: list) -> None:
    """The kept table agrees with a fresh run over the live graph on the
    path and on dist and pred of every live vertex."""
    live = paths.out
    ref_path, ref_dist, ref_pred = reference_longest_path(Network(live, {}))
    assert path == ref_path
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
    """Check the kept table at every path query displays makes; the
    queried paths are collected in the returned list."""
    real = tcp.find_longest_root_leaf_path
    queries = []

    def checked(paths):
        path = real(paths)
        _assert_kept_paths(paths, path)
        queries.append(path)
        return path

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


@pytest.mark.parametrize("n", [10, 20, 40, 80, 200])
def test_displays_matches_frozen_loop_on_generated(n, path_queries):
    rng = random.Random(n)
    rounds = 0
    for i in range(6 if n < 200 else 2):
        net = generate(GenSpec(n, n // 4, "nearly_stable", seed=900 + i))
        kept = tuple(
            (r, Branch(rng.choice(sorted(net.parents(r))), r))
            for r in net.reticulations
        )
        pos = apply_resolution(net, Resolution(kept))
        got = _assert_same_run(net, pos)
        assert got.displayed
        rounds += got.iterations
        _assert_same_run(net, _swapped(pos, rng))
    assert rounds > n // 4
    assert path_queries
