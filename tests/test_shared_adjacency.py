"""Editors share the input's adjacency tuples and never edit the input.

A NetworkEditor copies the network's two adjacency dicts and shares every
child and parent tuple with it; an edit rebinds the tuples it changes.
These tests pin both halves: every entry point that builds an editor
leaves its inputs as they were, and a vertex no edit touched still holds
the input's own tuple at the end of a decide.
"""

import random

import pytest

from netdisplay import bounds, reductions
from netdisplay.core import Branch, NetworkEditor, in_class
from netdisplay.errors import InternalConsistencyError
from netdisplay.generator import GenSpec, generate, random_tree
from netdisplay.newick_io import parse_network, parse_tree
from netdisplay.reductions import ReductionState, replay_trace
from netdisplay.tcp import (
    Resolution,
    apply_resolution,
    displays,
    find_longest_root_leaf_path,
    match_case,
)

from helpers import GOLDEN


def _snapshot(net) -> tuple:
    """Value copies of a network's maps, tuple values copied too."""
    return (
        {v: tuple(cs) for v, cs in net._out.items()},
        {v: tuple(ps) for v, ps in net._in.items()},
        dict(net._labels),
    )


def _resolution(net, rng: random.Random) -> Resolution:
    return Resolution(
        tuple((r, Branch(rng.choice(sorted(net.parents(r))), r)) for r in net.reticulations)
    )


def _check_inputs_unedited(net, tree) -> None:
    """displays, replay_trace, ns_to_rv_transform and apply_resolution
    leave the maps of the network and the tree as they found them."""
    before = _snapshot(net), _snapshot(tree)
    verdict = displays(net, tree)
    replay_trace(net, tree, verdict.trace)
    if in_class(net, "nearly_stable"):
        bounds.ns_to_rv_transform(net)
    apply_resolution(net, _resolution(net, random.Random(len(net))))
    assert (_snapshot(net), _snapshot(tree)) == before


@pytest.mark.parametrize("rec", GOLDEN, ids=[r["name"] for r in GOLDEN])
def test_inputs_unedited_on_golden(rec):
    _check_inputs_unedited(parse_network(rec["net"]), parse_tree(rec["tree"]))


def test_inputs_unedited_on_generated():
    rng = random.Random(18)
    for i in range(40):
        n = rng.randint(4, 40)
        net = generate(GenSpec(n, rng.randint(0, n // 3), "nearly_stable", seed=i))
        displayed = apply_resolution(net, _resolution(net, rng))
        other = random_tree(sorted(net.label_set()), seed=i)
        for tree in (displayed, other):
            _check_inputs_unedited(net, tree)


def test_editor_shares_tuples_until_an_edit_rebinds_them():
    net = parse_network("((a,(b)#H1),(#H1,c));")
    ed = NetworkEditor(net)
    assert all(ed.out[v] is net._out[v] and ed.ins[v] is net._in[v] for v in net._out)
    r = net.reticulations[0]
    p = min(net.parents(r))
    ed.remove_branch(p, r)
    assert ed.out[p] == tuple(c for c in net.children(p) if c != r)
    assert ed.out[p] is not net._out[p] and r in net._out[p]
    untouched = set(net._out) - {p, r}
    assert all(ed.out[v] is net._out[v] for v in untouched)


def test_decide_keeps_untouched_input_tuples(monkeypatch):
    """In one n = 200 decide, every live vertex that no removal round or
    cherry collapse touched holds the input's own child and parent
    tuples, right after set-up and at the verdict: building the working
    state copies no adjacency value."""
    net = generate(GenSpec(200, 50, "nearly_stable", seed=900))
    kept = tuple((r, Branch(min(net.parents(r)), r)) for r in net.reticulations)
    tree = apply_resolution(net, Resolution(kept))
    touched: set = set()
    states: list = []
    real_prune, real_collapse = NetworkEditor.prune, reductions._collapse_cherry
    real_init = ReductionState.__init__

    def prune(self, branches):
        contracted, seen = real_prune(self, branches)
        touched.update(seen)
        return contracted, seen

    def collapse(ned, ted, l1, l2, p, lab):
        touched.update((l1, l2, p))
        return real_collapse(ned, ted, l1, l2, p, lab)

    def init(self, *args):
        real_init(self, *args)
        states.append(self)
        shared = [v for v in net._out if self.net.out[v] is net._out[v]]
        assert len(shared) == len(net) == len(self.net.out)
        assert all(self.net.ins[v] is net._in[v] for v in net._in)

    monkeypatch.setattr(NetworkEditor, "prune", prune)
    monkeypatch.setattr(reductions, "_collapse_cherry", collapse)
    monkeypatch.setattr(ReductionState, "__init__", init)
    assert displays(net, tree).displayed
    (state,) = states
    out, ins = state.net.out, state.net.ins
    untouched = [v for v in out if v not in touched]
    assert len(untouched) >= 10
    for v in untouched:
        assert out[v] is net._out[v] and ins[v] is net._in[v], v


def test_fail_match_prints_adjacency_as_lists():
    net = parse_network("(((a,b),c),d);")
    with pytest.raises(InternalConsistencyError) as err:
        match_case(NetworkEditor(net), find_longest_root_leaf_path(net))
    assert str(err.value) == (
        "parent 2 of the path leaf is not a reticulation; local structure:\n"
        "  0: in=[] out=[1, 6]\n"
        "  1: in=[0] out=[2, 5]\n"
        "  2: in=[1] out=[3, 4]\n"
        "  3: in=[2] out=[] label=a"
    )
