"""Every freeze equals the public constructor on the same maps.

`NetworkEditor.freeze` and `_TreeEditor.freeze` build through
`Network._from_maps` on copies of the editors' maps (of the tree side,
the live maps that `replay_trace` keeps patched), and the parser and
`PhyloTree.from_network` build through it too. The fixture below wraps
both freezes, so that each network they return is compared with
`Network.__init__` (of the same class) on the child and label maps it
froze: the child, parent and label maps item by item, so in key order and
with the exact parent tuples, the root and the next id. Parent order is
visible output: the oracle's certificate enumerates `parents()` in order.
"""

import random
from collections import Counter

import pytest

from netdisplay.bounds import ns_to_rv_transform
from netdisplay.core import Branch, Network, NetworkEditor, PhyloTree, stability
from netdisplay.generator import GenSpec, generate, random_tree
from netdisplay.newick_io import parse_network, parse_tree, parse_trees
from netdisplay.reductions import _TreeEditor, replay_trace
from netdisplay.tcp import Resolution, apply_resolution, displays

from helpers import GOLDEN, RUNNING, class_sample, gen_with_fallback


def _same(got: Network, want: Network) -> None:
    assert type(got) is type(want)
    assert list(got._out.items()) == list(want._out.items())
    assert list(got._in.items()) == list(want._in.items())
    assert list(got._labels.items()) == list(want._labels.items())
    assert (got._root, got.next_id) == (want._root, want.next_id)


@pytest.fixture
def freezes(monkeypatch):
    """Counts of the checked freezes of each side, and of the net freezes
    whose editor's own parent tuples are not __init__'s: there a plain
    copy of them would be wrong."""
    seen = Counter()
    net_freeze, tree_freeze = NetworkEditor.freeze, _TreeEditor.freeze

    def checked_net(ed, **hints):
        got = net_freeze(ed, **hints)
        want = ed._cls(ed.out, ed.labels, next_id=ed._next)
        _same(got, want)
        seen["net"] += 1
        seen["reordered"] += list(ed.ins.items()) != list(want._in.items())
        return got

    def checked_tree(ted, live):
        # the maps the caller patched hold live()'s items, and the freeze
        # keeps copies of them
        got = tree_freeze(ted, live)
        assert (got._out, got._in, got._labels) == ted.live() == live
        assert not {id(got._out), id(got._in), id(got._labels)} & set(map(id, live))
        _same(got, ted._cls(got._out, got._labels, next_id=ted._next))
        seen["tree"] += 1
        return got

    monkeypatch.setattr(NetworkEditor, "freeze", checked_net)
    monkeypatch.setattr(_TreeEditor, "freeze", checked_tree)
    return seen


def _replay(net_text: str, tree_text: str) -> None:
    net, tree = parse_network(net_text), parse_tree(tree_text)
    replay_trace(net, tree, displays(net, tree).trace)


def test_golden_replays_freeze_as_init(freezes):
    for rec in GOLDEN:
        _replay(rec["net"], rec["tree"])
    assert freezes["net"] > 700 and freezes["tree"] > 600
    assert freezes["reordered"] > 100


def test_ns_scaling_replays_freeze_as_init(freezes):
    """The positive pairs of seeds 1 and 101 at n = 100 and 200, the first
    14 of each seed. The check costs a constructor call per freeze, about
    what a whole replay cost before, so n = 400 stays out of Tier-1."""
    from test_parse_differential import ns_scaling_instances

    instances = ns_scaling_instances()
    pairs = instances[:14] + instances[21:35]
    for net_text, tree_text in pairs:
        _replay(net_text, tree_text)
    assert len(pairs) == 28 and all(len(texts) == 2 for texts in pairs)
    assert freezes["tree"] > 3500 and freezes["reordered"] > 1100


def test_generator_freezes_as_init(freezes):
    """Draws of every class constraint, each tree grown and each candidate
    tangled on an editor, and random trees through from_network."""
    sample = class_sample(40, 29)
    for i, net in enumerate(sample):
        tree = random_tree(sorted(net.label_set()), seed=i)
        _same(tree, PhyloTree(tree._out, tree._labels, next_id=tree.next_id))
    assert freezes["net"] > 9000


def test_transform_and_resolutions_freeze_as_init(freezes):
    """ns_to_rv_transform on nearly stable draws with unstable
    reticulations, and apply_resolution on a random resolution of each."""
    rng = random.Random(31)
    transformed = 0
    for i in range(150):
        n = rng.randint(4, 25)
        net = gen_with_fallback(n, rng.randint(1, n), "nearly_stable", 3100 + i)
        rep = stability(net)
        if not all(rep.stable[r] for r in net.reticulations):
            ns_to_rv_transform(net)
            transformed += 1
        kept = [(r, Branch(rng.choice(net.parents(r)), r)) for r in net.reticulations]
        before = freezes["net"]
        assert type(apply_resolution(net, Resolution(tuple(kept)))) is PhyloTree
        assert freezes["net"] == before + 1
    assert transformed > 80 and freezes["reordered"] > 40


def test_appended_parents_come_back_in_key_order(freezes):
    """__init__ lists parents in the maps' key order: ascending ids here,
    the given order in a network built from a reversed dict, where new
    vertices still come last. add_branch appends; the freeze sorts the
    tuples it may have put out of order, before and after a vertex made
    since its first sort, and the editor keeps its own order."""
    ascending = {0: [1, 4], 1: [2, 3], 2: [], 3: [], 4: []}
    for out in (ascending, dict(reversed(ascending.items()))):
        ed = NetworkEditor(Network(out, {2: "a", 3: "b", 4: "c"}))
        s1, s2 = ed.new_vertex(), ed.new_vertex()
        ed.add_branch(s2, 2)  # made here, above every parent: comes last
        ed.add_branch(s1, 2)  # made here, below s2
        ed.add_branch(0, 2)  # from the source
        assert ed.freeze().parents(2) == ((0, 1) if out is ascending else (1, 0)) + (s1, s2)
        s3 = ed.new_vertex()
        ed.add_branch(s3, 2)
        ed.add_branch(4, 3)
        frozen = ed.freeze()
        assert ed.ins[2] == (1, s2, s1, 0, s3) and ed.ins[3] == (1, 4)
        assert frozen.parents(3) == ((1, 4) if out is ascending else (4, 1))
    assert freezes["net"] == 4 and freezes["reordered"] == 4


def test_from_network_shares_the_maps_and_not_the_memos():
    net = generate(GenSpec(9, 0, seed=4))
    net.require_valid()
    tree = PhyloTree.from_network(net)
    assert (tree._out, tree._in, tree._labels) == (net._out, net._in, net._labels)
    assert tree._out is net._out and tree._in is net._in and tree._labels is net._labels
    assert tree._cache == {} and "valid" in net._cache
    _same(tree, PhyloTree(net._out, net._labels, next_id=net.next_id))


def test_parsed_inputs_carry_no_reserved_label_memo():
    """The parser refuses the reserved namespace, so a parsed network or
    tree memoizes 0 as the first free ``__r<k>``, and the decide's set-up
    reads it in place of scanning the labels. A network built by the
    constructor or frozen from an editor has no memo."""
    net = parse_network(RUNNING)
    assert net._cache["fresh"] == 0
    assert all(t._cache["fresh"] == 0 for t in parse_trees("(a,(b,c));\n(c,(a,b));"))
    assert "fresh" not in Network(net._out, net._labels)._cache
    assert "fresh" not in NetworkEditor(net).freeze()._cache
    # a stand-in memo shows that set-up reads it: collapses start there
    net = parse_network("((a,b),c);")
    net._cache["fresh"] = 5
    verdict = displays(net, parse_tree("((a,b),c);"))
    assert verdict.displayed and verdict.trace.steps[0].introduced_leaf[1] == "__r5"
