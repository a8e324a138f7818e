"""Census, per-class size bounds, dummy-free removals, the NS-to-RV rewiring."""

import itertools
import random

import pytest

from netdisplay import bounds, core
from netdisplay.bounds import (
    class_stats,
    ns_to_rv_transform,
    select_dummy_free_removal,
    verify_bounds,
)
from netdisplay.core import Network, NetworkEditor, classify
from netdisplay.errors import (
    ClassPreconditionError,
    InternalConsistencyError,
    InvalidNetworkError,
)
from netdisplay.generator import GenSpec, generate
from netdisplay.newick_io import canonical_equal, parse_network, serialize
from netdisplay.tcp import apply_resolution

from helpers import (
    NOT_NEARLY_STABLE,
    RUNNING,
    UNSTABLE_OVER_STABLE,
    UNSTABLE_OVER_STABLE_RV,
    class_sample,
    gen_with_fallback,
    reference_verify_bounds,
    reference_transform,
    same_network,
)

# two unstable-over-stable blocks under one root
TWO_BLOCKS = (
    "((((((lb)#H2)#H1,d),x1),(#H1,(#H2,x3))),"
    "(((((mb)#H4)#H3,e),y1),(#H3,(#H4,y3))));"
)


def test_stats_running_example():
    stats = class_stats(parse_network(RUNNING))
    assert stats.to_dict() == {
        "n_leaves": 3,
        "m_reticulations": 1,
        "s_ret": 1,
        "u_ret": 0,
        "tree_vertices": 3,
        "branches": 7,
    }


def test_stats_on_trees():
    stats = class_stats(parse_network("((a,b),(c,d));"))
    assert stats.branches == 2 * 4 - 2
    assert stats.tree_vertices == 3
    assert stats.m_reticulations == 0 and stats.u_ret == 0


def test_stats_unstable_over_stable_split():
    stats = class_stats(parse_network(UNSTABLE_OVER_STABLE))
    assert stats.n_leaves == 4
    assert stats.m_reticulations == 2
    assert stats.s_ret == 1
    assert stats.u_ret == 1


def test_stats_census_identity_on_random_networks():
    rng = random.Random(3)
    for i in range(300):
        n = rng.randint(2, 8)
        net = generate(GenSpec(n, rng.randint(0, 2 * (n - 1)), "any", seed=i))
        stats = class_stats(net)
        assert stats.tree_vertices == stats.n_leaves - 1 + stats.m_reticulations
        # indegree handshake: leaves 1, reticulations 2, tree vertices 1 bar the root
        assert stats.branches == 2 * stats.n_leaves - 2 + 3 * stats.m_reticulations


def test_verify_bounds_running_example():
    report = verify_bounds(parse_network(RUNNING))
    assert report.ok
    by_name = {c.name: c for c in report.checks}
    assert by_name["reticulations<=4(n-1)"].limit == 8
    assert by_name["reticulations<=12(n-1)"].limit == 24
    assert by_name["tree_vertices<=13(n-1)"].limit == 26
    assert by_name["branches<=38(n-1)"].limit == 76
    assert by_name["unstable<=2*stable"].observed == 0
    rows = report.to_rows()
    assert all(set(r) == {"name", "limit", "observed", "pass"} for r in rows)


def test_verify_bounds_outside_both_classes_is_empty():
    report = verify_bounds(parse_network(NOT_NEARLY_STABLE))
    assert report.checks == ()
    assert report.ok  # vacuously


def test_verify_bounds_nearly_stable_only():
    report = verify_bounds(parse_network(UNSTABLE_OVER_STABLE))
    names = {c.name for c in report.checks}
    assert "reticulations<=4(n-1)" not in names
    assert "unstable<=2*stable" in names
    assert report.ok


def _bound_rows(net):
    """verify_bounds' rows, or the type and message of what it raised."""
    try:
        return verify_bounds(net).to_rows()
    except Exception as exc:
        return type(exc), str(exc)


def _reference_bound_rows(net):
    try:
        return reference_verify_bounds(net).to_rows()
    except Exception as exc:
        return type(exc), str(exc)


def _variants(net):
    """The network, a non-binary copy with an extra leaf under the root, and
    that copy with its smallest leaf unlabeled: invalid both plainly and as
    a binary network, with a different message for each."""
    ed = NetworkEditor(net)
    leaf = ed.new_vertex()
    ed.add_branch(net.root, leaf)
    ed.labels[leaf] = "extra"
    wide = ed.freeze()
    del ed.labels[min(net.leaves)]
    return net, wide, ed.freeze()


def test_verify_bounds_matches_reference():
    sample = class_sample(40, 600) + [
        parse_network(text)
        for text in (RUNNING, UNSTABLE_OVER_STABLE, NOT_NEARLY_STABLE, "(a,b,c);")
    ]
    outcomes = set()
    for base in sample:
        for net in _variants(base):
            # fresh copies, so neither side reads the other's memo
            rows = _bound_rows(Network(net._out, net._labels))
            assert rows == _reference_bound_rows(Network(net._out, net._labels))
            outcomes.add(rows[0] if isinstance(rows, tuple) else len(rows))
    # empty, visible-only, nearly-stable-only and both; non-binary and
    # invalid inputs raise
    assert outcomes >= {0, 1, 4, 5, InvalidNetworkError}


def _removal_tails(net, res):
    kept = res.as_dict()
    tails = []
    for r in net.reticulations:
        tails.extend(p for p in net.parents(r) if p != kept[r].tail)
    return tails


def _has_dummy_before_suppression(net, res):
    kept = res.as_dict()
    ed = NetworkEditor(net)
    for r in net.reticulations:
        for p in net.parents(r):
            if p != kept[r].tail:
                ed.remove_branch(p, r)
    raw = ed.freeze()
    return any(
        not raw.children(v) and raw.label(v) is None for v in raw.vertices
    )


def test_dummy_free_removal_running_example():
    net = parse_network(RUNNING)
    res = select_dummy_free_removal(net)
    assert res.as_dict() == {3: (5, 3)}
    assert not _has_dummy_before_suppression(net, res)


def test_dummy_free_removal_distinct_tails_fixture():
    net = parse_network("(((a)#H1,(b)#H2),((#H1,c),(#H2,d)));")
    res = select_dummy_free_removal(net)
    tails = _removal_tails(net, res)
    assert len(tails) == len(set(tails))
    assert not _has_dummy_before_suppression(net, res)
    tree = apply_resolution(net, res)
    assert tree.label_set() == net.label_set()


def test_dummy_free_removal_requires_visibility():
    with pytest.raises(ClassPreconditionError):
        select_dummy_free_removal(parse_network(UNSTABLE_OVER_STABLE))


def test_dummy_free_removal_on_random_visible_networks():
    rng = random.Random(11)
    for i in range(200):
        n = rng.randint(2, 8)
        net = gen_with_fallback(
            n, rng.randint(0, min(6, 3 * (n - 1))), "reticulation_visible", i
        )
        res = select_dummy_free_removal(net)
        tails = _removal_tails(net, res)
        assert len(tails) == len(set(tails))
        assert not _has_dummy_before_suppression(net, res)


def _valid_removal_choices(net, rets):
    """Every choice of one removed in-branch tail per reticulation, by brute
    force, that gives each reticulation a distinct tail."""
    return {
        tails
        for tails in itertools.product(*(net.parents(r) for r in rets))
        if len(set(tails)) == len(tails)
    }


def test_try_augment_matches_brute_force_on_small_visible_networks():
    rng = random.Random(23)
    moved = 0
    for i in range(150):
        n = rng.randint(2, 6)
        net = gen_with_fallback(
            n, rng.randint(1, min(6, 3 * (n - 1))), "reticulation_visible", 500 + i
        )
        rets = net.reticulations
        match_of_tail: dict = {}
        for k, r in enumerate(rets):
            before = {h: t for t, h in match_of_tail.items()}
            bounds._try_augment(net, r, match_of_tail)
            tail_of = {h: t for t, h in match_of_tail.items()}
            done = rets[: k + 1]
            assert len(match_of_tail) == len(done)
            assert tuple(map(tail_of.get, done)) in _valid_removal_choices(net, done)
            assert tail_of[r] == min(net.parents(r))
            moved += sum(tail_of[h] != t for h, t in before.items())
    assert moved > 0  # some walks moved a holder to its other tail


def test_try_augment_raises_on_a_cycle_without_free_tail():
    # both reticulations have the same two tails; passing r1 in as
    # unmatched while it still holds t2 leaves the cycle no free tail
    net = parse_network("(((a)#H1,(b)#H2),(#H1,#H2));")
    r1, r2 = net.reticulations
    t1, t2 = sorted(net.parents(r1))
    with pytest.raises(InternalConsistencyError, match="no removal matching"):
        bounds._try_augment(net, r1, {t1: r2, t2: r1})


def test_dummy_free_removal_rejects_a_matching_off_the_parents(monkeypatch):
    # a matching that gives the reticulation a tail that is not its
    # parent leaves it both in-branches
    net = parse_network(RUNNING)
    (r,) = net.reticulations

    def off_parents(net, ret, match_of_tail):
        match_of_tail[-1 - ret] = ret

    monkeypatch.setattr(bounds, "_try_augment", off_parents)
    with pytest.raises(
        InternalConsistencyError,
        match=f"^reticulation {r} lacks a unique kept in-branch$",
    ):
        select_dummy_free_removal(net)


def test_transform_stabilizes_frozen_example():
    out, before, after = ns_to_rv_transform(parse_network(UNSTABLE_OVER_STABLE))
    assert serialize(out) == UNSTABLE_OVER_STABLE_RV
    assert (before.s_ret, before.u_ret) == (1, 1)
    assert (after.s_ret, after.u_ret) == (1, 0)
    assert classify(out).reticulation_visible


def test_transform_keeps_visible_networks_unchanged():
    net = parse_network(RUNNING)
    out, before, after = ns_to_rv_transform(net)
    assert canonical_equal(out, net)
    assert before == after


def test_transform_handles_independent_unstable_reticulations():
    net = parse_network(TWO_BLOCKS)
    assert classify(net).nearly_stable
    assert class_stats(net).u_ret == 2
    out, before, after = ns_to_rv_transform(net)
    assert classify(out).reticulation_visible
    assert out.label_set() == net.label_set()
    assert after.u_ret == 0
    assert before.s_ret <= after.s_ret <= before.s_ret + before.u_ret


def test_transform_freezes_once_and_computes_stability_on_input_and_output(
    monkeypatch,
):
    net = parse_network(TWO_BLOCKS)
    freezes = []
    seen = []  # keeps every network alive, so ids are not reused
    passes = []  # the networks whose stability pass ran, memo cold
    real_freeze = NetworkEditor.freeze
    real_stability = core._stability

    def counting_freeze(ed):
        freezes.append(ed)
        return real_freeze(ed)

    def counting_stability(n):
        seen.append(n)
        if "stab" not in n._cache:
            passes.append(n)
        return real_stability(n)

    def no_report(*args):
        raise AssertionError("the transform built a StabilityReport")

    monkeypatch.setattr(NetworkEditor, "freeze", counting_freeze)
    monkeypatch.setattr(core, "_stability", counting_stability)
    monkeypatch.setattr(bounds, "_stability", counting_stability)
    monkeypatch.setattr(core, "StabilityReport", no_report)
    out, before, after = ns_to_rv_transform(net)
    assert (before.u_ret, after.u_ret) == (2, 0)
    assert len(freezes) == 1
    assert {id(n) for n in seen} == {id(net), id(out)}
    assert [id(n) for n in passes] == [id(net), id(out)]


def _assert_transform_matches_reference(net):
    out, before, after = ns_to_rv_transform(net)
    ref_out, ref_before, ref_after = reference_transform(net)
    assert same_network(out, ref_out)
    assert serialize(out) == serialize(ref_out)
    assert (before, after) == (ref_before, ref_after)
    return before.u_ret


def test_transform_matches_reference_up_to_child_order():
    # The reference cuts in the order of each intermediate network's
    # topological sort, the one pass in the input's. Both make the same
    # cuts and contractions, but a vertex whose two children are both
    # replaced by contractions lists them in the order the contractions
    # ran. Here that order differs at one vertex, and serialize breaks the
    # tie between two children with the same smallest leaf by child order.
    net = gen_with_fallback(19, 33, "nearly_stable", 90_283)
    out, before, after = ns_to_rv_transform(net)
    ref_out, ref_before, ref_after = reference_transform(net)
    assert same_network(out, ref_out)
    assert (before, after) == (ref_before, ref_after)


def test_transform_matches_reference_on_small_draws():
    # drawn like criterion 5's corpus, from other seeds
    rng = random.Random(405)
    changed = 0
    for i in range(150):
        n = rng.randint(3, 8)
        net = gen_with_fallback(
            n, rng.randint(2, min(8, 2 * (n - 1))), "nearly_stable", 60_000 + i
        )
        changed += _assert_transform_matches_reference(net) > 0
    assert changed >= 30


def test_transform_matches_reference_up_to_200_leaves():
    changed = 0
    for n in (10, 20, 40, 80, 120, 200):
        for seed in range(2):
            net = gen_with_fallback(n, n // 2, "nearly_stable", 70_000 + 10 * n + seed)
            changed += _assert_transform_matches_reference(net) > 0
    assert changed >= 8


def test_transform_rejects_not_nearly_stable():
    with pytest.raises(ClassPreconditionError):
        ns_to_rv_transform(parse_network(NOT_NEARLY_STABLE))


def test_transform_invariants_on_random_networks():
    rng = random.Random(13)
    produced = 0
    for i in range(400):
        n = rng.randint(3, 8)
        net = gen_with_fallback(
            n, rng.randint(1, min(6, 2 * (n - 1))), "nearly_stable", 7000 + i
        )
        before = class_stats(net)
        if before.u_ret == 0:
            continue
        out, b2, after = ns_to_rv_transform(net)
        assert classify(out).reticulation_visible
        assert out.label_set() == net.label_set()
        assert b2 == before
        assert before.s_ret <= after.s_ret <= before.s_ret + before.u_ret
        produced += 1
    assert produced >= 30


def test_unstable_at_most_twice_stable_everywhere():
    rng = random.Random(19)
    for i in range(300):
        n = rng.randint(2, 8)
        net = gen_with_fallback(n, rng.randint(0, 2 * (n - 1)), "nearly_stable", i)
        stats = class_stats(net)
        assert stats.u_ret <= 2 * stats.s_ret
