"""Acceptance suite: eight end-to-end criteria, one verdict line each.

Every test prints one ``ACCEPTANCE k: PASS/FAIL - detail`` line. Wall
times are reported in the detail but only the substantive properties are
asserted; the budgets in parentheses are the expectations the suite was
sized against.
"""

import random
import statistics
import time

from netdisplay.bounds import class_stats, select_dummy_free_removal, ns_to_rv_transform
from netdisplay.cli import main
from netdisplay.core import Branch, NetworkEditor, classify
from netdisplay.errors import NewickParseError
from netdisplay.generator import random_tree
from netdisplay.newick_io import canonical_equal, parse_network, serialize
from netdisplay.reductions import replay_trace
from netdisplay.tcp import Resolution, apply_resolution, displays, oracle_displays

import pytest

from helpers import gen_with_fallback


def _report(k, ok, detail):
    print(f"ACCEPTANCE {k}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {k}: {detail}"


def _resolved_tree(net, rng):
    kept = tuple(
        (r, Branch(rng.choice(sorted(net.parents(r))), r))
        for r in net.reticulations
    )
    return apply_resolution(net, Resolution(kept))


@pytest.fixture(scope="module")
def ns_instances():
    """2000 nearly-stable (network, tree) pairs, alternating between a
    tree obtained by resolving the network and an unrelated random one."""
    rng = random.Random(101)
    out = []
    for i in range(2000):
        n = rng.randint(2, 8)
        net = gen_with_fallback(
            n, rng.randint(0, min(10, 2 * (n - 1))), "nearly_stable", 10_000 + i
        )
        if i % 2 == 0:
            tree = _resolved_tree(net, rng)
        else:
            tree = random_tree(sorted(net.label_set()), seed=i)
        out.append((net, tree))
    return out


@pytest.fixture(scope="module")
def rv_networks():
    rng = random.Random(202)
    return [
        gen_with_fallback(
            n := rng.randint(2, 10),
            rng.randint(0, min(8, 3 * (n - 1))),
            "reticulation_visible",
            20_000 + i,
        )
        for i in range(1000)
    ]


@pytest.fixture(scope="module")
def ns_networks():
    rng = random.Random(303)
    return [
        gen_with_fallback(
            n := rng.randint(2, 10),
            rng.randint(0, min(10, 3 * (n - 1))),
            "nearly_stable",
            30_000 + i,
        )
        for i in range(1000)
    ]


def test_criterion_1_oracle_equivalence(ns_instances):
    t0 = time.perf_counter()
    disagreements = 0
    for net, tree in ns_instances:
        if displays(net, tree).displayed != oracle_displays(net, tree).displayed:
            disagreements += 1
    dt = time.perf_counter() - t0
    _report(
        1,
        disagreements == 0,
        f"{len(ns_instances)} instances, {disagreements} disagreements "
        f"({dt:.1f}s, budget 120s)",
    )


def test_criterion_2_visible_reticulation_bound(rv_networks):
    t0 = time.perf_counter()
    violations = [
        net
        for net in rv_networks
        if net.num_reticulations > 4 * (net.n_leaves - 1)
    ]
    dt = time.perf_counter() - t0
    _report(
        2,
        len(rv_networks) == 1000 and not violations,
        f"{len(rv_networks)} reticulation-visible networks, "
        f"{len(violations)} exceed 4(n-1) ({dt:.1f}s, budget 60s)",
    )


def test_criterion_3_nearly_stable_size_bounds(ns_networks):
    t0 = time.perf_counter()
    violations = 0
    for net in ns_networks:
        stats = class_stats(net)
        n1 = stats.n_leaves - 1
        if not (
            stats.m_reticulations <= 12 * n1
            and stats.tree_vertices <= 13 * n1
            and stats.branches <= 38 * n1
        ):
            violations += 1
    dt = time.perf_counter() - t0
    _report(
        3,
        len(ns_networks) == 1000 and violations == 0,
        f"{len(ns_networks)} nearly-stable networks, {violations} outside "
        f"the 12/13/38(n-1) bounds ({dt:.1f}s, budget 60s)",
    )


def test_criterion_4_dummy_free_removal(rv_networks):
    t0 = time.perf_counter()
    failures = 0
    for net in rv_networks:
        res = select_dummy_free_removal(net)
        kept = res.as_dict()
        tails = []
        ed = NetworkEditor(net)
        for r in net.reticulations:
            for p in net.parents(r):
                if p != kept[r].tail:
                    tails.append(p)
                    ed.remove_branch(p, r)
        raw = ed.freeze()
        dummy = any(
            not raw.children(v) and raw.label(v) is None
            for v in raw.vertices
        )
        if dummy or len(tails) != len(set(tails)):
            failures += 1
    dt = time.perf_counter() - t0
    _report(
        4,
        failures == 0,
        f"{len(rv_networks)} removal selections, {failures} produced a "
        f"shared tail or a pre-suppression dummy ({dt:.1f}s)",
    )


def test_criterion_5_stabilizing_transform():
    t0 = time.perf_counter()
    rng = random.Random(404)
    transformed = 0
    failures = 0
    ratio_failures = 0
    draws = 0
    while transformed < 500:
        draws += 1
        n = rng.randint(3, 8)
        net = gen_with_fallback(
            n, rng.randint(2, min(8, 2 * (n - 1))), "nearly_stable", 50_000 + draws
        )
        before = class_stats(net)
        if before.u_ret > 2 * before.s_ret:
            ratio_failures += 1
        if before.u_ret == 0:
            continue
        out, _, after = ns_to_rv_transform(net)
        ok = (
            classify(out).reticulation_visible
            and out.label_set() == net.label_set()
            and before.s_ret <= after.s_ret <= before.s_ret + before.u_ret
        )
        if not ok:
            failures += 1
        transformed += 1
    dt = time.perf_counter() - t0
    _report(
        5,
        failures == 0 and ratio_failures == 0,
        f"{transformed} transforms ({draws} draws), {failures} transform "
        f"failures, {ratio_failures} inputs broke unstable<=2*stable "
        f"({dt:.1f}s)",
    )


def test_criterion_6_quadratic_scaling(capsys):
    t0 = time.perf_counter()
    assert main(["bench", "--sizes", "50,100,200,400", "--seed", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n,m,wall_time_s,iterations"
    rows = [line.split(",") for line in lines[1:]]
    medians = {}
    iteration_bound_ok = True
    for n_s, m_s, dt_s, it_s in rows:
        n, m, wall, iters = int(n_s), int(m_s), float(dt_s), int(it_s)
        medians.setdefault(n, []).append(wall)
        if iters > m + n:
            iteration_bound_ok = False
    med = {n: statistics.median(ws) for n, ws in medians.items()}
    ratios = [med[100] / med[50], med[200] / med[100], med[400] / med[200]]
    dt = time.perf_counter() - t0
    _report(
        6,
        iteration_bound_ok and all(r <= 5.0 for r in ratios),
        "doubling ratios "
        + "/".join(f"{r:.2f}" for r in ratios)
        + f" (limit 5.0), iteration bound "
        f"{'held' if iteration_bound_ok else 'broken'} "
        f"({dt:.1f}s, budget 300s)",
    )


def test_criterion_7_stepwise_soundness():
    t0 = time.perf_counter()
    rng = random.Random(505)
    failures = 0
    checked_states = 0
    for i in range(1000):
        n = rng.randint(3, 8)
        net = gen_with_fallback(
            n, rng.randint(1, min(8, 2 * (n - 1))), "nearly_stable", 70_000 + i
        )
        tree = (
            _resolved_tree(net, rng)
            if i % 2 == 0
            else random_tree(sorted(net.label_set()), seed=i)
        )
        verdict = displays(net, tree)
        for s_net, s_tree in replay_trace(net, tree, verdict.trace):
            checked_states += 1
            if (
                oracle_displays(s_net, s_tree).displayed != verdict.displayed
                or not classify(s_net).nearly_stable
            ):
                failures += 1
    dt = time.perf_counter() - t0
    _report(
        7,
        failures == 0,
        f"1000 reduction runs, {checked_states} intermediate states, "
        f"{failures} verdict or class breaks ({dt:.1f}s)",
    )


def test_criterion_8_parser_robustness(ns_instances, rv_networks, ns_networks):
    t0 = time.perf_counter()
    rng = random.Random(606)
    crashes = 0
    for i in range(100_000):
        k = rng.randint(0, 40) if i % 10 else rng.randint(0, 200)
        text = rng.randbytes(k).decode("latin-1")
        try:
            parse_network(text)
        except NewickParseError:
            pass
        except Exception:
            crashes += 1
    corpus = (
        [net for net, _ in ns_instances] + rv_networks + ns_networks
    )
    round_trip_failures = 0
    for net in corpus:
        text = serialize(net)
        again = parse_network(text)
        if not canonical_equal(net, again) or serialize(again) != text:
            round_trip_failures += 1
    dt = time.perf_counter() - t0
    _report(
        8,
        crashes == 0 and round_trip_failures == 0,
        f"100000 fuzz inputs, {crashes} crashes; {len(corpus)} round "
        f"trips, {round_trip_failures} failures ({dt:.1f}s)",
    )
