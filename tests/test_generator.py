"""Seeded generation: determinism, class soundness, exhaustion behavior."""

import functools
import random
import time

import pytest

from netdisplay.core import NetworkEditor, classify, validate
from netdisplay.errors import GenerationExhaustedError
from netdisplay.generator import RNG_NAME, GenSpec, generate, random_tree
from netdisplay.newick_io import serialize
from netdisplay.tcp import displays, find_longest_root_leaf_path, match_case
from netdisplay.reductions import _cherry_at

from helpers import gen_with_fallback, reference_generate


def test_rng_name_is_pinned():
    assert RNG_NAME == "mt19937"


def test_generate_is_deterministic():
    for seed in (0, 1, 7, 12345):
        a = generate(GenSpec(6, 3, "nearly_stable", seed=seed))
        b = generate(GenSpec(6, 3, "nearly_stable", seed=seed))
        assert serialize(a) == serialize(b)
    assert serialize(generate(GenSpec(6, 3, seed=1))) != serialize(
        generate(GenSpec(6, 3, seed=2))
    )


def test_generate_tree_when_no_reticulations():
    net = generate(GenSpec(5, 0, seed=4))
    assert net.num_reticulations == 0
    assert net.label_set() == {"t1", "t2", "t3", "t4", "t5"}
    assert validate(net, require_binary=True).ok


def test_generate_single_leaf():
    net = generate(GenSpec(1, 0, seed=0))
    assert len(net.vertices) == 1
    assert net.label(net.root) == "t1"


def test_generate_single_leaf_cannot_take_reticulations():
    with pytest.raises(GenerationExhaustedError) as err:
        generate(GenSpec(1, 1, seed=0, max_rejections=50))
    assert err.value.rejections == 50


def test_proven_exhaustion_raises_without_drawing_out_the_budget():
    # one leaf has no branch to tangle; two leaves take one tree-child
    # reticulation at most (a tree-child network has at most n - 1)
    for spec, placed in (
        (GenSpec(1, 1, max_rejections=10**9), 0),
        (GenSpec(2, 2, "tree_child", max_rejections=10**9), 1),
        (GenSpec(3, 3, "tree_child", seed=5, max_rejections=10**9), 2),
    ):
        t0 = time.perf_counter()
        with pytest.raises(GenerationExhaustedError) as err:
            generate(spec)
        assert time.perf_counter() - t0 < 10
        assert err.value.rejections == 10**9
        assert err.value.placed == placed
        assert str(err.value) == (
            f"gave up after {10**9} rejected tanglings with "
            f"{placed} of {spec.target_reticulations} reticulations placed"
        )


def _outcome(gen, spec):
    try:
        return serialize(gen(spec))
    except GenerationExhaustedError as exc:
        return (str(exc), exc.rejections)


def test_generate_matches_reference_generator():
    # every draw, every network and every error as when each turn builds
    # and classifies its candidate afresh
    rng = random.Random(4242)
    exhausted = 0
    for i in range(240):
        n = rng.randint(1, 10)
        spec = GenSpec(
            n,
            rng.randint(0, 3 * n),
            ("any", "tree_child", "reticulation_visible", "nearly_stable")[i % 4],
            seed=rng.randrange(10**6),
            max_rejections=rng.choice((50, 200)),
        )
        got = _outcome(generate, spec)
        assert got == _outcome(reference_generate, spec), spec
        exhausted += isinstance(got, tuple)
    assert 40 <= exhausted <= 200


def test_fallback_to_placed_matches_stepping_down_one_at_a_time():
    def step_by_one(n, rets, constraint, seed):
        for m in range(rets, -1, -1):
            try:
                return generate(GenSpec(n, m, constraint, seed=seed, max_rejections=2500))
            except GenerationExhaustedError:
                continue

    rng = random.Random(31)
    stepped = 0
    for i in range(30):
        n = rng.randint(2, 4)
        args = (n, rng.randint(n, 3 * n), ("reticulation_visible", "nearly_stable")[i % 2], i)
        net = gen_with_fallback(*args)
        assert serialize(net) == serialize(step_by_one(*args))
        stepped += net.num_reticulations < args[1] - 1
    assert stepped >= 5


def test_spec_validation():
    with pytest.raises(ValueError):
        GenSpec(0)
    with pytest.raises(ValueError):
        GenSpec(3, -1)
    with pytest.raises(ValueError):
        GenSpec(3, 1, "tree-child")
    with pytest.raises(ValueError):
        GenSpec(3, 1, max_rejections=-2)
    with pytest.raises(ValueError, match="leaf labels must be distinct"):
        random_tree(["a", "a"])


def test_random_tree_labels_and_shape():
    tree = random_tree(["c", "a", "b"], seed=9)
    assert tree.label_set() == {"a", "b", "c"}
    assert len(list(tree.branches())) == 4
    assert serialize(random_tree(["c", "a", "b"], seed=9)) == serialize(tree)


@pytest.mark.parametrize(
    "constraint", ["tree_child", "reticulation_visible", "nearly_stable"]
)
def test_generated_networks_satisfy_their_class(constraint):
    # request within what each class can absorb so retries stay rare
    ceiling = {
        "tree_child": lambda n: n - 1,
        "reticulation_visible": lambda n: min(5, 2 * (n - 1)),
        "nearly_stable": lambda n: min(7, 2 * (n - 1)),
    }[constraint]
    rng = random.Random(hash(constraint) & 0xFFFF)
    for i in range(1000):
        n = rng.randint(2, 8)
        net = gen_with_fallback(n, rng.randint(0, ceiling(n)), constraint, i)
        assert validate(net, require_binary=True).ok
        flags = classify(net)
        assert getattr(flags, constraint)
        assert net.n_leaves == n


def test_generated_reticulation_count_matches_target():
    for i in range(50):
        net = generate(GenSpec(7, 3, "nearly_stable", seed=i))
        assert net.num_reticulations == 3


@functools.cache
def _reduction_inputs():
    """(network, longest path) pairs of generated cherry-free nearly stable
    networks that the reduction loop would hand to the case dispatch."""
    rng = random.Random(77)
    inputs = []
    for i in range(300):
        n = rng.randint(4, 8)
        net = gen_with_fallback(n, rng.randint(3, 2 * (n - 1)), "nearly_stable", i)
        has_cherry = any(_cherry_at(net._out, net._in, v) for v in net.vertices)
        if net.num_reticulations < 3 or has_cherry:
            continue
        path = find_longest_root_leaf_path(net)
        if len(path) < 4:
            continue
        inputs.append((net, path))
    return inputs


def test_every_reduction_input_matches_some_case():
    # totality: any cherry-free nearly-stable network with enough structure
    # is accepted by the dispatcher
    inputs = _reduction_inputs()
    matched = {match_case(NetworkEditor(net), path).case_id for net, path in inputs}
    assert matched >= {"A", "C"}
    assert matched <= set("ABCDEFGHIJ")


def test_match_case_reads_a_network_as_an_editor_of_it(monkeypatch):
    # the rules read only the editor's maps, and leave them as they were:
    # the working state's editor, edited in place by earlier rounds,
    # matches as a fresh editor of the network it freezes to
    from netdisplay import tcp
    from netdisplay.newick_io import parse_network
    from helpers import CASE_FIXTURES

    real = tcp.match_case
    cases: list = []

    def checked(ed, path):
        before = (dict(ed.out), dict(ed.ins), dict(ed.labels))
        got = real(ed, path)
        assert (ed.out, ed.ins, ed.labels) == before
        assert real(NetworkEditor(ed.freeze()), path) == got
        cases.append(got.case_id)
        return got

    monkeypatch.setattr(tcp, "match_case", checked)
    nets = [parse_network(text) for text in CASE_FIXTURES.values()]
    nets += [net for net, _ in _reduction_inputs()]
    per_decide = []
    for i, net in enumerate(nets):
        start = len(cases)
        displays(net, random_tree(sorted(net.label_set()), seed=i))
        per_decide.append(len(cases) - start)
    assert set(cases) >= {"A", "C"}
    # a decide's second match reads an editor that its first case edited
    assert sum(k > 1 for k in per_decide) > len(nets) // 2


def test_case_coverage_with_fixture_supplement():
    from netdisplay.newick_io import parse_network
    from helpers import CASE_FIXTURES

    seen = set()
    for text in CASE_FIXTURES.values():
        net = parse_network(text)
        path = find_longest_root_leaf_path(net)
        seen.add(match_case(NetworkEditor(net), path).case_id)
    assert seen == set("ABCDEFGHIJ")


def test_generated_networks_feed_the_decider():
    rng = random.Random(55)
    for i in range(60):
        n = rng.randint(3, 7)
        net = gen_with_fallback(n, rng.randint(1, n), "nearly_stable", 300 + i)
        tree = random_tree(sorted(net.label_set()), seed=i)
        verdict = displays(net, tree)
        assert isinstance(verdict.displayed, bool)
