"""The eNewick parser against the parse chain it replaced.

`helpers.reference_parse` is the old parser, kept verbatim. Every text
goes through the four entry points (parse_network, parse_networks,
parse_tree, parse_trees) and through the reference in the same mode,
except that the large single-statement valid corpus goes through the two
single-statement ones; the streams cover the other two on valid input. An
accepted text must give the same networks: type, root, next id, the
child, parent and label maps item by item in order, the validation
memo (both outcomes and the topological order), `reticulations` and the
label -> vertex map (core._leaf_of) item by item. A parsed tree answers
those two from the parser's memos, the reference from its maps, so a
memo that is wrong shows here. A rejected one must give
the same exception text and the same diagnostics (offset, message,
severity).
"""

import functools
import importlib.util
import random
from pathlib import Path

from netdisplay.core import Network, _leaf_of
from netdisplay.errors import GenerationExhaustedError, NewickParseError
from netdisplay.generator import GenSpec, generate, random_tree
from netdisplay.newick_io import (
    parse_network,
    parse_networks,
    parse_tree,
    parse_trees,
    serialize,
)

from helpers import CASE_FIXTURES, GOLDEN, reference_parse

ENTRY_POINTS = (
    (parse_network, False, True),
    (parse_networks, False, False),
    (parse_tree, True, True),
    (parse_trees, True, False),
)

HAND_CASES = [
    # whitespace that str.isspace knows, and line breaks that splitlines
    # knows, around tokens and after comment lines
    "(a,\x85b);",
    "(a,\xa0b);",
    "\x1c(a,b);",
    "# comment\x85(a,b);",
    "# comment\x1c((a,(b)#H1),(#H1,c));",
    "#c\xa0\n(a,b);",
    # '#', '#H' and '#Hx' in every position
    "#",
    "#H",
    "#Hx",
    "(a,#);",
    "(a,#H);",
    "(a,#Hx);",
    "(a,b)#;",
    "(a,b)#H;",
    "((a,(b)#H),(#H,c));",
    "((a,(b)#H1x),(#H1,c));",
    "((a,(b)#H1#H2),(#H1,c));",
    "(a#H1#H2,b);",
    "#H1;",
    "a#H1;",
    "(a,b)#H1;",
    # a tokenizer error after a syntax error
    "((a,b);;$",
    "(a,,b);(c,d)!",
    ")(a,b);\x00",
    "(a,b)(c);#Hq",
    "(a,b);(c,__r1);",
    "((a,b),c);#H1__r",
    # '__r' inside a label that does not start with it: no error
    "(a__r1,b);",
    "((x__r,y),z);",
    # a dangling tag together with a duplicate label
    "((a,#H1),(a,c));",
    "((a,(b)#H1),(a,c));",
    "((a,#H2),((a)#H1,(#H1,c)));",
    # trees with both a hybrid and a polytomy
    "((a,b,c),((d)#H1,#H1));",
    "(((a)#H1,b,c),(#H1,d));",
    "((a,#H1,b),((c)#H2,(d,e,f)),#H3);",
    "(((a,b,c),(d)),(e,(f,g,h)));",
    "((a),(b,c,d));",
    "((a,b,c),(d));",
    # the rest of the grammar and of assembly
    "",
    "   \n\t",
    "a;",
    "a",
    "(a,b)",
    "(a,b);(c,d);",
    "(a,b);  # trailing",
    "(a,b)x,c);",
    "((a,b)x,c)y;",
    "((a,b)x#H1,(#H1,c));",
    "(#H1,(a)#H1);",
    "((a,#H1),#H1);",
    "(((a)#H1,b),((c)#H1,d));",
    "((a,(b)#H7),(#H7,c));",
    "((a,(b)#H01),(#H1,c));",
    "((#H1,a)#H1,b);",
    "(a,#H1)#H1;",
    "(#H2,((x)#H1,(#H1)#H2));",
    "((a,b),(a,c));",
    "(((a)),b);",
    "((a,(b)#H1,(#H1,c)),d);",
    "(a,b;",
    "(a,b));",
    "a,b;",
    "();",
    "(,a);",
    "(a,b)c d;",
]


def _shape(net: Network):
    return (
        type(net),
        net._root,
        net.next_id,
        list(net._out.items()),
        list(net._in.items()),
        list(net._labels.items()),
        net._cache.get("valid"),
        net._cache.get("topo"),
        net.reticulations,
        list(_leaf_of(net).items()),
    )


def _record(parse, text: str):
    try:
        got = parse(text)
    except NewickParseError as exc:
        diags = [(d.offset, d.message, d.severity) for d in exc.diagnostics]
        return "rejected", str(exc), diags
    return "accepted", [_shape(net) for net in (got if type(got) is list else [got])]


def _check(texts, entry_points=ENTRY_POINTS) -> dict:
    """Compare every text in every mode; return the outcome counts."""
    counts = {"accepted": 0, "rejected": 0}
    for text in texts:
        for parse, as_tree, single in entry_points:
            want = _record(
                lambda t: reference_parse(t, as_tree, single)[0 if single else slice(None)],
                text,
            )
            got = _record(parse, text)
            assert got == want, (parse.__name__, text)
            counts[got[0]] += 1
    return counts


def _load_bench_inputs():
    path = Path(__file__).resolve().parents[1] / "bench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("bench_inputs_for_tests", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@functools.cache
def ns_scaling_instances(seeds=(1, 101)) -> tuple[tuple[str, ...], ...]:
    """The ns-scaling builder's instances, as bench/workloads.py builds
    them: the network and displayed tree texts, and at n = 800 the
    split-cherry negative tree's. Built once per process: several test
    modules read them."""
    from netdisplay.core import classify

    inputs = _load_bench_inputs()
    instances = []
    for seed in seeds:
        for n, count in {100: 8, 200: 6, 400: 4, 800: 3}.items():
            for i in range(count):
                rng = random.Random(f"ns-scaling:{seed}:{n}:{i}")
                g = inputs.build_network(
                    n, n // 4, rng, lambda g: classify(Network(g.out, g.label))
                )
                tree = inputs.resolve(g, rng)
                texts = [inputs.enewick(g), inputs.enewick(tree)]
                if n == 800:
                    texts.append(inputs.enewick(tree, inputs.split_cherry_swap(g, rng)))
                instances.append(tuple(texts))
    return tuple(instances)


def ns_scaling_texts(seeds=(1, 101)) -> list[str]:
    """Every text of ns_scaling_instances, in order."""
    return [text for texts in ns_scaling_instances(seeds) for text in texts]


def generated_texts(draws: int = 2000, seed: int = 17) -> list[str]:
    """Serialized nearly stable draws at n = 3 to 60, each with a random
    tree on its labels."""
    rng = random.Random(seed)
    texts = []
    for i in range(draws):
        n = rng.randint(3, 60)
        m = rng.randint(0, n // 4 + 1)
        try:
            net = generate(GenSpec(n, m, "nearly_stable", seed * 100_000 + i))
        except GenerationExhaustedError:
            continue
        texts.append(serialize(net))
        texts.append(serialize(random_tree(sorted(net.label_set()), seed=i)))
    return texts


def fuzz_lite_texts() -> list[str]:
    rng = random.Random(99)
    alphabet = "()#;,Hh123abz _\t-.'\"\\\x00\xff"
    return [
        "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 30)))
        for _ in range(3000)
    ]


def latin1_texts(count: int = 20_000, seed: int = 606) -> list[str]:
    """Random byte strings as criterion 8 draws them, decoded as latin-1."""
    rng = random.Random(seed)
    texts = []
    for i in range(count):
        k = rng.randint(0, 40) if i % 10 else rng.randint(0, 200)
        texts.append(rng.randbytes(k).decode("latin-1"))
    return texts


def mutant_texts() -> list[str]:
    from test_cli_mutants import MUTATIONS, _corpus

    pairs = _corpus(seed=7000)
    texts = []
    for name, mutate in sorted(MUTATIONS.items()):
        rng = random.Random(name)
        texts += [mutate(net_text, rng) for net_text, _ in pairs]
    return texts


def valid_texts() -> list[str]:
    return (
        [rec["net"] for rec in GOLDEN]
        + [rec["tree"] for rec in GOLDEN]
        + list(CASE_FIXTURES.values())
        + generated_texts()
        + ns_scaling_texts()
    )


def stream_texts() -> list[str]:
    """Multi-statement files: golden trees, golden nets with comment
    lines between them, and both mixed."""
    trees = [rec["tree"] for rec in GOLDEN]
    nets = [rec["net"] for rec in GOLDEN]
    return [
        "\n".join(trees) + "\n",
        "# generated\n" + "\n# next\n".join(nets),
        "".join(nets + trees),
        "\n".join(trees[:5]) + "\n(a,b,c);\n" + trees[5],
        "\n".join(nets[:3]) + "\n((a,#H1),(b,c));\n" + nets[3],
    ]


def test_valid_corpus_matches_reference():
    texts = valid_texts()
    assert len(texts) == 2 * len(GOLDEN) + len(CASE_FIXTURES) + 4000 + 90
    counts = _check(texts, [(parse_network, False, True), (parse_tree, True, True)])
    # every text is accepted as a network; the tree texts also as trees
    assert counts["accepted"] >= 1.5 * len(texts)


def test_streams_match_reference():
    counts = _check(stream_texts())
    assert counts["accepted"] >= 2 and counts["rejected"] >= 2


def test_mutants_and_hand_cases_match_reference():
    texts = mutant_texts() + HAND_CASES
    counts = _check(texts)
    assert counts["rejected"] > len(texts)


def test_fuzz_strings_match_reference():
    texts = fuzz_lite_texts() + latin1_texts()
    counts = _check(texts)
    assert counts["accepted"] < counts["rejected"]
