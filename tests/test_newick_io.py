"""Extended Newick parsing and canonical serialization."""

import random

import pytest

from netdisplay.core import Network, PhyloTree, validate
from netdisplay.errors import NewickParseError
from netdisplay.generator import GenSpec, generate, random_tree
from netdisplay.newick_io import (
    canonical_equal,
    parse_network,
    parse_networks,
    parse_tree,
    parse_trees,
    serialize,
)

from helpers import CASE_FIXTURES, GOLDEN, RUNNING, reference_validate


def test_parse_running_example_shape():
    net = parse_network(RUNNING)
    assert len(net.vertices) == 7
    assert net.num_reticulations == 1
    assert net.label_set() == {"a", "b", "c"}


def test_parse_cherry():
    net = parse_network("(a,b);")
    assert net.num_reticulations == 0
    assert net.n_leaves == 2


def test_parse_unmatched_hybrid_tag():
    with pytest.raises(NewickParseError) as err:
        parse_network("((a,(b)#H1),(#H2,c));")
    assert "hybrid tag" in str(err.value)


@pytest.mark.parametrize("digit", ["\u00b9", "\u00b2", "\u00b3", "\u0661"])
def test_hybrid_tag_takes_ascii_digits_only(digit):
    # superscripts pass str.isdigit but not int(); Arabic-Indic digits pass
    # both, so they used to alias #H1
    with pytest.raises(NewickParseError) as err:
        parse_network(f"((a,(b)#H{digit}),(#H{digit},c));")
    (diag,) = err.value.diagnostics
    assert (diag.offset, diag.message) == (
        7,
        "invalid hybrid tag: expected digits after '#H'",
    )


def test_parse_hybrid_with_two_subtrees_rejected():
    with pytest.raises(NewickParseError):
        parse_network("(((a)#H1,b),((c)#H1,d));")


def test_parse_diagnostics_carry_offsets():
    with pytest.raises(NewickParseError) as err:
        parse_network("((a,b);")
    diags = err.value.diagnostics
    assert diags
    assert all(d.offset >= 0 for d in diags)


@pytest.mark.parametrize(
    "parse, text, offset, message",
    [
        (parse_network, "(#H1,(a)#H1);", 7, "parallel branches"),
        (parse_network, "((a,#H1),#H1);", 0, "no child subtree at any occurrence"),
        (parse_tree, "((a),b);", 3, "unary internal vertex"),
    ],
)
def test_parse_structural_diagnostics(parse, text, offset, message):
    with pytest.raises(NewickParseError) as err:
        parse(text)
    (diag,) = err.value.diagnostics
    assert diag.offset == offset
    assert message in diag.message


def test_internal_labels_are_dropped():
    assert serialize(parse_network("((a,b)x,c);")) == "((a,b),c);"


def test_parse_trailing_content_rejected():
    with pytest.raises(NewickParseError):
        parse_network("(a,b);(c,d);")


def test_parse_networks_multiple_statements():
    nets = parse_networks("(a,b);\n# a comment line\n((a,(b)#H1),(#H1,c));\n")
    assert len(nets) == 2
    assert nets[1].num_reticulations == 1


def test_parse_empty_input_rejected():
    with pytest.raises(NewickParseError):
        parse_network("")
    with pytest.raises(NewickParseError):
        parse_network("   \n# only a comment\n")


def test_parse_reserved_label_namespace_rejected():
    with pytest.raises(NewickParseError):
        parse_network("(__r0,b);")


def test_parse_tree_examples():
    tree = parse_tree("((a,b),c);")
    assert tree.n_leaves == 3
    with pytest.raises(NewickParseError):
        parse_tree("(a,b,c);")
    with pytest.raises(NewickParseError):
        parse_tree(RUNNING)


def test_parse_trees_stream():
    trees = parse_trees("((a,b),c);\n(a,b);\n")
    assert [t.n_leaves for t in trees] == [3, 2]


def test_duplicate_leaf_label_rejected():
    with pytest.raises(NewickParseError):
        parse_network("(a,a);")


def test_whitespace_between_tokens_allowed():
    net = parse_network("( ( a , ( b ) #H1 ) , ( #H1 , c ) ) ;")
    assert canonical_equal(net, parse_network(RUNNING))


def test_serialize_single_leaf_and_cherry():
    assert serialize(parse_network("a;")) == "a;"
    assert serialize(parse_network("(b,a);")) == "(a,b);"


def test_serialize_round_trip_running_example():
    net = parse_network(RUNNING)
    again = parse_network(serialize(net))
    assert canonical_equal(net, again)


def test_serialize_renumbers_hybrid_tags():
    net = parse_network("((a,(b)#H7),(#H7,c));")
    assert "#H1" in serialize(net)
    assert "#H7" not in serialize(net)


def test_parse_tree_builds_each_tree_once(monkeypatch):
    # the parser builds through Network._from_maps, never through __init__
    built = []
    real = Network._from_maps.__func__

    def counting(cls, *args):
        built.append(real(cls, *args))
        return built[-1]

    def unused(self, *args, **kwargs):
        raise AssertionError("the parser called Network.__init__")

    monkeypatch.setattr(Network, "_from_maps", classmethod(counting))
    monkeypatch.setattr(Network, "__init__", unused)
    for rec in GOLDEN:
        built.clear()
        tree = parse_tree(rec["tree"])
        assert built == [tree]
    built.clear()
    trees = parse_trees("\n".join(rec["tree"] for rec in GOLDEN))
    assert built == trees


def test_parsed_inputs_answer_validation_from_the_memo(monkeypatch):
    import netdisplay.core as core

    parsed = [parse_network(rec["net"]) for rec in GOLDEN]
    parsed += [parse_tree(rec["tree"]) for rec in GOLDEN]
    parsed += parse_trees("(a,b);\n((a,b),c);") + parse_networks(RUNNING)

    def unused(*args):
        raise AssertionError("a parsed input was checked again")

    monkeypatch.setattr(core, "_topological_order", unused)
    monkeypatch.setattr(core, "_violations", unused)
    for x in parsed:
        assert validate(x, False).ok and validate(x, True).ok
        order = x.topological_order()
        if type(x) is PhyloTree:  # pre-order ids are a topological order
            assert order == tuple(range(len(x)))


def test_parsed_maps_share_one_int_object_per_vertex():
    # ids above 256 are distinct int objects in CPython; a dict finds a key
    # by identity before it compares values, so every id a tuple, the
    # labels or the memoized order holds must be the map's own key object
    rng = random.Random(3)
    labels = [f"t{i}" for i in range(300)]
    net = generate(GenSpec(300, 40, "any", seed=3))
    texts = [serialize(net), serialize(random_tree(labels, seed=rng.randrange(99)))]
    for x in (parse_network(texts[0]), parse_tree(texts[1])):
        assert len(x) > 500
        key = {v: v for v in x._out}
        held = [v for vs in (*x._out.values(), *x._in.values()) for v in vs]
        held += [*x._in, *x._labels, *x.topological_order()]
        assert all(key[v] is v for v in held)


def test_parsed_trees_are_binary_and_reticulation_free():
    for rec in GOLDEN:
        tree = parse_tree(rec["tree"])
        assert type(tree) is PhyloTree
        assert tree.num_reticulations == 0
        assert validate(tree, require_binary=True).ok
        assert reference_validate(tree, require_binary=True).ok


def test_serialize_is_canonical_under_child_order():
    a = parse_network("((a,(b)#H1),(#H1,c));")
    b = parse_network("((#H1,c),((b)#H1,a));")
    assert serialize(a) == serialize(b)
    assert canonical_equal(a, b)


def test_canonical_equal_distinguishes_topologies():
    assert not canonical_equal(parse_network("((a,b),c);"), parse_network("(a,(b,c));"))


def test_round_trip_generated_corpus():
    rng = random.Random(8)
    for i in range(1000):
        net = generate(GenSpec(rng.randint(2, 7), rng.randint(0, 5), "any", seed=i))
        text = serialize(net)
        again = parse_network(text)
        assert canonical_equal(net, again)
        # serialization is a fixpoint
        assert serialize(again) == text


def test_round_trip_case_fixtures():
    for text in CASE_FIXTURES.values():
        net = parse_network(text)
        assert canonical_equal(net, parse_network(serialize(net)))


def test_fuzz_lite_never_crashes():
    rng = random.Random(99)
    alphabet = "()#;,Hh123abz _\t-.'\"\\\x00\xff"
    for _ in range(3000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 30)))
        try:
            parse_network(text)
        except NewickParseError:
            pass
