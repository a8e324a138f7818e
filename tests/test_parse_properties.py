"""Property checks of the eNewick parser: `serialize` after a parse is a
fixpoint on generated networks and trees, and the parser agrees with the
reference parse chain on grammar-aware texts, well-formed or not."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from netdisplay.generator import GenSpec, generate, random_tree
from netdisplay.newick_io import parse_network, parse_tree, serialize

from helpers import reference_parse
from test_parse_differential import ENTRY_POINTS, _record

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=300)


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 30), data=st.data())
def test_serialize_parse_network_is_a_fixpoint(seed, n, data):
    m = data.draw(st.integers(0, 2 * n), label="reticulations")
    text = serialize(generate(GenSpec(n, m, "any", seed=seed)))
    assert serialize(parse_network(text)) == text


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 60))
def test_serialize_parse_tree_is_a_fixpoint(seed, n):
    text = serialize(random_tree([f"t{i}" for i in range(n)], seed=seed))
    assert serialize(parse_tree(text)) == text


# eNewick built from the grammar, with labels that repeat or use the
# reserved namespace, tags that dangle or carry two subtrees, and inner
# vertices of any arity, so both parsers reach assembly and validation
_LABELS = st.sampled_from(["a", "b", "c", "d", "x1", "T.2", "__r0"])
_TAGS = st.integers(1, 3).map(lambda k: f"#H{k}")
_SUFFIX = st.sampled_from(["", "", "", "#H1", "#H2", "#H3", "y", "y#H1", "#H01"])
_LEAF = st.one_of(_LABELS, _TAGS, st.tuples(_LABELS, _TAGS).map("".join))
_SUBTREE = st.recursive(
    _LEAF,
    lambda kids: st.tuples(st.lists(kids, min_size=1, max_size=3), _SUFFIX).map(
        lambda t: "(" + ",".join(t[0]) + ")" + t[1]
    ),
    max_leaves=12,
)
_END = st.sampled_from([";", ";", ";", "", ";;", ";\n(a,b);", ";\n# note\n(a,#H1);"])
_NOISE = st.sampled_from(list("(),;# \t\x85\xa0!") + ["#H", "#Hx", "__r"])


@st.composite
def _enewick_texts(draw):
    text = draw(_SUBTREE) + draw(_END)
    if draw(st.booleans()):  # one token's worth of noise somewhere
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(_NOISE) + text[at:]
    return text


@PROPERTY
@given(text=_enewick_texts())
@example(text="a#H1;")  # shrunk: a tagged leaf's diagnostic sits at its label
def test_parse_agrees_with_the_reference_on_grammar_texts(text):
    for parse, as_tree, single in ENTRY_POINTS:
        want = _record(
            lambda t: reference_parse(t, as_tree, single)[0 if single else slice(None)],
            text,
        )
        assert _record(parse, text) == want, (parse.__name__, text)
