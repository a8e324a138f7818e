"""Grammar-aware mutants of generated networks through every subcommand.

Each mutation class changes a valid canonical eNewick text in one place:
a hybrid reference dropped or duplicated, a leaf label repeated, a leaf
wrapped in a unary vertex, a third child added to a tree vertex, a leaf
renamed into the reserved ``__r`` namespace, or a hybrid's subtree moved
onto a later reference of its tag (the one class that keeps the network
the same, checked against the original). Every mutant goes through
``cli.main`` as the network of validate, classify, stats, transform and
contains (all three algorithms), and as the tree of contains. Whatever
the input, main returns a documented exit code below 5, and a failing
call writes nothing to stdout and only ``netdisplay: `` lines to stderr.
"""

import json
import random
import re

import pytest

from netdisplay import newick_io
from netdisplay.cli import main
from netdisplay.core import Branch
from netdisplay.generator import GenSpec, generate
from netdisplay.newick_io import serialize
from netdisplay.tcp import Resolution, apply_resolution

MUTANTS_PER_CLASS = 20

_REF = re.compile(r"(?<=[(,])#H\d+")  # a bare hybrid reference
_LEAF = re.compile(r"(?<=[(,])[A-Za-z0-9_.-]+")  # a leaf label


def _splice(text, start, end, new):
    return text[:start] + new + text[end:]


def _drop_ref(text, rng):
    m = rng.choice(list(_REF.finditer(text)))
    start, end = m.span()
    if text[end] == ",":
        end += 1
    elif text[start - 1] == ",":
        start -= 1
    return _splice(text, start, end, "")


def _dup_ref(text, rng):
    m = rng.choice(list(_REF.finditer(text)))
    return _splice(text, m.end(), m.end(), "," + m.group())


def _dup_label(text, rng):
    keep, lose = rng.sample(list(_LEAF.finditer(text)), 2)
    return _splice(text, lose.start(), lose.end(), keep.group())


def _unary(text, rng):
    m = rng.choice(list(_LEAF.finditer(text)))
    return _splice(text, m.start(), m.end(), f"({m.group()})")


def _polytomy(text, rng):
    # a '(' whose ')' carries no hybrid tag opens a tree vertex
    opens, tree_vertices = [], []
    for i, ch in enumerate(text):
        if ch == "(":
            opens.append(i)
        elif ch == ")":
            start = opens.pop()
            if text[i + 1] != "#":
                tree_vertices.append(start)
    at = rng.choice(tree_vertices) + 1
    return _splice(text, at, at, "zz_extra,")


def _reserved(text, rng):
    m = rng.choice(list(_LEAF.finditer(text)))
    return _splice(text, m.start(), m.end(), "__r0")


def _move_subtree(text, rng):
    # a later bare reference cannot lie inside the hybrid's subtree, as
    # that would close a cycle, so the mutant is the same network under
    # other vertex ids
    close = rng.choice(list(re.finditer(r"\)(#H\d+)", text)))
    tag, start, depth = close.group(1), close.start(), 0
    while True:  # back to the '(' that opens the subtree
        depth += (text[start] == ")") - (text[start] == "(")
        if depth == 0:
            break
        start -= 1
    refs = re.finditer(rf"(?<=[(,]){tag}(?!\d)", text)
    ref = rng.choice([m for m in refs if m.start() > close.end()])
    moved = _splice(text, ref.start(), ref.start(), text[start : close.start() + 1])
    return _splice(moved, start, close.start() + 1, "")


MUTATIONS = {
    "drop_ref": _drop_ref,
    "dup_ref": _dup_ref,
    "dup_label": _dup_label,
    "unary": _unary,
    "polytomy": _polytomy,
    "reserved": _reserved,
    "move_subtree": _move_subtree,
}


def _corpus(seed):
    """(network text, displayed tree text) pairs of generated nearly stable
    networks with at least one reticulation."""
    rng = random.Random(seed)
    pairs = []
    for i in range(MUTANTS_PER_CLASS):
        n, m = rng.randint(4, 10), rng.randint(1, 3)
        net = generate(GenSpec(n, m, "nearly_stable", seed=seed + i))
        kept = tuple(
            (r, Branch(min(net.parents(r)), r)) for r in net.reticulations
        )
        tree = apply_resolution(net, Resolution(kept))
        pairs.append((serialize(net), serialize(tree)))
    return pairs


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_mutants_exit_cleanly_through_every_subcommand(
    name, tmp_path, capsys, monkeypatch
):
    mutate = MUTATIONS[name]
    rng = random.Random(name)
    mutant = None
    reached = []
    real_parse, real_assemble = newick_io._parse, newick_io._assemble
    parsing = []

    def parse(text, as_tree, single):
        parsing.append(text.strip() == mutant)
        try:
            return real_parse(text, as_tree, single)
        finally:
            parsing.pop()

    def assemble(*args):
        if parsing and parsing[-1]:
            reached.append(mutant)
        return real_assemble(*args)

    monkeypatch.setattr(newick_io, "_parse", parse)
    monkeypatch.setattr(newick_io, "_assemble", assemble)

    def write(filename, text):
        path = tmp_path / filename
        path.write_text(text + "\n")
        return str(path)

    for net_text, tree_text in _corpus(seed=7000):
        mutant = mutate(net_text, rng)
        assert mutant != net_text
        mut = write("mutant.nwk", mutant)
        net, tree = write("net.nwk", net_text), write("tree.nwk", tree_text)
        calls = [
            ["validate", mut],
            ["classify", mut],
            ["stats", mut],
            ["transform", "--to", "rv", mut],
            *(["contains", mut, tree, "--algo", a] for a in ("auto", "fast", "oracle")),
            ["contains", net, mut],
        ]
        if name == "move_subtree":
            assert serialize(newick_io.parse_network(mutant)) == net_text
            for a in ("auto", "fast", "oracle"):
                verdicts = []
                for net_file in (net, mut):
                    code = main(["contains", net_file, tree, "--algo", a])
                    out = json.loads(capsys.readouterr().out)
                    verdicts.append((code, out["displayed"]))
                assert verdicts[0] == verdicts[1], (a, mutant)
        for argv in calls:
            try:
                code = main(argv)
            except Exception as exc:  # noqa: BLE001 - the assertion is that none escapes
                pytest.fail(f"{argv[0]} raised {exc!r} on mutant {mutant}")
            out, err = capsys.readouterr()
            where = f"{argv} on mutant {mutant}: exit {code}"
            assert code in (0, 1, 2, 3, 4), where
            if code >= 2:
                assert out == "", where
                assert err, where
                assert all(
                    line.startswith("netdisplay: ") for line in err.splitlines()
                ), where

    if name == "reserved":
        # the tokenizer rejects the reserved namespace before assembly
        assert not reached
    else:
        assert reached, f"no {name} mutant reached newick_io._assemble"
