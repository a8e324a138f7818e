"""eNewick parsing and serialization.

Dialect: standard newick with hybrid tags ``#H<k>``. A hybrid vertex may
occur several times in one statement; exactly one occurrence carries its
child subtree, the others are plain references. Labels match
``[A-Za-z0-9_.-]+``; inner vertex names are accepted and ignored except for
hybrid tags; whitespace between tokens is allowed. Labels starting with
``__r`` are reserved for reduction-introduced leaves and rejected on input.

Lines whose first non-whitespace character is ``#`` not followed by a label
character are comments (the generator emits its metadata this way); they are
blanked before tokenization so diagnostics keep true byte offsets.

Parsing takes one pass per stage. One regex `findall` gives the tokens;
`_parse_statement` reads them into pre-order arrays (parent, label, hybrid
tag, child count); `_assemble` walks the arrays once, giving out vertex ids
and building the child, parent and label maps, which
`Network._from_maps` takes as they are. A parsed network is validated
once, which fills the memo `validate` answers from; a parsed tree is valid
by construction (see `_assemble`) and gets that memo without the checks,
with the memos of its label -> vertex map and of no reticulation. Both
memoize that no label is in the reserved namespace.

Serialization emits children smallest reachable leaf label first (stable
for ties), renumbers hybrid tags 1..m in emission order, and prints each
hybrid's subtree at its first occurrence. Hence
``serialize(parse_network(serialize(n))) == serialize(n)``, and equal output
implies isomorphic networks. It is not canonical: when two children of one
vertex tie on their smallest leaf, their list order decides, so isomorphic
networks can serialize differently.
"""

from __future__ import annotations

import itertools
import re
import string
from dataclasses import dataclass

from .core import Network, PhyloTree, validate
from .errors import NewickParseError

_LABEL_CHARS = frozenset(string.ascii_letters + string.digits + "_.-")
_RESERVED_PREFIX = "__r"
# one token per match: punctuation, a hybrid tag, a label, or any other
# non-whitespace character, which is an error token
_TOKEN = re.compile(r"[(),;]|#H[0-9]+|[A-Za-z0-9_.-]+|\S")
# a character that starts an error token; no other token can hold it
_ERROR_CHAR = re.compile(r"[^\s(),;A-Za-z0-9_.#-]|#(?!H[0-9])")


@dataclass(frozen=True)
class ParseDiagnostic:
    offset: int
    message: str
    severity: str = "error"

    def __str__(self) -> str:
        return f"{self.severity} at offset {self.offset}: {self.message}"


def _strip_comment_lines(text: str) -> str:
    out = []
    for line in text.splitlines(keepends=True):
        stripped = line.lstrip()
        if stripped.startswith("#") and (
            len(stripped) < 2 or stripped[1] not in _LABEL_CHARS
        ):
            body = line.rstrip("\n\r")
            out.append(" " * len(body) + line[len(body):])
        else:
            out.append(line)
    return "".join(out)


def _token_error(clean: str) -> ParseDiagnostic | None:
    """The text's first token that is wrong in itself: a label in the
    reserved namespace, a '#' that opens no '#H<k>', or a character that
    starts no token."""
    for m in _TOKEN.finditer(clean):
        tok, off = m.group(), m.start()
        if tok.startswith(_RESERVED_PREFIX):
            return ParseDiagnostic(
                off, f"label {tok!r} uses the reserved '__r' namespace"
            )
        if tok == "#":
            if clean[off + 1 : off + 2] != "H":
                return ParseDiagnostic(off, "invalid hybrid tag: expected '#H<k>'")
            return ParseDiagnostic(off, "invalid hybrid tag: expected digits after '#H'")
        if len(tok) == 1 and tok not in _LABEL_CHARS and tok not in "(),;":
            return ParseDiagnostic(off, f"unexpected character {tok!r}")
    return None


class _Source:
    """A text without its comment lines and its tokens, as `findall` gives
    them. A text with a token that is wrong in itself fails here, before
    any other check, so every token the parser reads is punctuation, a
    '#H<k>' tag or a label. Diagnostics name tokens by index; their byte
    offsets are recovered with `finditer` only when one is raised."""

    __slots__ = ("clean", "tokens")

    def __init__(self, text: str):
        self.clean = clean = _strip_comment_lines(text)
        if _ERROR_CHAR.search(clean) or _RESERVED_PREFIX in clean:
            found = _token_error(clean)
            if found is not None:
                raise NewickParseError(found.message, [found])
        self.tokens = _TOKEN.findall(clean)

    def fail(self, at: int, *messages: str):
        """Raise NewickParseError with one diagnostic per message, at the
        offset of token `at` (len(tokens): the end of the text)."""
        if at < len(self.tokens):
            offset = next(itertools.islice(_TOKEN.finditer(self.clean), at, None)).start()
        else:
            offset = len(self.clean)
        raise NewickParseError(
            messages[0], [ParseDiagnostic(offset, m) for m in messages]
        )


def _parse_statement(src: _Source, pos: int):
    """Parse the ';'-terminated statement that starts at token `pos` into
    pre-order arrays; return them and the index of the token after ';'.

    Node i has parent `par[i]` (-1 at the root), `lab[i]` (a leaf's label,
    else None), hybrid tag `tag[i]` (or None), `kids[i]` children and
    `at[i]`, the token that places it in diagnostics: a leaf's first
    token, an inner vertex's ')'.
    """
    tokens = src.tokens
    n = len(tokens)
    par: list[int] = []
    lab: list[str | None] = []
    tag: list[int | None] = []
    kids: list[int] = []
    at: list[int] = []
    stack: list[int] = []  # inner nodes whose ')' is still to come
    expect_node = True
    while True:
        if pos >= n:
            src.fail(n, "unexpected end of input (missing ';'?)")
        tok = tokens[pos]
        if expect_node:
            at.append(pos)
            if tok == "(":
                name = hyb = None
            elif tok[0] == "#":
                name, hyb = None, int(tok[2:])
                expect_node = False
            elif tok[0] in _LABEL_CHARS:
                name, hyb = tok, None
                if pos + 1 < n and tokens[pos + 1][0] == "#":
                    pos += 1
                    hyb = int(tokens[pos][2:])
                expect_node = False
            else:
                src.fail(pos, f"expected a subtree, found {tok!r}")
            if stack:
                kids[stack[-1]] += 1
                par.append(stack[-1])
            else:
                par.append(-1)
            if tok == "(":
                stack.append(len(lab))
            lab.append(name)
            tag.append(hyb)
            kids.append(0)
            pos += 1
        elif tok == ",":
            if not stack:
                src.fail(pos, "',' outside parentheses")
            expect_node = True
            pos += 1
        elif tok == ")":
            if not stack:
                src.fail(pos, "unbalanced ')'")
            i = stack.pop()
            at[i] = pos
            pos += 1
            if pos < n and tokens[pos][0] in _LABEL_CHARS:
                pos += 1  # an inner vertex's name is read and dropped
            if pos < n and tokens[pos][0] == "#":
                tag[i] = int(tokens[pos][2:])
                pos += 1
        elif tok == ";":
            if stack:
                src.fail(pos, "';' inside unbalanced '('")
            return (par, lab, tag, kids, at), pos + 1
        else:
            shown = int(tok[2:]) if tok[0] == "#" else tok
            src.fail(pos, f"expected ',', ')' or ';', found {shown!r}")


def _first_met(par: list[int], nodes: list[int]) -> int:
    """The node of `nodes` (ascending pre-order indices) that a walk from
    the root meets first when it pops a node and pushes its children left
    to right: an ancestor before its descendants, a later sibling's
    subtree before an earlier one's."""
    end = list(range(1, len(par) + 1))  # one past the last node of i's subtree
    for i in range(len(par) - 1, 0, -1):
        if end[i] > end[par[i]]:
            end[par[i]] = end[i]
    first = nodes[0]
    for i in nodes[1:]:
        if i >= end[first]:  # i lies right of first's subtree
            first = i
    return first


def _check_tree(src: _Source, arrays) -> None:
    """Reject a tree statement with a hybrid tag, then one with an inner
    vertex of one or of more than two children, at the node the walk of
    _first_met meets first."""
    par, _, tag, kids, at = arrays
    if tag.count(None) != len(tag):
        hybrids = [i for i, t in enumerate(tag) if t is not None]
        src.fail(at[_first_met(par, hybrids)], "hybrid tag in a tree")
    if 1 in kids or max(kids) > 2:
        bad = [i for i, k in enumerate(kids) if k == 1 or k > 2]
        i = _first_met(par, bad)
        if kids[i] > 2:
            src.fail(at[i], "polytomy (more than two children)")
        src.fail(at[i], "unary internal vertex")


def _assemble(src: _Source, arrays, start: int, cls: type[Network]) -> Network:
    """Build the statement's network from its pre-order arrays in one loop.

    Each node gets the next vertex id, but a hybrid tag gets one vertex, at
    its first occurrence; the loop fills the child and parent tuples and
    the leaf labels in id order, as Network.__init__ would. Duplicate
    labels, parallel branches and a second subtree for a tag fail at their
    node, in pre-order; a tag used once or never given a subtree fails at
    the statement (token `start`), in tag order.

    A network is then validated, and fails at the statement with every
    violation. A tree needs no validation. It has passed _check_tree, so
    it has no tag, and vertex i is node i. Every vertex but the root 0 has
    one parent, of smaller id; the inner vertices have two children each,
    distinct as they are fresh ids; labels sit on leaves only (a leaf is a
    label token) and are distinct (checked here). So it is connected and
    acyclic with root 0, no vertex is unlabeled-leaf, unary, degenerate or
    reticulate, no branch is parallel and every degree is binary: both
    validate flavours are clean. Its topological order is 0..V-1, since a
    parent precedes its child and the smallest ready id is the next one.
    The tree keeps that order, the label -> vertex map that found the
    duplicates, and no reticulation as memos (see Network._from_maps).
    """
    par, lab, tag, kids, at = arrays
    out: list[list[int]] = []  # vertex -> children
    ins: list = []  # vertex -> (parent,), or a hybrid's list of parents
    vert: list[int] = []  # node -> vertex
    # the ids in order; the maps key on these very int objects, which the
    # tuples hold too, so a lookup of an id read from a tuple matches by
    # identity (ids above 256 are distinct objects of equal value)
    ids: list[int] = []
    labels: dict[int, str] = {}
    leaf_of: dict[str, int] = {}  # label -> vertex
    tag_vertex: dict[int, int] = {}
    uses: dict[int, int] = {}
    carried: set[int] = set()
    for i, t in enumerate(tag):
        p = par[i]
        if t is None:
            v = len(out)
            ids.append(v)
            out.append([])
            if not kids[i]:
                name = lab[i]
                if name in leaf_of:
                    src.fail(at[i], f"duplicate leaf label {name!r}")
                leaf_of[name] = v
                labels[v] = name
            if p < 0:
                ins.append(())
            else:
                u = vert[p]
                ins.append((u,))
                out[u].append(v)
        else:
            v = tag_vertex.get(t)
            if v is None:
                v = tag_vertex[t] = len(out)
                ids.append(v)
                out.append([])
                ins.append([])
                uses[t] = 1
            else:
                uses[t] += 1
            if kids[i]:
                if t in carried:
                    src.fail(
                        at[i],
                        f"hybrid tag #H{t} carries a child subtree at more "
                        "than one occurrence",
                    )
                carried.add(t)
            if p >= 0:
                u = vert[p]
                if v in out[u]:
                    src.fail(at[i], "parallel branches")
                out[u].append(v)
                ins[v].append(u)
        vert.append(v)

    for t, count in sorted(uses.items()):
        if count == 1:
            src.fail(start, f"hybrid tag #H{t} used once (dangling reference)")
        if t not in carried:
            src.fail(start, f"hybrid tag #H{t} has no child subtree at any occurrence")
    for v in tag_vertex.values():
        ins[v] = tuple(sorted(ins[v]))  # __init__ lists parents by id

    root = None if ins[0] else 0  # a vertex but 0 has the parent it was placed under
    out_map = dict(zip(ids, map(tuple, out)))
    ins_map = dict(zip(ids, ins))
    # _Source refused the reserved namespace: the first free __r<k> is 0
    if cls is PhyloTree:
        return cls._from_maps(out_map, ins_map, labels, root, len(ids), tuple(ids), leaf_of, 0)
    net = cls._from_maps(out_map, ins_map, labels, root, len(ids), fresh=0)
    outcome = validate(net)
    if not outcome.ok:
        src.fail(start, *(str(viol) for viol in outcome.violations))
    return net


def _parse(text: str, as_tree: bool, single: bool) -> list:
    src = _Source(text)
    n = len(src.tokens)
    if not n:
        raise NewickParseError("empty input", [ParseDiagnostic(0, "empty input")])
    cls = PhyloTree if as_tree else Network
    parsed = []
    pos = 0
    while pos < n:
        start = pos
        arrays, pos = _parse_statement(src, pos)
        if single and pos < n:
            src.fail(pos, "trailing content after ';'")
        if as_tree:
            _check_tree(src, arrays)
        parsed.append(_assemble(src, arrays, start, cls))
        if single:
            break
    return parsed


def parse_network(text: str) -> Network:
    """Parse exactly one eNewick statement into a validated Network.

    Raises NewickParseError carrying ParseDiagnostic records (with byte
    offsets into the input) on any defect.
    """
    return _parse(text, as_tree=False, single=True)[0]


def parse_networks(text: str) -> list[Network]:
    """Parse a whole file of ';'-terminated statements."""
    return _parse(text, as_tree=False, single=False)


def parse_tree(text: str) -> PhyloTree:
    """Parse one newick statement as a binary phylogenetic tree."""
    return _parse(text, as_tree=True, single=True)[0]


def parse_trees(text: str) -> list[PhyloTree]:
    return _parse(text, as_tree=True, single=False)


def _min_leaf_labels(net: Network) -> dict[int, str]:
    order = net.topological_order()
    best: dict[int, str] = {}
    for v in reversed(order):
        if net.is_leaf(v):
            best[v] = net.label(v) or ""
        else:
            best[v] = min(best[c] for c in net.children(v))
    return best


def serialize(net: Network) -> str:
    """Canonical eNewick for a validated network (see module docstring)."""
    net.require_valid()
    minleaf = _min_leaf_labels(net)
    rets = set(net.reticulations)
    hybrid_num: dict[int, int] = {}
    out: list[str] = []
    stack: list[tuple[str, object]] = [("visit", net.root)]
    while stack:
        op, x = stack.pop()
        if op == "emit":
            out.append(x)  # type: ignore[arg-type]
            continue
        v: int = x  # type: ignore[assignment]
        if v in rets:
            if v in hybrid_num:
                out.append(f"#H{hybrid_num[v]}")
                continue
            hybrid_num[v] = len(hybrid_num) + 1
            suffix = f"#H{hybrid_num[v]}"
        else:
            suffix = ""
        if net.is_leaf(v):
            out.append(net.label(v) or "")
            continue
        ordered = sorted(net.children(v), key=lambda c: minleaf[c])
        seq: list[tuple[str, object]] = [("emit", "(")]
        for idx, c in enumerate(ordered):
            if idx:
                seq.append(("emit", ","))
            seq.append(("visit", c))
        seq.append(("emit", ")" + suffix))
        stack.extend(reversed(seq))
    return "".join(out) + ";"


def canonical_equal(a: Network, b: Network) -> bool:
    """Compare serializations (labels, topology and hybrid structure;
    vertex ids are irrelevant). True implies the networks are isomorphic.
    False can still come from isomorphic networks in which two children of
    one vertex tie on their smallest leaf."""
    return serialize(a) == serialize(b)
