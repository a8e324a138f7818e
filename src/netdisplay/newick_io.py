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

Serialization is canonical: children are emitted smallest reachable leaf
label first (stable for ties), hybrid tags are renumbered 1..m in emission
order, and each hybrid's subtree is printed at its first occurrence. Hence
``serialize(parse_network(serialize(n))) == serialize(n)``.
"""

from __future__ import annotations

import string
from dataclasses import dataclass

from .core import Network, PhyloTree, validate
from .errors import NewickParseError

_LABEL_CHARS = frozenset(string.ascii_letters + string.digits + "_.-")
_RESERVED_PREFIX = "__r"


@dataclass(frozen=True)
class ParseDiagnostic:
    offset: int
    message: str
    severity: str = "error"

    def __str__(self) -> str:
        return f"{self.severity} at offset {self.offset}: {self.message}"


def _fail(diags: list[ParseDiagnostic], offset: int, message: str):
    diags.append(ParseDiagnostic(offset, message))
    raise NewickParseError(message, diags)


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


def _tokenize(text: str, diags: list[ParseDiagnostic]):
    """Tokens: ('punct', ch, off) | ('label', text, off) | ('hybrid', k, off)."""
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "(),;":
            tokens.append(("punct", ch, i))
            i += 1
            continue
        if ch == "#":
            j = i + 1
            if j >= n or text[j] != "H":
                _fail(diags, i, "invalid hybrid tag: expected '#H<k>'")
            j += 1
            k = j
            while k < n and text[k] in string.digits:
                k += 1
            if k == j:
                _fail(diags, i, "invalid hybrid tag: expected digits after '#H'")
            tokens.append(("hybrid", int(text[j:k]), i))
            i = k
            continue
        if ch in _LABEL_CHARS:
            j = i
            while j < n and text[j] in _LABEL_CHARS:
                j += 1
            lab = text[i:j]
            if lab.startswith(_RESERVED_PREFIX):
                _fail(diags, i, f"label {lab!r} uses the reserved '__r' namespace")
            tokens.append(("label", lab, i))
            i = j
            continue
        _fail(diags, i, f"unexpected character {ch!r}")
    return tokens


@dataclass
class _SynNode:
    children: list
    label: str | None
    hybrid: int | None
    offset: int


def _parse_statement(tokens, pos: int, end_offset: int, diags):
    """Parse one ';'-terminated statement; returns (root _SynNode, next pos)."""
    stack: list[list[_SynNode]] = []
    result: _SynNode | None = None
    expect_node = True

    def complete(node: _SynNode):
        nonlocal result
        if stack:
            stack[-1].append(node)
        else:
            result = node

    while True:
        if pos >= len(tokens):
            _fail(diags, end_offset, "unexpected end of input (missing ';'?)")
        kind, val, off = tokens[pos]
        if expect_node:
            if kind == "punct" and val == "(":
                stack.append([])
                pos += 1
            elif kind == "label":
                hyb = None
                pos += 1
                if pos < len(tokens) and tokens[pos][0] == "hybrid":
                    hyb = tokens[pos][1]
                    pos += 1
                complete(_SynNode([], val, hyb, off))
                expect_node = False
            elif kind == "hybrid":
                pos += 1
                complete(_SynNode([], None, val, off))
                expect_node = False
            else:
                _fail(diags, off, f"expected a subtree, found {val!r}")
        else:
            if kind == "punct" and val == ",":
                if not stack:
                    _fail(diags, off, "',' outside parentheses")
                pos += 1
                expect_node = True
            elif kind == "punct" and val == ")":
                if not stack:
                    _fail(diags, off, "unbalanced ')'")
                children = stack.pop()
                pos += 1
                label = None
                hyb = None
                if pos < len(tokens) and tokens[pos][0] == "label":
                    label = tokens[pos][1]
                    pos += 1
                if pos < len(tokens) and tokens[pos][0] == "hybrid":
                    hyb = tokens[pos][1]
                    pos += 1
                complete(_SynNode(children, label, hyb, off))
            elif kind == "punct" and val == ";":
                if stack:
                    _fail(diags, off, "';' inside unbalanced '('")
                return result, pos + 1
            else:
                _fail(diags, off, f"expected ',', ')' or ';', found {val!r}")


def _assemble(
    syn_root: _SynNode, statement_offset: int, diags, cls: type[Network]
) -> Network:
    out_adj: dict[int, list[int]] = {}
    labels: dict[int, str] = {}
    label_offsets: dict[str, int] = {}
    hybrid_vertex: dict[int, int] = {}
    hybrid_occurrences: dict[int, int] = {}
    hybrid_defs: dict[int, int] = {}
    next_id = 0

    def alloc() -> int:
        nonlocal next_id
        v = next_id
        next_id += 1
        out_adj[v] = []
        return v

    # pre-order walk, children processed left to right
    stack: list[tuple[_SynNode, int | None]] = [(syn_root, None)]
    while stack:
        node, parent = stack.pop()
        if node.hybrid is not None:
            tag = node.hybrid
            if tag in hybrid_vertex:
                v = hybrid_vertex[tag]
            else:
                v = alloc()
                hybrid_vertex[tag] = v
            hybrid_occurrences[tag] = hybrid_occurrences.get(tag, 0) + 1
            if node.children:
                if tag in hybrid_defs:
                    _fail(
                        diags,
                        node.offset,
                        f"hybrid tag #H{tag} carries a child subtree at more "
                        "than one occurrence",
                    )
                hybrid_defs[tag] = node.offset
        else:
            v = alloc()
            if not node.children:
                # plain leaf position; the tokenizer guarantees a label here
                if node.label in label_offsets:
                    _fail(diags, node.offset, f"duplicate leaf label {node.label!r}")
                label_offsets[node.label] = node.offset
                labels[v] = node.label
        if parent is not None:
            if v in out_adj[parent]:
                _fail(diags, node.offset, "parallel branches")
            out_adj[parent].append(v)
        for child in reversed(node.children):
            stack.append((child, v))

    for tag, count in sorted(hybrid_occurrences.items()):
        if count == 1:
            _fail(
                diags,
                statement_offset,
                f"hybrid tag #H{tag} used once (dangling reference)",
            )
        if tag not in hybrid_defs:
            _fail(
                diags,
                statement_offset,
                f"hybrid tag #H{tag} has no child subtree at any occurrence",
            )

    net = cls(out_adj, labels)
    outcome = validate(net)
    if not outcome.ok:
        for viol in outcome.violations:
            diags.append(ParseDiagnostic(statement_offset, str(viol)))
        raise NewickParseError(str(outcome.violations[0]), diags)
    return net


def _reject_hybrids(syn: _SynNode, diags) -> None:
    stack = [syn]
    while stack:
        node = stack.pop()
        if node.hybrid is not None:
            _fail(diags, node.offset, "hybrid tag in a tree")
        stack.extend(node.children)


def _check_tree_arity(syn: _SynNode, diags) -> None:
    stack = [syn]
    while stack:
        node = stack.pop()
        if len(node.children) > 2:
            _fail(diags, node.offset, "polytomy (more than two children)")
        if len(node.children) == 1:
            _fail(diags, node.offset, "unary internal vertex")
        stack.extend(node.children)


def _statements(text: str, diags):
    """Yield (syntax tree, statement offset, offset of the next token or
    None) for each ';'-terminated statement of the text."""
    clean = _strip_comment_lines(text)
    tokens = _tokenize(clean, diags)
    if not tokens:
        _fail(diags, 0, "empty input")
    pos = 0
    while pos < len(tokens):
        start = tokens[pos][2]
        syn, pos = _parse_statement(tokens, pos, len(clean), diags)
        yield syn, start, tokens[pos][2] if pos < len(tokens) else None


def _parse(text: str, as_tree: bool, single: bool) -> list:
    diags: list[ParseDiagnostic] = []
    parsed = []
    cls = PhyloTree if as_tree else Network
    for syn, start, after in _statements(text, diags):
        if single and after is not None:
            _fail(diags, after, "trailing content after ';'")
        if as_tree:
            # a tree that passes both checks is binary and reticulation-free
            _reject_hybrids(syn, diags)
            _check_tree_arity(syn, diags)
        parsed.append(_assemble(syn, start, diags, cls))
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
    """Isomorphism check via canonical serialization (labels, topology and
    hybrid structure; vertex ids are irrelevant)."""
    return serialize(a) == serialize(b)
