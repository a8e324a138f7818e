"""Rooted phylogenetic networks: data model, validation, stability, class flags.

A network is a rooted DAG whose outdegree-0 vertices (leaves) carry distinct
labels. Reticulations are vertices of indegree >= 2 and outdegree 1; tree
vertices have indegree 1 and outdegree >= 2. A vertex is *stable* if it lies
on every root-to-leaf path for at least one leaf, i.e. it dominates that leaf.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import asdict, dataclass
from typing import Iterable, Iterator, Mapping, NamedTuple

from .errors import InternalConsistencyError, InvalidNetworkError


class Branch(NamedTuple):
    """Directed branch (tail, head)."""

    tail: int
    head: int

    def __str__(self) -> str:
        return f"{self.tail}->{self.head}"


@dataclass(frozen=True)
class Violation:
    """One structural defect found by validate(); data, not an exception."""

    message: str
    vertex: int | None = None
    branch: Branch | None = None

    def __str__(self) -> str:
        at = ""
        if self.vertex is not None:
            at = f" [vertex {self.vertex}]"
        if self.branch is not None:
            at += f" [branch {self.branch}]"
        return self.message + at


@dataclass(frozen=True)
class ValidationOutcome:
    ok: bool
    violations: tuple[Violation, ...]


@dataclass(frozen=True)
class StabilityReport:
    """Per-vertex stability flags with one witness leaf where stable."""

    stable: Mapping[int, bool]
    witness: Mapping[int, int | None]


@dataclass(frozen=True)
class ClassFlags:
    binary: bool
    tree_child: bool
    reticulation_visible: bool
    nearly_stable: bool
    subphylogeny_free: bool

    def to_dict(self) -> dict[str, bool]:
        return asdict(self)


class Network:
    """Immutable rooted DAG with labeled leaves.

    Construction is permissive: only adjacency-map consistency is required,
    so that validate() can report structural defects as data. Children keep
    construction order; algorithms must not depend on that order.

    Vertex ids are small ints and are never reused within a network's
    derivation history: editors allocate fresh ids above ``next_id``.
    """

    __slots__ = ("_out", "_in", "_labels", "_root", "_next_id", "_cache")

    def __init__(
        self,
        out_adj: Mapping[int, Iterable[int]],
        leaf_labels: Mapping[int, str],
        next_id: int | None = None,
    ):
        out = {v: tuple(cs) for v, cs in out_adj.items()}
        ins: dict[int, list[int]] = {v: [] for v in out}
        for v, cs in out.items():
            for c in cs:
                if c not in ins:
                    raise ValueError(f"adjacency references unknown vertex {c}")
                ins[c].append(v)
        for v in leaf_labels:
            if v not in out:
                raise ValueError(f"label references unknown vertex {v}")
        self._out = out
        self._in = {v: tuple(ps) for v, ps in ins.items()}
        self._labels = dict(leaf_labels)
        roots = [v for v, ps in self._in.items() if not ps]
        self._root = min(roots) if roots else None
        top = max(out) + 1 if out else 0
        self._next_id = top if next_id is None else max(next_id, top)
        self._cache: dict = {}

    # -- structure accessors ------------------------------------------------

    @property
    def root(self) -> int:
        if self._root is None:
            raise InvalidNetworkError("network has no root (no indegree-0 vertex)")
        return self._root

    @property
    def vertices(self) -> tuple[int, ...]:
        if "vertices" not in self._cache:
            self._cache["vertices"] = tuple(sorted(self._out))
        return self._cache["vertices"]

    @property
    def next_id(self) -> int:
        return self._next_id

    def __len__(self) -> int:
        return len(self._out)

    def __contains__(self, v: int) -> bool:
        return v in self._out

    def children(self, v: int) -> tuple[int, ...]:
        return self._out[v]

    def parents(self, v: int) -> tuple[int, ...]:
        return self._in[v]

    def out_degree(self, v: int) -> int:
        return len(self._out[v])

    def in_degree(self, v: int) -> int:
        return len(self._in[v])

    def is_leaf(self, v: int) -> bool:
        return not self._out[v]

    def label(self, v: int) -> str | None:
        return self._labels.get(v)

    @property
    def leaf_labels(self) -> dict[int, str]:
        return dict(self._labels)

    @property
    def leaves(self) -> tuple[int, ...]:
        if "leaves" not in self._cache:
            self._cache["leaves"] = tuple(v for v in self.vertices if not self._out[v])
        return self._cache["leaves"]

    @property
    def n_leaves(self) -> int:
        return len(self.leaves)

    def label_set(self) -> frozenset[str]:
        return frozenset(self._labels.values())

    @property
    def reticulations(self) -> tuple[int, ...]:
        if "rets" not in self._cache:
            self._cache["rets"] = tuple(
                v for v in self.vertices if len(self._in[v]) >= 2 and self._out[v]
            )
        return self._cache["rets"]

    @property
    def num_reticulations(self) -> int:
        return len(self.reticulations)

    def branches(self) -> Iterator[Branch]:
        for v in self.vertices:
            for c in self._out[v]:
                yield Branch(v, c)

    @property
    def num_branches(self) -> int:
        return sum(len(cs) for cs in self._out.values())

    def has_branch(self, tail: int, head: int) -> bool:
        return head in self._out.get(tail, ())

    # -- derived structure ---------------------------------------------------

    def topological_order(self) -> tuple[int, ...]:
        """Vertices with every parent before its children; smallest-id-first
        among the ready set, so the order is deterministic."""
        if "topo" in self._cache:
            return self._cache["topo"]
        order = self._try_topological_order()
        if order is None:
            raise InvalidNetworkError("network contains a directed cycle")
        self._cache["topo"] = order
        return order

    def _try_topological_order(self) -> tuple[int, ...] | None:
        indeg = {v: len(self._in[v]) for v in self._out}
        ready = [v for v, d in indeg.items() if d == 0]
        heapq.heapify(ready)
        order = []
        while ready:
            v = heapq.heappop(ready)
            order.append(v)
            for c in self._out[v]:
                indeg[c] -= 1
                if indeg[c] == 0:
                    heapq.heappush(ready, c)
        if len(order) != len(self._out):
            return None
        return tuple(order)

    def reachable_from(self, start: int) -> set[int]:
        """Vertices reachable from start."""
        seen = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for c in self._out[v]:
                if c not in seen:
                    seen.add(c)
                    stack.append(c)
        return seen

    def require_valid(self, require_binary: bool = False) -> None:
        outcome = validate(self, require_binary=require_binary)
        if not outcome.ok:
            detail = "; ".join(str(v) for v in outcome.violations[:5])
            raise InvalidNetworkError(
                f"invalid network: {detail}", outcome.violations
            )


def require_tree(net: Network) -> None:
    """Raise InvalidNetworkError unless the network has the shape of a
    phylogenetic tree: no reticulation, valid and binary. Checks structure,
    not type, so a reticulation-free binary Network passes."""
    if net.num_reticulations:
        raise InvalidNetworkError("network has reticulations; not a tree")
    net.require_valid(require_binary=True)


class PhyloTree(Network):
    """A network with zero reticulations and binary internal vertices."""

    @classmethod
    def from_network(cls, net: Network) -> "PhyloTree":
        require_tree(net)
        return cls(net._out, net._labels, next_id=net.next_id)


class NetworkEditor:
    """Mutable scratch copy of a network for deriving a new one.

    Fresh vertex ids continue from the source network's counter, so ids of
    surviving vertices are stable across a derivation and new ids never
    collide with deleted ones. freeze() builds the source's class, so an
    edited PhyloTree comes back as a PhyloTree (unvalidated, like any
    frozen result). Readers read its maps: `out` and `ins` (vertex ->
    child and parent lists), `labels` and `root`.
    """

    def __init__(self, net: Network):
        self.out = {v: list(cs) for v, cs in net._out.items()}
        self.ins = {v: list(ps) for v, ps in net._in.items()}
        self.labels = dict(net._labels)
        self.root = net._root
        self._next = net.next_id
        self._cls = type(net)

    def new_vertex(self) -> int:
        v = self._next
        self._next += 1
        self.out[v] = []
        self.ins[v] = []
        return v

    def add_branch(self, tail: int, head: int) -> None:
        if head in self.out[tail]:
            raise InternalConsistencyError(
                f"adding branch {tail}->{head} would create a parallel branch"
            )
        self.out[tail].append(head)
        self.ins[head].append(tail)

    def remove_branch(self, tail: int, head: int) -> None:
        self.out[tail].remove(head)
        self.ins[head].remove(tail)

    def delete_vertex(self, v: int) -> None:
        for p in list(self.ins[v]):
            self.out[p].remove(v)
        for c in list(self.out[v]):
            self.ins[c].remove(v)
        del self.out[v]
        del self.ins[v]
        self.labels.pop(v, None)
        if self.root == v:
            self.root = None

    def contract(self, v: int) -> Branch:
        """Remove an (indeg 1, outdeg 1) vertex, joining parent to child."""
        out, ins = self.out, self.ins
        (p,) = ins[v]
        (c,) = out[v]
        if c in out[p]:
            raise InternalConsistencyError(
                f"contracting {v} would duplicate branch {p}->{c}"
            )
        del out[v], ins[v]
        self.labels.pop(v, None)
        out[p].remove(v)
        out[p].append(c)
        ins[c].remove(v)
        ins[c].append(p)
        return Branch(p, c)

    def subdivide(self, tail: int, head: int) -> int:
        """Replace tail->head with tail->s->head; returns the new vertex s."""
        s = self.new_vertex()
        self.remove_branch(tail, head)
        self.add_branch(tail, s)
        self.add_branch(s, head)
        return s

    def prune(self, branches: Iterable[Branch]) -> tuple[list[int], set[int]]:
        """Remove branches and suppress from their ends; returns the
        contracted vertex ids in order and every vertex touched. The editor
        must be at the suppression fixpoint beforehand, as a valid network is."""
        touched: set[int] = set()
        for tail, head in branches:
            self.remove_branch(tail, head)
            touched.update((tail, head))
        return self.suppress(touched), touched

    def suppress(self, touched: set[int]) -> list[int]:
        """Drive the editor to the suppression fixpoint from `touched`.

        Removes unlabeled outdegree-0 vertices (and the dead-end paths above
        them), contracts (indegree 1, outdegree 1) vertices, and contracts
        outdegree-1 root chains. Returns contracted vertex ids in order.

        The editor must have been at the fixpoint before edits that changed
        only the vertices in `touched` (passing every vertex lifts this).
        Those are swept in id order, from a heap; a vertex an edit changes
        waits in the sweep if the sweep has not reached it yet, else joins a
        FIFO tail that runs after the sweep. Every other vertex is a no-op
        until an edit queues it, so this visits the same vertices in the
        same order as a sweep over every vertex. Each vertex queued is
        added to `touched`.
        """
        out, ins, labels = self.out, self.ins, self.labels
        contracted: list[int] = []
        sweep = sorted(v for v in touched if v in out)  # a sorted list is a heap
        queued = set(sweep)
        tail: deque[int] = deque()
        swept = -1

        def enqueue(v: int) -> None:
            if v in out and v not in queued:
                touched.add(v)
                queued.add(v)
                if v > swept:
                    heapq.heappush(sweep, v)
                else:
                    tail.append(v)

        while sweep or tail:
            if sweep:
                v = swept = heapq.heappop(sweep)
            else:
                v, swept = tail.popleft(), math.inf
            queued.discard(v)
            if v not in out:
                continue
            ind, outd = len(ins[v]), len(out[v])
            if ind == 0:
                if v != self.root:
                    raise InternalConsistencyError(
                        f"vertex {v} lost all parents but is not the root"
                    )
                if outd == 1:
                    child = out[v][0]
                    if ins[child] != [v]:
                        raise InternalConsistencyError(
                            f"root chain child {child} has extra parents"
                        )
                    self.delete_vertex(v)
                    contracted.append(v)
                    self.root = child
                    enqueue(child)
                elif outd == 0 and v not in labels:
                    raise InternalConsistencyError("network degenerated to nothing")
                continue
            if outd == 0:
                if v in labels:
                    continue
                parents = ins[v]
                self.delete_vertex(v)
                for p in parents:
                    enqueue(p)
                continue
            if ind == 1 and outd == 1:
                p, c = ins[v][0], out[v][0]
                if c in out[p]:
                    # contracting would create a parallel pair p->c; both
                    # copies carry the same resolutions, so merge them
                    self.remove_branch(v, c)
                    enqueue(v)
                    enqueue(c)
                    continue
                self.contract(v)
                contracted.append(v)
                enqueue(p)
                enqueue(c)
        return contracted

    def set_label(self, v: int, label: str | None) -> None:
        if label is None:
            self.labels.pop(v, None)
        else:
            self.labels[v] = label

    def freeze(self) -> Network:
        return self._cls(self.out, self.labels, next_id=self._next)


# -- operations ---------------------------------------------------------------


def validate(net: Network, require_binary: bool = False) -> ValidationOutcome:
    """Check the structural invariants; violations are data, not failures.

    Both flavours come from one pass and are memoized together on the
    (immutable) network. The binary flavour is the plain one's violations
    followed by the degree checks.
    """
    found = net._cache.get("valid")
    if found is None:
        plain, degree = _violations(net)
        found = net._cache["valid"] = tuple(
            ValidationOutcome(not vs, tuple(vs)) for vs in (plain, plain + degree)
        )
    return found[require_binary]


def _violations(net: Network) -> tuple[list[Violation], list[Violation]]:
    """validate's checks in one pass over the vertices: the structural
    violations and, apart, the binary-degree ones. An acyclic network keeps
    the topological order found here, so later callers do not sort again.
    Reachability needs no check: in an acyclic graph with one indegree-0
    vertex, walking up parents from any vertex ends there."""
    vs: list[Violation] = []
    degree: list[Violation] = []
    verts = net.vertices

    roots = [v for v in verts if net.in_degree(v) == 0]
    if not roots:
        vs.append(Violation("no root: every vertex has a parent"))
    elif len(roots) > 1:
        for r in roots[1:]:
            vs.append(Violation("multiple indegree-0 vertices", vertex=r))

    order = net._try_topological_order()
    if order is None:
        vs.append(Violation("directed cycle present"))
    else:
        net._cache["topo"] = order

    check_degrees = len(verts) != 1
    seen_labels: dict[str, int] = {}
    for v in verts:
        ind, outd = net.in_degree(v), net.out_degree(v)
        lab = net.label(v)
        if outd == 0:
            if lab is None:
                vs.append(Violation("unlabeled leaf", vertex=v))
            if ind >= 2:
                vs.append(Violation("leaf with multiple parents", vertex=v))
        else:
            if lab is not None:
                vs.append(Violation("label on a non-leaf vertex", vertex=v))
        if ind == 1 and outd == 1:
            vs.append(Violation("suppressible vertex (indegree 1, outdegree 1)", vertex=v))
        if ind == 0 and outd == 1:
            vs.append(Violation("degenerate root (outdegree 1)", vertex=v))
        if ind >= 2 and outd >= 2:
            vs.append(Violation("vertex fits no kind (indegree >= 2, outdegree >= 2)", vertex=v))
        if lab is not None:
            if lab in seen_labels:
                vs.append(Violation(f"duplicate leaf label {lab!r}", vertex=v))
            seen_labels[lab] = v
        cs = net.children(v)
        if len(set(cs)) != len(cs):
            dup = next(c for c in cs if cs.count(c) > 1)
            vs.append(Violation("parallel branches", branch=Branch(v, dup)))
        if check_degrees and (ind, outd) not in ((0, 2), (1, 0), (1, 2), (2, 1)):
            degree.append(
                Violation(f"not binary: indegree {ind}, outdegree {outd}", vertex=v)
            )
    return vs, degree


def stability(net: Network) -> StabilityReport:
    """Stability flags and witness leaves (the smallest dominated leaf) for
    every vertex."""
    if "stab" in net._cache:
        return net._cache["stab"]
    net.require_valid()
    # Immediate dominators over a DAG need a single pass in topological
    # order: every parent is final before its child is processed.
    order = net.topological_order()
    root = net.root
    idom = {root: root}
    depth = {root: 0}

    def meet(a: int, b: int) -> int:
        while depth[a] > depth[b]:
            a = idom[a]
        while depth[b] > depth[a]:
            b = idom[b]
        while a != b:
            a = idom[a]
            b = idom[b]
        return a

    for v in order[1:]:
        ps = net.parents(v)
        d = ps[0]
        for p in ps[1:]:
            d = meet(d, p)
        idom[v] = d
        depth[v] = depth[d] + 1

    # smallest dominated leaf, folded bottom-up along the dominator tree;
    # an immediate dominator precedes its vertex in every topological
    # order, so the reversed order folds each vertex before its dominator
    witness: dict[int, int | None] = {
        v: (v if net.is_leaf(v) else None) for v in order
    }
    for v in reversed(order[1:]):
        w = witness[v]
        if w is None:
            continue
        up = idom[v]
        if witness[up] is None or w < witness[up]:
            witness[up] = w
    stable = {v: witness[v] is not None for v in order}
    rep = StabilityReport(stable, witness)
    net._cache["stab"] = rep
    return rep


def _subphylogeny_free(net: Network) -> bool:
    # A vertex roots a subphylogeny when no reticulation occurs among its
    # descendants; such a descendant set is a pendant subtree, so leaf
    # counts add up child-wise without double counting.
    order = net.topological_order()
    has_ret: dict[int, bool] = {}
    nleaves: dict[int, int] = {}
    ok = True
    for v in reversed(order):
        cs = net.children(v)
        hr = (net.in_degree(v) >= 2 and bool(cs)) or any(has_ret[c] for c in cs)
        has_ret[v] = hr
        if hr:
            nleaves[v] = 0
            continue
        nleaves[v] = 1 if not cs else sum(nleaves[c] for c in cs)
        if cs and nleaves[v] >= 2:
            ok = False
    return ok


# The network classes of the paper, each read off one stability report:
# tree-child (every vertex stable), reticulation-visible (every
# reticulation stable) and nearly stable (every vertex stable or all its
# parents stable).
_CLASS_TESTS = {
    "tree_child": lambda net, stable: all(stable.values()),
    "reticulation_visible": lambda net, stable: all(
        stable[r] for r in net.reticulations
    ),
    "nearly_stable": lambda net, stable: all(
        stable[v] or all(stable[p] for p in net.parents(v)) for v in net.vertices
    ),
}
CLASSES = tuple(_CLASS_TESTS)


def in_class(net: Network, name: str) -> bool:
    """Does the network belong to the named class of CLASSES? Raises
    InvalidNetworkError on an invalid network. Memoized on the network."""
    key = ("in_class", name)
    if key not in net._cache:
        if name not in _CLASS_TESTS:
            raise ValueError(f"unknown network class {name!r}")
        net._cache[key] = _CLASS_TESTS[name](net, stability(net).stable)
    return net._cache[key]


def classify(net: Network) -> ClassFlags:
    """Class membership flags: binary, tree-child, reticulation-visible,
    nearly stable, subphylogeny-free. Memoized on the (immutable) network."""
    if "class" in net._cache:
        return net._cache["class"]
    stable = stability(net).stable
    flags = ClassFlags(
        binary=validate(net, require_binary=True).ok,
        subphylogeny_free=_subphylogeny_free(net),
        **{name: test(net, stable) for name, test in _CLASS_TESTS.items()},
    )
    net._cache["class"] = flags
    return flags
