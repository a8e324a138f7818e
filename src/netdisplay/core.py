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
from itertools import filterfalse
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


# validate's memo for a network without violations: both flavours clean
_CLEAN = (ValidationOutcome(True, ()), ValidationOutcome(True, ()))


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
        self, out_adj: Mapping[int, Iterable[int]], leaf_labels: Mapping[int, str],
        next_id: int | None = None,
    ):
        """The public constructor: builds the parent tuples, the root and
        the next id from `out_adj` and `leaf_labels`, as _from_maps takes
        them."""
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
        root = min((v for v, ps in ins.items() if not ps), default=None)
        top = max(out) + 1 if out else 0
        self._take(
            out, {v: tuple(ps) for v, ps in ins.items()}, dict(leaf_labels), root,
            top if next_id is None else max(next_id, top),
        )

    def _take(self, out, ins, labels, root, next_id, cache=None) -> "Network":
        self._out, self._in, self._labels, self._root = out, ins, labels, root
        self._next_id, self._cache = next_id, {} if cache is None else cache
        return self

    @classmethod
    def _from_maps(
        cls, out: dict, ins: dict, labels: dict, root: int | None, next_id: int,
        topo=None, leaf_of=None, fresh=None, rets=None,
    ) -> "Network":
        """A network that keeps the maps its builder made, with no work
        per vertex; the builder must not edit them after. They must be the
        maps __init__ builds from `out` and `labels`: `ins` keyed like
        `out`, each parent tuple in `out`'s key order; `root` the smallest
        parentless id; `next_id` above every id. The tuples should hold
        the key objects themselves: a dict matches a key by identity
        first, and ids above 256 are distinct int objects of equal value.
        Memo hints a builder has proved: the topological order `topo` of a
        valid binary network (validate answers from it), a tree's label
        -> vertex map `leaf_of` (_leaf_of answers from it), `fresh`, the
        first ``__r<k>`` not in use, which the reduction loop then need
        not scan the labels for, and `rets`, the `reticulations` tuple.
        """
        cache = {} if topo is None else {"topo": topo, "valid": _CLEAN}
        if leaf_of is not None:
            cache["leaf_of"] = leaf_of
        if fresh is not None:
            cache["fresh"] = fresh
        if rets is not None:
            cache["rets"] = rets
        return object.__new__(cls)._take(out, ins, labels, root, next_id, cache)

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

    def children(self, v: int) -> tuple[int, ...]:
        return self._out[v]

    def parents(self, v: int) -> tuple[int, ...]:
        return self._in[v]

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
        """The vertices with two or more parents and a child, in id order;
        memoized, or a builder's hint (see _from_maps)."""
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

    def has_branch(self, tail: int, head: int) -> bool:
        return head in self._out.get(tail, ())

    # -- derived structure ---------------------------------------------------

    def topological_order(self) -> tuple[int, ...]:
        """Vertices with every parent before its children; smallest-id-first
        among the ready set, so the order is deterministic."""
        if "topo" in self._cache:
            return self._cache["topo"]
        order = _topological_order(self._out, self._in)
        if order is None:
            raise InvalidNetworkError("network contains a directed cycle")
        self._cache["topo"] = order
        return order

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
    not type, so a reticulation-free binary Network passes and a PhyloTree
    constructed with a reticulation fails. Answers from the reticulation
    memo when there is one, as on a parsed tree, which the parser proved
    to have none; else sorts no vertex unless some vertex has two parents."""
    rets = net._cache.get("rets")
    if rets is None and max(map(len, net._in.values()), default=0) > 1:
        rets = net.reticulations
    if rets:
        raise InvalidNetworkError("network has reticulations; not a tree")
    net.require_valid(require_binary=True)


def _leaf_of(net: Network) -> dict[str, int]:
    """The label -> leaf vertex map of a network with distinct labels,
    memoized; a parsed tree has it from the parser (see _from_maps).
    Shared with the network: a reader that edits it edits a copy."""
    found = net._cache.get("leaf_of")
    if found is None:
        found = net._cache["leaf_of"] = {lab: v for v, lab in net._labels.items()}
    return found


class PhyloTree(Network):
    """A network with zero reticulations and binary internal vertices."""

    @classmethod
    def from_network(cls, net: Network) -> "PhyloTree":
        """The network as a tree, on its own (immutable) maps; the memos
        stay with the network."""
        require_tree(net)
        return cls._from_maps(net._out, net._in, net._labels, net._root, net._next_id)


def _without(t: tuple, x: int) -> tuple:
    """t without its first x; ValueError when x is not in t."""
    i = t.index(x)
    return t[:i] + t[i + 1 :]


class NetworkEditor:
    """Scratch copy of a network for deriving a new one.

    Fresh vertex ids continue from the source network's counter, so ids of
    surviving vertices are stable across a derivation and new ids never
    collide with deleted ones. freeze() builds the source's class, so an
    edited PhyloTree comes back as a PhyloTree (unvalidated, like any
    frozen result). Readers read its maps: `out` and `ins` (vertex ->
    child and parent tuples), `labels` (written to label a vertex) and `root`.

    The adjacency values are immutable tuples that an edit rebinds, never
    mutates, so building an editor copies two dicts and shares every tuple
    with the source network until an edit replaces it.
    """

    def __init__(self, net: Network):
        self.out = dict(net._out)
        self.ins = dict(net._in)
        self.labels = dict(net._labels)
        self.root = net._root
        self._new = self._next = net.next_id  # _new: the first id made here
        self._cls, self._appended, self._rank = type(net), set(), None  # see freeze

    def new_vertex(self) -> int:
        v = self._next
        self._next += 1
        self.out[v] = ()
        self.ins[v] = ()
        return v

    def add_branch(self, tail: int, head: int) -> None:
        out = self.out
        if head in out[tail]:
            raise InternalConsistencyError(
                f"adding branch {tail}->{head} would create a parallel branch"
            )
        out[tail] += (head,)
        ps, self.ins[head] = self.ins[head], self.ins[head] + (tail,)
        if ps and (tail < self._new or tail < max(ps)):
            self._appended.add(head)

    def remove_branch(self, tail: int, head: int) -> None:
        out, ins = self.out, self.ins
        out[tail] = _without(out[tail], head)
        ins[head] = _without(ins[head], tail)

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
        pop, push = heapq.heappop, heapq.heappush
        contracted: list[int] = []
        sweep = sorted(v for v in touched if v in out)  # a sorted list is a heap
        queued = set(sweep)
        tail: deque[int] = deque()
        swept = -1
        while sweep or tail:
            if sweep:
                v = swept = pop(sweep)
            else:
                v, swept = tail.popleft(), math.inf
            queued.discard(v)
            if v not in out:
                continue
            ps, cs = ins[v], out[v]
            # each edit below deletes or rewires v, rebinding the tuples it
            # changes, and names the vertices it changed (nxt), which the
            # sweep then queues
            if not ps:
                if v != self.root:
                    raise InternalConsistencyError(
                        f"vertex {v} lost all parents but is not the root"
                    )
                if len(cs) != 1:
                    if not cs and v not in labels:
                        raise InternalConsistencyError("network degenerated to nothing")
                    continue
                child = cs[0]
                if len(ins[child]) != 1:  # v is one of its parents
                    raise InternalConsistencyError(
                        f"root chain child {child} has extra parents"
                    )
                del out[v], ins[v]
                labels.pop(v, None)
                ins[child] = ()
                self.root = child
                contracted.append(v)
                nxt = cs
            elif not cs:
                if v in labels:
                    continue
                # an unlabeled dead end goes, and each parent loses a child
                del out[v], ins[v]
                for p in ps:
                    out[p] = _without(out[p], v)
                nxt = ps
            elif len(ps) == 1 and len(cs) == 1:
                p, c = ps[0], cs[0]
                if c in out[p]:
                    # contracting would create a parallel pair p->c; both
                    # copies carry the same resolutions, so merge them
                    out[v] = ()
                    ins[c] = _without(ins[c], v)
                    nxt = (v, c)
                else:
                    # contract v: p->c goes last on both tuples
                    del out[v], ins[v]
                    labels.pop(v, None)
                    out[p] = _without(out[p], v) + (c,)
                    ins[c] = _without(ins[c], v) + (p,)
                    if len(ins[c]) > 1:
                        self._appended.add(c)
                    contracted.append(v)
                    nxt = (p, c)
            else:
                continue
            for u in nxt:
                if u in out and u not in queued:
                    touched.add(u)
                    queued.add(u)
                    if u > swept:
                        push(sweep, u)
                    else:
                        tail.append(u)
        return contracted

    def freeze(self, rets: tuple | None = None) -> Network:
        """The network __init__ builds from `out`, `labels` and the next
        id, of the source's class, on copies of the maps, with the
        caller's proved `reticulations` tuple `rets` as a memo hint.

        __init__ lists parents in `out`'s key order: the source's keys in
        its order, less deleted ones, then those made here, in id order.
        A parent tuple keeps that order as parents leave it, but not
        always where add_branch or suppress append one. Those vertices
        wait in `_appended` (add_branch skips a vertex made here above
        every parent there: it comes last), and just their tuples are
        sorted, by key position (`_rank`, taken at the first sort; later
        vertices follow in id order). The editor keeps its own order,
        which suppress's sweep reads. `root` is the source's, moved only
        by suppress's root-chain contraction: __init__'s smallest
        parentless id while every other parentless vertex has a larger
        id, as new_vertex's do and suppress lets no other stay.
        """
        out, ins, appended = dict(self.out), dict(self.ins), self._appended
        if appended:
            if self._rank is None:
                self._rank = {v: i for i, v in enumerate(out)}
            rank, top = self._rank.get, len(self._rank)
            for c in list(appended):
                ps = ins.get(c, ())
                fixed = tuple(sorted(ps, key=lambda v: rank(v, top + v)))
                if fixed == ps:  # in order until the next append
                    appended.discard(c)
                else:
                    ins[c] = fixed
        return self._cls._from_maps(
            out, ins, dict(self.labels), self.root, self._next, rets=rets
        )


# -- operations ---------------------------------------------------------------


def _topological_order(out: Mapping, ins: Mapping) -> tuple[int, ...] | None:
    """The vertices of adjacency maps with every parent before its
    children, smallest id first among the ready set; None on a cycle."""
    indeg = {v: len(ins[v]) for v in out}
    ready = [v for v, d in indeg.items() if d == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        v = heapq.heappop(ready)
        order.append(v)
        for c in out[v]:
            indeg[c] -= 1
            if indeg[c] == 0:
                heapq.heappush(ready, c)
    if len(order) != len(out):
        return None
    return tuple(order)


def validate(net: Network, require_binary: bool = False) -> ValidationOutcome:
    """Check the structural invariants; violations are data, not failures.

    Both flavours come from one pass and are memoized together on the
    (immutable) network. The binary flavour is the plain one's violations
    followed by the degree checks. An acyclic network keeps the
    topological order found here, so later callers do not sort again.
    """
    found = net._cache.get("valid")
    if found is None:
        order = _topological_order(net._out, net._in)
        if order is not None:
            net._cache["topo"] = order
        plain, degree = _violations(net._out, net._in, net._labels, order)
        found = net._cache["valid"] = tuple(
            ValidationOutcome(not vs, tuple(vs)) for vs in (plain, plain + degree)
        )
    return found[require_binary]


def _violations(
    out: Mapping, ins: Mapping, labels: Mapping, order
) -> tuple[list[Violation], list[Violation]]:
    """validate's checks in one pass over the vertices of adjacency maps,
    which networks and editors share: the structural violations and,
    apart, the binary-degree ones. `order` is _topological_order of the
    maps, None on a cycle. Reachability needs no check: in an acyclic
    graph with one indegree-0 vertex, walking up parents from any vertex
    ends there."""
    vs: list[Violation] = []
    degree: list[Violation] = []
    verts = sorted(out)

    roots = [v for v in verts if not ins[v]]
    if not roots:
        vs.append(Violation("no root: every vertex has a parent"))
    elif len(roots) > 1:
        for r in roots[1:]:
            vs.append(Violation("multiple indegree-0 vertices", vertex=r))

    if order is None:
        vs.append(Violation("directed cycle present"))

    check_degrees = len(verts) != 1
    seen_labels: dict[str, int] = {}
    for v in verts:
        cs = out[v]
        ind, outd = len(ins[v]), len(cs)
        lab = labels.get(v)
        if outd == 0:
            if lab is None:
                vs.append(Violation("unlabeled leaf", vertex=v))
            if ind >= 2:
                vs.append(Violation("leaf with multiple parents", vertex=v))
        elif lab is not None:
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
        if outd > 1 and len(set(cs)) != outd:
            dup = next(c for c in cs if cs.count(c) > 1)
            vs.append(Violation("parallel branches", branch=Branch(v, dup)))
        if check_degrees and (ind, outd) not in ((0, 2), (1, 0), (1, 2), (2, 1)):
            degree.append(
                Violation(f"not binary: indegree {ind}, outdegree {outd}", vertex=v)
            )
    return vs, degree


def _stability(net: Network) -> tuple[list, list]:
    """Every vertex's stable flag and the unstable vertices, memoized: a
    list indexed by vertex id (ids are below next_id; an id that is not a
    vertex has either flag) of whether the vertex dominates some leaf, and
    the vertices that do not, in topological order. InvalidNetworkError
    on an invalid network.

    A vertex with one parent is dominated by it, so walking up from each
    leaf while the vertex has one parent, and stopping at a vertex marked
    before, marks only stable vertices. A walk stops at the root or at a
    reticulation, whose immediate dominator it does not know. So a vertex
    is marked iff it is a leaf or the only parent of a marked vertex, and
    as only reticulations have two parents in a valid network:

    Lemma 1. A vertex is unmarked iff it has a child and each child is a
    reticulation or an unmarked vertex with one parent.

    Two starts find the same marks. _leaf_marks walks the leaf chains:
    Theta(V) steps. _reticulation_marks counts down from the
    reticulations: O(m + unmarked) steps, each dearer, plus a C-level
    fill. It runs where V >= 6m, near where the two cross. Warm medians
    (Python 3.11, x86-64): on the generator's candidates of the first
    gen-recipes block, 1.1 us against 3.2 us at V/m in [3, 3.5), where 63%
    of them lie, 1.7 against 1.8 in [5, 6), 1.7 against 1.5 in [6, 8) and
    1.6 against 0.9 above; on nearly stable builder networks at n = 800,
    308 against 566 us at V/m = 4, 278 against 294 at 6, and 252 against
    141 at 8. The ns-scaling networks have V/m near 10. The count alone
    slowed that gen-recipes block by 5%.

    The marks are exact unless some unmarked vertex with one parent has
    an unmarked parent:

    Lemma 2. If an unmarked vertex u is stable, then u has an unmarked
    child with one parent.
    Proof. Let w be the first vertex in topological order that u strictly
    dominates. Every parent of w is dominated by u and comes before w, so
    u does not strictly dominate it: it is u. A valid network has no
    parallel branches, so w has exactly one parent, u. If w were marked,
    the walk through w would have marked u.

    Otherwise the walks resume from the reticulations they stopped at, the
    marked ones, through immediate dominators (_dominators), each up to a
    vertex marked before. Then the idom of every marked vertex is marked,
    so the marks are the union of the leaves' dominator chains: the
    stable vertices. Only a marked reticulation may resume, as an
    unmarked one dominates no leaf and neither need its dominators.
    """
    found = net._cache.get("stab")
    if found is not None:
        return found
    net.require_valid()
    ins, rets = net._in, net.reticulations
    if len(ins) >= 6 * len(rets):
        stable = _reticulation_marks(net, rets)
    else:
        stable = _leaf_marks(net)
    unstable = list(filterfalse(stable.__getitem__, net.topological_order()))
    for v in unstable:
        ps = ins[v]
        if len(ps) == 1 and not stable[ps[0]]:  # the marks may be short (Lemma 2)
            idom = _dominators(net)
            for r in list(filter(stable.__getitem__, rets)):  # where walks stopped
                u = idom[r]
                while not stable[u]:
                    stable[u] = True
                    u = idom[u]
            unstable = list(filterfalse(stable.__getitem__, unstable))
            break
    found = net._cache["stab"] = (stable, unstable)
    return found


def _leaf_marks(net: Network) -> list:
    """_stability's marks, by id (False where no vertex), from walks up
    each leaf chain."""
    ins = net._in
    marked = [False] * net._next_id
    for v in net._labels:  # a valid network labels exactly its leaves
        while not marked[v]:
            marked[v] = True
            ps = ins[v]
            if len(ps) != 1:
                break
            v = ps[0]
    return marked


def _reticulation_marks(net: Network, rets: tuple) -> list:
    """_stability's marks, by id (True where no vertex), from Lemma 1:
    `left` counts down, per vertex, the children not yet known to be a
    reticulation or an unmarked vertex with one parent. Each reticulation
    counts at its parents; a vertex that reaches 0 is unmarked and, if it
    has one parent, counts there (a reticulation counted already). So
    each branch counts at most once."""
    out, ins = net._out, net._in
    marked = [True] * net._next_id
    left: dict[int, int] = {}
    for r in rets:
        for p in ins[r]:
            while True:
                k = (left.get(p) or len(out[p])) - 1
                if k:
                    left[p] = k
                    break
                marked[p] = False
                ps = ins[p]
                if len(ps) != 1:
                    break
                p = ps[0]
    return marked


def _dominators(net: Network) -> list:
    """Every vertex's immediate dominator, memoized: a list indexed by
    vertex id, whose entry for the root is the root. The network must be
    valid.

    One pass in topological order: every parent is final before its
    child, and a vertex's dominator is the meet of its parents up the
    dominator tree.
    """
    found = net._cache.get("idom")
    if found is not None:
        return found
    order, ins = net.topological_order(), net._in
    idom, depth = [order[0]] * net._next_id, [0] * net._next_id
    for v in order[1:]:  # after the root, the one vertex without parents
        ps = ins[v]
        d = ps[0]  # a vertex with one parent is dominated by it
        if len(ps) > 1:  # meet the parents up the dominator tree
            for b in ps[1:]:
                da, db = depth[d], depth[b]
                while da > db:
                    d, da = idom[d], da - 1
                while db > da:
                    b, db = idom[b], db - 1
                while d != b:
                    d, b = idom[d], idom[b]
        idom[v] = d
        depth[v] = depth[d] + 1
    net._cache["idom"] = idom
    return idom


def stability(net: Network) -> StabilityReport:
    """Stability flags and witness leaves (the smallest dominated leaf) for
    every vertex, keyed in topological order. Memoized.

    A vertex dominates exactly the leaves whose dominator chains (leaf,
    its idom, that one's idom, ..., root) hold it. Leaves walk their
    chains in ascending order and stop at the first vertex reached before.
    By induction over the walks, every vertex on the chain above a
    reached one is reached, so a stop skips no unreached vertex, and the
    first leaf to reach a vertex is its smallest dominated leaf.
    """
    if "stab_report" not in net._cache:
        net.require_valid()
        idom = _dominators(net)
        witness = [None] * net._next_id
        # a valid network labels exactly its leaves; idom[root] is the root
        for leaf in sorted(net._labels):
            v = leaf
            while witness[v] is None:
                witness[v] = leaf
                v = idom[v]
        wit = {v: witness[v] for v in net.topological_order()}
        stable = {v: w is not None for v, w in wit.items()}
        net._cache["stab_report"] = StabilityReport(stable, wit)
    return net._cache["stab_report"]


def _subphylogeny_free(net: Network) -> bool:
    # A vertex roots a subphylogeny when no reticulation occurs among its
    # descendants; such a descendant set is a pendant subtree, so leaf
    # counts add up child-wise without double counting. The first internal
    # one with two or more leaves decides.
    out, ins = net._out, net._in
    nleaves: dict[int, int | None] = {}  # None: a reticulation at or below
    for v in reversed(net.topological_order()):
        cs = out[v]
        if len(ins[v]) >= 2 and cs:
            nleaves[v] = None
            continue
        k = 0 if cs else 1
        for c in cs:
            kc = nleaves[c]
            if kc is None:
                k = None
                break
            k += kc
        if k is not None and k >= 2:
            return False
        nleaves[v] = k
    return True


# The network classes of the paper, each read off the parent tuples and
# _stability's memo, the stable flags and the unstable vertices; none
# needs a witness leaf: tree-child (every vertex stable),
# reticulation-visible (every reticulation stable; a leaf is stable, so
# an unstable vertex with two parents is a reticulation) and nearly
# stable (every vertex stable or all its parents stable).
_CLASS_TESTS = {
    "tree_child": lambda ins, stable, unstable: not unstable,
    "reticulation_visible": lambda ins, stable, unstable: all(
        len(ins[v]) < 2 for v in unstable
    ),
    "nearly_stable": lambda ins, stable, unstable: all(
        stable[p] for v in unstable for p in ins[v]
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
        net._cache[key] = _CLASS_TESTS[name](net._in, *_stability(net))
    return net._cache[key]


def classify(net: Network) -> ClassFlags:
    """Class membership flags: binary, tree-child, reticulation-visible,
    nearly stable, subphylogeny-free. Memoized on the (immutable) network."""
    if "class" in net._cache:
        return net._cache["class"]
    ins, (stable, unstable) = net._in, _stability(net)
    flags = ClassFlags(
        binary=validate(net, require_binary=True).ok,
        subphylogeny_free=_subphylogeny_free(net),
        **{name: test(ins, stable, unstable) for name, test in _CLASS_TESTS.items()},
    )
    net._cache["class"] = flags
    return flags
