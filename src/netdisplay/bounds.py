"""Reticulation budgets and the rewiring that enforces them.

Three pieces: a census (class_stats), size bounds that hold per network
class (verify_bounds), and two constructions: a branch-removal matching
that avoids dummy leaves on reticulation-visible networks, and the
rewiring that turns a nearly stable network into a reticulation-visible
one without touching the leaf set.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import NamedTuple

from .core import Branch, Network, NetworkEditor, _stability, in_class
from .errors import ClassPreconditionError, InternalConsistencyError
from .tcp import Resolution


@dataclass(frozen=True)
class ClassStats:
    """Degree census plus the stable/unstable reticulation split.

    tree_vertices counts the root together with the internal outdegree-2
    vertices, which is what makes tree_vertices = n_leaves - 1 +
    m_reticulations hold on every binary network.
    """

    n_leaves: int
    m_reticulations: int
    s_ret: int
    u_ret: int
    tree_vertices: int
    branches: int

    def to_dict(self) -> dict:
        return asdict(self)


class BoundCheck(NamedTuple):
    name: str
    limit: int
    observed: int
    passed: bool


@dataclass(frozen=True)
class BoundReport:
    checks: tuple[BoundCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_rows(self) -> list:
        return [
            {
                "name": c.name,
                "limit": c.limit,
                "observed": c.observed,
                "pass": c.passed,
            }
            for c in self.checks
        ]


def class_stats(net: Network) -> ClassStats:
    net.require_valid(require_binary=True)
    ins = net._in
    u_ret = sum(len(ins[v]) > 1 for v in _stability(net)[1])
    # valid and binary: each vertex but the root has one parent, two at a
    # reticulation, and the others are leaves and tree vertices
    n_vertices, n_leaves = len(ins), len(net._labels)
    branches = sum(map(len, ins.values()))
    m = branches - n_vertices + 1
    return ClassStats(
        n_leaves=n_leaves,
        m_reticulations=m,
        s_ret=m - u_ret,
        u_ret=u_ret,
        tree_vertices=n_vertices - n_leaves - m,
        branches=branches,
    )


# (class, check name, factor, census field): every network of the class
# has census field <= factor * (n - 1)
_BOUNDS = (
    ("reticulation_visible", "reticulations<=4(n-1)", 4, "m_reticulations"),
    ("nearly_stable", "reticulations<=12(n-1)", 12, "m_reticulations"),
    ("nearly_stable", "tree_vertices<=13(n-1)", 13, "tree_vertices"),
    ("nearly_stable", "branches<=38(n-1)", 38, "branches"),
)


def verify_bounds(net: Network) -> BoundReport:
    """Evaluate every size bound the network's class entitles it to.

    Reticulation-visible networks get the 4(n-1) reticulation cap; nearly
    stable ones get the 12/13/38(n-1) caps and the unstable-vs-stable
    reticulation inequality. Networks in neither class yield an empty
    report.
    """
    # the class tests validate plainly, so they raise before class_stats
    # raises for a non-binary network
    member = {cls: in_class(net, cls) for cls in dict.fromkeys(b[0] for b in _BOUNDS)}
    stats = class_stats(net)
    n1 = stats.n_leaves - 1
    rows = [
        (name, factor * n1, getattr(stats, field))
        for cls, name, factor, field in _BOUNDS
        if member[cls]
    ]
    if member["nearly_stable"]:
        rows.append(("unstable<=2*stable", 2 * stats.s_ret, stats.u_ret))
    return BoundReport(
        tuple(BoundCheck(name, limit, seen, seen <= limit) for name, limit, seen in rows)
    )


def _try_augment(net: Network, start: int, match_of_tail: dict) -> None:
    """Grow the tail matching by one reticulation along its alternating path.

    In a binary network each tail parents at most two reticulations and
    each reticulation has two tails, so the conflicts form paths and
    cycles. The walk gives `start` its smaller-id tail and moves that
    tail's holder to its other tail, and so on; no tail comes up twice and
    the walk ends at a free tail: the end of a path, or on a cycle of k
    tails the one the k - 1 matched reticulations leave over.
    """
    r, t = start, min(net.parents(start))
    seen = set()
    while t not in seen:
        seen.add(t)
        holder = match_of_tail.get(t)
        match_of_tail[t] = r
        if holder is None:
            return
        a, b = net.parents(holder)
        r, t = holder, (b if a == t else a)
    raise InternalConsistencyError(
        f"no removal matching covers reticulation {start}"
    )


def select_dummy_free_removal(net: Network) -> Resolution:
    """Pick which in-branch each reticulation keeps so that the removed
    branches never share a tail.

    With distinct removal tails no tree vertex loses both out-branches, so
    the resolved spanning tree carries no unlabeled dead ends even before
    suppression. The matching exists whenever every reticulation is
    stable; rets are matched in ascending id order and prefer their
    smaller-id parent, so the output is deterministic.
    """
    net.require_valid(require_binary=True)
    if not in_class(net, "reticulation_visible"):
        raise ClassPreconditionError(
            "dummy-free removal requires every reticulation to be stable"
        )
    match_of_tail: dict = {}
    for r in net.reticulations:
        _try_augment(net, r, match_of_tail)
    removed_tail = {r: t for t, r in match_of_tail.items()}
    kept = []
    for r in net.reticulations:
        keepers = [p for p in net.parents(r) if p != removed_tail[r]]
        if len(keepers) != 1:
            raise InternalConsistencyError(
                f"reticulation {r} lacks a unique kept in-branch"
            )
        kept.append((r, Branch(keepers[0], r)))
    return Resolution(tuple(kept))


def ns_to_rv_transform(net: Network) -> tuple[Network, ClassStats, ClassStats]:
    """Rewire a nearly stable network until every reticulation is stable.

    An unstable reticulation r has a stable reticulation child and two
    stable tree-vertex parents; cutting the smaller-id parent's branch
    leaves two degree-two vertices that contract away. The input's
    stability fixes every cut, so one walk over one editor makes them all:
    1. A cut and its suppression only remove or shorten root-to-leaf
       paths, so every surviving stable vertex stays stable.
    2. Another unstable reticulation u stays unstable: a path that avoided
       u through the cut branch reroutes via r's kept parent p2, which
       some root path reaches without u (else u dominates p2's leaf).
    3. No tree vertex t parents two unstable reticulations r1, r2: both
       reach t's witness leaf, so t dominates their other parents q1, q2,
       which lie below r2 and r1, closing a cycle r1 q2 r2 q1. So no cut
       touches another target's parents, and any walk makes the same cuts.
    """
    net.require_valid(require_binary=True)
    if not in_class(net, "nearly_stable"):
        raise ClassPreconditionError(
            "the rewiring requires a nearly stable network"
        )
    before = class_stats(net)
    ed = NetworkEditor(net)
    for r in _stability(net)[1]:  # the unstable vertices, in topological order
        if len(net._in[r]) < 2:
            continue
        child = ed.out[r][0]
        if not (len(ed.ins[child]) >= 2 and len(ed.out[child]) == 1):
            raise InternalConsistencyError(
                f"unstable reticulation {r} lacks a reticulation child"
            )
        ed.prune([Branch(min(ed.ins[r]), r)])
    out = ed.freeze()
    after = class_stats(out)
    if after.u_ret != 0:
        raise InternalConsistencyError(
            "rewiring finished without reaching reticulation visibility"
        )
    if not (before.s_ret <= after.s_ret <= before.s_ret + before.u_ret):
        raise InternalConsistencyError(
            "stable reticulation count moved outside its promised range"
        )
    return out, before, after
