"""Verdict-free rewriting steps shared by the containment algorithm.

Every public reduction returns the rewritten structure(s) plus a
ReductionStep describing what happened; traces replay deterministically
(see replay_trace). Vertex ids of surviving vertices are stable across a
reduction, which is what makes the recorded branches meaningful later.
"""

from __future__ import annotations

import heapq
import re
from collections import deque
from dataclasses import dataclass, field

from .core import Branch, Network, NetworkEditor, PhyloTree
from .errors import InternalConsistencyError, LeafSetMismatchError, PatternMismatchError

_FRESH_RE = re.compile(r"^__r(\d+)$")


@dataclass(frozen=True)
class ReductionStep:
    """One rewriting event.

    removed_branches lists only the rule-mandated removals; vertices that
    the follow-up suppression contracted are in `contracted` (each had
    degrees (1,1) or (0,1) at contraction time).
    """

    kind: str  # cherry | case_A..case_J
    removed_branches: tuple[Branch, ...] = ()
    contracted: tuple[int, ...] = ()
    introduced_leaf: tuple[int, str] | None = None

    def to_line(self) -> str:
        removed = ",".join(str(b) for b in self.removed_branches)
        contracted = ",".join(str(v) for v in self.contracted)
        line = f"{self.kind} removed={removed} contracted={contracted}"
        if self.introduced_leaf is not None:
            v, lab = self.introduced_leaf
            line += f" introduced={v}:{lab}"
        return line


@dataclass
class ReductionTrace:
    steps: list[ReductionStep] = field(default_factory=list)

    def append(self, step: ReductionStep) -> None:
        self.steps.append(step)

    def extend(self, other: "ReductionTrace") -> None:
        self.steps.extend(other.steps)

    def to_text(self) -> str:
        return "\n".join(s.to_line() for s in self.steps)

    def __len__(self) -> int:
        return len(self.steps)


def _suppress_in_place(ed: NetworkEditor) -> list[int]:
    """Drive the editor to the suppression fixpoint.

    Removes unlabeled outdegree-0 vertices (and the dead-end paths above
    them), contracts (indegree 1, outdegree 1) vertices, and contracts
    outdegree-1 root chains. Returns contracted vertex ids in order.
    """
    contracted: list[int] = []
    queue = deque(sorted(ed.out))
    queued = set(queue)

    def enqueue(v: int) -> None:
        if v in ed.out and v not in queued:
            queue.append(v)
            queued.add(v)

    while queue:
        v = queue.popleft()
        queued.discard(v)
        if v not in ed.out:
            continue
        ind, outd = len(ed.ins[v]), len(ed.out[v])
        if ind == 0:
            if v != ed.root:
                raise InternalConsistencyError(
                    f"vertex {v} lost all parents but is not the root"
                )
            if outd == 1:
                child = ed.out[v][0]
                if ed.ins[child] != [v]:
                    raise InternalConsistencyError(
                        f"root chain child {child} has extra parents"
                    )
                ed.delete_vertex(v)
                contracted.append(v)
                ed.root = child
                enqueue(child)
            elif outd == 0 and v not in ed.labels:
                raise InternalConsistencyError("network degenerated to nothing")
            continue
        if outd == 0:
            if v in ed.labels:
                continue
            parents = list(ed.ins[v])
            ed.delete_vertex(v)
            for p in parents:
                enqueue(p)
            continue
        if ind == 1 and outd == 1:
            p, c = ed.ins[v][0], ed.out[v][0]
            if c in ed.out[p]:
                # contracting would create a parallel pair p->c; both
                # copies carry the same resolutions, so merge them
                ed.remove_branch(v, c)
                enqueue(v)
                enqueue(c)
                continue
            ed.contract(v)
            contracted.append(v)
            enqueue(p)
            enqueue(c)
    return contracted


def _check_same_leaves(net: Network, tree: Network) -> None:
    if net.label_set() != tree.label_set():
        raise LeafSetMismatchError(
            f"leaf label sets differ: {sorted(net.label_set() ^ tree.label_set())}"
        )


def _cherry_at(out, ins, v: int):
    """(l1, l2, v) with l1 < l2 when v is a strict tree vertex over two
    leaves, else None. Takes adjacency maps, so that frozen networks and
    editors share it."""
    cs = out[v]
    if len(ins[v]) == 1 and len(cs) == 2 and not out[cs[0]] and not out[cs[1]]:
        return (min(cs), max(cs), v)
    return None


def net_cherry(net: Network):
    """The cherry under the smallest-id cherry parent, or None."""
    for v in net.vertices:
        found = _cherry_at(net._out, net._in, v)
        if found is not None:
            return found
    return None


def _collapse_cherry(
    ned: NetworkEditor, ted: NetworkEditor, l1: int, l2: int, p: int, q: int, lab: str
) -> None:
    """Replace the net cherry p -> {l1, l2} and the tree cherry under q,
    which holds the same two labels, by one leaf labelled lab on each side."""
    ned.delete_vertex(l1)
    ned.delete_vertex(l2)
    ned.set_label(p, lab)
    for t in list(ted.out[q]):
        ted.delete_vertex(t)
    ted.set_label(q, lab)


def cherry_reduce(
    net: Network, tree: PhyloTree
) -> tuple[Network, PhyloTree, ReductionTrace]:
    """Collapse cherries common to net and tree until none remains.

    Each round replaces the smallest common cherry (l1, l2, parent) by a
    fresh reserved leaf (``__r<k>``) on both sides, keeping the leaf label
    sets equal. Cherries present only in one structure are left alone.
    Both sides are edited in place and frozen once, at the end; the inputs
    come back unchanged when no cherry is common.
    """
    _check_same_leaves(net, tree)
    ned, ted = NetworkEditor(net), NetworkEditor(tree)
    tree_parent = {lab: (ted.ins[v] or [None])[0] for v, lab in ted.labels.items()}

    def common(found) -> bool:
        return found is not None and (
            tree_parent[ned.labels[found[0]]] == tree_parent[ned.labels[found[1]]]
        )

    # A collapse deletes only l1 and l2 and relabels p (and t1, t2, q in the
    # tree), so every other common cherry stays common and the only new
    # candidate is the one holding p's new label, under p's parent. The
    # heap therefore yields the same smallest cherry a full rescan would.
    heap = [c for c in (_cherry_at(ned.out, ned.ins, v) for v in ned.out) if common(c)]
    heapq.heapify(heap)
    # each new label is the largest, and labelled leaves go only by collapse
    fresh = 1 + max(
        (int(m.group(1)) for m in map(_FRESH_RE.match, ned.labels.values()) if m),
        default=-1,
    )
    trace = ReductionTrace()
    while heap:
        l1, l2, p = heapq.heappop(heap)
        lab = f"__r{fresh}"
        fresh += 1
        q = tree_parent.pop(ned.labels[l1])
        del tree_parent[ned.labels[l2]]
        _collapse_cherry(ned, ted, l1, l2, p, q, lab)
        tree_parent[lab] = (ted.ins[q] or [None])[0]
        trace.append(
            ReductionStep("cherry", (Branch(p, l1), Branch(p, l2)), (), (p, lab))
        )
        found = _cherry_at(ned.out, ned.ins, ned.ins[p][0])
        if common(found):
            heapq.heappush(heap, found)
    if not trace:
        return net, tree, trace
    return ned.freeze(), ted.freeze(), trace


def _uncle_nephew_site(net: Network, site: int):
    """Return (leaf, ret, ret_leaf) below the site or raise."""
    if site not in net:
        raise PatternMismatchError(f"unknown vertex {site}")
    if net.in_degree(site) < 1 or net.out_degree(site) != 2:
        raise PatternMismatchError(f"vertex {site} is not a binary tree vertex")
    c1, c2 = net.children(site)
    for leaf, ret in ((c1, c2), (c2, c1)):
        if (
            net.is_leaf(leaf)
            and net.in_degree(ret) == 2
            and net.out_degree(ret) == 1
            and net.is_leaf(net.children(ret)[0])
        ):
            return leaf, ret, net.children(ret)[0]
    raise PatternMismatchError(
        f"vertex {site} does not head an uncle-nephew pattern"
    )


def _uncle_nephew_branch(net: Network, tree: PhyloTree, site: int) -> Branch:
    """Pick the branch the uncle-nephew rule removes below `site`."""
    leaf, ret, ret_leaf = _uncle_nephew_site(net, site)
    sib = tree.parent_of_label(net.label(leaf)) == tree.parent_of_label(
        net.label(ret_leaf)
    )
    if not sib:
        return Branch(site, ret)
    others = [p for p in net.parents(ret) if p != site]
    if len(others) != 1:
        raise PatternMismatchError(
            f"reticulation {ret} lacks a unique outside parent"
        )
    return Branch(others[0], ret)


def replay_trace(
    net: Network, tree: PhyloTree, trace: ReductionTrace
) -> list[tuple[Network, PhyloTree]]:
    """Re-apply a trace to the pair it was recorded from.

    Returns every intermediate state, starting with the inputs; the final
    pair reproduces the original run bit-for-bit under canonical
    serialization.
    """
    states = [(net, tree)]
    for step in trace.steps:
        ned = NetworkEditor(net)
        if step.kind == "cherry":
            b1, b2 = step.removed_branches
            p, l1, l2 = b1.tail, b1.head, b2.head
            v, lab = step.introduced_leaf
            if v != p:
                raise InternalConsistencyError("cherry step names two parents")
            ted = NetworkEditor(tree)
            q = tree.parent_of_label(net.label(l1))
            _collapse_cherry(ned, ted, l1, l2, p, q, lab)
            tree = ted.freeze()
        else:
            for b in step.removed_branches:
                ned.remove_branch(*b)
            _suppress_in_place(ned)
        net = ned.freeze()
        states.append((net, tree))
    return states
