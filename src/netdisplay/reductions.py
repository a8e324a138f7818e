"""Verdict-free rewriting steps shared by the containment algorithm.

The reduction loop edits one ReductionState in place from entry to
verdict. Every reduction is recorded as a ReductionStep; traces replay
deterministically on frozen structures (see replay_trace), which checks
that each cherry step names a common cherry and each case step's
contracted vertices against the record. Branch removals go
through NetworkEditor.prune, which suppresses from the removed branches'
ends back to a valid network.
Vertex ids of surviving vertices are stable across a reduction, which is
what makes the recorded branches meaningful later.
"""

from __future__ import annotations

import heapq
import re
from dataclasses import dataclass, field

from .core import Branch, Network, NetworkEditor, PhyloTree, require_tree
from .errors import InternalConsistencyError, LeafSetMismatchError

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

    def __init__(self, kind, removed_branches=(), contracted=(), introduced_leaf=None):
        # a decide builds hundreds of steps; one dict update is cheaper than
        # the frozen dataclass's object.__setattr__ per field
        self.__dict__.update(kind=kind, removed_branches=removed_branches,
                             contracted=contracted, introduced_leaf=introduced_leaf)

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


def _check_same_leaves(net: Network, tree: Network) -> None:
    if net.label_set() != tree.label_set():
        raise LeafSetMismatchError(
            f"leaf label sets differ: {sorted(net.label_set() ^ tree.label_set())}"
        )


def _cherry_at(out, ins, v: int):
    """(l1, l2, v) with l1 < l2 when v is a strict tree vertex over two
    leaves, else None (also when v is gone). Takes adjacency maps, so that
    frozen networks and editors share it."""
    cs = out.get(v, ())
    if len(cs) == 2 and len(ins[v]) == 1 and not out[cs[0]] and not out[cs[1]]:
        return (min(cs), max(cs), v)
    return None


class _TreeEditor:
    """The working state's tree side: a cherry collapse only deletes two
    leaves and relabels their parent, so it keeps a vertex -> parent map
    (None at the root), the leaf labels both ways and the label -> parent
    map, but no child lists. freeze() filters the source tree's child
    lists by the live vertices, which keeps ids and child order."""

    def __init__(self, tree: PhyloTree):
        self.par = {v: ps[0] if ps else None for v, ps in tree._in.items()}
        self.labels = dict(tree._labels)
        self.leaf = {lab: v for v, lab in self.labels.items()}
        self.parent_of = {lab: self.par[v] for lab, v in self.leaf.items()}
        self.root = tree._root
        self._src = tree

    def freeze(self) -> PhyloTree:
        src, par = self._src, self.par
        out = {v: [c for c in src._out[v] if c in par] for v in par}
        return type(src)(out, self.labels, next_id=src.next_id)


def _siblings(ned: NetworkEditor, ted: _TreeEditor, x: int, y: int) -> bool:
    """Do two net leaves sit under one parent in the tree?"""
    parent_of, labels = ted.parent_of, ned.labels
    return parent_of[labels[x]] == parent_of[labels[y]]


def _collapse_cherry(
    ned: NetworkEditor, ted: _TreeEditor, l1: int, l2: int, p: int, lab: str
) -> ReductionStep:
    """Replace the net cherry p -> {l1, l2} and the tree cherry holding the
    same two labels by one leaf labelled lab on each side. Edits the maps
    in place: the two leaves go, and their parent becomes the new leaf."""
    out, ins, labels = ned.out, ned.ins, ned.labels
    lab1, lab2 = labels.pop(l1), labels.pop(l2)
    del out[l1], ins[l1], out[l2], ins[l2]
    out[p].clear()
    labels[p] = lab
    q = ted.parent_of.pop(lab1)
    del ted.parent_of[lab2]
    t1, t2 = ted.leaf.pop(lab1), ted.leaf.pop(lab2)
    del ted.par[t1], ted.par[t2], ted.labels[t1], ted.labels[t2]
    ted.labels[q] = lab
    ted.leaf[lab] = q
    ted.parent_of[lab] = ted.par[q]
    return ReductionStep("cherry", (Branch(p, l1), Branch(p, l2)), (), (p, lab))


class ReductionState:
    """The reduction loop's working state, edited in place.

    `net` is an editor of the net and `tree` the parent-map tree side
    (_TreeEditor). Beside them it keeps the reticulations of the net, its
    cherries split into a heap of the common ones (l1, l2, p) and the set
    of parents of the one-sided ones, and the number of the next fresh
    ``__r<k>`` label. Each edit re-checks these only where it changed the
    net, and adds to `changed` every net vertex whose in-list or leafness
    it changed, for a reader to drain. The leaf label sets are checked
    once, here.
    """

    def __init__(self, net: Network, tree: PhyloTree):
        _check_same_leaves(net, tree)
        self.net = NetworkEditor(net)
        self.tree = _TreeEditor(tree)
        self.rets = set(net.reticulations)
        self.common: list[tuple[int, int, int]] = []
        self.one_sided: set[int] = set()
        self.changed: set[int] = set()
        ins = net._in
        for v in {ins[leaf][0] for leaf in net._labels if ins[leaf]}:
            self._note_cherry(v)  # a cherry's parent is a leaf's parent
        # each new label is the largest, and labelled leaves go only by collapse
        labels = [lab for lab in net._labels.values() if lab.startswith("__r")]
        self.fresh = 1 + max(
            (int(m.group(1)) for m in map(_FRESH_RE.match, labels) if m), default=-1
        )

    def _note_cherry(self, v: int) -> None:
        """File the cherry under v, if any, as common or one-sided."""
        ned = self.net
        self.one_sided.discard(v)
        found = _cherry_at(ned.out, ned.ins, v)
        if found is None:
            return
        if _siblings(ned, self.tree, found[0], found[1]):
            heapq.heappush(self.common, found)
        else:
            self.one_sided.add(v)

    def collapse_cherries(self) -> ReductionTrace:
        """Collapse common cherries, smallest first, until none remains.

        Each replaces the cherry (l1, l2, p) by a fresh reserved leaf on
        both sides, keeping the leaf label sets equal.
        """
        # A collapse deletes only l1 and l2 and relabels p (and t1, t2, q in
        # the tree), so every other common cherry stays common, one-sided
        # ones stay one-sided, and the only new candidate is the one holding
        # p's new label, under p's parent. The heap therefore yields the
        # same smallest cherry a full rescan would.
        trace = ReductionTrace()
        common, ned, ted = self.common, self.net, self.tree
        while common:
            l1, l2, p = heapq.heappop(common)
            lab = f"__r{self.fresh}"
            self.fresh += 1
            trace.steps.append(_collapse_cherry(ned, ted, l1, l2, p, lab))
            self.changed.add(p)  # p became a leaf; l1, l2 are gone
            self._note_cherry(ned.ins[p][0])
        return trace

    def remove(self, branches) -> list[int]:
        """Remove branches of the net and suppress from their ends
        (NetworkEditor.prune); returns the contracted vertices. The net
        must be valid beforehand, and no common cherry may be pending."""
        ned = self.net
        contracted, touched = ned.prune(branches)
        self.changed.update(touched)
        # prune reports each vertex whose in- or out-list it edited, and a
        # leaf stays one until deleted, which edits its parents' lists: so
        # cherries and reticulations appear or vanish only at touched ones
        out, ins, rets = ned.out, ned.ins, self.rets
        for v in touched:
            if v in out and len(ins[v]) >= 2 and out[v]:
                rets.add(v)
            else:
                rets.discard(v)
            self._note_cherry(v)
        return contracted


def replay_trace(
    net: Network, tree: PhyloTree, trace: ReductionTrace
) -> list[tuple[Network, PhyloTree]]:
    """Re-apply a trace to the pair it was recorded from.

    Returns every intermediate state, starting with the inputs; the final
    pair reproduces the original run bit-for-bit under `serialize`. The
    working state's two sides carry the steps, with the loop's collapse
    primitive. Each cherry step must name a net cherry whose labels are
    tree siblings, and each case step must contract exactly the vertices
    it recorded; else InternalConsistencyError.
    """
    net.require_valid()
    require_tree(tree)
    _check_same_leaves(net, tree)
    states = [(net, tree)]
    ned, ted = NetworkEditor(net), _TreeEditor(tree)
    for step in trace.steps:
        if step.kind == "cherry":
            (p1, l1), (p2, l2) = step.removed_branches
            p, lab = step.introduced_leaf
            if {p1, p2} != {p} or _cherry_at(ned.out, ned.ins, p) != (l1, l2, p):
                raise InternalConsistencyError(f"{step.to_line()}: no net cherry")
            if not _siblings(ned, ted, l1, l2):
                raise InternalConsistencyError(f"{step.to_line()}: no tree cherry")
            _collapse_cherry(ned, ted, l1, l2, p, lab)
            tree = ted.freeze()
        else:
            contracted, _ = ned.prune(step.removed_branches)
            if tuple(contracted) != step.contracted:
                raise InternalConsistencyError(
                    f"{step.kind} contracted {contracted}, trace recorded"
                    f" {list(step.contracted)}"
                )
        states.append((ned.freeze(), tree))
    return states
