"""Verdict-free rewriting steps shared by the containment algorithm.

The reduction loop edits one ReductionState in place from entry to
verdict. Every reduction is recorded as a ReductionStep; traces replay
deterministically on frozen structures (see replay_trace), which checks
each step's contracted vertices against the record. Branch removals go
through NetworkEditor.prune, which suppresses from the removed branches'
ends back to a valid network.
Vertex ids of surviving vertices are stable across a reduction, which is
what makes the recorded branches meaningful later.
"""

from __future__ import annotations

import heapq
import re
from dataclasses import dataclass, field

from .core import Branch, Network, NetworkEditor, PhyloTree
from .errors import (
    InternalConsistencyError,
    InvalidNetworkError,
    LeafSetMismatchError,
)

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


class _TreeEditor(NetworkEditor):
    """A tree's editor that keeps its label -> parent map current and
    answers the calls the case rules make of the tree (parent_of_label,
    parent, root)."""

    def __init__(self, tree: PhyloTree):
        super().__init__(tree)
        self.parent_of = {
            lab: (self.ins[v] or [None])[0] for v, lab in self.labels.items()
        }

    def parent(self, v: int) -> int:
        ps = self.ins[v]
        if len(ps) != 1:
            raise InvalidNetworkError(f"tree vertex {v} has {len(ps)} parents")
        return ps[0]

    def parent_of_label(self, label: str) -> int:
        return self.parent_of[label]


def _collapse_cherry(
    ned: NetworkEditor, ted: _TreeEditor, l1: int, l2: int, p: int, lab: str
) -> ReductionStep:
    """Replace the net cherry p -> {l1, l2} and the tree cherry holding the
    same two labels by one leaf labelled lab on each side."""
    q = ted.parent_of.pop(ned.labels[l1])
    del ted.parent_of[ned.labels[l2]]
    ned.delete_vertex(l1)
    ned.delete_vertex(l2)
    ned.set_label(p, lab)
    for t in list(ted.out[q]):
        ted.delete_vertex(t)
    ted.set_label(q, lab)
    ted.parent_of[lab] = (ted.ins[q] or [None])[0]
    return ReductionStep("cherry", (Branch(p, l1), Branch(p, l2)), (), (p, lab))


class ReductionState:
    """The reduction loop's working state, edited in place.

    `net` and `tree` are editors of the two sides; beside them it keeps the
    reticulations of the net, its cherries split into a heap of the common
    ones (l1, l2, p) and the set of parents of the one-sided ones, and the
    number of the next fresh ``__r<k>`` label. Each edit re-checks these
    only where it changed the net, and adds to `changed` every net vertex
    whose in-list or leafness it changed, for a reader to drain. The leaf
    label sets are checked once, here.
    """

    def __init__(self, net: Network, tree: PhyloTree):
        _check_same_leaves(net, tree)
        self.net = NetworkEditor(net)
        self.tree = _TreeEditor(tree)
        self.rets = set(net.reticulations)
        self.common: list[tuple[int, int, int]] = []
        self.one_sided: set[int] = set()
        self.changed: set[int] = set()
        for v in net.vertices:
            self._note_cherry(v)
        # each new label is the largest, and labelled leaves go only by collapse
        labels = self.net.labels.values()
        self.fresh = 1 + max(
            (int(m.group(1)) for m in map(_FRESH_RE.match, labels) if m), default=-1
        )

    def _note_cherry(self, v: int) -> None:
        """File the cherry under v, if any, as common or one-sided."""
        ned = self.net
        self.one_sided.discard(v)
        found = _cherry_at(ned.out, ned.ins, v) if v in ned.out else None
        if found is None:
            return
        parent_of = self.tree.parent_of
        if parent_of[ned.labels[found[0]]] == parent_of[ned.labels[found[1]]]:
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
        while self.common:
            l1, l2, p = heapq.heappop(self.common)
            lab = f"__r{self.fresh}"
            self.fresh += 1
            trace.append(_collapse_cherry(self.net, self.tree, l1, l2, p, lab))
            self.changed.add(p)  # p became a leaf; l1, l2 are gone
            self._note_cherry(self.net.ins[p][0])
        return trace

    def remove(self, branches) -> list[int]:
        """Remove branches of the net and suppress from their ends
        (NetworkEditor.prune); returns the contracted vertices. The net
        must be valid beforehand, and no common cherry may be pending."""
        ned = self.net
        contracted, touched = ned.prune(branches)
        self.changed.update(touched)
        # a vertex's kind depends on its own degrees, a cherry also on its
        # children's, so only touched vertices and their parents can change
        around = set(touched)
        for v in touched:
            if v in ned.out and len(ned.ins[v]) >= 2 and ned.out[v]:
                self.rets.add(v)
            else:
                self.rets.discard(v)
            around.update(ned.ins.get(v, ()))
        for v in around:
            self._note_cherry(v)
        return contracted


def replay_trace(
    net: Network, tree: PhyloTree, trace: ReductionTrace
) -> list[tuple[Network, PhyloTree]]:
    """Re-apply a trace to the pair it was recorded from.

    Returns every intermediate state, starting with the inputs; the final
    pair reproduces the original run bit-for-bit under canonical
    serialization. One editor per side carries the steps, and each case
    step must contract exactly the vertices it recorded.
    """
    net.require_valid()
    states = [(net, tree)]
    ned, ted = NetworkEditor(net), _TreeEditor(tree)
    for step in trace.steps:
        if step.kind == "cherry":
            b1, b2 = step.removed_branches
            v, lab = step.introduced_leaf
            if v != b1.tail:
                raise InternalConsistencyError("cherry step names two parents")
            _collapse_cherry(ned, ted, b1.head, b2.head, b1.tail, lab)
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
