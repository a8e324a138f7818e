"""Verdict-free rewriting steps shared by the containment algorithm.

The reduction loop edits one ReductionState in place from entry to
verdict, the oracle tail included, which reads the state's maps and
freezes nothing. Every reduction appends a plain row to the state's one
trace list, built into a ReductionStep when the trace is read; traces replay
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
from dataclasses import dataclass

from .core import Branch, Network, NetworkEditor, PhyloTree, _leaf_of, require_tree
from .errors import InternalConsistencyError, LeafSetMismatchError

_FRESH_RE = re.compile(r"^__r(\d+)$")
_CASE_KINDS = frozenset(f"case_{c}" for c in "ABCDEFGHIJ")


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


def _step_of(row: tuple) -> ReductionStep:
    """The ReductionStep a trace row records: (p, l1, l2, label) for a
    cherry collapse, (kind, removed, contracted) for a case step."""
    if len(row) == 4:
        p, l1, l2, label = row
        return ReductionStep("cherry", (Branch(p, l1), Branch(p, l2)), (), (p, label))
    return ReductionStep(*row)


class ReductionTrace:
    """The steps of a reduction, in order.

    A trace keeps one list. The reduction loop appends a row, a plain
    tuple (see _step_of), to its working state's list where each edit
    happens, and ReductionState.trace hands that list to a trace, with
    the common-cherry collapses still due pending in `_pending` (the
    working state's bound collapse_cherries, which appends their rows to
    the same list, after filing the cherries that set-up left unfiled)
    when displays decided negatively before them: the first `len` or
    read of `steps` runs it, once, and until then the trace keeps that
    working state alive. Reading `steps` builds the rows, all appended by
    then, into ReductionSteps in that list, once, so a decide whose trace
    nobody reads builds no step. Equality, repr and to_text read `steps`.
    A trace is mutable, so unhashable, and ReductionTrace(steps) keeps the
    list it is given.
    """

    __slots__ = ("_steps", "_pending")

    def __init__(self, steps: list | None = None):
        self._steps = [] if steps is None else steps
        self._pending = None

    def _list(self) -> list:
        """The list, after running the pending collapses, if any."""
        pending = self._pending
        if pending is not None:
            self._pending = None
            pending()
        return self._steps

    @property
    def steps(self) -> list[ReductionStep]:
        steps = self._list()
        if steps and type(steps[-1]) is tuple:  # not built yet
            steps[:] = map(_step_of, steps)
        return steps

    def to_text(self) -> str:
        return "\n".join(s.to_line() for s in self.steps)

    def __len__(self) -> int:
        return len(self._list())

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.steps == other.steps

    def __repr__(self) -> str:
        return f"{self.__class__.__qualname__}(steps={self.steps!r})"


def _check_same_leaves(net: Network, tree: Network) -> None:
    if net.label_set() != tree.label_set():
        raise LeafSetMismatchError(
            f"leaf label sets differ: {sorted(net.label_set() ^ tree.label_set())}"
        )


def _cherry_at(out, ins, v: int):
    """(l1, l2, v) with l1 < l2 when v is a strict tree vertex over two
    leaves in a NetworkEditor's `out` and `ins`, else None (also when v is gone)."""
    cs = out.get(v, ())
    if len(cs) == 2 and len(ins[v]) == 1:
        a, b = cs
        if not out[a] and not out[b]:
            return (a, b, v) if a < b else (b, a, v)
    return None


class _TreeEditor:
    """The working state's tree side: the label -> leaf vertex map `leaf`
    over the source tree's own parent and child tuples `tin` and `tout`,
    which no edit changes.

    A cherry collapse deletes two sibling leaves and turns their parent
    into a leaf; it drops their labels and maps the new label to the
    parent. So the live tree is the closure of the leaf vertices under
    `tin`, and each live internal vertex keeps both of its source
    children: a vertex loses children only when it becomes a leaf. A
    leaf's parent is always its source parent. live() builds the live
    tree when called; only this module reads the three maps.
    `leaf` starts as a copy of the tree's label map (core._leaf_of), which
    a parsed tree has from the parser. The source must be a valid tree."""

    def __init__(self, tree: PhyloTree):
        self.tin, self.tout = tree._in, tree._out
        self.leaf = dict(_leaf_of(tree))
        self._cls, self._root, self._next = type(tree), tree._root, tree.next_id

    def live(self) -> tuple[dict, dict, dict]:
        """The live tree's child, parent and label maps: the closure of the
        leaves under `tin`, each vertex with its source parents and its live
        source children in source order (none at a leaf; one where a broken
        state lost a child)."""
        tin, ins = self.tin, {}
        labels = {v: lab for lab, v in self.leaf.items()}
        for v in labels:
            while v not in ins:
                ins[v] = ps = tin[v]
                if not ps:
                    break
                v = ps[0]
        tout, out, is_live = self.tout, {}, ins.__contains__
        for v in ins:
            cs = tout[v]
            for c in cs:
                if c not in ins:
                    cs = tuple(filter(is_live, cs))
                    break
            out[v] = cs
        return out, ins, labels

    def freeze(self, live: tuple[dict, dict, dict]) -> PhyloTree:
        """The live tree on C-level copies of `live`, live()'s maps as a
        caller keeps them, as __init__ builds it from the child and label
        maps: the parent map is keyed alike, and every vertex but the
        source root, where each walk ends, has one parent."""
        out, ins, labels = map(dict, live)
        return self._cls._from_maps(out, ins, labels, self._root if out else None, self._next)


def _siblings(ned: NetworkEditor, ted: _TreeEditor, x: int, y: int) -> bool:
    """Do two net leaves sit under one parent in the tree?"""
    tin, leaf, labels = ted.tin, ted.leaf, ned.labels
    return tin[leaf[labels[x]]] == tin[leaf[labels[y]]]


def _beside_parent(ned: NetworkEditor, ted: _TreeEditor, x: int, y: int) -> bool:
    """Does net leaf y sit in the tree under the parent of net leaf x's
    parent? The root's empty parent tuple matches no leaf's."""
    tin, leaf, labels = ted.tin, ted.leaf, ned.labels
    return tin[tin[leaf[labels[x]]][0]] == tin[leaf[labels[y]]]


def _collapse_cherry(
    ned: NetworkEditor, ted: _TreeEditor, l1: int, l2: int, p: int, lab: str
) -> tuple:
    """Replace the net cherry p -> {l1, l2} and the tree cherry holding the
    same two labels by one leaf labelled lab on each side. Edits the maps
    in place: the two leaves go, and their parent becomes the new leaf.
    Returns the step's trace row (p, l1, l2, lab)."""
    out, ins, labels = ned.out, ned.ins, ned.labels
    lab1, lab2 = labels.pop(l1), labels.pop(l2)
    del out[l1], ins[l1], out[l2], ins[l2]
    out[p] = ()
    labels[p] = lab
    leaf = ted.leaf
    t1 = leaf.pop(lab1)
    del leaf[lab2]
    leaf[lab] = ted.tin[t1][0]
    return (p, l1, l2, lab)


class ReductionState:
    """The reduction loop's working state, edited in place.

    `net` is an editor of the net, built at its first read, and `tree` is
    the label-map tree side (_TreeEditor). Beside them it keeps the
    reticulations of the net, its cherries split into a heap of the common
    ones (l1, l2, p) and the set of parents of the one-sided ones, and the
    number of the next fresh ``__r<k>`` label. Set-up files cherries only
    up to the first one-sided one, which decides: the editor's build
    (so the pending collapses) files the rest and reads the labels for
    `fresh`. Each edit re-checks these only where it changed the net, and
    adds to `changed` every net vertex whose in-list or leafness it
    changed, for a reader to drain; `rows` is the trace (trace()), one row
    per edit. The leaf label sets are checked once, here, against the tree
    side's label -> leaf map. The net must be valid and binary and the
    tree a valid tree, as displays checks first.
    """

    def __init__(self, net: Network, tree: PhyloTree):
        self.tree = ted = _TreeEditor(tree)
        self._source, self._net = net, None
        labels, tleaf = net._labels, ted.leaf
        if len(tleaf) != len(labels) or not all(map(tleaf.__contains__, labels.values())):
            _check_same_leaves(net, tree)  # raises, naming the labels
        self.rets = set(net.reticulations)  # memoized by the class test at latest
        self.common: list[tuple[int, int, int]] = []
        self.one_sided: set[int] = set()
        self._first: dict[int, int] = {}  # leaf parent -> the leaf met under it
        self._items = iter(labels.items())  # the labelled leaves not yet filed
        self.changed: set[int] = set()
        self.rows: list[tuple] = []
        self._file()

    def _file(self) -> None:
        """File the source net's cherries as _note_cherry would, at each
        tree vertex's second leaf child met, from where the last call
        stopped up to the next one-sided one, which decides. At the end
        heapify the common ones and set `fresh` above the reserved
        ``__r<k>`` labels (each new label is the largest)."""
        out, ins, labels = self._source._out, self._source._in, self._source._labels
        tleaf, tin, first = self.tree.leaf, self.tree.tin, self._first
        for leaf, lab in self._items:
            ps = ins[leaf]
            if not ps:
                continue
            p = ps[0]
            other = first.setdefault(p, leaf)
            if other == leaf or len(ins[p]) != 1 or len(out[p]) != 2:
                continue
            if tin[tleaf[lab]] == tin[tleaf[labels[other]]]:
                self.common.append((other, leaf, p) if other < leaf else (leaf, other, p))
            else:
                self.one_sided.add(p)
                return
        self._items = self._first = None
        heapq.heapify(self.common)
        # a parsed net has no reserved label, and memoizes fresh = 0
        memo = self._source._cache
        self.fresh = memo.get("fresh", 0)
        for lab in () if "fresh" in memo else labels.values():
            if "__r" in lab:
                m = _FRESH_RE.match(lab)
                if m and int(m.group(1)) >= self.fresh:
                    self.fresh = int(m.group(1)) + 1

    @property
    def net(self) -> NetworkEditor:
        """The net's editor, built at the first read, which first finishes
        the filing: the source net is not edited before. Loops bind it
        once: a property load costs more than an attribute's."""
        ned = self._net
        if ned is None:
            while self._items is not None:
                self._file()
            ned = self._net = NetworkEditor(self._source)
        return ned

    def _note_cherry(self, ned: NetworkEditor, v: int) -> None:
        """File the cherry under v of the net's editor, if any, as common
        or one-sided."""
        self.one_sided.discard(v)
        found = _cherry_at(ned.out, ned.ins, v)
        if found is None:
            return
        if _siblings(ned, self.tree, found[0], found[1]):
            heapq.heappush(self.common, found)
        else:
            self.one_sided.add(v)

    def collapse_cherries(self) -> None:
        """Collapse common cherries, smallest first, until none remains,
        appending each step's row to `rows`.

        Each replaces the cherry (l1, l2, p) by a fresh reserved leaf on
        both sides, keeping the leaf label sets equal.
        """
        # A collapse deletes only l1 and l2 and relabels p (and t1, t2 and
        # their parent in the tree), so every other common cherry stays
        # common, one-sided ones stay one-sided, and the only new candidate
        # is the one holding p's new label, under p's parent. The heap therefore yields the
        # same smallest cherry a full rescan would.
        rows, common, ned, ted = self.rows, self.common, self.net, self.tree
        while common:
            l1, l2, p = heapq.heappop(common)
            lab = f"__r{self.fresh}"
            self.fresh += 1
            rows.append(_collapse_cherry(ned, ted, l1, l2, p, lab))
            self.changed.add(p)  # p became a leaf; l1, l2 are gone
            self._note_cherry(ned, ned.ins[p][0])

    def remove(self, kind: str, branches: tuple) -> None:
        """Remove branches of the net and suppress from their ends
        (NetworkEditor.prune), and append the step's row (kind, branches,
        contracted vertices) to `rows`. The net must be valid beforehand,
        and no cherry, common or one-sided, may be pending."""
        ned = self.net
        contracted, touched = ned.prune(branches)
        self.rows.append((kind, branches, tuple(contracted)))
        self.changed.update(touched)
        # prune reports each vertex whose in- or out-list it edited, and a
        # leaf stays one until deleted, which edits its parents' lists: so
        # cherries and reticulations appear or vanish only at touched ones.
        # A deleted one only leaves the reticulations: no cherry was filed.
        out, ins, rets = ned.out, ned.ins, self.rets
        for v in touched:
            if v not in out:
                rets.discard(v)
                continue
            if len(ins[v]) >= 2 and out[v]:
                rets.add(v)
            else:
                rets.discard(v)
            self._note_cherry(ned, v)

    def trace(self) -> ReductionTrace:
        """The trace over `rows`, with the common cherries still filed or
        not yet filed, which only a negative verdict leaves, pending (see
        ReductionTrace)."""
        trace = ReductionTrace(self.rows)
        if self.common or self._items is not None:
            trace._pending = self.collapse_cherries
        return trace


def replay_trace(
    net: Network, tree: PhyloTree, trace: ReductionTrace
) -> list[tuple[Network, PhyloTree]]:
    """Re-apply a trace to the pair it was recorded from.

    Returns every intermediate state, starting with the inputs; the final
    pair reproduces the original run bit-for-bit under `serialize`. The
    working state's two sides carry the steps, with the loop's collapse
    primitive. Each cherry step must remove two branches, name a net
    cherry whose labels are tree siblings and introduce a label neither
    side has; each case step must be one of case_A to case_J, remove one
    or more distinct branches of the network and contract exactly the
    vertices it recorded; else InternalConsistencyError, naming the step.
    The live tree's maps are built once and patched at each collapse:
    the two sibling leaves go, and their parent becomes a leaf.
    """
    net.require_valid()
    require_tree(tree)
    _check_same_leaves(net, tree)
    states = [(net, tree)]
    ned, ted = NetworkEditor(net), _TreeEditor(tree)
    live = tout, tin, tlabels = ted.live()
    for step in trace.steps:
        removed, intro = step.removed_branches, step.introduced_leaf
        if step.kind == "cherry":
            # every step keeps the two sides' label sets equal, so the
            # tree side's label map answers for both
            if len(removed) != 2 or intro is None or intro[1] in ted.leaf:
                raise InternalConsistencyError(f"{step.to_line()}: malformed cherry step")
            (p1, l1), (p2, l2) = removed
            p, lab = intro
            if {p1, p2} != {p} or _cherry_at(ned.out, ned.ins, p) != (l1, l2, p):
                raise InternalConsistencyError(f"{step.to_line()}: no net cherry")
            if not _siblings(ned, ted, l1, l2):
                raise InternalConsistencyError(f"{step.to_line()}: no tree cherry")
            _collapse_cherry(ned, ted, l1, l2, p, lab)
            t = ted.leaf[lab]
            for leaf in tout[t]:
                del tout[leaf], tin[leaf], tlabels[leaf]
            tout[t], tlabels[t] = (), lab
            tree = ted.freeze(live)
        elif step.kind not in _CASE_KINDS or not removed:
            raise InternalConsistencyError(f"{step.to_line()}: malformed case step")
        elif len(set(removed)) != len(removed) or any(
            h not in ned.out.get(t, ()) for t, h in removed
        ):
            raise InternalConsistencyError(f"{step.to_line()}: no such branch")
        else:
            contracted, _ = ned.prune(removed)
            if tuple(contracted) != step.contracted:
                raise InternalConsistencyError(
                    f"{step.kind} contracted {contracted}, trace recorded"
                    f" {list(step.contracted)}"
                )
        states.append((ned.freeze(), tree))
    return states
