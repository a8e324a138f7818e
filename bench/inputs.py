"""Seeded input builders for the benchmark, independent of netdisplay.

Networks, displayed trees and split-cherry negatives are built here from a
`random.Random` and written as eNewick text, so a change to
`netdisplay.generator`, `apply_resolution` or the serializer cannot change
what the containment workloads decide. The only library call is the class
predicate `classify`, which the caller passes in to accept each network.

Nearly stable by construction: every vertex keeps a *tree path* (a path to
a leaf whose vertices after the first all have one parent, which makes the
vertex stable), except reticulations whose single child is a reticulation
with a tree path and whose parents have tree paths. Such a reticulation may
be unstable, but all its parents are stable, which is what nearly stable
asks. `tangle` only adds reticulations that keep this invariant.
"""

from __future__ import annotations

import hashlib
import random


class Graph:
    """Mutable rooted DAG with leaf labels; ids are never reused."""

    def __init__(self):
        self.out: dict[int, list[int]] = {}
        self.ins: dict[int, list[int]] = {}
        self.label: dict[int, str] = {}
        self.root = 0
        self._next = 0

    def new_vertex(self) -> int:
        v = self._next
        self._next += 1
        self.out[v] = []
        self.ins[v] = []
        return v

    def add(self, tail: int, head: int) -> None:
        self.out[tail].append(head)
        self.ins[head].append(tail)

    def remove(self, tail: int, head: int) -> None:
        self.out[tail].remove(head)
        self.ins[head].remove(tail)

    def subdivide(self, tail: int, head: int) -> int:
        s = self.new_vertex()
        # keep the child's position so the eNewick order stays seeded
        i = self.out[tail].index(head)
        self.out[tail][i] = s
        self.ins[head][self.ins[head].index(tail)] = s
        self.ins[s].append(tail)
        self.out[s].append(head)
        return s

    def is_ret(self, v: int) -> bool:
        return len(self.ins[v]) >= 2

    def branches(self) -> list[tuple[int, int]]:
        return [(t, h) for t in sorted(self.out) for h in self.out[t]]

    def reaches(self, start: int, target: int) -> bool:
        seen = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            if v == target:
                return True
            for c in self.out[v]:
                if c not in seen:
                    seen.add(c)
                    stack.append(c)
        return False

    def copy(self) -> "Graph":
        g = Graph()
        g.out = {v: list(cs) for v, cs in self.out.items()}
        g.ins = {v: list(ps) for v, ps in self.ins.items()}
        g.label = dict(self.label)
        g.root = self.root
        g._next = self._next
        return g

    def hard_cherries(self) -> list[tuple[int, int]]:
        """Leaf pairs under one tree vertex: siblings in every resolution."""
        pairs = []
        for v in sorted(self.out):
            cs = self.out[v]
            if len(self.ins[v]) <= 1 and len(cs) == 2 and all(
                not self.out[c] for c in cs
            ):
                pairs.append((cs[0], cs[1]))
        return pairs


def coalescent_tree(labels: list[str], rng: random.Random) -> Graph:
    """Binary tree made by joining two random roots until one is left."""
    g = Graph()
    roots = []
    for lab in labels:
        v = g.new_vertex()
        g.label[v] = lab
        roots.append(v)
    while len(roots) > 1:
        i, j = rng.sample(range(len(roots)), 2)
        a, b = roots[i], roots[j]
        p = g.new_vertex()
        g.add(p, a)
        g.add(p, b)
        for k in sorted((i, j), reverse=True):
            roots[k] = roots[-1]
            roots.pop()
        roots.append(p)
    g.root = roots[0]
    return g


def _keeps_near_stability(g: Graph, e1, e2) -> bool:
    """Would joining a subdivision of e1 to one of e2 keep the invariant?"""
    (t1, h1), (t2, h2) = e1, e2
    if e1 == e2 or g.is_ret(h1):
        return False
    if g.is_ret(t2):
        # t2 gives up its tree path; its new child s2 must have one and
        # its parents must stay stable
        return not g.is_ret(h2) and not any(g.is_ret(p) for p in g.ins[t2])
    other = [c for c in g.out[t2] if c != h2]
    if not other or g.is_ret(other[0]):
        return False
    # s2 above a reticulation h2 is allowed only when h2 has a tree path
    return not g.is_ret(h2) or not g.is_ret(g.out[h2][0])


def tangle(g: Graph, m: int, rng: random.Random, near_stable: bool) -> None:
    """Add m reticulations; each joins two subdivided branches.

    With `near_stable` every addition keeps the invariant of the module
    docstring; without it any acyclic addition is taken.
    """
    placed = 0
    while placed < m:
        branches = g.branches()
        e1 = rng.choice(branches)
        e2 = rng.choice(branches)
        if e1 == e2 or g.reaches(e2[1], e1[0]):
            continue
        if near_stable and not _keeps_near_stability(g, e1, e2):
            continue
        s1 = g.subdivide(*e1)
        # e1 may share its tail with e2; subdividing e1 leaves e2 intact
        s2 = g.subdivide(*e2)
        g.add(s1, s2)
        placed += 1


def resolve(g: Graph, rng: random.Random) -> Graph:
    """A tree displayed by g: keep one in-branch per reticulation, then
    prune unlabeled dead ends and contract degree-two vertices."""
    t = g.copy()
    for r in sorted(v for v in g.out if g.is_ret(v)):
        keep = rng.choice(sorted(t.ins[r]))
        for p in list(t.ins[r]):
            if p != keep:
                t.remove(p, r)
    changed = True
    while changed:
        changed = False
        for v in sorted(t.out):
            if v not in t.out:
                continue
            ins, outs = t.ins[v], t.out[v]
            if not outs and v not in t.label:
                for p in list(ins):
                    t.remove(p, v)
                del t.out[v], t.ins[v]
                changed = True
            elif len(ins) == 1 and len(outs) == 1:
                p, c = ins[0], outs[0]
                t.out[p][t.out[p].index(v)] = c
                t.ins[c][t.ins[c].index(v)] = p
                del t.out[v], t.ins[v]
                changed = True
            elif not ins and len(outs) == 1:
                c = outs[0]
                t.ins[c].remove(v)
                del t.out[v], t.ins[v]
                t.root = c
                changed = True
    return t


def enewick(g: Graph, swap: dict[str, str] | None = None) -> str:
    """eNewick text; each reticulation's subtree is written at its first
    occurrence and referenced by `#H<k>` afterwards."""
    swap = swap or {}
    tag: dict[int, int] = {}
    out: list[str] = []
    stack: list = [g.root]
    while stack:
        x = stack.pop()
        if isinstance(x, str):
            out.append(x)
            continue
        suffix = ""
        if g.is_ret(x):
            if x in tag:
                out.append(f"#H{tag[x]}")
                continue
            tag[x] = len(tag) + 1
            suffix = f"#H{tag[x]}"
        cs = g.out[x]
        if not cs:
            lab = g.label[x]
            out.append(swap.get(lab, lab) + suffix)
            continue
        seq: list = ["("]
        for i, c in enumerate(cs):
            if i:
                seq.append(",")
            seq.append(c)
        seq.append(")" + suffix)
        stack.extend(reversed(seq))
    return "".join(out) + ";"


def split_cherry_swap(g: Graph, rng: random.Random) -> dict[str, str] | None:
    """Label swap that splits a hard cherry of g in any tree it displays.

    One leaf of the cherry trades labels with a leaf outside it, so the
    cherry's two labels are no longer siblings and the swapped tree is not
    displayed. None when g has no hard cherry or too few leaves.
    """
    cherries = g.hard_cherries()
    if not cherries or len(g.label) < 3:
        return None
    a, b = rng.choice(cherries)
    la, lb = g.label[a], g.label[b]
    outside = sorted(lab for lab in g.label.values() if lab not in (la, lb))
    lc = rng.choice(outside)
    return {la: lc, lc: la}


def build_network(
    n: int, m: int, rng: random.Random, flags_of, near_stable: bool = True
) -> Graph:
    """A binary network on labels t1..tn with m reticulations.

    `flags_of(graph)` returns the library's class flags. near_stable=True:
    nearly stable by construction, confirmed by the flags. False: redrawn
    until the flags say it is *not* nearly stable.
    """
    labels = [f"t{i}" for i in range(1, n + 1)]
    rng.shuffle(labels)
    while True:
        g = coalescent_tree(labels, rng)
        tangle(g, m, rng, near_stable)
        flags = flags_of(g)
        if not flags.binary:
            raise RuntimeError("builder produced a non-binary network")
        if flags.nearly_stable == near_stable:
            return g
        if near_stable:
            raise RuntimeError("builder broke its near-stability invariant")


def fingerprint(texts) -> str:
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode())
        h.update(b"\n")
    return h.hexdigest()
