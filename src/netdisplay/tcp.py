"""Tree containment deciders.

Two routes to the same verdict: an exhaustive oracle that enumerates every
resolution of the reticulations (exponential, capped), and the reduction
loop that repeatedly collapses common cherries and prunes one of ten local
patterns at the tail of a longest root-leaf path. The loop needs the
network to be nearly stable; the oracle only needs it to be binary.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field

from .core import Branch, Network, NetworkEditor, PhyloTree, in_class, require_tree
from .errors import (
    ClassPreconditionError,
    InternalConsistencyError,
    OracleCapExceededError,
    PatternMismatchError,
)
from .reductions import (
    ReductionState,
    ReductionStep,
    ReductionTrace,
    _check_same_leaves,
    _siblings,
)

DEFAULT_ORACLE_CAP = 20


@dataclass(frozen=True)
class Resolution:
    """One kept in-branch per reticulation of the subject network."""

    kept_in_branch: tuple[tuple[int, Branch], ...] = ()

    def as_dict(self) -> dict:
        return dict(self.kept_in_branch)


@dataclass(frozen=True)
class CaseMatch:
    case_id: str
    bindings: dict


@dataclass
class ContainmentVerdict:
    displayed: bool
    trace: ReductionTrace = field(default_factory=ReductionTrace)
    certificate: Resolution | None = None
    iterations: int = 0
    reticulations_initial: int = 0


def apply_resolution(net: Network, res: Resolution) -> PhyloTree:
    """Keep one in-branch per reticulation, drop the rest, suppress."""
    net.require_valid()
    rets = net.reticulations
    kept = res.as_dict()
    if len(kept) != len(res.kept_in_branch) or set(kept) != set(rets):
        raise ValueError("resolution must cover each reticulation exactly once")
    dropped = []
    for r in rets:
        b = kept[r]
        if b.head != r or not net.has_branch(b.tail, b.head):
            raise ValueError(f"kept branch {b} is not an in-branch of {r}")
        dropped.extend(Branch(p, r) for p in net.parents(r) if p != b.tail)
    ed = NetworkEditor(net)
    ed.prune(dropped)
    return PhyloTree.from_network(ed.freeze())


def _fold_order(net: Network) -> tuple:
    """(vertex, children, leaf bit) in reversed topological order, one bit
    per leaf label in sorted label order (0 on an unlabeled leaf)."""
    bits = {lab: 1 << i for i, lab in enumerate(sorted(net.label_set()))}
    order = reversed(net.topological_order())
    return tuple((v, net.children(v), bits.get(net.label(v), 0)) for v in order)


def _branching_clusters(order: tuple, kept: dict, clusters=None) -> frozenset | None:
    """Leaf-set bitmasks of a resolution's branching vertices, those with
    two or more kept children of non-empty mask, folded over `order` from
    _fold_order. `kept` maps every reticulation to its kept parent (empty
    for trees). Given `clusters`, None at the first mask outside it.

    For a binary network and a tree on the same n leaves, no mask outside
    the tree's clusters means the resolution is the tree. Each non-root
    vertex keeps one in-branch, so the kept branches span a tree; pruning
    its dead ends (mask 0) and suppressing leaves the branching vertices
    as the n - 1 internal vertices of a binary tree, masks as clusters.
    The clusters of a tree's vertices are pairwise distinct (nested
    strictly or disjoint), so n - 1 masks within the tree's n - 1 clusters
    are all of them, and a rooted phylogenetic tree is determined by its
    clusters (Semple and Steel, Phylogenetics, 2003).
    """
    mask: dict = {}
    found = set()
    for v, cs, bit in order:
        if not cs:
            mask[v] = bit
            continue
        m = parts = 0
        for c in cs:
            if kept.get(c, v) == v and mask[c]:
                m |= mask[c]
                parts += 1
        mask[v] = m
        if parts > 1:
            if clusters is not None and m not in clusters:
                return None
            found.add(m)
    return frozenset(found)


def trees_equal(t1: PhyloTree, t2: PhyloTree) -> bool:
    """Rooted isomorphism respecting leaf labels: equal label sets and
    equal cluster sets."""
    c1, c2 = (_branching_clusters(_fold_order(t), {}) for t in (t1, t2))
    return t1.label_set() == t2.label_set() and c1 == c2


def oracle_displays(
    net: Network, tree: PhyloTree, cap: int = DEFAULT_ORACLE_CAP
) -> ContainmentVerdict:
    """Exhaustive containment check over all resolutions.

    Work grows with the product of reticulation in-degrees (2^m on binary
    networks), so the reticulation count is capped. Resolutions go in
    itertools.product order, each rejected at its first cluster the tree
    lacks; the certificate is the first that displays the tree.
    """
    net.require_valid(require_binary=True)
    require_tree(tree)
    _check_same_leaves(net, tree)
    rets = net.reticulations
    if len(rets) > cap:
        raise OracleCapExceededError(
            f"{len(rets)} reticulations exceed the oracle cap of {cap}"
        )
    target = _branching_clusters(_fold_order(tree), {})
    order = _fold_order(net)
    parent_lists = [sorted(net.parents(r)) for r in rets]
    for choice in itertools.product(*parent_lists):
        if _branching_clusters(order, dict(zip(rets, choice)), target) is not None:
            cert = Resolution(
                tuple((r, Branch(p, r)) for r, p in zip(rets, choice))
            )
            return ContainmentVerdict(
                True, ReductionTrace(), cert, 0, len(rets)
            )
    return ContainmentVerdict(False, ReductionTrace(), None, 0, len(rets))


class LongestPaths:
    """The longest-path dynamic program over one graph, kept across edits.

    `out` and `ins` are the graph's adjacency maps, read live, and `order`
    is a topological order of it, which edits that only remove branches
    and vertices or contract vertices keep topological. The editing side
    adds to `changed` every vertex whose in-list or leafness it changed;
    each path() call first re-relaxes those, in order position, then the
    children of each vertex whose distance moved. Every vertex of `order`
    starts out changed, so the first call relaxes them all.
    """

    def __init__(self, out: dict, ins: dict, order, changed: set):
        self.out, self.ins, self.order, self.changed = out, ins, order, changed
        self.pos = {v: i for i, v in enumerate(order)}
        changed.update(order)
        self.dist: dict = {}
        self.pred: dict = {}
        # (-dist, leaf), invalidated lazily: an entry counts while its
        # vertex is a live leaf at that distance
        self.leaves: list = []

    def _relax(self, ready: list) -> None:
        """Recompute dist and pred at the queued order positions (a heap)."""
        out, ins, order, pos = self.out, self.ins, self.order, self.pos
        dist, pred, leaves = self.dist, self.pred, self.leaves
        pop, push = heapq.heappop, heapq.heappush
        last = -1
        while ready:
            i = pop(ready)
            if i == last:  # queued twice; pushes only go forward
                continue
            last = i
            v = order[i]
            best_d, best_p = -1, None
            for p in ins[v]:
                d = dist[p]
                if d > best_d or (d == best_d and p < best_p):
                    best_d, best_p = d, p
            d = best_d + 1
            pred[v] = best_p
            cs = out[v]
            if not cs:
                push(leaves, (-d, v))
            old = dist.get(v)
            if old != d:
                dist[v] = d
                # a vertex without a distance yet is part of the first
                # relaxation, which queues every vertex already
                if old is not None:
                    for c in cs:
                        push(ready, pos[c])

    def path(self) -> list:
        """A maximum-vertex-count root-to-leaf path of the graph as it is."""
        ins, pos = self.ins, self.pos
        ready = [pos[v] for v in self.changed if v in ins]
        heapq.heapify(ready)
        self.changed.clear()
        self._relax(ready)
        out, dist, leaves = self.out, self.dist, self.leaves
        while leaves:
            neg_d, leaf = leaves[0]
            if leaf in out and not out[leaf] and dist[leaf] == -neg_d:
                break
            heapq.heappop(leaves)
        else:
            return []
        path = []
        cur = leaf
        while cur is not None:
            path.append(cur)
            cur = self.pred[cur]
        path.reverse()
        return path


def find_longest_root_leaf_path(net: Network | LongestPaths) -> list:
    """A maximum-vertex-count root-to-leaf path.

    On a Network this runs LongestPaths' dynamic program over its
    topological order once; a caller editing in place passes the
    LongestPaths it keeps, which re-relaxes only what changed since its
    last query. All ties break toward the smallest vertex id, so repeated
    runs trace identically.
    """
    if isinstance(net, Network):
        net = LongestPaths(net._out, net._in, net.topological_order(), set())
    return net.path()


def _fail_match(ed: NetworkEditor, msg: str, ids) -> None:
    """Raise with the adjacency of the vertices around a failed match."""
    rows = [f"{msg}; local structure:"]
    for x in sorted(set(ids)):
        if x not in ed.out:
            rows.append(f"  {x}: <absent>")
            continue
        row = f"  {x}: in={ed.ins[x]} out={ed.out[x]}"
        if x in ed.labels:
            row += f" label={ed.labels[x]}"
        rows.append(row)
    raise InternalConsistencyError("\n".join(rows))


def _is_ret(ed: NetworkEditor, x: int) -> bool:
    return len(ed.ins[x]) == 2 and len(ed.out[x]) == 1


def _other_child(ed: NetworkEditor, parent: int, known: int) -> int:
    cs = [c for c in ed.out[parent] if c != known]
    if len(cs) != 1:
        raise PatternMismatchError(
            f"vertex {parent} lacks a unique child besides {known}"
        )
    return cs[0]


def _other_parent(ed: NetworkEditor, v: int, known: int) -> int:
    ps = [p for p in ed.ins[v] if p != known]
    if len(ps) != 1:
        raise PatternMismatchError(
            f"vertex {v} lacks a unique parent besides {known}"
        )
    return ps[0]


def _uncle_nephew_site(ed: NetworkEditor, site: int):
    """Return (leaf, ret, ret_leaf) below the site or raise."""
    out = ed.out
    if site not in out:
        raise PatternMismatchError(f"unknown vertex {site}")
    if not ed.ins[site] or len(out[site]) != 2:
        raise PatternMismatchError(f"vertex {site} is not a binary tree vertex")
    c1, c2 = out[site]
    for leaf, ret in ((c1, c2), (c2, c1)):
        if not out[leaf] and _is_ret(ed, ret) and not out[out[ret][0]]:
            return leaf, ret, out[ret][0]
    raise PatternMismatchError(
        f"vertex {site} does not head an uncle-nephew pattern"
    )


def match_case(net: NetworkEditor | Network, path: list) -> CaseMatch:
    """Identify which of the ten tail patterns the network exhibits.

    `net` is the working state's editor, whose adjacency maps the rules
    read; a frozen Network is read through an editor of it. `path` must
    come from find_longest_root_leaf_path and hold at least four
    vertices; the last four are examined as w, u, v, leaf. Expects a
    binary nearly-stable network with no cherry (so no leaf-bearing
    reticulation-free subtree either). A failure to match signals a broken
    precondition, not a negative verdict.
    """
    if len(path) < 4:
        raise InternalConsistencyError(
            "case dispatch needs a root-leaf path of at least 4 vertices"
        )
    ed = NetworkEditor(net) if isinstance(net, Network) else net
    out, ins = ed.out, ed.ins
    l, v, u, w = path[-1], path[-2], path[-3], path[-4]
    around = [l, v, u, w]
    if out[l]:
        _fail_match(ed, f"path does not end in a leaf ({l})", around)
    if not _is_ret(ed, v):
        _fail_match(
            ed, f"parent {v} of the path leaf is not a reticulation", around
        )
    bindings = {"w": w, "u": u, "v": v, "l": l}

    if len(ins[u]) >= 2:
        # reticulation chain u above v
        if not _is_ret(ed, u) or out[u] != [v]:
            _fail_match(ed, f"vertex {u} is not a reticulation onto {v}", around)
        if len(out[w]) != 2 or u not in out[w]:
            _fail_match(ed, f"vertex {w} is not a binary parent of {u}", around)
        x = _other_child(ed, w, u)
        if not out[x]:
            bindings["lp"] = x
            return CaseMatch("A", bindings)
        try:
            g_leaf, g_ret, g_ret_leaf = _uncle_nephew_site(ed, x)
        except PatternMismatchError as exc:
            _fail_match(ed, str(exc), around + [x])
        bindings.update(g=x, lp=g_leaf, h=g_ret, lpp=g_ret_leaf)
        return CaseMatch("B", bindings)

    # u is a tree vertex over v
    if len(out[u]) != 2 or v not in out[u]:
        _fail_match(ed, f"vertex {u} is not a binary parent of {v}", around)
    e = _other_child(ed, u, v)
    if not out[e]:
        bindings["e"] = e
        return CaseMatch("C", bindings)
    if not _is_ret(ed, e) or out[out[e][0]]:
        _fail_match(
            ed,
            f"sibling {e} of {v} is neither a leaf nor a reticulation onto a leaf",
            around + [e],
        )
    bindings["e"] = e
    bindings["lp"] = out[e][0]
    if len(out[w]) != 2 or u not in out[w]:
        _fail_match(ed, f"vertex {w} is not a binary parent of {u}", around)
    g = _other_child(ed, w, u)
    if g == e or g == v:
        # w itself is the second parent: both in-branches of that
        # reticulation resolve to identical trees, so the removal rules
        # for a separate joint parent apply verbatim with g played by w
        bindings["g"] = w
        return CaseMatch("F" if g == e else "H", bindings)
    if not out[g]:
        bindings["g"] = g
        bindings["lpp"] = g
        return CaseMatch("D", bindings)
    if len(ins[g]) != 1 or len(out[g]) != 2:
        _fail_match(
            ed, f"vertex {g} is neither a leaf nor a tree vertex", around + [g]
        )
    bindings["g"] = g
    over_e, over_v = e in out[g], v in out[g]
    if over_e and over_v:
        return CaseMatch("E", bindings)
    if over_e or over_v:
        h = _other_child(ed, g, e if over_e else v)
        bindings["h"] = h
        if not out[h]:
            return CaseMatch("G" if over_e else "I", bindings)
        if not _is_ret(ed, h) or out[out[h][0]]:
            _fail_match(
                ed,
                f"vertex {h} is neither a leaf nor a reticulation onto a leaf",
                around + [g, h],
            )
        bindings["lpp"] = out[h][0]
        return CaseMatch("F" if over_e else "H", bindings)
    try:
        g_leaf, g_ret, g_ret_leaf = _uncle_nephew_site(ed, g)
    except PatternMismatchError as exc:
        _fail_match(ed, str(exc), around + [g])
    bindings.update(h=g_ret, lpp=g_ret_leaf)
    return CaseMatch("J", bindings)


def _uncle_nephew_branch(ed: NetworkEditor, tree, site: int) -> Branch:
    """Pick the branch the uncle-nephew rule removes below `site`."""
    leaf, ret, ret_leaf = _uncle_nephew_site(ed, site)
    if not _siblings(ed, tree, leaf, ret_leaf):
        return Branch(site, ret)
    return Branch(_other_parent(ed, ret, site), ret)


def _case_removals(ed: NetworkEditor, tree, m: CaseMatch) -> tuple[Branch, ...]:
    """The branches the matched case removes.

    `ed` and `tree` are the working state's two sides, read through their
    maps: the editor's adjacency and labels, and the parent-map
    _TreeEditor's label -> parent map (_siblings, parent_of), vertex ->
    parent map (par) and root. The tree has no child lists.
    """
    b = m.bindings
    case = m.case_id
    if case in ("B", "C", "G", "I", "J"):
        site = b["u"] if case == "C" else b["g"]
        removed = (_uncle_nephew_branch(ed, tree, site),)
    elif case == "A":
        if _siblings(ed, tree, b["l"], b["lp"]):
            removed = (
                Branch(_other_parent(ed, b["u"], b["w"]), b["u"]),
                Branch(_other_parent(ed, b["v"], b["u"]), b["v"]),
            )
        else:
            removed = (Branch(b["w"], b["u"]),)
    elif case == "D":
        keep_together = _siblings(ed, tree, b["l"], b["lpp"])
        if not keep_together and _siblings(ed, tree, b["l"], b["lp"]):
            pair_parent = tree.parent_of[ed.labels[b["l"]]]
            lpp_parent = tree.parent_of[ed.labels[b["lpp"]]]
            keep_together = (
                pair_parent != tree.root and tree.par[pair_parent] == lpp_parent
            )
        if keep_together:
            removed = (Branch(_other_parent(ed, b["v"], b["u"]), b["v"]),)
        else:
            removed = (Branch(b["u"], b["v"]),)
    elif case == "E":
        removed = (Branch(b["u"], b["e"]), Branch(b["g"], b["v"]))
    elif case in ("F", "H"):
        on_g, off_g = (b["e"], b["v"]) if case == "F" else (b["v"], b["e"])
        if _siblings(ed, tree, b["l"], b["lp"]):
            removed = (
                Branch(b["g"], on_g),
                Branch(_other_parent(ed, off_g, b["u"]), off_g),
            )
        else:
            removed = (Branch(b["u"], on_g),)
    else:
        raise PatternMismatchError(f"unknown case id {case!r}")
    for br in removed:
        if br.head not in ed.out.get(br.tail, ()):
            raise PatternMismatchError(f"bound branch {br} is absent")
    return removed


def _simplify_in_place(state: ReductionState, m: CaseMatch) -> ReductionStep:
    """Remove the branches the matched case prescribes from the working state
    and suppress. The reticulation count strictly drops, and whether the
    tree is displayed does not change."""
    removed = _case_removals(state.net, state.tree, m)
    return ReductionStep(f"case_{m.case_id}", removed, tuple(state.remove(removed)))


def displays(net: Network, tree: PhyloTree) -> ContainmentVerdict:
    """Decide whether the network displays the tree, in quadratic time.

    Loop: collapse cherries common to both sides; a remaining one-sided
    cherry decides negatively (it survives every resolution); a
    reticulation-free network without one is displayed; tiny leftovers go
    to the oracle; otherwise one case match prunes at least one
    reticulation.
    Every round edits one ReductionState, which is frozen only for the
    oracle, and the longest-path search is kept across rounds. The trace
    replays to the same verdict at every step.
    """
    net.require_valid(require_binary=True)
    require_tree(tree)
    state = ReductionState(net, tree)  # checks the leaf label sets
    if not in_class(net, "nearly_stable"):
        raise ClassPreconditionError(
            "containment reduction requires a nearly stable network"
        )
    m0 = net.num_reticulations
    limit = m0 + net.n_leaves + 2
    paths = LongestPaths(
        state.net.out, state.net.ins, net.topological_order(), state.changed
    )
    trace = ReductionTrace()
    iterations = 0
    certificate = None
    while True:
        iterations += 1
        if iterations > limit:
            raise InternalConsistencyError(
                "reduction loop exceeded its iteration bound"
            )
        trace.extend(state.collapse_cherries())
        if state.one_sided:
            # a cherry no common-cherry round removed survives every
            # resolution, and the tree has no matching sibling pair
            displayed = False
            break
        if not state.rets:
            # a binary tree with three or more leaves has a cherry below
            # its root, and every such cherry was common and collapsed, so
            # each side is one leaf or one root cherry over the same labels
            if len(state.net.out) > 3:
                raise InternalConsistencyError(
                    "a reticulation-free network kept a cherry"
                )
            displayed = True
            break
        path = find_longest_root_leaf_path(paths)
        if len(path) < 4 or len(state.rets) < 3:
            sub = oracle_displays(state.net.freeze(), state.tree.freeze())
            displayed = sub.displayed
            if len(trace) == 0:
                certificate = sub.certificate
            break
        matched = match_case(state.net, path)
        before = len(state.rets)
        trace.append(_simplify_in_place(state, matched))
        if len(state.rets) >= before:
            raise InternalConsistencyError(
                f"case {matched.case_id} removed no reticulation"
            )
    if displayed and m0 == 0:
        certificate = Resolution(())
    return ContainmentVerdict(displayed, trace, certificate, iterations, m0)
