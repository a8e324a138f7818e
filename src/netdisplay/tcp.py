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
from .core import _topological_order, _violations
from .errors import (
    ClassPreconditionError,
    InternalConsistencyError,
    OracleCapExceededError,
    PatternMismatchError,
)
from .reductions import (
    ReductionState,
    ReductionTrace,
    _beside_parent,
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
    ed._cls = PhyloTree  # freeze the resolved network as the tree it must be
    require_tree(tree := ed.freeze())
    return tree


def _fold_order(out, labels, order) -> tuple:
    """(vertex, children, leaf bit) over adjacency maps in reversed
    topological `order`, one bit per leaf label in sorted label order (0
    on an unlabeled leaf)."""
    bits = {lab: 1 << i for i, lab in enumerate(sorted(labels.values()))}
    return tuple((v, out[v], bits.get(labels.get(v), 0)) for v in reversed(order))


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


def _clusters(out, labels, order) -> frozenset:
    """A tree's clusters as leaf-set bitmasks (see _branching_clusters),
    from its adjacency maps and a topological `order`."""
    return _branching_clusters(_fold_order(out, labels, order), {})


def trees_equal(t1: PhyloTree, t2: PhyloTree) -> bool:
    """Rooted isomorphism respecting leaf labels: equal label sets and
    equal cluster sets."""
    c1, c2 = (_clusters(t._out, t._labels, t.topological_order()) for t in (t1, t2))
    return t1.label_set() == t2.label_set() and c1 == c2


def _first_displaying(order: tuple, ins, rets, target: frozenset) -> Resolution | None:
    """The first resolution, in itertools.product order over the sorted
    reticulations' sorted parents, whose branching clusters (folded over
    `order` from _fold_order) are the tree's `target`; None if none is."""
    rets = sorted(rets)
    for choice in itertools.product(*(sorted(ins[r]) for r in rets)):
        if _branching_clusters(order, dict(zip(rets, choice)), target) is not None:
            return Resolution(tuple((r, Branch(p, r)) for r, p in zip(rets, choice)))
    return None


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
    target = _clusters(tree._out, tree._labels, tree.topological_order())
    order = _fold_order(net._out, net._labels, net.topological_order())
    cert = _first_displaying(order, net._in, rets, target)
    return ContainmentVerdict(cert is not None, ReductionTrace(), cert, 0, len(rets))


def _require_valid_side(out, ins, labels, side: str) -> tuple:
    """Run validate's binary checks on one side of the working state and
    return its topological order; InternalConsistencyError on a
    violation, with validate's messages."""
    order = _topological_order(out, ins)
    plain, degree = _violations(out, ins, labels, order)
    found = plain + degree
    if found:
        detail = "; ".join(str(v) for v in found[:5])
        raise InternalConsistencyError(f"invalid working state ({side}): {detail}")
    return order


def _tail_displays(state: ReductionState) -> Resolution | None:
    """oracle_displays on the working state, read in place: the first
    displaying resolution in the oracle's order, or None.

    The tree side's maps are those of its live tree (_TreeEditor.live).
    Both sides pass the oracle's validation and share one leaf label set.
    The folds run in other topological orders than the oracle's, which
    give each vertex the same mask, so each resolution gets the same
    answer.
    """
    ned = state.net
    tout, tins, tlabels = state.tree.live()
    tree_order = _require_valid_side(tout, tins, tlabels, "tree")
    net_order = _require_valid_side(ned.out, ned.ins, ned.labels, "net")
    if set(ned.labels.values()) != set(tlabels.values()):
        raise InternalConsistencyError(
            "invalid working state: the two sides' leaf label sets differ"
        )
    target = _clusters(tout, tlabels, tree_order)
    order = _fold_order(ned.out, ned.labels, net_order)
    return _first_displaying(order, ned.ins, state.rets, target)


class LongestPaths:
    """The longest-path dynamic program over one graph, kept across edits.

    `out` and `ins` are the graph's adjacency maps, read live, and `order`
    is a topological order of it, which edits that only remove branches
    and vertices or contract vertices keep topological. The first path()
    call relaxes every live vertex in one pass over `order`. After it, the
    editing side adds to `changed` every vertex whose in-list or leafness
    it changed, and each call re-relaxes those, in order position, then
    the children of each vertex whose distance moved.

    A vertex's predecessor is its parent of largest distance, the smallest
    id among equals; _first and _relax both break ties so.
    """

    def __init__(self, out: dict, ins: dict, order, changed: set):
        self.out, self.ins, self.order, self.changed = out, ins, order, changed
        self.pos: dict = {}  # vertex -> order position, built by _first
        self.dist: dict = {}
        self.pred: dict = {}
        # (-dist, leaf), invalidated lazily: an entry counts while its
        # vertex is a live leaf at that distance
        self.leaves: list = []

    def _first(self) -> None:
        """dist and pred of every live vertex, in order; the leaf heap and
        the order positions that _relax reads."""
        out, ins, dist, pred = self.out, self.ins, self.dist, self.pred
        leaves, order = self.leaves, self.order
        self.pos = dict(zip(order, range(len(order))))
        for v in order:
            ps = ins.get(v)
            if ps is None:  # deleted before the first query
                continue
            if len(ps) == 1:  # nothing to compare
                best_p = ps[0]
                best_d = dist[best_p]
            else:
                best_d, best_p = -1, None
                for p in ps:
                    d = dist[p]
                    if d > best_d or (d == best_d and p < best_p):
                        best_d, best_p = d, p
            dist[v] = d = best_d + 1
            pred[v] = best_p
            if not out[v]:
                leaves.append((-d, v))
        heapq.heapify(leaves)

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
            if dist[v] != d:
                dist[v] = d
                for c in cs:
                    push(ready, pos[c])

    def path(self, limit: int | None = None) -> list:
        """The leaf end of a maximum-vertex-count root-to-leaf path of the
        graph as it is: its last `limit` vertices, or all of it when it is
        shorter or `limit` is None. Walks one `pred` link a vertex."""
        changed = self.changed
        if self.dist:
            ins, pos = self.ins, self.pos
            ready = [pos[v] for v in changed if v in ins]
            heapq.heapify(ready)
            changed.clear()
            self._relax(ready)
        else:
            changed.clear()  # the first pass relaxes every live vertex
            self._first()
        out, dist, leaves = self.out, self.dist, self.leaves
        while leaves:
            neg_d, leaf = leaves[0]
            if leaf in out and not out[leaf] and dist[leaf] == -neg_d:
                break
            heapq.heappop(leaves)
        else:
            return []
        # dist counts the path's branches, one fewer than its vertices
        count = -neg_d + 1 if limit is None else min(limit, -neg_d + 1)
        pred = self.pred
        path = [leaf]
        for _ in range(count - 1):
            leaf = pred[leaf]
            path.append(leaf)
        path.reverse()
        return path


def find_longest_root_leaf_path(net: Network | LongestPaths) -> list:
    """A maximum-vertex-count root-to-leaf path.

    On a Network this runs LongestPaths' dynamic program over its
    topological order once and returns the whole path. A caller editing
    in place passes the LongestPaths it keeps, which re-relaxes only what
    changed since its last query, and gets the path's leaf end: its last
    four vertices, all that match_case reads, or the whole path when it
    is shorter. All ties break toward the smallest vertex id, so repeated
    runs trace identically.
    """
    if isinstance(net, Network):
        return LongestPaths(net._out, net._in, net.topological_order(), set()).path()
    return net.path(4)


def _fail_match(ed: NetworkEditor, msg: str, ids) -> None:
    """Raise with the adjacency of the vertices around a failed match."""
    rows = [f"{msg}; local structure:"]
    for x in sorted(set(ids)):
        if x not in ed.out:
            rows.append(f"  {x}: <absent>")
            continue
        row = f"  {x}: in={list(ed.ins[x])} out={list(ed.out[x])}"
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


def match_case(ed: NetworkEditor, path: list) -> CaseMatch:
    """Identify which of the ten tail patterns the network exhibits.

    `ed` is the working state's editor, whose adjacency maps the rules
    read. `path` must come from find_longest_root_leaf_path and hold at
    least four vertices; the last four are examined as w, u, v, leaf.
    Expects a binary nearly-stable network with no cherry (so no
    leaf-bearing reticulation-free subtree either). A failure to match
    signals a broken precondition, not a negative verdict.
    """
    if len(path) < 4:
        raise InternalConsistencyError(
            "case dispatch needs a root-leaf path of at least 4 vertices"
        )
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
        if not _is_ret(ed, u) or v not in out[u]:  # u has one child
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
    """The branches the matched case removes. Removing them
    (ReductionState.remove) strictly drops the reticulation count and
    keeps whether the tree is displayed.

    `ed` and `tree` are the working state's two sides: the editor's
    adjacency and labels are read here, and the _TreeEditor only through
    _siblings and, for case D's grandparent test, _beside_parent.
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
            # is the pair's parent a sibling of lpp?
            keep_together = _beside_parent(ed, tree, b["l"], b["lpp"])
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


def displays(net: Network, tree: PhyloTree) -> ContainmentVerdict:
    """Decide whether the network displays the tree, in quadratic time.

    Loop: collapse cherries common to both sides; a one-sided cherry
    decides negatively (it survives every resolution); a state with fewer
    than three reticulations goes to the oracle tail, which tries their
    at most four resolutions on the working state; otherwise one case
    match prunes at least one reticulation.
    Every round, and the tail, edits or reads one ReductionState, which is
    never frozen, and the longest-path search is kept across rounds. The
    trace replays to the same verdict at every step.

    A one-sided cherry found at the start of a round decides before that
    round's common-cherry collapses, which only feed the trace: their rows
    stay pending until the trace's first `len` or read of its steps (or
    to_text, ==, repr), and a negative verdict keeps its working state
    alive until then (ReductionState.trace). Set-up files cherries only
    up to the first one-sided one, which decides before the state copies
    the net; those collapses file the rest, then copy it.
    """
    net.require_valid(require_binary=True)
    require_tree(tree)
    # the class test memoizes the reticulations that the state reads; a
    # leaf label mismatch is still reported first
    nearly_stable = in_class(net, "nearly_stable")
    state = ReductionState(net, tree)  # checks the leaf label sets
    if not nearly_stable:
        raise ClassPreconditionError(
            "containment reduction requires a nearly stable network"
        )
    # a valid network labels exactly its leaves
    m0 = len(state.rets)
    limit = m0 + len(net._labels) + 2
    ned = paths = None  # the editor and the path search, at the first case round
    iterations = 0
    certificate = None
    while True:
        iterations += 1
        if iterations > limit:
            raise InternalConsistencyError(
                "reduction loop exceeded its iteration bound"
            )
        if not state.one_sided:
            state.collapse_cherries()
        if state.one_sided:
            # a one-sided cherry survives every resolution, and the tree
            # has no matching sibling pair; collapses keep it one-sided
            displayed = False
            break
        # only the reticulation count sends a state to the tail, whose
        # cluster check covers a reticulation-free state too; with three
        # or more left the longest path has four vertices or more, as a
        # reticulation's two parents are distinct, so one is below the
        # root, and the root, that parent, the reticulation and a leaf
        # under it lie on one root-leaf path (match_case checks this)
        if len(state.rets) < 3:
            found = _tail_displays(state)
            displayed = found is not None
            # the tail's resolution is the input's when no step ran, or
            # when there was nothing to resolve: Resolution(())
            if not state.rows or not m0:
                certificate = found
            break
        if paths is None:
            ned = state.net
            paths = LongestPaths(ned.out, ned.ins, net.topological_order(), state.changed)
        tail = find_longest_root_leaf_path(paths)  # the last four vertices
        matched = match_case(ned, tail)
        before = len(state.rets)
        removed = _case_removals(ned, state.tree, matched)
        state.remove(f"case_{matched.case_id}", removed)
        if len(state.rets) >= before:
            raise InternalConsistencyError(
                f"case {matched.case_id} removed no reticulation"
            )
    return ContainmentVerdict(displayed, state.trace(), certificate, iterations, m0)
