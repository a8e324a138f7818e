"""Shared fixtures and small tree builders used across the test modules."""

from __future__ import annotations

import itertools
import json
from collections import deque
from pathlib import Path

from netdisplay.core import (
    Branch,
    Network,
    NetworkEditor,
    PhyloTree,
    StabilityReport,
    ValidationOutcome,
    Violation,
)
from netdisplay.errors import InternalConsistencyError

# running example: one reticulation, three leaves, everything stable
RUNNING = "((a,(b)#H1),(#H1,c));"

# closed form of the unstable-over-stable reticulation configuration:
# reticulation #H1 is unstable, its child reticulation #H2 is stable
UNSTABLE_OVER_STABLE = "(((((lb)#H2)#H1,d),x1),(#H1,(#H2,x3)));"
UNSTABLE_OVER_STABLE_RV = "((d,x1),(((lb)#H1,x3),#H1));"

# a tree vertex with two escaping reticulation children is unstable and
# parents an unstable reticulation, so the network is not nearly stable
NOT_NEARLY_STABLE = "((((a)#H3)#H1,(b)#H2),(#H1,(#H2,(#H3,c))));"

# (net, tree) eNewick pairs whose displays traces are pinned, see
# test_golden_traces.py
GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "golden_traces.json").read_text()
)

# tail patterns for the ten case shapes; letter = expected match_case id.
# F_triangle / H_triangle: w itself is the second parent of e resp. v.
CASE_FIXTURES = {
    "A": "((((l)#H2)#H1,lp),(#H1,(#H2,z)));",
    "B": "(((((l)#H2)#H1,(y,(c)#H3)),(#H1,z1)),((#H2,z2),(#H3,z3)));",
    "C": "((((l)#H1,e),x),(#H1,z));",
    "D": "((((l)#H1,(lp)#H2),lpp),(#H1,(#H2,z)));",
    "E": "(((l)#H1,(lp)#H2),(#H1,#H2));",
    "F": "((((l)#H1,(lp)#H2),(#H2,(z1)#H3)),(#H1,(#H3,z2)));",
    "G": "((((l)#H1,(lp)#H2),(#H2,y)),(#H1,z));",
    "H": "((((l)#H1,(lp)#H2),(#H1,(z1)#H3)),(#H2,(#H3,z2)));",
    "I": "((((l)#H1,(lp)#H2),(#H1,y)),(#H2,z));",
    "J": "((((l)#H1,(lp)#H2),(y,(c)#H3)),((#H1,#H2),(#H3,z)));",
    "F_triangle": "((((l)#H1,(lp)#H2),#H2),(#H1,z));",
    "H_triangle": "((((l)#H1,(lp)#H2),#H1),(#H2,z));",
}


def all_tree_shapes(labels):
    """Yield every binary tree shape over the labels as nested tuples."""
    labels = tuple(sorted(labels))

    def build(items):
        if len(items) == 1:
            yield items[0]
            return
        first, rest = items[0], items[1:]
        for k in range(1, len(items)):
            for pick in itertools.combinations(range(len(rest)), k - 1):
                left = (first,) + tuple(rest[i] for i in pick)
                right = tuple(rest[i] for i in range(len(rest)) if i not in pick)
                for lt in build(left):
                    for rt in build(right):
                        yield (lt, rt)

    yield from build(labels)


def tree_from_shape(shape) -> PhyloTree:
    out: dict[int, list[int]] = {}
    labels: dict[int, str] = {}
    counter = itertools.count()

    def mk(s) -> int:
        vid = next(counter)
        out[vid] = []
        if isinstance(s, str):
            labels[vid] = s
            return vid
        for half in s:
            out[vid].append(mk(half))
        return vid

    mk(shape)
    return PhyloTree.from_network(Network(out, labels))


def all_trees(labels):
    return [tree_from_shape(s) for s in all_tree_shapes(labels)]


def sibling_tree(first: str, second: str, labels) -> PhyloTree:
    """Caterpillar whose deepest cherry is (first, second)."""
    rest = sorted(set(labels) - {first, second})
    shape = (first, second)
    for lab in rest:
        shape = (shape, lab)
    return tree_from_shape(shape)


def non_sibling_tree(first: str, second: str, labels) -> PhyloTree:
    """Caterpillar that separates first from second; needs a third label."""
    rest = sorted(set(labels) - {first, second})
    assert rest, "need a third label to separate the pair"
    shape = (first, rest[0])
    for lab in rest[1:]:
        shape = (shape, lab)
    return tree_from_shape((shape, second))


def gen_with_fallback(n, rets, constraint, seed):
    """Generate, stepping the reticulation target down when tangling
    saturates (small leaf counts cannot absorb every request).

    A draw that gives up with `placed` reticulations replays, for every
    target from `placed` up, the same RNG stream to the same point, so
    each target above `placed` gives up too and target `placed` returns
    the network the failed draw had built by then: the step goes straight
    there."""
    from netdisplay.errors import GenerationExhaustedError
    from netdisplay.generator import GenSpec, generate

    m = rets
    while True:
        try:
            return generate(GenSpec(n, m, constraint, seed=seed, max_rejections=2500))
        except GenerationExhaustedError as exc:
            if m == 0:
                raise AssertionError("unreachable: a plain tree always generates") from exc
            m = exc.placed


def reference_generate(spec):
    """Reference for generator.generate: every turn lists the branches,
    walks reachability from the second head and builds, freezes and fully
    classifies its candidate, with no memory of pairs already rejected."""
    import random

    from netdisplay.core import classify
    from netdisplay.errors import GenerationExhaustedError
    from netdisplay.generator import _grow_tree

    def _accepts(net, constraint):
        if constraint == "any":
            return True
        flags = classify(net)
        return getattr(flags, constraint)

    rng = random.Random(spec.seed)
    labels = [f"t{i}" for i in range(1, spec.n_leaves + 1)]
    cur = _grow_tree(labels, rng)
    added = 0
    rejections = 0
    while added < spec.target_reticulations:
        if rejections >= spec.max_rejections:
            raise GenerationExhaustedError(
                f"gave up after {rejections} rejected tanglings with "
                f"{added} of {spec.target_reticulations} reticulations placed",
                rejections=rejections,
            )
        branches = list(cur.branches())
        if len(branches) < 2:
            rejections += 1
            continue
        t1, h1 = rng.choice(branches)
        t2, h2 = rng.choice(branches)
        if (t1, h1) == (t2, h2):
            rejections += 1
            continue
        if t1 in cur.reachable_from(h2):
            rejections += 1
            continue
        ed = NetworkEditor(cur)
        s1 = ed.subdivide(t1, h1)
        s2 = ed.subdivide(t2, h2)
        ed.add_branch(s1, s2)
        cand = ed.freeze()
        if not _accepts(cand, spec.class_constraint):
            rejections += 1
            continue
        cur = cand
        added += 1
    if not _accepts(cur, spec.class_constraint):
        # only reachable for target 0, where the tree qualifies everywhere
        raise GenerationExhaustedError("tree draw failed the class predicate")
    cur.require_valid(require_binary=True)
    return cur


def deletion_stability(net: Network) -> StabilityReport:
    """Reference oracle for core.stability: delete each vertex in turn and
    see which leaves the root no longer reaches."""
    root = net.root
    leaves = net.leaves
    witness: dict[int, int | None] = {}
    for v in net.vertices:
        if v == root:
            witness[v] = min(leaves)
            continue
        reached = {root}
        stack = [root]
        while stack:
            for c in net.children(stack.pop()):
                if c != v and c not in reached:
                    reached.add(c)
                    stack.append(c)
        lost = [l for l in leaves if l not in reached]
        witness[v] = min(lost) if lost else None
    stable = {v: witness[v] is not None for v in net.vertices}
    return StabilityReport(stable, witness)


def reference_in_class(net: Network, name: str) -> bool:
    """Reference for core.in_class: the three class definitions over
    deletion_stability's flags, which use no dominators."""
    stable = deletion_stability(net).stable
    if name == "tree_child":
        return all(stable[v] for v in net.vertices)
    if name == "reticulation_visible":
        return all(stable[r] for r in net.reticulations)
    if name == "nearly_stable":
        return all(
            stable[v] or all(stable[p] for p in net.parents(v)) for v in net.vertices
        )
    raise ValueError(name)


def class_sample(count: int, seed: int) -> list[Network]:
    """Generated networks, `count` per class constraint ("any" and each
    class), on 2 to 7 leaves with up to twice as many reticulations."""
    import random

    from netdisplay.generator import _CONSTRAINTS

    rng = random.Random(seed)
    return [
        gen_with_fallback(n := rng.randint(2, 7), rng.randint(0, 2 * n), c, seed + i)
        for c in _CONSTRAINTS
        for i in range(count)
    ]


def reference_suppress(ed: NetworkEditor) -> list[int]:
    """Reference for NetworkEditor.suppress: the full sweep, which
    queues every vertex in id order and re-queues each changed vertex at
    the back."""
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
                ed.remove_branch(v, c)
                enqueue(v)
                enqueue(c)
                continue
            ed.contract(v)
            contracted.append(v)
            enqueue(p)
            enqueue(c)
    return contracted


class ReferenceTreeEditor(NetworkEditor):
    """Reference for reductions._TreeEditor: a full editor of the tree
    (child and parent lists) that keeps its label -> parent map current.
    The tests compare the two sides' maps after every cherry collapse."""

    def __init__(self, tree: PhyloTree):
        super().__init__(tree)
        self.parent_of = {
            lab: (self.ins[v] or [None])[0] for v, lab in self.labels.items()
        }


def reference_collapse_cherry(
    ned: NetworkEditor, ted: ReferenceTreeEditor, l1: int, l2: int, p: int, lab: str
):
    """Reference for reductions._collapse_cherry, through the editors'
    delete_vertex and set_label: replace the net cherry p -> {l1, l2} and
    the tree cherry holding the same two labels by one leaf labelled lab
    on each side."""
    from netdisplay.reductions import ReductionStep

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


def reference_validate(net: Network, require_binary: bool = False):
    """Reference for core.validate: every check in one pass, with no memo,
    so the binary flavour does not start from the plain one."""
    vs: list[Violation] = []
    verts = net.vertices
    single = len(verts) == 1

    roots = [v for v in verts if net.in_degree(v) == 0]
    if not roots:
        vs.append(Violation("no root: every vertex has a parent"))
    elif len(roots) > 1:
        for r in roots[1:]:
            vs.append(Violation("multiple indegree-0 vertices", vertex=r))

    order = net._try_topological_order()
    if order is None:
        vs.append(Violation("directed cycle present"))
    elif roots and len(roots) == 1:
        reached = net.reachable_from(roots[0])
        for v in verts:
            if v not in reached:
                vs.append(Violation("unreachable from root", vertex=v))

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

    if require_binary and not single:
        for v in verts:
            ind, outd = net.in_degree(v), net.out_degree(v)
            ok = (
                (ind == 0 and outd == 2)
                or (ind == 1 and outd == 0)
                or (ind == 1 and outd == 2)
                or (ind == 2 and outd == 1)
            )
            if not ok:
                vs.append(
                    Violation(
                        f"not binary: indegree {ind}, outdegree {outd}", vertex=v
                    )
                )
    return ValidationOutcome(not vs, tuple(vs))


def reference_longest_path(net: Network):
    """Reference for tcp.LongestPaths: the whole dynamic program over the
    network's topological order. Returns (path, dist, pred)."""
    out, ins = net._out, net._in
    dist: dict = {}
    pred: dict = {}
    leaf, leaf_d = None, -1
    for v in net.topological_order():
        best_d, best_p = -1, None
        for p in ins[v]:
            if dist[p] > best_d or (dist[p] == best_d and p < best_p):
                best_d, best_p = dist[p], p
        d = dist[v] = best_d + 1
        pred[v] = best_p
        if not out[v] and (d > leaf_d or (d == leaf_d and v < leaf)):
            leaf, leaf_d = v, d
    path = []
    cur = leaf
    while cur is not None:
        path.append(cur)
        cur = pred[cur]
    path.reverse()
    return path, dist, pred


def reference_displays(net: Network, tree: PhyloTree):
    """Reference for tcp.displays: the loop over frozen structures, which
    builds a fresh ReductionState (cherry heap, reticulations) and a fresh
    topological order and longest-path table every round, and validates
    every intermediate network."""
    from netdisplay.core import classify
    from netdisplay.errors import ClassPreconditionError
    from netdisplay.reductions import ReductionState, ReductionTrace, _cherry_at
    from netdisplay.tcp import (
        ContainmentVerdict,
        Resolution,
        _simplify_in_place,
        match_case,
        oracle_displays,
        trees_equal,
    )

    net.require_valid(require_binary=True)
    if not classify(net).nearly_stable:
        raise ClassPreconditionError("not nearly stable")
    m0 = net.num_reticulations
    trace = ReductionTrace()
    iterations = 0
    oracle_cert = None
    while True:
        iterations += 1
        assert iterations <= m0 + net.n_leaves + 2
        state = ReductionState(net, tree)
        trace.extend(state.collapse_cherries())
        net, tree = state.net.freeze(), state.tree.freeze()
        net.require_valid(require_binary=True)
        tree.require_valid(require_binary=True)
        if net.num_reticulations == 0:
            displayed = trees_equal(net, tree)
            break
        if any(_cherry_at(net._out, net._in, v) for v in net.vertices):
            displayed = False
            break
        path = reference_longest_path(net)[0]
        if len(path) < 4 or net.num_reticulations < 3:
            sub = oracle_displays(net, tree)
            displayed = sub.displayed
            if displayed and len(trace) == 0:
                oracle_cert = sub.certificate
            break
        state = ReductionState(net, tree)
        trace.append(_simplify_in_place(state, match_case(net, path)))
        reduced = state.net.freeze()
        assert reduced.num_reticulations < net.num_reticulations
        net = reduced
    certificate = None
    if displayed:
        if oracle_cert is not None:
            certificate = oracle_cert
        elif m0 == 0:
            certificate = Resolution(())
    return ContainmentVerdict(displayed, trace, certificate, iterations, m0)


def _canon_resolved(net: Network, kept: dict) -> str:
    """Canonical string form of the tree a resolution induces: the nested,
    sorted child forms, folded over the reversed topological order.
    `kept` maps every reticulation to its kept parent (empty for trees)."""
    memo: dict = {}
    for v in reversed(net.topological_order()):
        cs = net.children(v)
        if not cs:
            memo[v] = net.label(v)
            continue
        forms = [
            memo[c]
            for c in cs
            if (c not in kept or kept[c] == v) and memo[c] is not None
        ]
        if not forms:
            memo[v] = None
        elif len(forms) == 1:
            memo[v] = forms[0]
        else:
            memo[v] = "(" + ",".join(sorted(forms)) + ")"
    form = memo[net.root]
    if form is None:
        raise InternalConsistencyError("resolution stranded every leaf")
    return form


def reference_oracle_displays(net: Network, tree: PhyloTree, cap: int = 20):
    """Reference for tcp.oracle_displays: every resolution, in
    itertools.product order, folded to a canonical string and compared
    with the tree's whole form."""
    from netdisplay.core import require_tree
    from netdisplay.errors import OracleCapExceededError
    from netdisplay.reductions import ReductionTrace, _check_same_leaves
    from netdisplay.tcp import ContainmentVerdict, Resolution

    net.require_valid(require_binary=True)
    require_tree(tree)
    _check_same_leaves(net, tree)
    rets = net.reticulations
    if len(rets) > cap:
        raise OracleCapExceededError(
            f"{len(rets)} reticulations exceed the oracle cap of {cap}"
        )
    target = _canon_resolved(tree, {})
    parent_lists = [sorted(net.parents(r)) for r in rets]
    for choice in itertools.product(*parent_lists):
        kept = dict(zip(rets, choice))
        if _canon_resolved(net, kept) == target:
            cert = Resolution(
                tuple((r, Branch(p, r)) for r, p in zip(rets, choice))
            )
            return ContainmentVerdict(True, ReductionTrace(), cert, 0, len(rets))
    return ContainmentVerdict(False, ReductionTrace(), None, 0, len(rets))


def reference_transform(net: Network):
    """Reference for bounds.ns_to_rv_transform: one round per unstable
    reticulation, each on a fresh editor with the full suppression sweep,
    a freeze and a fresh stability computation."""
    from netdisplay.bounds import class_stats
    from netdisplay.core import classify, stability
    from netdisplay.errors import ClassPreconditionError

    net.require_valid(require_binary=True)
    if not classify(net).nearly_stable:
        raise ClassPreconditionError(
            "the rewiring requires a nearly stable network"
        )
    before = class_stats(net)
    cur = net
    while True:
        rep = stability(cur)
        rets = set(cur.reticulations)
        target = None
        for v in cur.topological_order():
            if v in rets and not rep.stable[v]:
                target = v
                break
        if target is None:
            break
        child = cur.children(target)[0]
        if not (cur.in_degree(child) >= 2 and cur.out_degree(child) == 1):
            raise InternalConsistencyError(
                f"unstable reticulation {target} lacks a reticulation child"
            )
        cut_parent = min(cur.parents(target))
        ed = NetworkEditor(cur)
        ed.remove_branch(cut_parent, target)
        reference_suppress(ed)
        cur = ed.freeze()
    after = class_stats(cur)
    if not classify(cur).reticulation_visible:
        raise InternalConsistencyError(
            "rewiring finished without reaching reticulation visibility"
        )
    if not (before.s_ret <= after.s_ret <= before.s_ret + before.u_ret):
        raise InternalConsistencyError(
            "stable reticulation count moved outside its promised range"
        )
    return cur, before, after


def reference_verify_bounds(net: Network):
    """Reference for bounds.verify_bounds: the hand-written check per bound
    over the full classify flags."""
    from netdisplay.bounds import BoundCheck, BoundReport, class_stats
    from netdisplay.core import classify

    flags = classify(net)
    stats = class_stats(net)
    n1 = stats.n_leaves - 1
    checks = []
    if flags.reticulation_visible:
        checks.append(
            BoundCheck(
                "reticulations<=4(n-1)",
                4 * n1,
                stats.m_reticulations,
                stats.m_reticulations <= 4 * n1,
            )
        )
    if flags.nearly_stable:
        checks.append(
            BoundCheck(
                "reticulations<=12(n-1)",
                12 * n1,
                stats.m_reticulations,
                stats.m_reticulations <= 12 * n1,
            )
        )
        checks.append(
            BoundCheck(
                "tree_vertices<=13(n-1)",
                13 * n1,
                stats.tree_vertices,
                stats.tree_vertices <= 13 * n1,
            )
        )
        checks.append(
            BoundCheck(
                "branches<=38(n-1)",
                38 * n1,
                stats.branches,
                stats.branches <= 38 * n1,
            )
        )
        checks.append(
            BoundCheck(
                "unstable<=2*stable",
                2 * stats.s_ret,
                stats.u_ret,
                stats.u_ret <= 2 * stats.s_ret,
            )
        )
    return BoundReport(tuple(checks))


def same_network(a: Network, b: Network) -> bool:
    """Same vertex ids, root, leaf labels and branches; the order in which
    a vertex lists its children is ignored."""
    return (
        a.vertices == b.vertices
        and a.root == b.root
        and a.leaf_labels == b.leaf_labels
        and all(sorted(a.children(v)) == sorted(b.children(v)) for v in a.vertices)
    )
