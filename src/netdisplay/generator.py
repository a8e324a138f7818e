"""Seeded random networks for property tests and benchmarks.

Construction is growth plus rejection: grow a random binary tree by
attaching leaves to random branches, then add reticulations one at a
time by subdividing two branches and joining the subdivision points;
candidates that violate acyclicity or leave the requested class are
discarded and retried. Every draw is a pure function of the seed.

The network being grown is immutable between two acceptances, so the
verdict on a drawn branch pair is fixed until the next acceptance: a pair
drawn again is rejected without building its candidate, and once every
ordered pair has been rejected no later draw can succeed, so the budget
is known to run out and the generator gives up at once, with the error it
would have raised after drawing out the rest of the budget.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .core import CLASSES, Network, NetworkEditor, PhyloTree, in_class
from .errors import GenerationExhaustedError

RNG_NAME = "mt19937"

_CONSTRAINTS = ("any",) + CLASSES


@dataclass(frozen=True)
class GenSpec:
    n_leaves: int
    target_reticulations: int = 0
    class_constraint: str = "any"
    seed: int = 0
    max_rejections: int = 10_000

    def __post_init__(self):
        if self.n_leaves < 1:
            raise ValueError("n_leaves must be at least 1")
        if self.target_reticulations < 0:
            raise ValueError("target_reticulations must be nonnegative")
        if self.class_constraint not in _CONSTRAINTS:
            raise ValueError(
                f"class_constraint must be one of {', '.join(_CONSTRAINTS)}"
            )
        if self.max_rejections < 0:
            raise ValueError("max_rejections must be nonnegative")


def _editor_branches(ed: NetworkEditor) -> list:
    # sorted tails, insertion-ordered heads: stable for a fixed op history
    return [(t, h) for t in sorted(ed.out) for h in ed.out[t]]


def _grow_tree(labels, rng: random.Random) -> Network:
    labels = list(labels)
    if not labels:
        raise ValueError("need at least one leaf label")
    if len(labels) != len(set(labels)):
        raise ValueError("leaf labels must be distinct")
    if len(labels) == 1:
        return Network({0: []}, {0: labels[0]})
    net = Network({0: [1, 2], 1: [], 2: []}, {1: labels[0], 2: labels[1]})
    ed = NetworkEditor(net)
    for lab in labels[2:]:
        tail, head = rng.choice(_editor_branches(ed))
        s = ed.subdivide(tail, head)
        leaf = ed.new_vertex()
        ed.add_branch(s, leaf)
        ed.set_label(leaf, lab)
    return ed.freeze()


def random_tree(labels, seed: int = 0) -> PhyloTree:
    """A uniform-ish random binary tree on the given labels."""
    return PhyloTree.from_network(_grow_tree(labels, random.Random(seed)))


def _accepts(net: Network, constraint: str) -> bool:
    return constraint == "any" or in_class(net, constraint)


def generate(spec: GenSpec) -> Network:
    """Draw one network matching the spec, or raise after too many misses.

    A tangling picks two distinct branches, rejects the pair when the
    second branch's head already reaches the first branch's tail (the new
    connection would close a cycle), subdivides both, and runs a new
    branch between the subdivision points, making the second one a
    reticulation. The candidate survives only if the class predicate
    still holds.

    Between two acceptances the current network does not change, so
    neither does its branch list, the reachability from a head or the
    verdict on an ordered pair: a pair rejected once is rejected again
    without building its candidate, and every turn still draws twice from
    the RNG, so each draw and each error is the same as when every pair is
    tested afresh. When all len(branches)**2 ordered pairs are rejected,
    every remaining turn of the budget would be a rejection too, so the
    generator raises at once with rejections == max_rejections; a single
    leaf has no branch and so no pair, and raises before any draw (a
    binary network never has exactly one branch).
    """
    rng = random.Random(spec.seed)
    labels = [f"t{i}" for i in range(1, spec.n_leaves + 1)]
    cur = _grow_tree(labels, rng)
    branches = list(cur.branches())
    reach: dict[int, set[int]] = {}
    rejected: set = set()
    added = 0
    rejections = 0
    while added < spec.target_reticulations:
        if rejections >= spec.max_rejections or len(rejected) == len(branches) ** 2:
            raise GenerationExhaustedError(
                f"gave up after {spec.max_rejections} rejected tanglings with "
                f"{added} of {spec.target_reticulations} reticulations placed",
                rejections=spec.max_rejections,
                placed=added,
            )
        pair = (rng.choice(branches), rng.choice(branches))
        if pair in rejected:
            rejections += 1
            continue
        (t1, h1), (t2, h2) = pair
        if h2 not in reach:
            reach[h2] = cur.reachable_from(h2)
        if (t1, h1) == (t2, h2) or t1 in reach[h2]:
            rejected.add(pair)
            rejections += 1
            continue
        ed = NetworkEditor(cur)
        s1 = ed.subdivide(t1, h1)
        s2 = ed.subdivide(t2, h2)
        ed.add_branch(s1, s2)
        cand = ed.freeze()
        if not _accepts(cand, spec.class_constraint):
            rejected.add(pair)
            rejections += 1
            continue
        cur = cand
        branches = list(cur.branches())
        reach.clear()
        rejected.clear()
        added += 1
    if not _accepts(cur, spec.class_constraint):
        # only reachable for target 0, where the tree qualifies everywhere
        raise GenerationExhaustedError("tree draw failed the class predicate")
    cur.require_valid(require_binary=True)
    return cur
