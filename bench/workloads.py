"""The three workloads: inputs, one operation each, and its output check.

Every workload is a closed loop with a single caller in one process. Each
op gets objects freshly parsed from text (or, for the CLI, files read by
`main` itself), so `Network._cache` starts cold on every op.

A workload provides `setup(seed, workdir)` returning its inputs (with a
sha256 `fingerprint` of the text they are made of), `next_op(inputs,
records, remaining_s)` choosing the next op (None to stop), `run(inputs,
op, clock)` returning a `Record` that says whether the op's output was
correct, and `summarize(inputs, records)` returning its end-to-end
metrics and report lines.
`clock(fn, *args)` calls fn and returns (result, elapsed ns); only that
call is timed (and traced).
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import statistics
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

import netdisplay
import netdisplay.cli
import netdisplay.core
import netdisplay.generator
import netdisplay.newick_io
import netdisplay.tcp
from netdisplay.errors import GenerationExhaustedError

import inputs

nd = netdisplay


@dataclass
class Record:
    op: tuple
    kind: str  # the op class its latency is grouped under
    size: int
    ns: float
    ok: bool
    t0: float = 0.0  # perf_counter() around the whole op, set by the harness
    t1: float = 0.0


@dataclass
class Inputs:
    fingerprint: str
    data: dict


def flags_of(g: inputs.Graph):
    return nd.core.classify(nd.core.Network(g.out, g.label))


def percentile(sorted_vals: list, pct: float) -> float:
    """Linear interpolation between closest ranks."""
    if len(sorted_vals) == 1:
        return sorted_vals[0]
    pos = pct / 100 * (len(sorted_vals) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (sorted_vals[hi] - sorted_vals[lo]) * (pos - lo)


def p50_ms(records) -> float:
    vals = [r.ns / 1e6 for r in records]
    return statistics.median(vals) if vals else float("nan")


def latency_metrics(records, tail_pct: float) -> tuple[dict, list[str]]:
    """op_p50_ms and op_tail_ms over the given records, plus a line naming
    the tail percentile and how many samples lie beyond it."""
    vals = sorted(r.ns / 1e6 for r in records)
    tail = percentile(vals, tail_pct)
    beyond = sum(1 for v in vals if v > tail)
    line = (
        f"op_tail_ms is p{tail_pct:g} of {len(vals)} ops, "
        f"{beyond} samples beyond it"
    )
    if beyond < 10:
        line += " (fewer than 10: read it as a maximum, not a tail)"
    return {"op_p50_ms": statistics.median(vals), "op_tail_ms": tail}, [line]


def doubling_ratio(p50_by_size: dict, pairs) -> tuple[float, list[str]]:
    ratios = [p50_by_size[b] / p50_by_size[a] for a, b in pairs]
    text = ", ".join(f"{b}/{a}={r:.2f}" for (a, b), r in zip(pairs, ratios))
    return statistics.median(ratios), [f"doubling ratios {text}"]


def ops_per_s(records) -> float:
    return len(records) / (sum(r.ns for r in records) / 1e9)


def _pool_of(records, kind):
    return [r for r in records if r.kind == kind]


# -- ns-scaling ---------------------------------------------------------------


class NsScaling:
    """displays(net, tree) on nearly stable networks, n = 100..800, m = n/4.

    Classes share the measured time by fixed fractions (the next op comes
    from the class furthest below its share), so each size gets samples
    spread over the whole run and a faster class gets more ops, never a
    different mix of time. Parsing happens outside the timer.
    """

    name = "ns-scaling"
    SIZES = (100, 200, 400, 800)
    INSTANCES = {100: 8, 200: 6, 400: 4, 800: 3}
    SHARES = {"n100": 0.12, "n200": 0.10, "n400": 0.28, "n800": 0.40, "neg800": 0.10}
    TAIL_PCT = 75

    def setup(self, seed: int, workdir: str) -> Inputs:
        data: dict = {k: [] for k in self.SHARES}
        texts = []
        for n in self.SIZES:
            for i in range(self.INSTANCES[n]):
                rng = random.Random(f"ns-scaling:{seed}:{n}:{i}")
                g = inputs.build_network(n, n // 4, rng, flags_of)
                tree = inputs.resolve(g, rng)
                net_text, pos_text = inputs.enewick(g), inputs.enewick(tree)
                data[f"n{n}"].append((n, net_text, pos_text, True))
                texts += [net_text, pos_text]
                if n == 800:
                    swap = inputs.split_cherry_swap(g, rng)
                    if swap is None:
                        raise RuntimeError("n=800 network without a hard cherry")
                    neg_text = inputs.enewick(tree, swap)
                    data["neg800"].append((n, net_text, neg_text, False))
                    texts.append(neg_text)
        return Inputs(inputs.fingerprint(texts), data)

    def next_op(self, inp: Inputs, records, remaining_s: float):
        spent = {k: 0 for k in self.SHARES}
        count = {k: 0 for k in self.SHARES}
        last = {}
        for r in records:
            spent[r.kind] += r.ns
            count[r.kind] += 1
            last[r.kind] = r.ns / 1e9
        # skip classes whose last op would not fit in the time left
        fits = [k for k in self.SHARES if last.get(k, 0.0) <= remaining_s]
        if not fits:
            return None
        kind = min(fits, key=lambda k: spent[k] / self.SHARES[k])
        return (kind, count[kind] % len(inp.data[kind]))

    def run(self, inp: Inputs, op, clock) -> Record:
        kind, i = op
        n, net_text, tree_text, expected = inp.data[kind][i]
        net = nd.newick_io.parse_network(net_text)
        tree = nd.newick_io.parse_tree(tree_text)
        verdict, ns = clock(nd.tcp.displays, net, tree)
        return Record(op, kind, n, ns, verdict.displayed is expected)

    def summarize(self, inp: Inputs, records) -> tuple[dict, list[str]]:
        p50 = {n: p50_ms(_pool_of(records, f"n{n}")) for n in self.SIZES}
        lines = [
            f"decide_p50_ms.n{n} {p50[n]:.3f} ms "
            f"({len(_pool_of(records, f'n{n}'))} decides)"
            for n in self.SIZES
        ]
        negs = _pool_of(records, "neg800")
        lines.append(f"reject_p50_ms.n800 {p50_ms(negs):.3f} ms ({len(negs)} decides)")
        ratio, rlines = doubling_ratio(p50, [(100, 200), (200, 400), (400, 800)])
        lat, llines = latency_metrics(_pool_of(records, "n100"), self.TAIL_PCT)
        # decides per second had the time been split exactly by SHARES:
        # the end of a run, where only small ops still fit, does not count
        per_class = [
            share * len(rs) / (sum(r.ns for r in rs) / 1e9)
            for k, share in self.SHARES.items()
            if (rs := _pool_of(records, k))
        ]
        metrics = {
            "ops_per_s": sum(per_class),
            **lat,
            # n = 400, not 800: a run holds 2-3 decides at n = 800, whose
            # median moved by 30% with the host's speed phases
            "top_p50_ms": p50[400],
            "doubling_ratio": ratio,
        }
        note = "op_p50_ms and op_tail_ms cover the n=100 decides, top_p50_ms the n=400 ones"
        return metrics, lines + rlines + [note] + llines


# -- cli-batch ----------------------------------------------------------------


class CliBatch:
    """netdisplay.cli.main(argv) in process on small instances from files.

    70% `contains` (half displayed, by construction), 10% each `stats`,
    `transform --to rv` and `classify`. One network in five is not nearly
    stable and has at most 8 reticulations, so `--algo auto` sends it to
    the oracle.
    """

    name = "cli-batch"
    SIZES = (10, 20, 40)
    NS_PER_SIZE = 16
    OTHER_PER_SIZE = 4
    SCHEDULE_LEN = 20_000
    TAIL_PCT = 99

    def setup(self, seed: int, workdir: str) -> Inputs:
        nets = []  # (n, m, near_stable, net path, pos path, neg path)
        texts = []
        for n in self.SIZES:
            for i in range(self.NS_PER_SIZE + self.OTHER_PER_SIZE):
                ns = i < self.NS_PER_SIZE
                m = n // 4 if ns else min(8, n // 4 + 1)
                rng = random.Random(f"cli-batch:{seed}:{n}:{i}")
                while True:
                    g = inputs.build_network(n, m, rng, flags_of, near_stable=ns)
                    swap = inputs.split_cherry_swap(g, rng)
                    if swap is not None:
                        break
                tree = inputs.resolve(g, rng)
                files = []
                for tag, text in (
                    ("net", inputs.enewick(g)),
                    ("pos", inputs.enewick(tree)),
                    ("neg", inputs.enewick(tree, swap)),
                ):
                    path = os.path.join(workdir, f"n{n}_{i}_{tag}.nwk")
                    with open(path, "w", encoding="ascii") as fh:
                        fh.write(text + "\n")
                    files.append(path)
                    texts.append(text)
                nets.append((n, m, ns, *files))
        rng = random.Random(f"cli-batch:{seed}:schedule")
        schedule = []
        for _ in range(self.SCHEDULE_LEN):
            roll = rng.random()
            cmd = (
                "contains" if roll < 0.7
                else "stats" if roll < 0.8
                else "transform" if roll < 0.9
                else "classify"
            )
            pool = [k for k, e in enumerate(nets) if e[2] or cmd != "transform"]
            k = rng.choice(pool)
            schedule.append((cmd, k, rng.random() < 0.5))
        texts += [repr(op) for op in schedule]
        return Inputs(inputs.fingerprint(texts), {"nets": nets, "schedule": schedule})

    def next_op(self, inp: Inputs, records, remaining_s: float):
        if remaining_s <= 0:
            return None
        sched = inp.data["schedule"]
        return sched[len(records) % len(sched)]

    def run(self, inp: Inputs, op, clock) -> Record:
        cmd, k, displayed = op
        n, m, ns, net_path, pos_path, neg_path = inp.data["nets"][k]
        if cmd == "contains":
            argv = ["contains", net_path, pos_path if displayed else neg_path]
        elif cmd == "transform":
            argv = ["transform", net_path, "--to", "rv"]
        else:
            argv = [cmd, net_path]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc, ns_elapsed = clock(nd.cli.main, argv)
        lines = out.getvalue().splitlines()
        if cmd == "contains":
            ok = rc == (0 if displayed else 1) and json.loads(lines[0])[
                "displayed"
            ] is displayed
        elif cmd == "stats":
            census = json.loads(lines[0])
            ok = (
                rc == 0
                and census["n_leaves"] == n
                and census["m_reticulations"] == m
                and json.loads(lines[1])["bounds_ok"] is True
            )
        elif cmd == "classify":
            flags = json.loads(lines[0])
            ok = rc == 0 and flags["binary"] and flags["nearly_stable"] is ns
        else:
            out_net = nd.newick_io.parse_network(lines[0])
            want = {f"t{i}" for i in range(1, n + 1)}
            ok = (
                rc == 0
                and nd.core.classify(out_net).reticulation_visible
                and set(out_net.leaf_labels.values()) == want
            )
        return Record(op, cmd, n, ns_elapsed, ok)

    def summarize(self, inp: Inputs, records) -> tuple[dict, list[str]]:
        # displayed instances only: rejections are much faster, and a half
        # and half mix would put the median in the gap between the two
        shown = [r for r in _pool_of(records, "contains") if r.op[2]]
        p50 = {n: p50_ms([r for r in shown if r.size == n]) for n in self.SIZES}
        ratio, rlines = doubling_ratio(p50, [(10, 20), (20, 40)])
        lat, llines = latency_metrics(records, self.TAIL_PCT)
        lines = [
            f"{cmd}_p50_ms {p50_ms(_pool_of(records, cmd)):.3f} ms "
            f"({len(_pool_of(records, cmd))} ops)"
            for cmd in ("contains", "stats", "transform", "classify")
        ]
        lines += [f"displayed_contains_p50_ms.n{n} {p50[n]:.3f} ms" for n in self.SIZES]
        metrics = {
            "ops_per_s": ops_per_s(records),
            **lat,
            "top_p50_ms": p50[40],
            "doubling_ratio": ratio,
        }
        return metrics, lines + rlines + llines


# -- gen-recipes --------------------------------------------------------------


RECIPES = {
    # acceptance criterion 2 and 3 fixtures: class, reticulation cap
    "rv": ("reticulation_visible", 8),
    "ns": ("nearly_stable", 10),
}


def draw(n: int, m: int, constraint: str, seed: int):
    """One fixture draw: step the target down until generation succeeds."""
    for target in range(m, -1, -1):
        try:
            return nd.generator.generate(
                nd.generator.GenSpec(n, target, constraint, seed=seed, max_rejections=2500)
            )
        except GenerationExhaustedError:
            continue
    raise RuntimeError("even a plain tree failed to generate")


def _common_seed(recipe: str, n: int, m: int, k: int) -> int:
    digest = hashlib.sha256(f"{recipe}:{n}:{m}:{k}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


class GenRecipes:
    """One op is one fixture draw of acceptance criterion 2 (reticulation
    visible, m <= min(8, 3(n-1))) or 3 (nearly stable, m <= min(10,
    3(n-1))), n = 2..10, max_rejections=2500, stepping m down when the
    generator gives up. Only the generator and classify run.

    Most of the time goes into the few draws that exhaust, and which draws
    exhaust depends on the generator seed: with generator seeds drawn from
    the workload seed, the first 700 draws of two workload seeds held 57
    and 43 exhausted attempts. So the draws use common random numbers: a block holds every
    (recipe, n, m) of the two recipes with SEEDS_PER_PAIR generator seeds
    fixed by (recipe, n, m) alone, every block holds the same draws, and
    the workload seed sets their order within each block. The metrics
    cover the complete blocks of a run, so every run weighs the same draws
    alike, however many blocks fit in it.
    """

    name = "gen-recipes"
    # about 4% of draws exhaust; p98 lies among them, p95 in the sparse gap
    # just below them
    TAIL_PCT = 98
    SEEDS_PER_PAIR = 2
    BLOCKS = 25

    def setup(self, seed: int, workdir: str) -> Inputs:
        rng = random.Random(f"gen-recipes:{seed}")
        pairs = [
            (recipe, n, m)
            for recipe, (_, cap) in RECIPES.items()
            for n in range(2, 11)
            for m in range(min(cap, 3 * (n - 1)) + 1)
        ]
        schedule = []
        draws = [
            (*p, _common_seed(*p, k)) for p in pairs for k in range(self.SEEDS_PER_PAIR)
        ]
        for _ in range(self.BLOCKS):
            block = list(draws)
            rng.shuffle(block)
            schedule += block
        return Inputs(
            inputs.fingerprint(repr(op) for op in schedule),
            {"schedule": schedule, "block": len(draws)},
        )

    def next_op(self, inp: Inputs, records, remaining_s: float):
        if remaining_s <= 0:
            return None
        sched = inp.data["schedule"]
        return sched[len(records) % len(sched)]

    def run(self, inp: Inputs, op, clock) -> Record:
        recipe, n, m, seed = op
        constraint = RECIPES[recipe][0]
        net, ns = clock(draw, n, m, constraint, seed)
        ok = (
            nd.core.validate(net, require_binary=True).ok
            and net.n_leaves == n
            and getattr(nd.core.classify(net), constraint)
            and net.num_reticulations <= m
        )
        return Record(op, recipe, n, ns, ok)

    def summarize(self, inp: Inputs, records) -> tuple[dict, list[str]]:
        block = inp.data["block"]
        whole = len(records) // block * block
        lines = [f"metrics cover {whole // block} complete blocks of {block} draws"]
        records = records[:whole] or records
        p50 = {n: p50_ms([r for r in records if r.size == n]) for n in range(2, 11)}
        # one ratio between two bands a doubling of n apart: the per-n
        # medians are too few draws each to take ratios of
        small = p50_ms([r for r in records if 3 <= r.size <= 5])
        large = p50_ms([r for r in records if 6 <= r.size <= 10])
        ratio = large / small
        rlines = [f"doubling ratio p50(n=6..10)/p50(n=3..5) = {large:.3f}/{small:.3f} ms"]
        lat, llines = latency_metrics(records, self.TAIL_PCT)
        lines += [
            f"draw_p50_ms.{k} {p50_ms(_pool_of(records, k)):.3f} ms "
            f"({len(_pool_of(records, k))} draws)"
            for k in RECIPES
        ]
        lines.append("draw_p50_ms by n " + " ".join(f"{n}:{v:.2f}" for n, v in p50.items()))
        metrics = {
            "ops_per_s": ops_per_s(records),
            **lat,
            # n = 8..10: the 40 distinct draws at n = 10 alone leave a gap
            # at their median
            "top_p50_ms": p50_ms([r for r in records if r.size >= 8]),
            "doubling_ratio": ratio,
        }
        return metrics, lines + rlines + llines


WORKLOADS = {w.name: w for w in (NsScaling(), CliBatch(), GenRecipes())}
