#!/usr/bin/env python3
"""Benchmark for netdisplay: three workloads driven through the public API.

    python3 bench/run.py --workload ns-scaling --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory and nowhere else. With `--trace 0` the run measures for
`--seconds` and prints the end-to-end metrics. With `--trace 1` it runs
every op twice, untraced and with spans around every call into the
library, and prints the per-layer metrics plus the tracing overhead.
Either way the last stdout line is one JSON object; the exit code is 0
only when every op returned a correct output.
"""

from __future__ import annotations

import argparse
import bisect
import dataclasses
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# set-up runs at least SETUP_REPEATS times and until SETUP_BUDGET_S is
# spent, so a set-up of a few milliseconds still gets a steady median
SETUP_REPEATS = 3
SETUP_BUDGET_S = 1.0
SETUP_MAX_REPEATS = 25
# The gated timings are scaled to a reference host speed: the probe below
# runs between ops, and each op's time is multiplied by REF_PROBE_NS over
# the median probe time around it (within 1 s, or twice the op's length). On a shared 2-vCPU machine
# the same decide took 60 ms in one phase and 105 ms in the next; scaled,
# 20 s windows of one run agreed within 3% where raw ones spread by 12%.
REF_PROBE_NS = 2_000_000
PROBE_EVERY_S = 0.25


def _import_netdisplay():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "netdisplay", "__init__.py")):
        sys.exit(f"bench: no netdisplay sources under {src}")
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    import netdisplay

    if os.path.dirname(os.path.dirname(os.path.abspath(netdisplay.__file__))) != src:
        sys.exit(f"bench: netdisplay imported from {netdisplay.__file__}, not {src}")


def _probe_ns() -> int:
    """Fixed pure-Python work (dict updates and a sort, like the library's
    own inner loops) whose time tracks the host's current speed."""
    t0 = time.perf_counter_ns()
    d: dict = {}
    for i in range(8000):
        d[i % 499] = d.get(i % 499, 0) + i
    sorted(d.values())
    return time.perf_counter_ns() - t0


class HostSpeed:
    """Probe samples taken between ops, and the scale they imply."""

    def __init__(self):
        self.at: list[float] = []
        self.ns: list[int] = []

    def sample(self, force: bool = False) -> None:
        now = time.perf_counter()
        if force or not self.at or now - self.at[-1] >= PROBE_EVERY_S:
            self.ns.append(_probe_ns())
            self.at.append(now)

    def scale(self, t0: float, t1: float) -> float:
        # no probe runs during an op, so a long op takes the speed of a
        # window that reaches well past both of its ends
        pad = max(1.0, 2 * (t1 - t0))
        lo = bisect.bisect_left(self.at, t0 - pad)
        hi = bisect.bisect_right(self.at, t1 + pad)
        return REF_PROBE_NS / statistics.median(self.ns[lo:hi] or self.ns)

    def scaled(self, records):
        return [dataclasses.replace(r, ns=r.ns * self.scale(r.t0, r.t1)) for r in records]


def _setup(workload, seed: int, workdir: str, speed: HostSpeed):
    """Set up repeatedly; returns the last inputs and the raw and scaled
    median times and the number of repeats. Every repeat must produce the
    same fingerprint."""
    spans, prints = [], set()
    for i in range(SETUP_MAX_REPEATS):
        if i >= SETUP_REPEATS and sum(t1 - t0 for t0, t1 in spans) >= SETUP_BUDGET_S:
            break
        sub = os.path.join(workdir, f"setup{i}")
        os.makedirs(sub)
        speed.sample(force=True)
        t0 = time.perf_counter()
        inp = workload.setup(seed, sub)
        spans.append((t0, time.perf_counter()))
        prints.add(inp.fingerprint)
    speed.sample(force=True)
    if len(prints) != 1:
        raise RuntimeError("set-up is not deterministic: fingerprints differ")
    raw = statistics.median(t1 - t0 for t0, t1 in spans)
    scaled = statistics.median((t1 - t0) * speed.scale(t0, t1) for t0, t1 in spans)
    return inp, raw, scaled, len(spans)


def _run_op(workload, inp, op, clock, records, failures) -> None:
    from workloads import Record

    t0 = time.perf_counter()
    try:
        rec = workload.run(inp, op, clock)
    except Exception as exc:  # a crash is a failed op, not a dead run
        failures.append(f"{op!r}: {type(exc).__name__}: {exc}")
        rec = Record(op, "failed", 0, 0, False)
    else:
        if not rec.ok:
            failures.append(f"{op!r}: wrong output")
    rec.t0, rec.t1 = t0, time.perf_counter()
    records.append(rec)


def _measure(workload, inp, seconds: float, speed: HostSpeed):
    """Closed loop: one op at a time until the time is up, with a speed
    probe between ops every PROBE_EVERY_S."""
    records, failures = [], []
    end = time.perf_counter() + seconds
    while (op := workload.next_op(inp, records, end - time.perf_counter())) is not None:
        speed.sample()
        _run_op(workload, inp, op, _plain_clock, records, failures)
    speed.sample(force=True)
    return records, failures


def _measure_traced(workload, inp, seconds: float, tracer):
    """Like _measure, but every op runs twice, untraced and traced, in
    alternating order, so drift in machine speed cancels out of the
    tracing overhead."""
    plain, traced, failures = [], [], []
    traced_clock = _traced_clock(tracer)
    end = time.perf_counter() + seconds
    # each op runs twice, so it fits when twice its time does
    while (op := workload.next_op(inp, plain, (end - time.perf_counter()) / 2)) is not None:
        for with_trace in (False, True) if len(plain) % 2 else (True, False):
            if not with_trace:
                _run_op(workload, inp, op, _plain_clock, plain, failures)
                continue
            tracer.install()
            try:
                _run_op(workload, inp, op, traced_clock, traced, failures)
            finally:
                tracer.uninstall()
    return plain, traced, failures


def _plain_clock(fn, *args):
    t0 = time.perf_counter_ns()
    res = fn(*args)
    return res, time.perf_counter_ns() - t0


def _traced_clock(tracer):
    def clock(fn, *args):
        tracer.on = True
        t0 = time.perf_counter_ns()
        try:
            res = tracer.span("op", fn, *args)
        finally:
            elapsed = time.perf_counter_ns() - t0
            tracer.on = False
        return res, elapsed

    return clock


def _layer_metrics(tracer, untraced_ns: int, traced_ns: int) -> dict:
    self_s, calls = tracer.self_times()
    c = tracer.counts
    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    for span in (
        "reductions.cherry_reduce", "reductions.net_cherry", "core.validate",
        "core.classify", "tcp.displays", "tcp.longest_path", "tcp.match_case",
        "tcp.simplify_at_case", "tcp.oracle", "newick_io.parse",
        "newick_io.serialize", "bounds.class_stats", "bounds.verify_bounds",
        "bounds.ns_to_rv_transform", "cli.main", "generator.generate",
    ):
        put(f"{span}.self_s", self_s.get(span, 0.0), "s")
    for span in (
        "reductions.cherry_reduce", "core.validate", "core.classify",
        "core.from_network", "core.freeze", "tcp.oracle", "newick_io.parse",
        "cli.main", "generator.generate",
    ):
        put(f"{span}.calls", calls.get(span, 0), "count")
    put("reductions.cherry_steps", c["reductions.cherry_steps"], "count")
    put("tcp.rounds", c["tcp.rounds"], "count")
    for case in "ABCDEFGHIJ":
        put(f"tcp.case.{case}", c[f"tcp.case.{case}"], "count")
    put("newick_io.parse.bytes", c["newick_io.parse.bytes"], "B")
    put("generator.exhausted", c["generator.exhausted"], "count")
    put("generator.rejections", c["generator.rejections"], "count")
    gen_calls = c["generator.classify.calls"]
    put("generator.classify.calls", gen_calls, "count")
    put(
        "generator.accept_ratio",
        c["generator.placed"] / gen_calls if gen_calls else 0.0,
        "ratio",
    )
    put("trace.overhead_frac", (traced_ns - untraced_ns) / untraced_ns, "fraction")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    _import_netdisplay()
    import tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    originals = tracing.snapshot()
    workdir = os.path.join(ROOT, ".bench_run", f"{workload.name}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        speed = HostSpeed()
        inp, setup_raw, setup_s, setups = _setup(workload, args.seed, workdir, speed)
        print(f"workload {workload.name} seed {args.seed} inputs sha256:{inp.fingerprint}")
        gc.collect()
        if not args.trace:
            records, failures = _measure(workload, inp, args.seconds, speed)
            tracing.assert_untraced(originals)
        else:
            tracer = tracing.Tracer()
            tracer.prepare()
            records, traced, failures = _measure_traced(
                workload, inp, args.seconds, tracer
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    attempted = len(records) + (len(traced) if args.trace else 0)
    failed = len(failures)
    print(f"fail_frac {failed / max(attempted, 1):g} failed/attempted ({failed} of {attempted})")

    if failed:
        # a failed op voids the run; its timings are not reported
        result, lines = {}, []
    elif not args.trace:
        raw, _ = workload.summarize(inp, records)
        metrics, lines = workload.summarize(inp, speed.scaled(records))
        raw["setup_s"] = setup_raw
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        units = {
            "setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
            "op_tail_ms": "ms", "top_p50_ms": "ms", "doubling_ratio": "x",
            "peak_rss_mb": "MB",
        }
        result = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
        lines.insert(0, f"setup_s is the median of {setups} set-ups")
        lines.append(
            f"times are scaled to a {REF_PROBE_NS / 1e6:g} ms speed probe "
            f"(median probe here {statistics.median(speed.ns) / 1e6:.3f} ms, "
            f"{len(speed.ns)} samples); unscaled: "
            + " ".join(f"{k}={v:.6g}" for k, v in raw.items())
        )
    else:
        untraced_ns = sum(r.ns for r in records)
        traced_ns = sum(r.ns for r in traced)
        result = _layer_metrics(tracer, untraced_ns, traced_ns)
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        span_path = os.path.join(out_dir, f"spans-{workload.name}.tsv")
        tracer.write(span_path)
        lines = [
            f"{len(tracer.start)} spans written to {os.path.relpath(span_path, ROOT)}",
            f"traced {len(traced)} ops: {traced_ns / 1e9:.3f} s traced vs "
            f"{untraced_ns / 1e9:.3f} s untraced",
        ]
        if tracer.missing:
            lines.append("wrap sites not found: " + ", ".join(tracer.missing))
    for line in lines:
        print(line)
    for name, m in result.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": result,
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
