"""Command line front end binding the library over eNewick files.

stdout carries data (JSON objects one per line, eNewick, CSV); stderr
carries diagnostics. Exit codes: 0 success or true verdict, 1 false
verdict or failed bound, 2 usage error, 3 input or parse error,
4 network-class precondition not met, 5 internal consistency error.
The environment variable NETDISPLAY_ORACLE_CAP overrides the oracle
reticulation cap.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from dataclasses import replace

from . import __version__
from .bounds import class_stats, ns_to_rv_transform, verify_bounds
from .core import Branch, Network, classify, in_class, validate
from .errors import (
    ClassPreconditionError,
    GenerationExhaustedError,
    InternalConsistencyError,
    InvalidNetworkError,
    LeafSetMismatchError,
    NewickParseError,
    PatternMismatchError,
)
from .generator import _CONSTRAINTS, RNG_NAME, GenSpec, generate
from .newick_io import parse_network, parse_tree, serialize
from .tcp import DEFAULT_ORACLE_CAP, Resolution, apply_resolution, displays, oracle_displays

_BENCH_REPEATS = 5


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _emit(obj) -> None:
    print(json.dumps(obj))


def _diag(message) -> None:
    print(f"netdisplay: {message}", file=sys.stderr)


def _oracle_cap() -> int:
    raw = os.environ.get("NETDISPLAY_ORACLE_CAP")
    if raw is None:
        return DEFAULT_ORACLE_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise _UsageError(f"NETDISPLAY_ORACLE_CAP must be an integer, got {raw!r}")
    if cap < 0:
        raise _UsageError("NETDISPLAY_ORACLE_CAP must be nonnegative")
    return cap


class _UsageError(Exception):
    pass


def cmd_validate(args) -> int:
    # parse_network rejects every structural violation (exit 3), so this
    # reads back the memoized outcome of a valid network
    outcome = validate(parse_network(_read_text(args.net_file)))
    _emit({"ok": outcome.ok, "violations": [str(v) for v in outcome.violations]})
    return 0


def cmd_classify(args) -> int:
    net = parse_network(_read_text(args.net_file))
    _emit(classify(net).to_dict())
    return 0


def cmd_stats(args) -> int:
    net = parse_network(_read_text(args.net_file))
    _emit(class_stats(net).to_dict())
    report = verify_bounds(net)
    _emit({"bounds_ok": report.ok, "checks": report.to_rows()})
    return 0 if report.ok else 1


def cmd_contains(args) -> int:
    net = parse_network(_read_text(args.net_file))
    tree = parse_tree(_read_text(args.tree_file))
    if args.algo == "fast":
        # the fast path's oracle tail runs with the default cap
        verdict = displays(net, tree)
    elif args.algo == "oracle":
        verdict = oracle_displays(net, tree, cap=_oracle_cap())
    else:
        cap = _oracle_cap()
        if in_class(net, "nearly_stable"):
            verdict = displays(net, tree)
        elif net.num_reticulations <= cap:
            verdict = oracle_displays(net, tree, cap=cap)
        else:
            raise ClassPreconditionError(
                "network is not nearly stable and exceeds the oracle cap "
                f"({net.num_reticulations} > {cap})"
            )
    payload = {
        "displayed": verdict.displayed,
        "iterations": verdict.iterations,
        "reticulations_initial": verdict.reticulations_initial,
    }
    if args.trace:
        payload["trace"] = verdict.trace.to_text().splitlines()
    _emit(payload)
    return 0 if verdict.displayed else 1


def cmd_transform(args) -> int:
    net = parse_network(_read_text(args.net_file))
    out, before, after = ns_to_rv_transform(net)
    _diag(
        f"stable reticulations {before.s_ret} -> {after.s_ret}, "
        f"unstable {before.u_ret} -> {after.u_ret}"
    )
    print(serialize(out))
    return 0


def cmd_gen(args) -> int:
    if args.count < 0:
        raise _UsageError("--count must be nonnegative")
    try:  # checked before the loop, so a bad spec fails whatever the count
        spec = GenSpec(args.leaves, args.rets, args.class_constraint, args.seed)
    except ValueError as exc:
        raise _UsageError(str(exc))
    for i in range(args.count):
        spec = replace(spec, seed=args.seed + i)
        net = generate(spec)
        print(
            f"# seed={spec.seed} leaves={spec.n_leaves} rets={spec.target_reticulations}"
            f" class={spec.class_constraint} rng={RNG_NAME} version={__version__}"
        )
        print(serialize(net))
    return 0


def _random_displayed_tree(net: Network, rng: random.Random):
    kept = []
    for r in net.reticulations:
        kept.append((r, Branch(rng.choice(sorted(net.parents(r))), r)))
    return apply_resolution(net, Resolution(tuple(kept)))


def cmd_bench(args) -> int:
    try:
        sizes = [int(tok) for tok in args.sizes.split(",") if tok.strip()]
    except ValueError:
        raise _UsageError(f"--sizes must be a comma-separated integer list, got {args.sizes!r}")
    if not sizes or any(n < 2 for n in sizes):
        raise _UsageError("--sizes needs integers >= 2")
    print("n,m,wall_time_s,iterations")
    for n in sizes:
        rets = max(1, n // 4)
        for rep in range(_BENCH_REPEATS):
            spec = GenSpec(
                n_leaves=n,
                target_reticulations=rets,
                class_constraint=args.class_constraint,
                seed=args.seed + 7919 * rep + n,
            )
            net = generate(spec)
            tree = _random_displayed_tree(net, random.Random(spec.seed))
            t0 = time.perf_counter()
            verdict = displays(net, tree)
            dt = time.perf_counter() - t0
            if not verdict.displayed:
                raise InternalConsistencyError(
                    "bench instance built by resolution was not displayed"
                )
            print(f"{n},{net.num_reticulations},{dt:.6f},{verdict.iterations}")
            sys.stdout.flush()
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netdisplay",
        description="Decide tree containment in nearly stable phylogenetic networks.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check structural well-formedness")
    p.add_argument("net_file", help="eNewick file, or - for stdin")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("classify", help="report network class flags")
    p.add_argument("net_file")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("stats", help="count vertices and verify class bounds")
    p.add_argument("net_file")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("contains", help="decide whether the network displays the tree")
    p.add_argument("net_file")
    p.add_argument("tree_file")
    p.add_argument("--algo", choices=("auto", "fast", "oracle"), default="auto")
    p.add_argument("--trace", action="store_true", help="include reduction steps")
    p.set_defaults(func=cmd_contains)

    p = sub.add_parser("transform", help="rewire to a reticulation-visible network")
    p.add_argument("net_file")
    p.add_argument("--to", choices=("rv",), required=True)
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("gen", help="emit seeded random networks")
    p.add_argument("--leaves", type=int, required=True)
    p.add_argument("--rets", type=int, default=0)
    p.add_argument("--class", dest="class_constraint", choices=_CONSTRAINTS, default="any")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=1)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("bench", help="time containment across sizes, CSV output")
    p.add_argument("--sizes", default="50,100,200,400")
    p.add_argument("--class", dest="class_constraint", default="nearly_stable",
                   choices=_CONSTRAINTS)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _UsageError as exc:
        _diag(exc)
        return 2
    except NewickParseError as exc:
        for d in exc.diagnostics:
            _diag(d)
        if not exc.diagnostics:
            _diag(exc)
        return 3
    except (InvalidNetworkError, LeafSetMismatchError, OSError, UnicodeDecodeError) as exc:
        _diag(exc)
        return 3
    except (ClassPreconditionError, GenerationExhaustedError) as exc:
        _diag(exc)
        return 4
    except (InternalConsistencyError, PatternMismatchError) as exc:
        _diag(exc)
        return 5


if __name__ == "__main__":
    sys.exit(main())
