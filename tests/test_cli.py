"""Exercise the command line surface through main()."""

import json

import pytest

from netdisplay import core
from netdisplay.cli import main
from netdisplay.errors import InternalConsistencyError

from helpers import GOLDEN, UNSTABLE_OVER_STABLE, UNSTABLE_OVER_STABLE_RV, NOT_NEARLY_STABLE, RUNNING


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        p = tmp_path / name
        p.write_text(text + "\n")
        return str(p)

    return write


def _json_lines(capsys):
    out = capsys.readouterr().out
    return [json.loads(line) for line in out.splitlines() if line]


def test_validate_ok(files, capsys):
    assert main(["validate", files("net.nwk", RUNNING)]) == 0
    (payload,) = _json_lines(capsys)
    assert payload == {"ok": True, "violations": []}


def test_validate_parse_error_exit_3(files, capsys):
    assert main(["validate", files("bad.nwk", "((a,b);")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("netdisplay:")


def test_validate_structural_violations(files, capsys):
    # a unary vertex tokenizes and parses, then fails validation
    assert main(["validate", files("bad.nwk", "((a),b);")]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert "suppressible vertex" in err


@pytest.mark.parametrize(
    "command", ["validate", "classify", "stats", "contains", "transform"]
)
@pytest.mark.parametrize(
    "text",
    ["((a,(b)#H\u00b9),(#H\u00b9,c));".encode(), b"((a,(b)#H\xb9),(#H\xb9,c));"],
    ids=["utf8-superscript", "latin1-byte"],
)
def test_non_ascii_hybrid_digits_exit_3_without_traceback(
    files, tmp_path, capsys, command, text
):
    bad = tmp_path / "bad.nwk"
    bad.write_bytes(text + b"\n")
    argv = {
        "contains": ["contains", str(bad), files("tree.nwk", "((a,b),c);")],
        "transform": ["transform", "--to", "rv", str(bad)],
    }.get(command, [command, str(bad)])
    assert main(argv) == 3  # an uncaught exception would be a traceback
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("netdisplay:")


def test_missing_file_exit_3(capsys):
    assert main(["validate", "/nonexistent/net.nwk"]) == 3
    assert "netdisplay:" in capsys.readouterr().err


def test_classify_running(files, capsys):
    assert main(["classify", files("net.nwk", RUNNING)]) == 0
    (flags,) = _json_lines(capsys)
    assert flags["tree_child"] is True
    assert flags["nearly_stable"] is True


def test_classify_plain_tree(files, capsys):
    assert main(["classify", files("tree.nwk", "((a,b),c);")]) == 0
    (flags,) = _json_lines(capsys)
    assert flags["tree_child"] and flags["nearly_stable"]
    assert flags["subphylogeny_free"] is False  # the cherry is a subphylogeny


def test_fast_and_oracle_agree_through_the_cli(files, capsys):
    import random

    from netdisplay.newick_io import serialize
    from helpers import gen_with_fallback

    rng = random.Random(71)
    for i in range(12):
        n = rng.randint(3, 6)
        net = gen_with_fallback(n, rng.randint(1, n), "nearly_stable", 900 + i)
        from netdisplay.generator import random_tree

        tree = random_tree(sorted(net.label_set()), seed=i)
        net_f = files(f"net{i}.nwk", serialize(net))
        tree_f = files(f"tree{i}.nwk", serialize(tree))
        fast = main(["contains", net_f, tree_f, "--algo", "fast"])
        capsys.readouterr()
        slow = main(["contains", net_f, tree_f, "--algo", "oracle"])
        capsys.readouterr()
        assert fast == slow


def test_stats_running(files, capsys):
    assert main(["stats", files("net.nwk", RUNNING)]) == 0
    stats, bounds = _json_lines(capsys)
    assert stats["n_leaves"] == 3
    assert stats["tree_vertices"] == 3
    assert bounds["bounds_ok"] is True
    assert {c["name"] for c in bounds["checks"]} >= {"reticulations<=4(n-1)"}


def test_contains_true_exit_0(files, capsys):
    code = main(
        ["contains", files("net.nwk", RUNNING), files("tree.nwk", "((a,b),c);")]
    )
    assert code == 0
    (payload,) = _json_lines(capsys)
    assert payload["displayed"] is True
    assert payload["reticulations_initial"] == 1
    assert "trace" not in payload


def test_contains_false_exit_1(files, capsys):
    code = main(
        ["contains", files("net.nwk", RUNNING), files("tree.nwk", "((a,c),b);")]
    )
    assert code == 1
    (payload,) = _json_lines(capsys)
    assert payload["displayed"] is False


def test_contains_trace_lines(files, capsys):
    code = main(
        [
            "contains",
            files("net.nwk", RUNNING),
            files("tree.nwk", "(a,(b,c));"),
            "--trace",
        ]
    )
    assert code == 0
    (payload,) = _json_lines(capsys)
    assert isinstance(payload["trace"], list)


def test_contains_leaf_mismatch_exit_3(files, capsys):
    code = main(
        ["contains", files("net.nwk", RUNNING), files("tree.nwk", "((a,b),d);")]
    )
    assert code == 3
    assert "leaf" in capsys.readouterr().err


def test_contains_fast_rejects_not_nearly_stable(files, capsys):
    code = main(
        [
            "contains",
            files("net.nwk", NOT_NEARLY_STABLE),
            files("tree.nwk", "((a,b),c);"),
            "--algo",
            "fast",
        ]
    )
    assert code == 4
    capsys.readouterr()


def test_contains_auto_falls_back_to_oracle(files, capsys):
    net = files("net.nwk", NOT_NEARLY_STABLE)
    # labels of that network are a, b, c
    tree = files("tree.nwk", "((a,b),c);")
    assert main(["contains", net, tree]) in (0, 1)
    (payload,) = _json_lines(capsys)
    assert payload["iterations"] == 0  # oracle route does not iterate


def test_contains_oracle_cap_env(files, capsys, monkeypatch):
    monkeypatch.setenv("NETDISPLAY_ORACLE_CAP", "0")
    code = main(
        [
            "contains",
            files("net.nwk", RUNNING),
            files("tree.nwk", "((a,b),c);"),
            "--algo",
            "oracle",
        ]
    )
    assert code == 4  # cap breach is a precondition failure
    capsys.readouterr()


@pytest.mark.parametrize("raw", ["many", "-1"])
def test_contains_bad_cap_env_is_usage_error(raw, files, capsys, monkeypatch):
    monkeypatch.setenv("NETDISPLAY_ORACLE_CAP", raw)
    code = main(
        [
            "contains",
            files("net.nwk", RUNNING),
            files("tree.nwk", "((a,b),c);"),
        ]
    )
    assert code == 2
    capsys.readouterr()


def test_contains_fast_ignores_the_oracle_cap_env(files, capsys, monkeypatch):
    monkeypatch.setenv("NETDISPLAY_ORACLE_CAP", "many")
    args = ["contains", files("net.nwk", RUNNING), files("tree.nwk", "((a,b),c);")]
    assert main(args + ["--algo", "fast"]) == 0
    fast = capsys.readouterr()
    monkeypatch.delenv("NETDISPLAY_ORACLE_CAP")
    assert main(args) == 0
    assert capsys.readouterr() == fast
    (payload,) = [json.loads(line) for line in fast.out.splitlines()]
    assert payload["displayed"] is True
    assert payload["reticulations_initial"] == 1
    assert fast.err == ""


def test_contains_auto_refuses_beyond_the_oracle_cap(files, capsys, monkeypatch):
    monkeypatch.setenv("NETDISPLAY_ORACLE_CAP", "0")
    code = main(
        [
            "contains",
            files("net.nwk", NOT_NEARLY_STABLE),
            files("tree.nwk", "((a,b),c);"),
        ]
    )
    assert code == 4
    assert "exceeds the oracle cap" in capsys.readouterr().err


def test_internal_consistency_error_exit_5(files, capsys, monkeypatch):
    def broken(net, tree):
        raise InternalConsistencyError("reduction loop lost its invariant")

    monkeypatch.setattr("netdisplay.cli.displays", broken)
    code = main(
        ["contains", files("net.nwk", RUNNING), files("tree.nwk", "((a,b),c);")]
    )
    assert code == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "reduction loop lost its invariant" in captured.err


def test_contains_auto_asks_only_for_near_stability(files, capsys, monkeypatch):
    calls = []
    real = core._subphylogeny_free

    def counting(net):
        calls.append(net)
        return real(net)

    monkeypatch.setattr(core, "_subphylogeny_free", counting)
    for rec in GOLDEN:
        argv = ["contains", files("net.nwk", rec["net"]), files("tree.nwk", rec["tree"])]
        assert main(argv) == (0 if rec["displayed"] else 1)
        (payload,) = _json_lines(capsys)
        assert payload["iterations"] == rec["iterations"]
    assert calls == []


def test_contains_auto_folds_near_stability_once_per_call(files, capsys, monkeypatch):
    # cmd_contains and displays both ask in_class; the memo answers the second
    calls = []
    real = core._CLASS_TESTS["nearly_stable"]

    def counting(net, stable):
        calls.append(net)
        return real(net, stable)

    monkeypatch.setitem(core._CLASS_TESTS, "nearly_stable", counting)
    for rec in GOLDEN:
        argv = ["contains", files("net.nwk", rec["net"]), files("tree.nwk", rec["tree"])]
        assert main(argv) == (0 if rec["displayed"] else 1)
        capsys.readouterr()
    assert len(calls) == len(GOLDEN)


def test_transform_frozen_output(files, capsys):
    assert main(["transform", "--to", "rv", files("net.nwk", UNSTABLE_OVER_STABLE)]) == 0
    captured = capsys.readouterr()
    assert captured.out.strip() == UNSTABLE_OVER_STABLE_RV
    assert "stable reticulations" in captured.err


def test_transform_rejects_not_nearly_stable(files, capsys):
    code = main(["transform", "--to", "rv", files("net.nwk", NOT_NEARLY_STABLE)])
    assert code == 4
    capsys.readouterr()


def test_gen_deterministic_with_metadata(capsys):
    argv = ["gen", "--leaves", "6", "--rets", "2", "--class", "nearly_stable",
            "--seed", "11", "--count", "3"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    lines = first.splitlines()
    assert len(lines) == 6
    assert lines[0].startswith("# seed=11 leaves=6 rets=2 class=nearly_stable rng=")
    assert lines[2].startswith("# seed=12 ")
    assert lines[1].endswith(";")


def test_gen_rejects_bad_spec(capsys):
    assert main(["gen", "--leaves", "0"]) == 2
    assert "netdisplay:" in capsys.readouterr().err


def test_gen_bad_spec_fails_whatever_the_count(capsys):
    for argv in (["--leaves", "0"], ["--leaves", "3", "--rets", "-1"]):
        assert main(["gen", *argv, "--count", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("netdisplay:")


def test_gen_negative_count_is_a_usage_error(capsys):
    assert main(["gen", "--leaves", "3", "--count", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("netdisplay:")
    assert main(["gen", "--leaves", "3", "--count", "0"]) == 0
    assert capsys.readouterr().out == ""


def test_gen_exhaustion_exit_4(capsys):
    assert main(["gen", "--leaves", "1", "--rets", "5"]) == 4
    capsys.readouterr()


def test_bench_csv_shape(capsys):
    assert main(["bench", "--sizes", "8,12", "--seed", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n,m,wall_time_s,iterations"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 10  # five repeats per size
    for n, m, dt, iters in rows:
        assert int(n) in (8, 12)
        assert int(m) >= 1
        assert float(dt) >= 0
        assert int(iters) <= int(n) + int(m)


def test_bench_rejects_bad_sizes(capsys):
    assert main(["bench", "--sizes", "abc"]) == 2
    assert main(["bench", "--sizes", "1,4"]) == 2
    capsys.readouterr()


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["contains", "--algo", "warp"])
    assert exc.value.code == 2


def test_stdin_input(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(RUNNING + "\n"))
    assert main(["classify", "-"]) == 0
    capsys.readouterr()
