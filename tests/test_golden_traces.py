"""Recorded verdicts and traces that the reduction loop must reproduce.

`data/golden_traces.json` holds (net, tree) eNewick pairs: every case
fixture with a tree it displays, and networks on 20-120 leaves with one
displayed tree and one split-cherry negative each, stored as text so a
change to the generator cannot move them. Each record carries the
verdict, the iteration count and the exact `trace.to_text()` bytes.
"""

import json
from pathlib import Path

import pytest

from netdisplay.newick_io import parse_network, parse_tree
from netdisplay.tcp import displays

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "golden_traces.json").read_text()
)


@pytest.mark.parametrize("rec", GOLDEN, ids=[r["name"] for r in GOLDEN])
def test_golden_trace(rec):
    verdict = displays(parse_network(rec["net"]), parse_tree(rec["tree"]))
    assert verdict.displayed == rec["displayed"]
    assert verdict.iterations == rec["iterations"]
    assert verdict.trace.to_text() == rec["trace"]
