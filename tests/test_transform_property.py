"""Property check of the one-pass stabilizing transform against the
round-by-round reference, over generator seeds and sizes."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from netdisplay.bounds import ns_to_rv_transform
from netdisplay.core import stability

from helpers import gen_with_fallback, reference_transform, same_network


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 20), data=st.data())
def test_transform_equals_reference(seed, n, data):
    m = data.draw(st.integers(1, n), label="reticulations")
    net = gen_with_fallback(n, m, "nearly_stable", seed)
    rep = stability(net)
    unstable = {r for r in net.reticulations if not rep.stable[r]}
    # no tree vertex parents two unstable reticulations
    assert all(len(unstable.intersection(net.children(v))) <= 1 for v in net.vertices)
    out, before, after = ns_to_rv_transform(net)
    ref_out, ref_before, ref_after = reference_transform(net)
    assert same_network(out, ref_out)
    assert (before, after) == (ref_before, ref_after)
