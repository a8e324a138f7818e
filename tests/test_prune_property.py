"""Property check of NetworkEditor.prune on many-branch removals: the
seeded sweep from the removed branches' ends against the full-sweep
reference, over generator seeds and random resolutions."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from netdisplay.core import Branch, NetworkEditor
from netdisplay.generator import GenSpec, generate

from helpers import reference_suppress, same_network


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 20), data=st.data())
def test_prune_of_a_resolution_equals_full_sweep(seed, n, data):
    m = data.draw(st.integers(0, 2 * n), label="reticulations")
    net = generate(GenSpec(n, m, "any", seed=seed))
    dropped = []
    for r in net.reticulations:
        parents = sorted(net.parents(r))
        kept = data.draw(st.sampled_from(parents), label=f"kept parent of {r}")
        dropped.extend(Branch(p, r) for p in parents if p != kept)
    ed, full = NetworkEditor(net), NetworkEditor(net)
    contracted, _ = ed.prune(dropped)
    for b in dropped:
        full.remove_branch(*b)
    assert contracted == reference_suppress(full)
    assert same_network(ed.freeze(), full.freeze())
