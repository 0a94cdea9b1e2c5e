"""Property-based differential tests for the columnar lookup path.

For every registered CH family (the paper's four JET families, the
incremental-ring variant, and the jump/modulo/concury extensions), under
random working/horizon sets and random key batches -- including the
empty batch and single-key batches -- the integer kernels
``lookup_batch_idx`` / ``lookup_with_safety_batch_idx``, decoded through
``backend_table()``, must agree with the scalar reference key for key,
before and after backend churn; so must JET's columnar dispatch over each
family, CT contents included.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ch import (
    EXTENSION_FAMILIES,
    JET_FAMILIES,
    AnchorHash,
    IncrementalRingHash,
    MaglevHash,
    RingHash,
    TableHRWHash,
)
from repro.core import JETLoadBalancer, make_full_ct
from repro.hashing.mix import MASK64

keys64 = st.integers(min_value=0, max_value=MASK64)

ALL_FAMILIES = sorted(JET_FAMILIES) + sorted(EXTENSION_FAMILIES)


def build(family, working, horizon):
    """Small-parameter CH instance so hypothesis examples stay fast."""
    if family == "concury":
        from repro.ch import ConcuryHash

        return ConcuryHash(working, horizon, inner="table", flowsets=128, rows=127)
    if family == "ring":
        return RingHash(working, horizon, virtual_nodes=8)
    if family == "ring-incremental":
        return IncrementalRingHash(working, horizon, virtual_nodes=8)
    if family == "table":
        return TableHRWHash(working, horizon, rows=127)
    if family == "anchor":
        return AnchorHash(
            working, horizon, capacity=2 * (len(working) + len(horizon)) + 4
        )
    cls = JET_FAMILIES.get(family) or EXTENSION_FAMILIES[family]
    return cls(working=working, horizon=horizon)


def assert_batch_equals_scalar(ch, key_sample):
    keys = np.array(key_sample, dtype=np.uint64)
    idx, unsafe = ch.lookup_with_safety_batch_idx(keys)
    assert idx.dtype == np.int32
    assert len(idx) == len(key_sample)
    assert len(unsafe) == len(key_sample)
    expected = [ch.lookup_with_safety(k) for k in key_sample]
    assert list(ch.backend_table()[idx]) == [d for d, _ in expected]
    assert unsafe.tolist() == [u for _, u in expected]
    assert ch.lookup_batch_idx(keys).tolist() == idx.tolist()


def assert_lb_columnar_equals_scalar(columnar, scalar, key_sample):
    """Columnar dispatch decoded at the edge == the scalar twin, CT included."""
    ids = columnar.get_destinations_batch_idx(np.array(key_sample, dtype=np.uint64))
    names = columnar.dispatch_names()
    assert [names[i] for i in ids.tolist()] == [
        scalar.get_destination(k) for k in key_sample
    ]
    if hasattr(scalar, "tracked_items"):
        assert columnar.tracked_items() == scalar.tracked_items()


class TestBatchEqualsScalarEverywhere:
    @given(
        family=st.sampled_from(ALL_FAMILIES),
        n_working=st.integers(min_value=1, max_value=10),
        n_horizon=st.integers(min_value=0, max_value=4),
        key_sample=st.lists(keys64, min_size=0, max_size=40),
    )
    @settings(max_examples=40, deadline=None)
    def test_fresh_instance(self, family, n_working, n_horizon, key_sample):
        working = [f"w{i}" for i in range(n_working)]
        horizon = [f"h{i}" for i in range(n_horizon)]
        ch = build(family, working, horizon)
        assert_batch_equals_scalar(ch, key_sample)

    @given(
        family=st.sampled_from(ALL_FAMILIES),
        n_working=st.integers(min_value=2, max_value=10),
        n_horizon=st.integers(min_value=1, max_value=4),
        key_sample=st.lists(keys64, min_size=0, max_size=30),
    )
    @settings(max_examples=25, deadline=None)
    def test_after_churn(self, family, n_working, n_horizon, key_sample):
        working = [f"w{i}" for i in range(n_working)]
        horizon = [f"h{i}" for i in range(n_horizon)]
        ch = build(family, working, horizon)
        # Jump's horizon is a stack: the server that just left the working
        # set is the only admissible one; other families admit any member.
        victim = working[-1]
        admit = victim if family == "jump" else horizon[0]
        ch.remove_working(victim)
        assert_batch_equals_scalar(ch, key_sample)
        ch.add_working(admit)
        assert_batch_equals_scalar(ch, key_sample)

    @given(family=st.sampled_from(ALL_FAMILIES), key=keys64)
    @settings(max_examples=25, deadline=None)
    def test_single_key_batch(self, family, key):
        ch = build(family, ["w0", "w1", "w2"], ["h0"])
        assert_batch_equals_scalar(ch, [key])


class TestIndexKernelProperties:
    """One layer up under the same randomization: JET's columnar dispatch
    over every family must equal a scalar-driven twin -- destinations and
    tracked CT contents -- under random membership, random key batches
    (repeats included), and churn."""

    @staticmethod
    def _pair(family, working, horizon):
        return (JETLoadBalancer(build(family, working, horizon)),
                JETLoadBalancer(build(family, working, horizon)))

    @given(
        family=st.sampled_from(ALL_FAMILIES),
        n_working=st.integers(min_value=1, max_value=10),
        n_horizon=st.integers(min_value=0, max_value=4),
        key_sample=st.lists(keys64, min_size=0, max_size=40),
    )
    @settings(max_examples=40, deadline=None)
    def test_fresh_instance(self, family, n_working, n_horizon, key_sample):
        working = [f"w{i}" for i in range(n_working)]
        horizon = [f"h{i}" for i in range(n_horizon)]
        columnar, scalar = self._pair(family, working, horizon)
        assert_lb_columnar_equals_scalar(columnar, scalar, key_sample)
        # A second pass re-reads the CT entries the first one wrote.
        assert_lb_columnar_equals_scalar(columnar, scalar, key_sample)

    @given(
        family=st.sampled_from(ALL_FAMILIES),
        n_working=st.integers(min_value=2, max_value=10),
        n_horizon=st.integers(min_value=1, max_value=4),
        key_sample=st.lists(keys64, min_size=0, max_size=30),
    )
    @settings(max_examples=25, deadline=None)
    def test_after_churn(self, family, n_working, n_horizon, key_sample):
        working = [f"w{i}" for i in range(n_working)]
        horizon = [f"h{i}" for i in range(n_horizon)]
        columnar, scalar = self._pair(family, working, horizon)
        assert_lb_columnar_equals_scalar(columnar, scalar, key_sample)
        victim = working[-1]
        admit = victim if family == "jump" else horizon[0]
        for lb in (columnar, scalar):
            lb.remove_working_server(victim)
        assert_lb_columnar_equals_scalar(columnar, scalar, key_sample)
        for lb in (columnar, scalar):
            lb.add_working_server(admit)
        assert_lb_columnar_equals_scalar(columnar, scalar, key_sample)

    @given(
        n_working=st.integers(min_value=1, max_value=10),
        key_sample=st.lists(keys64, min_size=0, max_size=40),
        churn=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_maglev_idx_equals_names(self, n_working, key_sample, churn):
        ch = MaglevHash([f"w{i}" for i in range(n_working)], table_size=251)
        if churn:
            ch.add("fresh")
            ch.remove("w0")
        keys = np.array(key_sample, dtype=np.uint64)
        idx = ch.lookup_batch_idx(keys)
        assert idx.dtype == np.int32
        assert list(ch.backend_table()[idx]) == [ch.lookup(k) for k in key_sample]


class TestMaglevBatchProperties:
    """Maglev has no safety variant; hold full-CT columnar dispatch over
    it to a scalar-driven twin."""

    @given(
        n_working=st.integers(min_value=1, max_value=10),
        key_sample=st.lists(keys64, min_size=0, max_size=40),
        churn=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_batch_equals_scalar(self, n_working, key_sample, churn):
        working = [f"w{i}" for i in range(n_working)]
        columnar, scalar = (make_full_ct("maglev", working, table_size=251)
                            for _ in range(2))
        assert_lb_columnar_equals_scalar(columnar, scalar, key_sample)
        if churn:
            for lb in (columnar, scalar):
                lb.add_working_server("fresh")
                lb.remove_working_server("w0")
        assert_lb_columnar_equals_scalar(columnar, scalar, key_sample)


class TestRingBoundaryKeys:
    """Keys drawn from the materialized vnode positions themselves: the
    searchsorted(side="right") boundary must agree with bisect_right."""

    @given(
        variant=st.sampled_from(["ring", "ring-incremental"]),
        n_working=st.integers(min_value=1, max_value=8),
        n_horizon=st.integers(min_value=0, max_value=3),
        picks=st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=25),
        offset=st.sampled_from([0, 1, MASK64]),  # on, just after, just before
    )
    @settings(max_examples=40, deadline=None)
    def test_vnode_position_keys(self, variant, n_working, n_horizon, picks, offset):
        ch = build(variant, [f"w{i}" for i in range(n_working)],
                   [f"h{i}" for i in range(n_horizon)])
        ch.lookup(0)  # force the initial rebuild
        positions = ch._positions
        key_sample = [
            (positions[p % len(positions)] + offset) & MASK64 for p in picks
        ]
        assert_batch_equals_scalar(ch, key_sample)
