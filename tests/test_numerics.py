"""The numerics interpreter runs the timed schedules on real blocks.

Every run here draws the order in which ready processes advance, so the
result holds for any order the schedule's waits allow -- and a schedule
that drops a needed wait is caught in some order.
"""

import numpy as np
import scipy.linalg
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

from repro.apps.fw import FwSimConfig
from repro.apps.fw.schedule import fw_processes
from repro.apps.lu import BlockCyclicLayout, LuSimConfig
from repro.apps.lu.schedule import lu_processes
from repro.apps.mm import MmSimConfig
from repro.apps.mm.schedule import mm_processes
from repro.apps.numerics import FwBlocks, LuBlocks, MmBlocks
from repro.core import CoordinationGuard
from repro.core.coordination import HazardError
from repro.hw.fw_design import FloydWarshallDesign
from repro.kernels import (
    lu_residual,
    max_abs_diff,
    random_dd_matrix,
    random_distance_matrix,
    scipy_shortest_paths,
)
from repro.sim.interpret import Physical
from repro.validate import FW_TOL, LU_TOL

orders = st.randoms(use_true_random=False)
#: ``find`` settings: stop at the first failing order, without shrinking.
first_found = settings(max_examples=200, database=None, phases=[Phase.generate])


def _without(processes, bad):
    """``processes`` with every op ``bad(name, op)`` holds for left out."""

    def keep(name, ops):
        return (op for op in ops if not bad(name, op))

    return [(name, keep(name, ops)) for name, ops in processes]


def _lu(a, config, p, order, processes=None):
    guard = CoordinationGuard(enforce=True)
    blocks = LuBlocks(a, config, BlockCyclicLayout(config.nb, p), guard)
    res = blocks.run(processes or lu_processes(config, p, Physical), order.randrange)
    assert guard.clean
    return res


def _fw(d, config, p, order, processes=None, design=None):
    guard = CoordinationGuard(enforce=True)
    blocks = FwBlocks(d, config, p, guard, design)
    res = blocks.run(processes or fw_processes(config, p, 1, Physical), order.randrange)
    assert guard.clean
    return res


# ------------------------------------------------- a dropped wait is caught


def test_lu_without_the_owners_opms_wait_goes_wrong_in_some_order():
    """The owner's wait on iteration t-1's opMS before opLU is needed."""
    a = random_dd_matrix(24, np.random.default_rng(5))
    config = LuSimConfig(n=24, b=6, k=2, b_f=2, l=1, superstripes=2)

    def owner_skips_opms(name, op):
        return op[0] == "wait_all" and op[1][0][0] == "ms"

    def broken(order):
        procs = _without(lu_processes(config, 3, Physical), owner_skips_opms)
        try:
            return lu_residual(a, _lu(a, config, 3, order, procs).lu) > LU_TOL
        except HazardError:
            return True

    find(orders, broken, settings=first_found)


def test_fw_without_a_pivot_wait_goes_wrong_in_some_order():
    """A non-owner must receive the phase's pivot before its ops use it."""
    d = random_distance_matrix(16, np.random.default_rng(5))
    config = FwSimConfig(n=16, b=4, k=1, l1=1, l2=1, iterations=None)

    def node1_skips_a_pivot(name, op):
        return name == "node1" and op == ("wait", (0, 1, ("pivot", 0, 1)))

    def broken(order):
        procs = _without(fw_processes(config, 2, 1, Physical), node1_skips_a_pivot)
        try:
            return max_abs_diff(_fw(d, config, 2, order, procs).dist,
                                scipy_shortest_paths(d)) > FW_TOL
        except HazardError:
            return True

    find(orders, broken, settings=first_found)


# ------------------------------------ the schedule knobs, in drawn orders


@given(
    shape=st.sampled_from([(12, 4, 2), (16, 4, 3), (18, 6, 3), (24, 6, 4), (24, 8, 3)]),
    bf_frac=st.sampled_from([0.0, 0.5, 1.0]),
    l=st.integers(min_value=0, max_value=3),
    superstripes=st.integers(min_value=1, max_value=4),
    overlap=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**31),
    order=orders,
)
@settings(max_examples=40, deadline=None)
def test_lu_knobs_factorise_in_any_order(shape, bf_frac, l, superstripes, overlap, seed, order):
    n, b, p = shape
    k = 2
    b_f = int(b * bf_frac) // k * k
    config = LuSimConfig(n=n, b=b, k=k, b_f=b_f, l=l, overlap=overlap,
                         superstripes=min(superstripes, b // k))
    # Column diagonal dominance: partial pivoting swaps no rows, so
    # scipy's factors are the unpivoted ones.
    a = random_dd_matrix(n, np.random.default_rng(seed)).T
    res = _lu(a, config, p, order)
    perm, lower, upper = scipy.linalg.lu(a)
    np.testing.assert_array_equal(perm, np.eye(n))
    ours_lower, ours_upper = res.factors
    np.testing.assert_allclose(ours_lower, lower, rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(ours_upper, upper, rtol=1e-9, atol=1e-12)
    assert lu_residual(a, res.lu) < LU_TOL


@given(
    shape=st.sampled_from([(8, 2, 2), (12, 2, 3), (16, 4, 2), (16, 2, 4), (24, 4, 3)]),
    l1_frac=st.sampled_from([0.0, 0.5, 1.0]),
    aggregate_ops=st.booleans(),
    overlap=st.booleans(),
    hw=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**31),
    order=orders,
)
@settings(max_examples=40, deadline=None)
def test_fw_knobs_give_shortest_paths_in_any_order(shape, l1_frac, aggregate_ops, overlap, hw,
                                                   seed, order):
    n, b, p = shape
    cols = n // b // p
    l1 = int(cols * l1_frac)
    config = FwSimConfig(n=n, b=b, k=2, l1=l1, l2=cols - l1, overlap=overlap,
                         aggregate_ops=aggregate_ops, iterations=None)
    design = FloydWarshallDesign(k=2, freq_hz=1e6, device=None) if hw else None
    d = random_distance_matrix(n, np.random.default_rng(seed))
    res = _fw(d, config, p, order, design=design)
    assert max_abs_diff(res.dist, scipy_shortest_paths(d)) < FW_TOL
    assert res.op_counts["op22"] == config.nb * (config.nb - 1)


@given(
    np_pair=st.sampled_from([(8, 2), (12, 3), (16, 4), (24, 4), (24, 6)]),
    mf_frac=st.sampled_from([0.0, 0.5, 1.0]),
    overlap=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**31),
    order=orders,
)
@settings(max_examples=40, deadline=None)
def test_mm_knobs_multiply_in_any_order(np_pair, mf_frac, overlap, seed, order):
    n, p = np_pair
    r = n // p
    config = MmSimConfig(n=n, k=1, m_f=int(r * mf_frac), overlap=overlap)
    rng = np.random.default_rng(seed)
    a, b = rng.standard_normal((n, n)), rng.standard_normal((n, n))
    guard = CoordinationGuard(enforce=True)
    res = MmBlocks(a, b, config, p, guard).run(mm_processes(config, p, Physical),
                                               order.randrange)
    np.testing.assert_allclose(res.product, a @ b, rtol=1e-11, atol=1e-11)
    assert guard.clean
    assert res.messages == p * (p - 1)
