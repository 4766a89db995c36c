"""Property-based tests (hypothesis) for the design-model solvers.

These pin the *defining equations* of the paper over wide parameter
ranges, not just the XD1 point: conservation, equation satisfaction at
the continuous solution, rounding validity, and the economic
monotonicities (a faster device attracts work; costlier transfer pushes
work to the device that overlaps it).
"""

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.core import (
    SystemParameters,
    balance_flops,
    balance_with_network,
    balance_with_transfer,
    fw_op_times,
    fw_partition,
    lu_load_balance,
    lu_stripe_partition,
    lu_stripe_times,
    node_work_balance,
    predict_fw,
)

# Strategy: machine parameters within two orders of magnitude of the XD1.
params_st = st.builds(
    SystemParameters,
    p=st.integers(min_value=2, max_value=32),
    o_f=st.sampled_from([4, 8, 16, 32]),
    f_f=st.floats(min_value=50e6, max_value=500e6),
    cpu_flops=st.floats(min_value=1e8, max_value=5e10),
    b_d=st.floats(min_value=1e8, max_value=1e10),
    b_n=st.floats(min_value=1e8, max_value=1e10),
    sram_bytes=st.sampled_from([2**20, 8 * 2**20, 64 * 2**20]),
)


# ----------------------------------------------------------- basic splits


@given(params=params_st, total=st.floats(min_value=1e3, max_value=1e15))
def test_balance_flops_conserves_and_equalises(params, total):
    split = balance_flops(total, params)
    assert split.n_p + split.n_f == pytest.approx(total)
    assert 0 <= split.n_p <= total and 0 <= split.n_f <= total
    assert split.t_p == pytest.approx(split.t_f, rel=1e-9)


@given(
    params=params_st,
    total=st.floats(min_value=1e6, max_value=1e15),
    d_f=st.floats(min_value=0, max_value=1e12),
)
def test_eq1_satisfied_or_clamped(params, total, d_f):
    split = balance_with_transfer(total, d_f, params)
    assert split.n_p + split.n_f == pytest.approx(total)
    if 0 < split.n_f < total:  # interior solution: Eq. (1) holds exactly
        assert split.t_p + split.t_transfer == pytest.approx(split.t_f, rel=1e-9)
    else:  # clamped: all work on the FPGA
        assert split.n_f == pytest.approx(total)


@given(
    params=params_st,
    total=st.floats(min_value=1e6, max_value=1e15),
    d_f=st.floats(min_value=0, max_value=1e10),
    d_p=st.floats(min_value=0, max_value=1e10),
)
def test_eq2_monotone_in_serial_costs(params, total, d_f, d_p):
    """More unoverlappable serial cost -> more work shifted to the FPGA."""
    base = balance_flops(total, params)
    loaded = balance_with_network(total, d_f, d_p, params)
    assert loaded.n_f >= base.n_f - 1e-6 * total


# ----------------------------------------------------------- Eq. 4 (LU)


@given(
    params=params_st,
    b_over_k=st.integers(min_value=2, max_value=400),
    k=st.sampled_from([2, 4, 8, 16]),
)
@settings(max_examples=60)
def test_lu_partition_invariants(params, b_over_k, k):
    b = b_over_k * k
    part = lu_stripe_partition(b, k, params)
    assert part.b_p + part.b_f == b
    assert part.b_f % k == 0
    assert 0 <= part.b_f <= b
    assert part.sram_words <= params.sram_words
    # The continuous solution satisfies Eq. (4) exactly when feasible.
    if 0 < part.b_f_exact < b:
        t_p, t_f, t_comm, t_mem = lu_stripe_times(b, part.b_f_exact, k, params)
        assert t_f == pytest.approx(t_comm + t_mem + t_p, rel=1e-6)


@given(
    b_over_k=st.integers(min_value=4, max_value=100),
    k=st.sampled_from([4, 8]),
    scale=st.floats(min_value=1.5, max_value=10.0),
)
@settings(max_examples=40)
def test_lu_partition_faster_cpu_takes_more_rows(b_over_k, k, scale):
    b = b_over_k * k
    base = SystemParameters(p=6, o_f=16, f_f=130e6, cpu_flops=3.9e9, b_d=1.04e9, b_n=2e9)
    part_base = lu_stripe_partition(b, k, base, enforce_sram=False)
    part_fast = lu_stripe_partition(b, k, base.with_(cpu_flops=3.9e9 * scale), enforce_sram=False)
    assert part_fast.b_f <= part_base.b_f


# ----------------------------------------------------------- Eq. 6 (FW)


@given(
    params=params_st,
    cols=st.integers(min_value=1, max_value=200),
    b_over_k=st.integers(min_value=1, max_value=64),
    k=st.sampled_from([2, 4, 8]),
)
@settings(max_examples=60)
# T_p = T_mem - T_f exactly: Eq. (6)'s denominator is zero.
@example(params=SystemParameters(p=2, o_f=4, f_f=50e6, cpu_flops=1e8, b_d=1e8, b_n=1e8),
         cols=1, b_over_k=2, k=2)
def test_fw_partition_invariants(params, cols, b_over_k, k):
    b = b_over_k * k
    n = b * params.p * cols
    part = fw_partition(n, b, k, params)
    assert part.l1 + part.l2 == cols
    assert 0 <= part.l1 <= cols
    # Continuous solution satisfies Eq. (6) when interior.
    if 0 < part.l1_exact < cols:
        l1, l2 = part.l1_exact, cols - part.l1_exact
        lhs = l1 * part.t_p + part.t_comm + l2 * part.t_mem
        assert lhs == pytest.approx(l2 * part.t_f, rel=1e-6)
    # Rounding moves l1 by at most one from the continuous optimum.
    clamped = min(max(part.l1_exact, 0.0), float(cols))
    assert abs(part.l1 - clamped) <= 0.5 + 1e-9


@given(
    cols=st.integers(min_value=2, max_value=100),
    scale=st.floats(min_value=1.5, max_value=20.0),
)
@settings(max_examples=40)
def test_fw_partition_faster_cpu_takes_more_tasks(cols, scale):
    base = SystemParameters(p=6, o_f=16, f_f=120e6, cpu_flops=190e6, b_d=960e6, b_n=2e9)
    n = 256 * 6 * cols
    l1_base = fw_partition(n, 256, 8, base).l1
    l1_fast = fw_partition(n, 256, 8, base.with_(cpu_flops=190e6 * scale)).l1
    assert l1_fast >= l1_base


@given(params=params_st, b_over_k=st.integers(min_value=1, max_value=64), k=st.sampled_from([2, 8]))
def test_fw_op_times_positive(params, b_over_k, k):
    t_p, t_f, t_comm, t_mem = fw_op_times(b_over_k * k, k, params)
    assert t_p > 0 and t_f > 0 and t_comm > 0 and t_mem > 0


# ----------------------------------------------------------- Eq. 5 / misc


@given(
    t_lu=st.floats(min_value=0.01, max_value=100.0),
    t_tr=st.floats(min_value=0.01, max_value=100.0),
)
@settings(max_examples=40)
def test_lu_load_balance_floor_semantics(t_lu, t_tr):
    params = SystemParameters(p=6, o_f=16, f_f=130e6, cpu_flops=3.9e9, b_d=1.04e9, b_n=2e9)
    part = lu_stripe_partition(3000, 8, params)
    bal = lu_load_balance(part, t_lu, t_tr, t_tr, params)
    assert bal.l >= 1
    assert bal.l <= max(1.0, bal.l_exact)
    assert bal.owner_op_time == max(t_lu, t_tr)


@given(work=st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=64))
def test_node_work_balance_at_least_one(work):
    assert node_work_balance(work) >= 1.0 - 1e-12


@given(params=params_st, cols=st.integers(min_value=1, max_value=50))
@settings(max_examples=40)
def test_fw_prediction_consistency(params, cols):
    """Predicted latency is exactly nb^2 phases of the phase makespan
    under the full-overlap assumption (max of the two device paths)."""
    b, k = 64, 8
    n = b * params.p * cols
    part = fw_partition(n, b, k, params)
    pred = predict_fw(n, b, part, params)
    nb = n // b
    phase = max(part.l1 * part.t_p, part.l2 * part.t_f)
    assert pred.latency == pytest.approx(nb * nb * phase)
    assert pred.gflops > 0
    assert pred.latency >= max(pred.t_tp, pred.t_tf) / max(nb * nb, 1) - 1e-12
