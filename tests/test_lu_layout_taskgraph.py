"""Tests for the LU data layout and task DAG."""

import pytest

from repro.apps.lu import BlockCyclicLayout, build_lu_taskgraph, lu_op_counts
from repro.apps.lu.schedule import iteration_jobs, released_after_opl, released_after_opu


# ------------------------------------------------------------------ layout


def test_panel_data_is_local_to_owner():
    """Every block the panel of iteration t reads lives on t mod p."""
    layout = BlockCyclicLayout(nb=10, p=6)
    for t in range(10):
        owner = layout.panel_owner(t)
        assert owner == t % 6
        for u, v in layout.strip_members(t):
            assert layout.owner(u, v) == owner


def test_owner_is_min_mod_p():
    layout = BlockCyclicLayout(nb=8, p=3)
    assert layout.owner(5, 2) == 2 % 3
    assert layout.owner(2, 5) == 2 % 3
    assert layout.owner(7, 7) == 7 % 3


def test_blocks_partition_exactly():
    """Every block has exactly one owner and all are accounted for."""
    layout = BlockCyclicLayout(nb=9, p=4)
    seen = set()
    for node in range(4):
        for blk in layout.blocks_on(node):
            assert blk not in seen
            seen.add(blk)
    assert len(seen) == 81
    assert sum(layout.counts()) == 81


def test_layout_balance_is_reasonable():
    """Strip-cyclic layout spreads blocks across nodes (not perfectly --
    early strips are bigger -- but every node holds work)."""
    counts = BlockCyclicLayout(nb=12, p=6).counts()
    assert min(counts) > 0


def test_layout_validation():
    with pytest.raises(ValueError):
        BlockCyclicLayout(nb=0, p=2)
    layout = BlockCyclicLayout(nb=4, p=2)
    with pytest.raises(ValueError):
        layout.owner(4, 0)
    with pytest.raises(ValueError):
        layout.panel_owner(-1)
    with pytest.raises(ValueError):
        layout.blocks_on(5)
    with pytest.raises(ValueError):
        layout.strip_members(9)


# ------------------------------------------------------------- task graph


def test_op_counts_match_closed_form():
    g = build_lu_taskgraph(n=20, b=5, p=3)  # nb = 4
    assert g.count_by_kind() == lu_op_counts(4)


def test_closed_form_counts():
    counts = lu_op_counts(10)
    assert counts["opLU"] == 10
    assert counts["opL"] == 45
    assert counts["opMM"] == 285
    with pytest.raises(ValueError):
        lu_op_counts(0)


def test_graph_is_acyclic_and_ordered():
    g = build_lu_taskgraph(n=24, b=6, p=4)
    order = [t.id for t in g.topological_order()]
    assert order.index("opLU[1]") > order.index("opMS[0,1,1]")
    assert order.index("opMM[0,1,2]") > order.index("opL[0,1]")
    assert order.index("opMM[0,1,2]") > order.index("opU[0,2]")


def test_graph_dependencies_follow_paper():
    g = build_lu_taskgraph(n=24, b=6, p=4)
    mm = g["opMM[1,2,3]"]
    assert set(mm.deps) == {"opL[1,2]", "opU[1,3]"}
    ms = g["opMS[1,2,3]"]
    assert "opMM[1,2,3]" in ms.deps
    assert "opMS[0,2,3]" in ms.deps
    lu1 = g["opLU[1]"]
    assert lu1.deps == ("opMS[0,1,1]",)


def test_graph_flops_sum_close_to_lu_total():
    n, b = 60, 10
    g = build_lu_taskgraph(n, b, p=3)
    assert g.total_flops() == pytest.approx((2 / 3) * n**3, rel=0.3)


def test_graph_critical_path_positive():
    g = build_lu_taskgraph(n=24, b=6, p=4)
    length, path = g.critical_path(lambda t: t.flops)
    assert length > 0
    assert path[0].kind == "opLU"


def test_taskgraph_validation():
    with pytest.raises(ValueError):
        build_lu_taskgraph(10, 3, 2)


# -------------------------------------------------- job release schedule


def test_released_jobs_partition_iteration():
    """Every opMM of iteration t is released exactly once, in dependency
    order (after both its opL and opU)."""
    t, nb = 1, 8
    seen = []
    for j in range(1, nb - t):
        seen.extend(released_after_opl(t, j))
        seen.extend(released_after_opu(t, j))
    m = nb - t - 1
    assert len(seen) == m * m
    assert len(set(seen)) == m * m
    assert all(t < u < nb and t < v < nb for u, v in seen)
    assert seen == iteration_jobs(t, nb)


def test_release_respects_dependencies():
    """Job (u, v) must not be released before pair max(u-t, v-t)."""
    t, nb = 0, 6
    released_at = {}
    for j in range(1, nb - t):
        for job in released_after_opl(t, j) + released_after_opu(t, j):
            released_at[job] = j
    for (u, v), j in released_at.items():
        assert j == max(u - t, v - t)
