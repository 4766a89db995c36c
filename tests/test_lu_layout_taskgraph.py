"""Tests for the LU data layout and job release schedule."""

import pytest

from repro.apps.lu import BlockCyclicLayout
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
