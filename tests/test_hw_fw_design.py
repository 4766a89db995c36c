"""Tests for the cycle-level Floyd-Warshall FPGA design model."""

import numpy as np
import pytest

from repro.hw import FloydWarshallDesign, XC2VP50, fwi_reference
from repro.machine import cray_xd1


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def random_dist_block(rng, n):
    """A random non-negative distance block with zero diagonal."""
    d = rng.uniform(1.0, 10.0, size=(n, n))
    np.fill_diagonal(d, 0.0)
    return d


# ---------------------------------------------------------------- reference


def test_fwi_reference_is_plain_floyd_warshall(rng):
    d = random_dist_block(rng, 6)
    out = fwi_reference(d, None, None)
    # Compare against an explicit triple loop.
    exp = d.copy()
    n = 6
    for kk in range(n):
        for i in range(n):
            for j in range(n):
                exp[i, j] = min(exp[i, j], exp[i, kk] + exp[kk, j])
    np.testing.assert_allclose(out, exp)


def test_fwi_reference_does_not_mutate_input(rng):
    d = random_dist_block(rng, 4)
    d0 = d.copy()
    fwi_reference(d, None, None)
    np.testing.assert_array_equal(d, d0)


# ------------------------------------------------------------------ design


def test_for_device_defaults_to_paper_point():
    design = FloydWarshallDesign.for_device(XC2VP50)
    assert design.k == 8
    assert design.freq_hz == pytest.approx(120e6)
    assert design.ops_per_cycle == 16  # the paper's O_f
    assert design.effective_flops == pytest.approx(0.96e9)  # k * F_f
    assert cray_xd1().node.fpga.b_d(design.freq_hz) == pytest.approx(960e6)  # B_d, Sec. 6.1


def test_tile_cycles_formula():
    design = FloydWarshallDesign.for_device(XC2VP50)
    b = 256
    assert design.tile_cycles(b) == 2 * b**3 // 8
    assert design.tile_time(b) == pytest.approx(2 * b**3 / (8 * 120e6))


def test_paper_tile_time_value():
    """T_f at b=256 is about 35 ms (used in the Eq. 6 worked example)."""
    design = FloydWarshallDesign.for_device(XC2VP50)
    assert design.tile_time(256) == pytest.approx(0.034952533, rel=1e-6)


def test_memory_requirements():
    design = FloydWarshallDesign.for_device(XC2VP50)
    assert design.bram_words_required() == 2 * 64
    assert design.sram_words_required(256) == 2 * 256**2
    # The paper's constraint: 2 b^2 words <= 8 MB at b=256.
    assert design.fits(256, sram_bytes=8 * 2**20)
    assert not design.fits(1024, sram_bytes=8 * 2**20)


def test_tile_size_validation():
    design = FloydWarshallDesign.for_device(XC2VP50)
    with pytest.raises(ValueError, match="multiple of k"):
        design.tile_cycles(100)  # not a multiple of 8
    with pytest.raises(ValueError):
        design.tile_cycles(0)


# --------------------------------------------------- behavioural execution


def test_run_tile_op1_matches_reference(rng):
    """op1: in-tile Floyd-Warshall (A = B = D)."""
    design = FloydWarshallDesign(k=4, freq_hz=100e6, device=XC2VP50)
    d = random_dist_block(rng, 8)
    out, cycles = design.run_tile(d)
    np.testing.assert_allclose(out, fwi_reference(d, None, None))
    assert cycles == design.tile_cycles(8)


def test_run_tile_op3_matches_reference(rng):
    """op3: disjoint A and B blocks."""
    design = FloydWarshallDesign(k=4, freq_hz=100e6, device=XC2VP50)
    d = random_dist_block(rng, 8)
    a = rng.uniform(1.0, 10.0, size=(8, 8))
    b = rng.uniform(1.0, 10.0, size=(8, 8))
    out, cycles = design.run_tile(d, a, b)
    np.testing.assert_allclose(out, fwi_reference(d, a, b))
    assert cycles == 2 * 8**3 // 4


def test_run_tile_op21_matches_reference(rng):
    """op21: B aliases D (row-block update)."""
    design = FloydWarshallDesign(k=2, freq_hz=100e6, device=XC2VP50)
    # A is a completed diagonal block (zero diagonal), B is D itself.
    a = fwi_reference(random_dist_block(rng, 6), None, None)
    d = rng.uniform(1.0, 10.0, size=(6, 6))
    out, _ = design.run_tile(d, a, None)
    np.testing.assert_allclose(out, fwi_reference(d, a, d))


def test_run_tile_does_not_mutate_input(rng):
    design = FloydWarshallDesign(k=2, freq_hz=100e6, device=XC2VP50)
    d = random_dist_block(rng, 4)
    d0 = d.copy()
    design.run_tile(d)
    np.testing.assert_array_equal(d, d0)


def test_run_tile_shape_validation(rng):
    design = FloydWarshallDesign(k=4, freq_hz=100e6, device=XC2VP50)
    with pytest.raises(ValueError, match="multiple of k"):
        design.run_tile(random_dist_block(rng, 6))
    with pytest.raises(ValueError, match="must match"):
        design.run_tile(random_dist_block(rng, 8), np.zeros((4, 4)), None)


def test_lifetime_counters(rng):
    design = FloydWarshallDesign(k=2, freq_hz=100e6, device=XC2VP50)
    design.run_tile(random_dist_block(rng, 4))
    design.run_tile(random_dist_block(rng, 4))
    assert design.total_cycles == 2 * (2 * 4**3 // 2)
    assert design.total_flops == 2 * (2 * 4**3)


def test_constructor_validation():
    with pytest.raises(ValueError):
        FloydWarshallDesign(k=0, freq_hz=1e6, device=XC2VP50)
    with pytest.raises(ValueError):
        FloydWarshallDesign(k=4, freq_hz=-1, device=XC2VP50)
