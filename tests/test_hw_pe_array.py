"""Tests for the cycle-level matrix-multiply PE array and design wrapper."""

import numpy as np
import pytest

from repro.hw import LinearPEArray, MatrixMultiplyDesign, XC2VP50, get_device
from repro.machine import cray_xd1


@pytest.fixture
def rng():
    return np.random.default_rng(42)


# ------------------------------------------------------------- LinearPEArray


def test_tile_product_matches_numpy(rng):
    arr = LinearPEArray(4)
    a = rng.standard_normal((4, 4))
    b = rng.standard_normal((4, 4))
    res = arr.run_tile(a, b)
    np.testing.assert_allclose(res.product, a @ b, rtol=1e-12)


def test_tile_cycles_are_k_squared(rng):
    for k in (1, 2, 4, 8):
        arr = LinearPEArray(k)
        res = arr.run_tile(rng.standard_normal((k, k)), rng.standard_normal((k, k)))
        assert res.cycles == k * k == arr.tile_cycles()


def test_tile_flops_accounting(rng):
    k = 4
    arr = LinearPEArray(k)
    res = arr.run_tile(rng.standard_normal((k, k)), rng.standard_normal((k, k)))
    assert res.flops == 2 * k**3  # one MAC per PE per cycle


def test_tile_shape_validation():
    arr = LinearPEArray(4)
    with pytest.raises(ValueError, match="tile shapes"):
        arr.run_tile(np.zeros((3, 4)), np.zeros((4, 4)))


def test_stripe_product_matches_numpy(rng):
    k = 4
    arr = LinearPEArray(k)
    c = rng.standard_normal((12, k))  # s = 12
    d = rng.standard_normal((k, 8))  # s' = 8
    res = arr.multiply(c, d)
    np.testing.assert_allclose(res.product, c @ d, rtol=1e-12)
    assert res.cycles == 12 * 8 == arr.stripe_cycles(12, 8)


def test_stripe_extent_validation():
    arr = LinearPEArray(4)
    with pytest.raises(ValueError, match="multiples of k"):
        arr.multiply(np.zeros((10, 4)), np.zeros((4, 8)))
    with pytest.raises(ValueError, match="stripes must be"):
        arr.multiply(np.zeros((8, 3)), np.zeros((4, 8)))


def test_lifetime_counters_accumulate(rng):
    arr = LinearPEArray(2)
    arr.run_tile(rng.standard_normal((2, 2)), rng.standard_normal((2, 2)))
    arr.run_tile(rng.standard_normal((2, 2)), rng.standard_normal((2, 2)))
    assert arr.total_cycles == 8
    assert arr.total_flops == 2 * 2 * 8


def test_ops_per_cycle():
    assert LinearPEArray(8).ops_per_cycle == 16  # the paper's O_f


def test_bad_k():
    with pytest.raises(ValueError):
        LinearPEArray(0)


# ----------------------------------------------------- MatrixMultiplyDesign


def test_for_device_defaults_to_paper_point():
    design = MatrixMultiplyDesign.for_device(XC2VP50)
    assert design.k == 8
    assert design.freq_hz == pytest.approx(130e6)
    assert design.ops_per_cycle == 16
    assert design.peak_flops == pytest.approx(2.08e9)
    # B_d: one 8-byte word per cycle, under XD1's 2.8 GB/s link
    assert cray_xd1().node.fpga.b_d(design.freq_hz) == pytest.approx(1.04e9)


def test_stripe_time_formula():
    """T_f = b_f * b / ((p-1) F_f), Section 5.1.3."""
    d = MatrixMultiplyDesign.for_device(XC2VP50)
    b, b_f, p = 3000, 1280, 6
    assert d.stripe_time(b_f, b, p) == pytest.approx(b_f * (b / (p - 1)) / 130e6)


def test_block_time_is_b_over_k_stripes():
    d = MatrixMultiplyDesign.for_device(XC2VP50)
    b, b_f, p = 3000, 1280, 6
    assert d.block_time(b_f, b, p) == pytest.approx((b / d.k) * d.stripe_time(b_f, b, p))


def test_sram_requirement_formula():
    d = MatrixMultiplyDesign.for_device(XC2VP50)
    assert d.sram_words_required(1280, 3000, 6) == 1280 * 3000 // 5
    # The paper's constraint: b_f * b/(p-1) words must fit in 8 MB SRAM.
    assert d.sram_words_required(1280, 3000, 6) * 8 <= 8 * 2**20


def test_stripe_validation_errors():
    d = MatrixMultiplyDesign.for_device(XC2VP50)
    with pytest.raises(ValueError, match="divisible by p-1"):
        d.stripe_time(8, 3001, 6)
    with pytest.raises(ValueError, match="multiples of k"):
        d.stripe_time(9, 3000, 6)
    with pytest.raises(ValueError, match="at least 2 nodes"):
        d.stripe_time(8, 3000, 1)
    with pytest.raises(ValueError, match="out of range"):
        d.stripe_time(-8, 3000, 6)


def test_execute_stripe_agrees_with_formula(rng):
    """The behavioural cycle count equals the closed-form used for timing."""
    d = MatrixMultiplyDesign(k=4, freq_hz=100e6, device=XC2VP50)
    b, p = 24, 4  # b/(p-1) = 8, multiple of k
    b_f = 8
    c = rng.standard_normal((b_f, 4))
    dd = rng.standard_normal((4, b // (p - 1)))
    res = d.execute_stripe(c, dd)
    np.testing.assert_allclose(res.product, c @ dd, rtol=1e-12)
    assert res.cycles / d.freq_hz == pytest.approx(d.stripe_time(b_f, b, p))


def test_for_device_respects_explicit_k():
    design = MatrixMultiplyDesign.for_device(get_device("XC4VLX200"), k=4)
    assert design.k == 4
    assert design.report is not None


def test_constructor_validation():
    with pytest.raises(ValueError):
        MatrixMultiplyDesign(k=0, freq_hz=1e6, device=XC2VP50)
    with pytest.raises(ValueError):
        MatrixMultiplyDesign(k=4, freq_hz=0, device=XC2VP50)
