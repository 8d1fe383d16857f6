import numpy as np
import pytest

from sowa import autodiff as ag
from sowa import numerics
from sowa.errors import UsageError


class TestSoftmax:
    """The package's one softmax is ``autodiff.softmax_last`` (arrays or Vars)."""

    def test_symmetry_two_zeros(self):
        np.testing.assert_allclose(ag.softmax_last([0.0, 0.0]), [0.5, 0.5], atol=1e-7)

    def test_stability_under_large_values(self):
        out = ag.softmax_last([1000.0, 1000.0, 1000.0])
        np.testing.assert_allclose(out, [1 / 3] * 3, atol=1e-7)

    def test_hand_evaluated_two_element(self):
        # e / (e + 1) and 1 / (e + 1)
        out = ag.softmax_last([1.0, 0.0])
        np.testing.assert_allclose(out, [0.7310585786, 0.2689414214], atol=1e-6)

    def test_empty_input_rejected(self):
        with pytest.raises(UsageError):
            ag.softmax_last(np.array([]))

    def test_sums_to_one_random_lengths(self):
        rng = np.random.default_rng(0)
        for n in range(1, 65):
            x = rng.normal(size=n) * rng.uniform(0.1, 50)
            assert abs(ag.softmax_last(x).sum() - 1.0) < 1e-6

    def test_shift_invariance(self):
        rng = np.random.default_rng(1)
        for shift in (-1e3, -1.0, 0.5, 1e3):
            x = rng.normal(size=17)
            np.testing.assert_allclose(
                ag.softmax_last(x + shift), ag.softmax_last(x), atol=1e-6
            )


class TestL2Normalize:
    """The package's one row normaliser is ``autodiff.l2_normalize_rows``."""

    def test_three_four_five(self):
        np.testing.assert_allclose(
            ag.l2_normalize_rows(np.array([3.0, 4.0])), [0.6, 0.8], atol=1e-7
        )

    def test_unit_vector_identity(self):
        v = np.array([1.0, 0.0, 0.0])
        np.testing.assert_allclose(ag.l2_normalize_rows(v), v, atol=1e-7)

    def test_zero_vector_guard(self):
        np.testing.assert_array_equal(
            ag.l2_normalize_rows(np.zeros(2)), np.zeros(2)
        )

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            x = rng.normal(size=8) * rng.uniform(1e-3, 1e3)
            once = ag.l2_normalize_rows(x)
            np.testing.assert_allclose(ag.l2_normalize_rows(once), once, atol=1e-6)


def _resample_matrix_loop(n_in, n_out):
    """The operator's defining formula, one output sample at a time."""
    op = np.zeros((n_out, n_in), dtype=np.float64)
    scale = n_in / n_out
    for i in range(n_out):
        src = (i + 0.5) * scale - 0.5
        src = min(max(src, 0.0), n_in - 1.0)
        lo = int(np.floor(src))
        hi = min(lo + 1, n_in - 1)
        frac = src - lo
        op[i, lo] += 1.0 - frac
        op[i, hi] += frac
    return op


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_resample_matrix_equals_loop_formula(dtype):
    """The operator is float64 whatever the default, so no caller's weights
    pass through float32."""
    pairs = [(n_in, n_out) for n_in in range(1, 17) for n_out in range(1, 40)]
    pairs += [(8, 64), (16, 224), (14, 224), (64, 8), (224, 16), (7, 3)]
    with numerics.precision(dtype):
        for n_in, n_out in pairs:
            op = numerics.linear_resample_matrix(n_in, n_out)
            assert op.dtype == np.float64
            expected = _resample_matrix_loop(n_in, n_out)
            assert op.tobytes() == expected.tobytes(), (n_in, n_out)


def _upsample_oracle(grid, out_h, out_w):
    """Direct evaluation of half-pixel-center bilinear sampling."""
    in_h, in_w = grid.shape
    out = np.zeros((out_h, out_w))
    for i in range(out_h):
        for j in range(out_w):
            sr = min(max((i + 0.5) * in_h / out_h - 0.5, 0.0), in_h - 1.0)
            sc = min(max((j + 0.5) * in_w / out_w - 0.5, 0.0), in_w - 1.0)
            r0, c0 = int(np.floor(sr)), int(np.floor(sc))
            r1, c1 = min(r0 + 1, in_h - 1), min(c0 + 1, in_w - 1)
            fr, fc = sr - r0, sc - c0
            out[i, j] = (
                grid[r0, c0] * (1 - fr) * (1 - fc)
                + grid[r1, c0] * fr * (1 - fc)
                + grid[r0, c1] * (1 - fr) * fc
                + grid[r1, c1] * fr * fc
            )
    return out


class TestBilinearUpsample:
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_a_float_grid_is_resampled_in_its_own_dtype(self, dtype):
        grid = np.random.default_rng(2).uniform(size=(3, 5)).astype(dtype)
        for default in ("float32", "float64"):
            with numerics.precision(default):
                assert numerics.bilinear_upsample(grid, 7, 9).dtype == np.dtype(dtype)
                integers = numerics.bilinear_upsample(np.arange(15).reshape(3, 5), 7, 9)
                assert integers.dtype == np.dtype(default)

    def test_a_float64_grid_gets_float64_weights_at_any_default(self):
        # 16 -> 224 weights are multiples of 1/14, which float32 rounds
        grid = np.random.default_rng(4).uniform(size=(16, 16))
        with numerics.precision("float64"):
            want = numerics.bilinear_upsample(grid, 224, 224)
        np.testing.assert_array_equal(numerics.bilinear_upsample(grid, 224, 224), want)

    def test_constant_field(self):
        out = numerics.bilinear_upsample(np.full((1, 1), 3.25), 5, 7)
        np.testing.assert_allclose(out, np.full((5, 7), 3.25), atol=1e-6)

    def test_identity_when_same_size(self):
        rng = np.random.default_rng(3)
        grid = rng.normal(size=(6, 4))
        np.testing.assert_allclose(numerics.bilinear_upsample(grid, 6, 4), grid, atol=1e-6)

    def test_two_by_two_to_four_by_four_oracle(self):
        grid = np.array([[0.0, 1.0], [2.0, 3.0]])
        expected = np.array(
            [
                [0.0, 0.25, 0.75, 1.0],
                [0.5, 0.75, 1.25, 1.5],
                [1.5, 1.75, 2.25, 2.5],
                [2.0, 2.25, 2.75, 3.0],
            ]
        )
        out = numerics.bilinear_upsample(grid, 4, 4)
        np.testing.assert_allclose(out, expected, atol=1e-6)
        np.testing.assert_allclose(_upsample_oracle(grid, 4, 4), expected, atol=1e-12)

    def test_matches_direct_oracle_random(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            h, w = rng.integers(1, 7, size=2)
            oh, ow = rng.integers(1, 13, size=2)
            grid = rng.normal(size=(h, w))
            np.testing.assert_allclose(
                numerics.bilinear_upsample(grid, oh, ow),
                _upsample_oracle(grid, oh, ow),
                atol=1e-5,
            )

    def test_linear_in_input(self):
        rng = np.random.default_rng(5)
        x, y = rng.normal(size=(2, 3, 5))
        a, b = 2.5, -1.25
        lhs = numerics.bilinear_upsample(a * x + b * y, 9, 8)
        rhs = a * numerics.bilinear_upsample(x, 9, 8) + b * numerics.bilinear_upsample(y, 9, 8)
        np.testing.assert_allclose(lhs, rhs, atol=1e-5)

    def test_range_preserved(self):
        rng = np.random.default_rng(6)
        grid = rng.uniform(0.2, 0.8, size=(4, 4))
        out = numerics.bilinear_upsample(grid, 17, 11)
        assert out.min() >= grid.min() - 1e-7 and out.max() <= grid.max() + 1e-7

    def test_zero_size_rejected(self):
        with pytest.raises(UsageError):
            numerics.bilinear_upsample(np.ones((2, 2)), 0, 4)


def _gaussian_oracle(grid, sigma):
    """Direct truncated-kernel evaluation with symmetric reflection."""
    radius = int(4.0 * sigma + 0.5)
    offsets = np.arange(-radius, radius + 1)
    kernel = np.exp(-0.5 * (offsets / sigma) ** 2)
    kernel /= kernel.sum()
    h, w = grid.shape

    def reflect(i, n):
        period = 2 * n
        i %= period
        return i if i < n else period - 1 - i

    out = np.zeros_like(grid, dtype=np.float64)
    for r in range(h):
        for c in range(w):
            acc = 0.0
            for dr, kr in zip(offsets, kernel):
                for dc, kc in zip(offsets, kernel):
                    acc += kr * kc * grid[reflect(r + dr, h), reflect(c + dc, w)]
            out[r, c] = acc
    return out


def _smooth(grid, sigma):
    """Separable blur with the 1-D operator the anomaly map applies."""
    rows = numerics.gaussian_blur_matrix(grid.shape[0], sigma)
    cols = numerics.gaussian_blur_matrix(grid.shape[1], sigma)
    return rows @ grid @ cols.T


class TestGaussianSmooth:
    def test_sigma_zero_identity(self):
        rng = np.random.default_rng(7)
        grid = rng.normal(size=(5, 6))
        np.testing.assert_array_equal(_smooth(grid, 0.0), grid)

    def test_constant_invariance(self):
        out = _smooth(np.full((8, 8), 0.7), 2.0)
        np.testing.assert_allclose(out, np.full((8, 8), 0.7), atol=1e-6)

    def test_delta_matches_direct_kernel(self):
        grid = np.zeros((5, 5))
        grid[2, 2] = 1.0
        np.testing.assert_allclose(
            _smooth(grid, 1.0), _gaussian_oracle(grid, 1.0), atol=1e-6
        )

    def test_random_matches_direct_kernel(self):
        rng = np.random.default_rng(8)
        grid = rng.uniform(size=(9, 7))
        np.testing.assert_allclose(
            _smooth(grid, 1.5), _gaussian_oracle(grid, 1.5), atol=1e-6
        )

    def test_mean_preserved(self):
        rng = np.random.default_rng(9)
        grid = rng.uniform(size=(32, 32))
        out = _smooth(grid, 2.0)
        assert abs(out.mean() - grid.mean()) < 1e-4

    def test_negative_sigma_rejected(self):
        with pytest.raises(UsageError):
            _smooth(np.ones((3, 3)), -1.0)

    def test_tiny_sigma_is_identity(self):
        rng = np.random.default_rng(10)
        grid = rng.normal(size=(4, 4))
        np.testing.assert_allclose(_smooth(grid, 1e-9), grid, atol=1e-9)


class TestPrecisionMode:
    def test_context_manager_switches_dtype(self):
        assert numerics.default_dtype() == np.float32
        with numerics.precision("float64"):
            assert numerics.default_dtype() == np.float64
            assert numerics.bilinear_upsample(np.eye(2, dtype=int), 3, 3).dtype == np.float64
        assert numerics.default_dtype() == np.float32

    def test_rejects_other_dtypes(self):
        with pytest.raises(UsageError):
            numerics.set_default_dtype("int32")

