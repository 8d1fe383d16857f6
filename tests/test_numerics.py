import os
import subprocess
import sys
import threading
import time
from pathlib import Path

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

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_a_var_is_resampled_by_the_same_products_as_its_array(self, dtype):
        grid = np.random.default_rng(5).uniform(size=(3, 4, 5)).astype(dtype)
        out = numerics.bilinear_upsample(ag.Var(grid, requires_grad=True), 9, 7)
        assert ag.is_var(out) and out.dtype == np.dtype(dtype)
        np.testing.assert_array_equal(out.data, numerics.bilinear_upsample(grid, 9, 7))

    def test_a_var_passes_a_finite_difference_gradient_check(self):
        rng = np.random.default_rng(6)
        grid, weights = rng.uniform(size=(2, 3, 4)), rng.normal(size=(2, 7, 6))

        def loss(g):
            return ag.sum_(ag.mul(numerics.bilinear_upsample(g, 7, 6), weights))

        var = ag.Var(grid, requires_grad=True)
        loss(var).backward()
        step = 1e-6
        for idx in np.ndindex(grid.shape):
            hi, lo = grid.copy(), grid.copy()
            hi[idx] += step
            lo[idx] -= step
            fd = (loss(hi) - loss(lo)) / (2 * step)
            assert abs(var.grad[idx] - fd) <= 1e-7 * max(1.0, abs(fd)), idx

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


class TestCheckFloat:
    @pytest.mark.parametrize("value", [0.5, 0, 1, np.float32(0.25), np.int8(1)])
    def test_accepts_a_finite_real_in_range(self, value):
        numerics.check_float(value, "x", 0.0, 1.0)

    @pytest.mark.parametrize("value", [-0.1, 1.5, float("nan"), np.float64("inf"), True,
                                       np.bool_(False), "0.5", None, 1j, [0.5]])
    def test_rejects_anything_else(self, value):
        with pytest.raises(UsageError, match=r"x must be a finite number in \[0, 1\]"):
            numerics.check_float(value, "x", 0.0, 1.0)

    def test_open_lower_bound_and_error_class(self):
        numerics.check_float(1e-300, "lr", 0.0, low_open=True)
        with pytest.raises(ValueError, match=r"lr must be a finite number in \(0, inf\)"):
            numerics.check_float(0.0, "lr", 0.0, error=ValueError, low_open=True)
        numerics.check_float(10**400, "big")  # an int is finite whatever its size


class TestMapImageParts:
    def test_parts_run_in_order_on_two_threads_in_the_callers_context(self, monkeypatch):
        monkeypatch.setattr(numerics, "WORKERS", 2)
        monkeypatch.setattr(numerics, "CHUNK_TOKENS", 4)
        seen = []

        def fn(part):
            seen.append((threading.get_ident(), np.geterr()["divide"]))
            return [part * 2, part[:, :1]]

        stack = np.arange(30.0).reshape(5, 6)  # 6 tokens an image: parts of 3 and 2 images
        with np.errstate(divide="ignore"):
            doubled, first = numerics.map_image_parts(fn, stack, tokens=6)
        np.testing.assert_array_equal(doubled, stack * 2)
        np.testing.assert_array_equal(first, stack[:, :1])
        assert {divide for _, divide in seen} == {"ignore"}
        assert len({thread for thread, _ in seen}) == 2
        seen.clear()
        assert numerics.map_image_parts(fn, stack[:1], tokens=6)[0].shape == (1, 6)
        assert seen == [(threading.get_ident(), np.geterr()["divide"])]  # one part: no pool

    def test_an_error_in_a_part_is_raised_after_every_part_has_ended(self, monkeypatch):
        monkeypatch.setattr(numerics, "WORKERS", 2)
        monkeypatch.setattr(numerics, "CHUNK_TOKENS", 1)
        ended = []

        def fn(part):
            if part[0] == 0:  # the calling thread's part
                raise ValueError("first part")
            time.sleep(0.05)
            ended.append(part[0])
            return [part]

        with pytest.raises(ValueError, match="first part"):
            numerics.map_image_parts(fn, np.arange(2), tokens=1)
        assert ended == [1]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")
    def test_a_forked_child_runs_a_split_forward(self):
        """The child of a process whose pool has started gets a pool of its
        own: the parent's threads do not exist in it. One child runs a split
        forward, another the metrics' sort beside their mask labelling."""
        code = (
            "import os, signal, sys, time, warnings\n"
            "import numpy as np\n"
            "from sowa import metrics, numerics\n"
            "from sowa.backbone import BackboneConfig, init_synthetic\n"
            "numerics.WORKERS = 2\n"
            "backbone = init_synthetic(BackboneConfig(), seed=0)\n"
            "rng = np.random.default_rng(0)\n"
            "images = rng.uniform(size=(16, 64, 64, 3))\n"
            "maps, masks = rng.uniform(size=(4, 16, 16)), rng.uniform(size=(4, 16, 16)) < 0.3\n"
            "def forward():\n"
            "    return backbone.forward(images)[1]\n"
            "def evaluate_scores():\n"
            "    report = metrics.evaluate_scores([0.1, 0.9, 0.4, 0.6], [0, 1, 0, 1],\n"
            "                                     maps, masks)\n"
            "    return np.array([value for _, value in report.metric_items()])\n"
            "for work in (forward, evaluate_scores):\n"
            "    expected = work()  # the forward runs two parts: the pool starts\n"
            "    with warnings.catch_warnings():\n"
            "        # Python 3.12 and later warn on a fork while other threads run\n"
            "        warnings.simplefilter('ignore', DeprecationWarning)\n"
            "        pid = os.fork()\n"
            "    if pid == 0:\n"
            "        os._exit(0 if np.array_equal(work(), expected) else 1)\n"
            "    deadline = time.monotonic() + 60\n"
            "    while time.monotonic() < deadline:\n"
            "        done, status = os.waitpid(pid, os.WNOHANG)\n"
            "        if done:\n"
            "            break\n"
            "        time.sleep(0.02)\n"
            "    else:\n"
            "        os.kill(pid, signal.SIGKILL)\n"
            "        os.waitpid(pid, 0)\n"
            "        sys.exit(f'the forked child running {work.__name__} hung')\n"
            "    if os.waitstatus_to_exitcode(status):\n"
            "        sys.exit(f'the forked child running {work.__name__} failed')\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(ag.__file__).resolve().parent.parent))
        run = subprocess.run([sys.executable, "-W", "error", "-c", code], env=env, timeout=120,
                             capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
