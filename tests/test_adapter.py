import threading

import numpy as np
import pytest

from sowa import adapter, numerics
from sowa.adapter import (
    attended_features,
    new_adapter_params,
    project_tokens,
    window_partition,
    window_reverse,
)
from sowa.backbone import STAGES, AttentionWeights, tensor_hash
from sowa.errors import ConfigError, UsageError
import sowa.autodiff as ag


def _weights(c=8, heads=2, seed=0, identity=False):
    if identity:
        eye = np.eye(c, dtype=np.float32)
        return AttentionWeights(w_q=eye, w_k=eye, w_v=eye, w_o=eye, heads=heads)
    rng = np.random.default_rng(seed)
    mats = [rng.normal(0, c**-0.5, size=(c, c)).astype(np.float32) for _ in range(4)]
    return AttentionWeights(w_q=mats[0], w_k=mats[1], w_v=mats[2], w_o=mats[3], heads=heads)


def _stage_weights(c=8, heads=2, seed=0, dtype=np.float32):
    """Stacked (STAGES, c, c) weights, stage ``i`` drawn as ``_weights`` from ``seed + i``."""
    stages = [_weights(c, heads, seed + i) for i in range(STAGES)]
    return AttentionWeights(*(np.stack([getattr(w, m) for w in stages]).astype(dtype)
                              for m in ("w_q", "w_k", "w_v", "w_o")), heads)


def _attend(tokens, w, mode="vv"):
    return ag.attention(tokens, w.w_q, w.w_k, w.w_v, w.w_o, w.heads, mode)


def _adapt(params, tokens, w, grid_dims, window):
    """The fwa adapter on arrays: frozen windowed attention, then the projection."""
    attended = attended_features(tokens, w, grid_dims, window)
    return project_tokens(params.weight.data, params.bias.data, attended)


class TestWindowPartition:
    def test_index_arithmetic_4x4_into_2x2(self):
        tokens = np.arange(16, dtype=np.float32)[None, :, None] * np.ones(3, dtype=np.float32)
        windows = window_partition(tokens, 4, 4, 2, 2)[0]
        assert windows.shape == (4, 4, 3)
        np.testing.assert_array_equal(windows[0, :, 0], [0, 1, 4, 5])
        np.testing.assert_array_equal(windows[1, :, 0], [2, 3, 6, 7])
        np.testing.assert_array_equal(windows[3, :, 0], [10, 11, 14, 15])

    def test_whole_grid_window(self, rng):
        tokens = rng.normal(size=(1, 12, 5)).astype(np.float32)
        windows = window_partition(tokens, 3, 4, 3, 4)
        assert windows.shape == (1, 1, 12, 5)
        np.testing.assert_array_equal(windows[:, 0], tokens)

    def test_unit_windows(self, rng):
        tokens = rng.normal(size=(1, 6, 2)).astype(np.float32)
        windows = window_partition(tokens, 2, 3, 1, 1)
        assert windows.shape == (1, 6, 1, 2)
        np.testing.assert_array_equal(windows[:, :, 0, :], tokens)

    def test_content_preserving_multiset(self, rng):
        tokens = rng.normal(size=(1, 24, 4)).astype(np.float32)
        flat = window_partition(tokens, 4, 6, 2, 3).reshape(-1, 4)
        assert sorted(map(tuple, flat)) == sorted(map(tuple, tokens[0]))

    def test_non_divisible_rejected_with_dims(self):
        with pytest.raises(ConfigError, match="3x3.*4x4|4x4"):
            window_partition(np.zeros((1, 16, 2), dtype=np.float32), 4, 4, 3, 3)

    def test_round_trip_all_divisible_combos(self, rng):
        for grid_h in range(1, 13):
            for grid_w in range(1, 13):
                for h in range(1, grid_h + 1):
                    if grid_h % h:
                        continue
                    for w in range(1, grid_w + 1):
                        if grid_w % w:
                            continue
                        tokens = rng.normal(size=(1, grid_h * grid_w, 3)).astype(np.float32)
                        windows = window_partition(tokens, grid_h, grid_w, h, w)
                        back = window_reverse(windows, grid_h, grid_w, h, w)
                        np.testing.assert_array_equal(back, tokens)

    def test_reverse_inconsistent_dims_rejected(self, rng):
        windows = window_partition(rng.normal(size=(1, 16, 2)).astype(np.float32), 4, 4, 2, 2)
        with pytest.raises(UsageError):
            window_reverse(windows[:, :3], 4, 4, 2, 2)

    def test_a_stack_partitions_each_grid_and_round_trips_exactly(self, rng):
        tokens = rng.normal(size=(3, 24, 4)).astype(np.float32)
        windows = window_partition(tokens, 4, 6, 2, 3)
        assert windows.shape == (3, 4, 6, 4)
        for i in range(len(tokens)):
            np.testing.assert_array_equal(windows[i : i + 1],
                                          window_partition(tokens[i : i + 1], 4, 6, 2, 3))
        np.testing.assert_array_equal(window_reverse(windows, 4, 6, 2, 3), tokens)
        stages = rng.normal(size=(3, STAGES, 24, 4)).astype(np.float32)  # any axes before L
        windows = window_partition(stages, 4, 6, 2, 3)
        assert windows.shape == (3, STAGES, 4, 6, 4)
        for stage in range(STAGES):
            np.testing.assert_array_equal(windows[:, stage],
                                          window_partition(stages[:, stage], 4, 6, 2, 3))
        np.testing.assert_array_equal(window_reverse(windows, 4, 6, 2, 3), stages)


class TestVVAttention:
    """The adapter's per-window attention: ``autodiff.attention`` in vv mode."""

    def test_single_token_equals_projected_value(self):
        w = _weights(c=8, heads=2, seed=1)
        token = np.random.default_rng(2).normal(size=(1, 1, 8)).astype(np.float32)
        out = _attend(token, w)
        expected = (token @ w.w_v) @ w.w_o
        np.testing.assert_allclose(out, expected, atol=1e-6)

    def test_identical_tokens_identical_outputs(self):
        w = _weights(c=8, heads=2, seed=3)
        token = np.random.default_rng(4).normal(size=(1, 1, 8)).astype(np.float32)
        stacked = np.repeat(token, 5, axis=1)
        out = _attend(stacked, w)[0]
        single = _attend(token, w)[0]
        for row in out:
            np.testing.assert_allclose(row, single[0], atol=1e-6)

    def test_two_token_hand_evaluation(self):
        # C=2, one head, identity projections, tokens e1 and e2:
        # scores = I/sqrt(2), row softmax a = e^(1/sqrt(2)) / (e^(1/sqrt(2)) + 1)
        w = _weights(c=2, heads=1, identity=True)
        tokens = np.array([[[1.0, 0.0], [0.0, 1.0]]], dtype=np.float32)
        a = np.exp(1 / np.sqrt(2)) / (np.exp(1 / np.sqrt(2)) + 1)
        expected = np.array([[[a, 1 - a], [1 - a, a]]])
        np.testing.assert_allclose(_attend(tokens, w), expected, atol=1e-6)

    def test_pre_softmax_scores_symmetric(self, monkeypatch):
        w = _weights(c=8, heads=2, seed=5)
        tokens = np.random.default_rng(6).normal(size=(1, 7, 8)).astype(np.float32)
        seen = []

        class Recording:  # numpy, but keeping a copy of each np.matmul product
            def __getattr__(self, name):
                return getattr(np, name)

            def matmul(self, a, b):
                seen.append(np.matmul(a, b))
                return seen[-1].copy()

        # the node forms its keys-first scores, (..., N_k, N_q), with np.matmul
        monkeypatch.setattr(ag, "np", Recording())
        _attend(tokens, w)
        (scores,) = seen
        assert scores.shape == (1, 2, 7, 7)
        scores = np.swapaxes(scores[0], 1, 2)
        np.testing.assert_allclose(scores, np.swapaxes(scores, 1, 2), atol=1e-6)
        v = (tokens[0] @ w.w_v).reshape(7, 2, 4)
        expected = np.einsum("ihd,jhd->hij", v, v) / 2.0
        np.testing.assert_allclose(scores, expected, rtol=1e-5, atol=1e-6)

    def test_permutation_equivariance(self):
        w = _weights(c=8, heads=2, seed=7)
        rng = np.random.default_rng(8)
        tokens = rng.normal(size=(1, 6, 8)).astype(np.float32)
        perm = rng.permutation(6)
        np.testing.assert_allclose(
            _attend(tokens[:, perm], w), _attend(tokens, w)[:, perm], atol=1e-6
        )

    def test_batched_matches_sequential_loop(self):
        w = _weights(c=8, heads=2, seed=9)
        rng = np.random.default_rng(10)
        windows = rng.normal(size=(5, 4, 8)).astype(np.float32)
        batched = _attend(windows, w)
        for i in range(5):
            solo = _attend(windows[i : i + 1], w)
            np.testing.assert_allclose(batched[i : i + 1], solo, rtol=1e-6, atol=1e-7)

    def test_locality_across_windows(self):
        w = _weights(c=8, heads=2, seed=11)
        rng = np.random.default_rng(12)
        windows = rng.normal(size=(3, 4, 8)).astype(np.float32)
        base = _attend(windows, w)
        mutated = windows.copy()
        mutated[1, 2] += 5.0
        out = _attend(mutated, w)
        np.testing.assert_array_equal(out[0], base[0])
        np.testing.assert_array_equal(out[2], base[2])
        assert not np.allclose(out[1], base[1])

    def test_qkv_mode_uses_query_key(self):
        w = _weights(c=8, heads=2, seed=13)
        tokens = np.random.default_rng(14).normal(size=(1, 4, 8)).astype(np.float32)
        assert not np.allclose(_attend(tokens, w, mode="vv"), _attend(tokens, w, mode="qkv"))

    def test_unknown_mode_rejected(self):
        with pytest.raises(UsageError):
            _attend(np.zeros((1, 2, 8), dtype=np.float32), _weights(), mode="vq")


class TestAdapterForward:
    """``attended_features`` then ``project_tokens``, as ``SowaModel`` runs them."""

    def test_unit_window_degeneracy(self):
        # h = w = 1: attention over one token is the value path, stage by stage
        w = _stage_weights(c=8, heads=2, seed=15)
        params = new_adapter_params(8, 6, seed=16)
        assert params.weight.shape == (STAGES, 8, 6) and params.bias.shape == (STAGES, 6)
        tokens = np.random.default_rng(17).normal(size=(1, STAGES, 12, 8)).astype(np.float32)
        out = _adapt(params, tokens, w, (3, 4), (1, 1))
        for stage in range(STAGES):
            value_path = (tokens[:, stage] @ w.w_v[stage]) @ w.w_o[stage]
            projected = value_path @ params.weight.data[stage] + params.bias.data[stage]
            expected = projected / np.linalg.norm(projected, axis=-1, keepdims=True)
            np.testing.assert_allclose(out[:, stage], expected, rtol=1e-5, atol=1e-6)

    def test_linear_kind_zero_input_gives_bias_direction(self):
        # the linear kind projects the backbone tokens without attention
        params = new_adapter_params(8, 6, seed=18)
        params.bias.data = np.arange(6 * STAGES, dtype=np.float32).reshape(STAGES, 6)
        zeros = np.zeros((2, STAGES, 4, 8), dtype=np.float32)
        out = project_tokens(params.weight.data, params.bias.data, zeros)
        for stage in range(STAGES):
            bias = params.bias.data[stage]
            for row in out[:, stage].reshape(-1, 6):
                np.testing.assert_allclose(row, bias / np.linalg.norm(bias), atol=1e-6)

    def test_rows_unit_norm(self):
        w = _stage_weights(c=8, heads=2, seed=19)
        params = new_adapter_params(8, 6, seed=20)
        tokens = np.random.default_rng(21).normal(size=(1, STAGES, 16, 8)).astype(np.float32)
        out = _adapt(params, tokens, w, (4, 4), (2, 2))
        assert out.shape == (1, STAGES, 16, 6)
        np.testing.assert_allclose(np.linalg.norm(out, axis=-1), 1.0, atol=1e-6)

    def test_frozen_weights_untouched(self):
        w = _stage_weights(c=8, heads=2, seed=22)
        before = [tensor_hash(m) for m in (w.w_q, w.w_k, w.w_v, w.w_o)]
        params = new_adapter_params(8, 6, seed=23)
        tokens = np.random.default_rng(24).normal(size=(1, STAGES, 16, 8)).astype(np.float32)
        _adapt(params, tokens, w, (4, 4), (2, 2))
        assert [tensor_hash(m) for m in (w.w_q, w.w_k, w.w_v, w.w_o)] == before

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_a_split_stack_is_attended_as_each_grid_alone(self, dtype, monkeypatch):
        """17 images of four 8x8 grids are two parts, of 9 and 8 images, on two threads."""
        w = _stage_weights(c=8, heads=2, seed=27, dtype=dtype)
        tokens = np.random.default_rng(28).normal(size=(17, STAGES, 64, 8)).astype(dtype)
        threads = set()
        reverse = adapter.window_reverse

        def spy(*args):
            threads.add(threading.get_ident())
            return reverse(*args)

        monkeypatch.setattr(adapter, "window_reverse", spy)
        monkeypatch.setattr(numerics, "WORKERS", 2)
        split = attended_features(tokens, w, (8, 8), (4, 4))
        assert len(threads) == 2
        monkeypatch.setattr(numerics, "WORKERS", 1)
        np.testing.assert_array_equal(split, attended_features(tokens, w, (8, 8), (4, 4)))
        assert split.dtype == dtype
        for i in (0, 8, 9, 16):  # the ends of both parts
            alone = attended_features(tokens[i : i + 1], w, (8, 8), (4, 4))
            np.testing.assert_array_equal(split[i : i + 1], alone)
        # a bare grid is rejected whole, before any split
        with pytest.raises(UsageError, match=r"got \(4352, 8\)"):
            attended_features(tokens.reshape(-1, 8), w, (8, 8), (4, 4))

    @pytest.mark.parametrize("mode", ["vv", "qkv"])
    def test_a_stack_is_attended_as_each_grid_alone(self, mode):
        w = _stage_weights(c=8, heads=2, seed=25)
        tokens = np.random.default_rng(26).normal(size=(3, STAGES, 16, 8)).astype(np.float32)
        stacked = attended_features(tokens, w, (4, 4), (2, 2), mode)
        for i in range(len(tokens)):
            alone = attended_features(tokens[i : i + 1], w, (4, 4), (2, 2), mode)
            np.testing.assert_array_equal(stacked[i : i + 1], alone)
            for stage in range(STAGES):  # and each stage as its own grid, on its own weights
                own = AttentionWeights(w.w_q[stage], w.w_k[stage], w.w_v[stage], w.w_o[stage],
                                       w.heads)
                one = attended_features(tokens[i : i + 1, stage], own, (4, 4), (2, 2), mode)
                np.testing.assert_array_equal(stacked[i : i + 1, stage], one)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_the_stacked_projection_and_its_gradients_are_each_stage_alone(dtype):
    """One (B, STAGES, L, C) projection equals each stage's own (B, L, C)
    affine map and row normalization on its slices, with a (C_text,) bias,
    forward and backward, bit for bit."""
    params = new_adapter_params(64, 32, seed=29)
    params.bias.data = np.random.default_rng(31).normal(size=params.bias.shape)
    rng = np.random.default_rng(30)
    tokens = rng.normal(size=(8, STAGES, 64, 64)).astype(dtype)
    probe = rng.normal(size=(8, STAGES, 64, 32)).astype(dtype)
    weight, bias = (ag.Var(p.data.astype(dtype), requires_grad=True)
                    for p in (params.weight, params.bias))
    stacked = project_tokens(weight, bias, tokens)
    ag.sum_(ag.mul(stacked, probe)).backward()
    for stage in range(STAGES):
        w, b = (ag.Var(p.data[stage].copy(), requires_grad=True) for p in (weight, bias))
        alone = ag.l2_normalize_rows(ag.add(ag.matmul(tokens[:, stage], w), b))
        ag.sum_(ag.mul(alone, probe[:, stage])).backward()
        np.testing.assert_array_equal(stacked.data[:, stage], alone.data)
        np.testing.assert_array_equal(weight.grad[stage], w.grad)
        np.testing.assert_array_equal(bias.grad[stage], b.grad)
