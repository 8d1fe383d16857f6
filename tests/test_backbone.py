import threading

import numpy as np
import pytest

from sowa import autodiff as ag
from sowa import numerics
from sowa.backbone import (
    BLOCKS_PER_STAGE, NORM_MEAN, NORM_STD, PIXEL_LIMIT, STAGES, Backbone, BackboneConfig,
    init_synthetic, tensor_hash,
)
from sowa.errors import ConfigError, UsageError

CFG = BackboneConfig(image_size=32, patch_size=8, channels=32, heads=4)


@pytest.fixture(scope="module")
def backbone():
    return init_synthetic(CFG, seed=11)


@pytest.fixture(scope="module")
def image(rng_seed=3):
    rng = np.random.default_rng(rng_seed)
    return rng.uniform(size=(32, 32, 3)).astype(np.float32)


def _hashes(backbone):
    """Every weight's ``tensor_hash``, by name."""
    return {name: tensor_hash(arr) for name, arr in sorted(backbone.weights.items())}


class TestInit:
    def test_same_seed_identical_hashes(self):
        a = init_synthetic(CFG, seed=4)
        b = init_synthetic(CFG, seed=4)
        assert _hashes(a) == _hashes(b)

    def test_different_seeds_differ(self):
        assert _hashes(init_synthetic(CFG, seed=4)) != _hashes(init_synthetic(CFG, seed=5))

    def test_grid_arithmetic(self):
        cfg = BackboneConfig(image_size=64, patch_size=8)
        assert cfg.grid == 8 and cfg.tokens == 64

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigError):
            BackboneConfig(image_size=60, patch_size=8)
        with pytest.raises(ConfigError):
            BackboneConfig(channels=30, heads=4)

    def test_weights_read_only(self, backbone):
        with pytest.raises(ValueError):
            backbone.weights["cls_token"][0] = 1.0


class TestForward:
    def test_output_shapes(self, backbone, image):
        stages, class_tokens = backbone.forward(image[None])
        assert stages.shape == (1, STAGES, 16, 32)
        assert class_tokens.shape == (1, 32)

    def test_deterministic(self, backbone, image):
        a_stages, a_class = backbone.forward(image[None])
        b_stages, b_class = backbone.forward(image[None])
        np.testing.assert_array_equal(a_stages, b_stages)
        np.testing.assert_array_equal(a_class, b_class)

    def test_dimension_mismatch_rejected(self, backbone):
        with pytest.raises(UsageError):
            backbone.forward(np.zeros((1, 16, 16, 3), dtype=np.float32))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_a_stack_gives_each_image_its_own_features(self, dtype):
        with numerics.precision(dtype):
            backbone = init_synthetic(CFG, seed=11)
        images = np.random.default_rng(4).uniform(size=(3, 32, 32, 3))
        stages, class_tokens = backbone.forward(images)
        for i in range(len(images)):
            alone_stages, alone_class = backbone.forward(images[i : i + 1])
            assert stages.dtype == dtype
            np.testing.assert_array_equal(stages[i : i + 1], alone_stages)
            np.testing.assert_array_equal(class_tokens[i : i + 1], alone_class)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_a_split_stack_gives_each_image_its_own_features(self, dtype, monkeypatch):
        """17 images at 64 px are two parts, of 9 and 8 images, on two threads."""
        with numerics.precision(dtype):
            backbone = init_synthetic(BackboneConfig(), seed=12)
        images = np.random.default_rng(6).uniform(size=(17, 64, 64, 3))
        threads = set()
        blocks = Backbone._blocks

        def spy(self, part):
            threads.add(threading.get_ident())
            return blocks(self, part)

        monkeypatch.setattr(Backbone, "_blocks", spy)
        monkeypatch.setattr(numerics, "WORKERS", 2)
        split = backbone.forward(images)
        assert len(threads) == 2
        monkeypatch.setattr(numerics, "WORKERS", 1)
        serial = backbone.forward(images)
        for ours, theirs in zip(split, serial, strict=True):
            assert ours.dtype == dtype
            np.testing.assert_array_equal(ours, theirs)
        for i in (0, 8, 9, 16):  # the ends of both parts
            alone_stages, alone_class = backbone.forward(images[i : i + 1])
            np.testing.assert_array_equal(split[0][i : i + 1], alone_stages)
            np.testing.assert_array_equal(split[1][i : i + 1], alone_class)

    def test_bad_stacks_rejected(self, backbone, image):
        bad = np.stack([image, image, image])
        bad[1, 4, 5, 2] = np.inf
        with pytest.raises(UsageError, match="image 1 contains non-finite"):
            backbone.forward(bad)
        with pytest.raises(UsageError, match="empty"):
            backbone.forward(np.zeros((0, 32, 32, 3), dtype=np.float32))
        with pytest.raises(UsageError, match="empty"):
            backbone.forward([])
        with pytest.raises(UsageError, match="stack"):
            backbone.forward([image, image[:16]])

    @pytest.mark.parametrize("value, dtype", [
        (1e19, np.float32), (3e38, np.float32), (-3e38, np.float32), (1e39, np.float64),
        (2 * PIXEL_LIMIT, np.float64), (-np.inf, np.float32), (np.nan, np.float32),
    ])
    def test_a_pixel_beyond_the_limit_is_refused_without_a_warning(self, backbone, image, value,
                                                                   dtype):
        # pytest turns every warning into an error, numpy's overflow ones among them
        bad = np.stack([image, image]).astype(dtype)
        bad[1] = value
        bad[1, 0, 0, 0] = 0.0
        with pytest.raises(UsageError, match="image 1 contains non-finite values or a magnitude"):
            backbone.forward(bad)

    def test_attention_rows_sum_to_one(self, backbone, image):
        # re-run one attention block by hand on the embedded sequence
        x = backbone._embed(backbone.normalize_image(image[None]))[0]
        w = backbone.weights
        n, c = x.shape
        dh = c // CFG.heads
        h = x  # pre-norm input to block 0 attention
        mu = h.mean(axis=-1, keepdims=True)
        centered = h - mu
        normed = centered / np.sqrt((centered**2).mean(axis=-1, keepdims=True) + 1e-5)
        q = (normed @ w["blocks.0.attn.w_q"]).reshape(n, CFG.heads, dh)
        k = (normed @ w["blocks.0.attn.w_k"]).reshape(n, CFG.heads, dh)
        scores = np.einsum("ihd,jhd->hij", q, k) / np.sqrt(dh)
        attn = ag.softmax_last(scores)
        np.testing.assert_allclose(attn.sum(axis=-1), 1.0, atol=1e-5)


class TestNormalizeImage:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("count, size", [(3, 64), (2, 224), (1, 30)])
    def test_equals_the_per_channel_formula_bit_for_bit(self, backbone, count, size, dtype):
        images = np.random.default_rng(size).uniform(size=(count, size, size, 3)).astype(dtype)
        images.setflags(write=False)
        before = images.tobytes()
        out = backbone.normalize_image(images)
        mean = np.asarray(NORM_MEAN, dtype=dtype)
        std = np.asarray(NORM_STD, dtype=dtype)
        assert out.dtype == dtype and out.shape == images.shape
        np.testing.assert_array_equal(out, (images - mean) / std)
        assert images.tobytes() == before

    def test_a_non_contiguous_stack(self, backbone):
        images = np.random.default_rng(0).uniform(size=(4, 32, 32, 3)).astype(np.float32)[::2]
        expected = (images - np.float32(0.5)) / np.float32(0.25)
        np.testing.assert_array_equal(backbone.normalize_image(images), expected)

    def test_an_integer_stack_normalises_as_its_default_float_cast(self, backbone):
        images = np.random.default_rng(1).integers(0, 256, size=(1, 32, 32, 3), dtype=np.uint8)
        out = backbone.normalize_image(images)
        assert out.dtype == numerics.default_dtype() == np.float32
        np.testing.assert_array_equal(out, backbone.normalize_image(images.astype(np.float32)))


class TestStageWeights:
    def test_aliases_last_block_of_stage(self, backbone):
        w = backbone.stage_attention_weights()
        assert w.heads == CFG.heads
        for name in ("w_q", "w_k", "w_v", "w_o"):
            stacked = getattr(w, name)
            assert stacked.shape == (STAGES, CFG.channels, CFG.channels)
            for stage in range(STAGES):
                block = (stage + 1) * BLOCKS_PER_STAGE - 1
                np.testing.assert_array_equal(stacked[stage],
                                              backbone.weights[f"blocks.{block}.attn.{name}"])

    def test_stacked_once_and_shared_with_the_blocks(self, backbone):
        w = backbone.stage_attention_weights()
        assert backbone.stage_attention_weights() is w
        for name in ("w_q", "w_k", "w_v", "w_o"):
            stacked = getattr(w, name)
            assert not stacked.flags.writeable
            for stage in range(STAGES):
                block = (stage + 1) * BLOCKS_PER_STAGE - 1
                entry = backbone.weights[f"blocks.{block}.attn.{name}"]
                assert np.shares_memory(stacked[stage], entry) and not entry.flags.writeable

    def test_hash_stable_across_calls(self, backbone):
        h1 = tensor_hash(backbone.stage_attention_weights().w_v)
        h2 = tensor_hash(backbone.stage_attention_weights().w_v)
        assert h1 == h2

    def test_hash_keys_on_dtype_and_shape_as_well_as_bytes(self):
        arr = np.arange(12, dtype=np.float32).reshape(3, 4)
        same_bytes = [arr.reshape(4, 3), arr.reshape(-1), arr.view(np.int32)]
        assert len({tensor_hash(a) for a in [arr, *same_bytes]}) == 4

    def test_hash_ignores_memory_layout(self):
        arr = np.arange(24, dtype=np.float64).reshape(4, 6)
        for view in (arr.T, arr[:, ::2], arr[::-1]):
            assert not view.flags.c_contiguous
            assert tensor_hash(view) == tensor_hash(np.ascontiguousarray(view))

    def test_hash_of_read_only_arrays(self, backbone):
        weight = backbone.weights["blocks.0.attn.w_v"]
        assert not weight.flags.writeable
        assert tensor_hash(weight) == tensor_hash(weight.copy())

    def test_four_stages_pairwise_distinct(self, backbone):
        hashes = {tensor_hash(w_v) for w_v in backbone.stage_attention_weights().w_v}
        assert len(hashes) == 4
