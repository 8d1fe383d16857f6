"""Model-level contracts: inference builds no autodiff graph, training
gradients reach every trainable tensor, every adapter, attention and prompt
kind predicts and trains, ``predict`` reproduces the outputs
pinned in ``perfbench/golden.npz``, warm ``predict`` calls reuse their
heap pages, the text features are encoded once per parameter state and are
read-only for every prompt kind, a model computes in the dtype it was built
in (float32 or float64) whatever the default at call time, and a checkpoint is
an ``.npz`` file that round-trips bit-exactly and fails on any corruption with
``ArchiveError`` or ``WeightsError``. Every frozen and trainable tensor of
five reference builds is bit-identical to a pinned digest. ``predict_batch``
gives every image of any stack exactly its own ``predict``, and the feature
cache keeps one entry per image, serves it only for its key's image, byte
for byte, runs a stack's misses as one pass, and evicts the least recently
used key; ``frozen_hash`` empties the feature cache and the text features
whenever it keeps a new snapshot. Pixels up to ``PIXEL_LIMIT`` give finite
outputs. Below the public API every pass takes stacks only: a bare single
image or token set is a ``UsageError``."""

import hashlib
import io
import itertools
import os
import platform
import struct
import subprocess
import sys
import time
import zipfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sowa import autodiff as ag
from sowa import fusion, numerics, prompts, training
from sowa import model as smodel
from sowa.adapter import project_tokens, window_partition
from sowa.backbone import PIXEL_LIMIT, STAGES, tensor_bytes
from sowa.config import PROMPT_KINDS, default_config
from sowa.errors import ArchiveError, UsageError, WeightsError
from sowa.model import build_model
from sowa.synth import PatternSpec, synth_generate
from sowa.training import batch_gradients, sample_loss

from conftest import batch_case, fresh_frozen_digest, tiny_config

GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden.npz"
GOLDEN_ATOL = 1e-5


def test_predict_creates_no_var(tiny_model, tiny_corpus, var_count):
    pred = tiny_model.predict(tiny_corpus.samples[0].image)
    assert var_count == []
    assert isinstance(pred.stage_features, np.ndarray)
    assert pred.stage_features.shape == (STAGES, tiny_model.backbone.config.tokens, 16)
    assert isinstance(pred.anomaly_map.scores, np.ndarray)
    samples = tiny_corpus.samples[:1]
    sample_loss(tiny_model, samples, training._features(tiny_model, samples))  # a graph is seen
    assert var_count


def test_sample_loss_reaches_every_trainable(tiny_model, tiny_corpus):
    params = tiny_model.trainable()
    assert len(params) == 3  # the adapter's weight and bias + the prompt contexts
    for var in params.values():
        var.zero_grad()
    sample = next(s for s in tiny_corpus.samples if s.label > 0)
    loss, _ = sample_loss(tiny_model, [sample], training._features(tiny_model, [sample]))
    loss.backward()
    try:
        for name, var in params.items():
            assert var.grad is not None and np.any(var.grad != 0), name
        for name in ("adapter.weight", "adapter.bias"):  # every stage's slice
            assert params[name].grad.shape[0] == STAGES
            assert all(np.any(g != 0) for g in params[name].grad), name
    finally:
        for var in params.values():
            var.zero_grad()


@pytest.mark.parametrize(
    "adapter_kind, attention_mode, prompt_kind",
    list(itertools.product(("fwa", "linear"), ("vv", "qkv"), ("coop", "template"))),
)
def test_every_kind_predicts_and_trains(tiny_corpus, adapter_kind, attention_mode, prompt_kind):
    model = build_model(tiny_config(
        adapter_kind=adapter_kind, attention_mode=attention_mode, prompt_kind=prompt_kind
    ))
    pred = model.predict(tiny_corpus.samples[1].image)
    assert np.isfinite(pred.image_score) and np.all(np.isfinite(pred.anomaly_map.scores))
    loss, _, grads = batch_gradients(model, tiny_corpus.samples[:2])
    assert np.isfinite(loss)
    assert grads.keys() == model.trainable().keys()
    assert len(grads) == (3 if prompt_kind == "coop" else 2)


KINDS = list(itertools.product(("fwa", "linear"), ("vv", "qkv")))


def _assert_same_prediction(ours, theirs):
    np.testing.assert_array_equal(ours.anomaly_map.scores, theirs.anomaly_map.scores)
    assert ours.image_score == theirs.image_score
    assert ours.grid == theirs.grid
    assert ours.stage_features.dtype == theirs.stage_features.dtype
    np.testing.assert_array_equal(ours.stage_features, theirs.stage_features)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("adapter_kind, attention_mode", KINDS)
@settings(max_examples=10, deadline=None)
@given(order=st.permutations(range(16)), size=st.integers(1, 16))
@example(order=list(range(16)), size=16)
def test_predict_batch_equals_predict_on_each_image(dtype, adapter_kind, attention_mode, order, size):
    # The full stack in order is always run: dropping the per-sample class
    # projection changes some score of it in either dtype.
    model, corpus, alone = batch_case(dtype, adapter_kind, attention_mode)
    images = [s.image for s in corpus.samples]
    picked = order[:size]
    preds = model.predict_batch([images[i] for i in picked])
    assert len(preds) == size
    for i, pred in zip(picked, preds):
        assert pred.anomaly_map.scores.dtype == np.dtype(dtype)
        _assert_same_prediction(pred, alone[i])


def test_a_stack_with_a_non_finite_image_or_no_image_is_a_usage_error(tiny_model, tiny_corpus):
    images = [s.image.copy() for s in tiny_corpus.samples[:3]]
    images[2][5, 7, 1] = np.nan
    with pytest.raises(UsageError, match="image 2 contains non-finite"):
        tiny_model.predict_batch(images)
    with pytest.raises(UsageError, match="image 2 contains non-finite"):
        tiny_model.predict_batch(images, ["a", "b", "c"])
    for keys in (None, []):
        with pytest.raises(UsageError, match="empty"):
            tiny_model.predict_batch([], keys)
    with pytest.raises(UsageError, match="stack"):
        tiny_model.predict_batch(images[0])
    with pytest.raises(UsageError, match="stack"):  # one key per row of the bare image
        tiny_model.predict_batch(images[0], range(len(images[0])))
    ragged = [images[0], images[1][:-8]]
    for keys in (None, ["a", "b"]):
        with pytest.raises(UsageError, match="do not stack"):
            tiny_model.predict_batch(ragged, keys)
    tiny_model.predict_batch(ragged[:1], ["a"])
    with pytest.raises(UsageError, match="expected a stack"):  # a hit, and a miss of its own shape
        tiny_model.predict_batch(ragged, ["a", "b"])


@pytest.mark.parametrize("size, patch", [(64, 8), (224, 14)])
def test_pixels_at_the_limit_give_finite_outputs(size, patch):
    """At ``PIXEL_LIMIT`` in each sign, on the patch that maximises one
    embedding channel tiled over the image (the largest embedded tokens, so
    the largest layer-norm variance), a prediction is finite and raises no
    warning (pytest makes every warning an error), and so is a 64 px
    training step."""
    model = build_model(default_config(seed=0, backbone={"image_size": size, "patch_size": patch}))
    weight = model.backbone.weights["patch_embed.weight"]
    channel = int(np.argmax(np.abs(weight).sum(axis=0)))
    patch_signs = np.sign(weight[:, channel]).reshape(patch, patch, 3)
    worst = np.tile(patch_signs, (size // patch, size // patch, 1)) * PIXEL_LIMIT
    for image in (worst, -worst):
        pred = model.predict(image)
        assert np.isfinite(pred.anomaly_map.scores).all() and np.isfinite(pred.image_score)
        assert np.isfinite(pred.stage_features).all()
    if size == 64:
        sample = synth_generate(PatternSpec(kind="mixed", seed=0), 2, image_size=size).samples
        loss, _, grads = batch_gradients(model, [replace(sample[0], image=worst), sample[1]])
        assert np.isfinite(loss) and all(np.isfinite(g).all() for g in grads.values())


@pytest.mark.parametrize("call", ["forward", "frozen_forward", "attention", "window_partition"])
def test_a_bare_single_input_below_the_public_api_is_a_usage_error(tiny_model, tiny_image, call):
    w = tiny_model.backbone.stage_attention_weights()
    tokens = np.zeros((tiny_model.backbone.config.tokens, w.w_v.shape[-1]), np.float32)
    calls = {
        "forward": lambda: tiny_model.backbone.forward(tiny_image),
        "frozen_forward": lambda: tiny_model.frozen_forward(tiny_image),
        "attention": lambda: ag.attention(tokens, w.w_q, w.w_k, w.w_v, w.w_o, w.heads, "vv"),
        "window_partition": lambda: window_partition(tokens, *tiny_model.grid, 2, 2),
    }
    with pytest.raises(UsageError, match="stack"):
        calls[call]()


def test_the_feature_cache_evicts_the_least_recently_used_image(tiny_corpus, monkeypatch):
    monkeypatch.setattr(smodel, "FEATURE_CACHE_LIMIT", 2)
    model = build_model(tiny_config())
    a, b, c = (s.image[None] for s in tiny_corpus.samples[:3])
    first_b = model.frozen_forward(b, cache_keys=[1])
    first_a = model.frozen_forward(a, cache_keys=[0])
    assert list(model._feature_cache) == [1, 0]
    assert model.frozen_forward(b, cache_keys=[1]) is first_b  # b is now the most recent
    assert list(model._feature_cache) == [0, 1]
    model.frozen_forward(c, cache_keys=[2])
    assert list(model._feature_cache) == [1, 2]  # key 0, the least recently used, left
    again = model.frozen_forward(a, cache_keys=[0])
    assert again is not first_a  # recomputed, and equal bit for bit
    assert again.snapshot == first_a.snapshot == tensor_bytes(a[0])
    np.testing.assert_array_equal(again.class_token, first_a.class_token)
    np.testing.assert_array_equal(again.adapter_inputs, first_a.adapter_inputs)
    assert list(model._feature_cache) == [2, 0]


class _BackboneCalls:
    """Counts ``Backbone.forward`` calls, each a feature-cache miss."""

    def __init__(self, monkeypatch):
        self.count = 0
        forward = smodel.Backbone.forward

        def counting(backbone, images):
            self.count += 1
            return forward(backbone, images)

        monkeypatch.setattr(smodel.Backbone, "forward", counting)


def test_a_byte_identical_copy_under_the_same_key_is_a_hit(tiny_corpus, monkeypatch):
    model = build_model(tiny_config())
    image = tiny_corpus.samples[0].image[None]
    calls = _BackboneCalls(monkeypatch)
    first = model.frozen_forward(image, cache_keys=["a"])
    assert calls.count == 1 and first.snapshot == tensor_bytes(image[0])
    copy = np.asfortranarray(image.copy())  # another buffer and layout, the same C-order bytes
    assert model.frozen_forward(copy, cache_keys=["a"]) is first
    assert model.frozen_forward(list(image), cache_keys=["a"]) is first  # a sequence stacks alike
    assert calls.count == 1
    bypass = model.frozen_forward(copy)  # no key: the cache is bypassed
    assert bypass is not first and bypass.snapshot is None
    assert calls.count == 2


def _edit_the_image_in_place(image):
    image[0, 3, 4, 1] += 0.125
    return image


def _view_its_bytes_as_integers(image):
    return image.view(np.int32)


@pytest.mark.parametrize("change", [_edit_the_image_in_place, _view_its_bytes_as_integers])
def test_a_cached_image_that_changed_misses_and_is_recomputed(tiny_corpus, monkeypatch, change):
    model = build_model(tiny_config())
    image = tiny_corpus.samples[0].image[None].copy()
    calls = _BackboneCalls(monkeypatch)
    first = model.frozen_forward(image, cache_keys=[7])
    changed = change(image)
    again = model.frozen_forward(changed, cache_keys=[7])
    assert calls.count == 2 and again is not first
    assert again.snapshot == tensor_bytes(changed[0]) != first.snapshot
    assert list(model._feature_cache) == [7]  # the entry was replaced
    assert model.frozen_forward(changed, cache_keys=[7]) is again  # and now hits
    assert calls.count == 2
    fresh = build_model(tiny_config()).frozen_forward(changed)
    np.testing.assert_array_equal(again.adapter_inputs, fresh.adapter_inputs)
    np.testing.assert_array_equal(again.class_token, fresh.class_token)


def test_equal_bytes_in_another_shape_miss(tiny_corpus):
    model = build_model(tiny_config())
    image = tiny_corpus.samples[0].image[None]
    cached = model.frozen_forward(image, cache_keys=[3])
    size = image.shape[1]
    wide = image.reshape(1, size // 2, 2 * size, 3)  # the same C-order bytes
    assert wide.tobytes() == image.tobytes()
    with pytest.raises(UsageError, match="shape"):  # a hit would have returned ``cached``
        model.frozen_forward(wide, cache_keys=[3])
    assert 3 not in model._feature_cache
    again = model.frozen_forward(image, cache_keys=[3])
    assert again is not cached
    np.testing.assert_array_equal(again.adapter_inputs, cached.adapter_inputs)


def _bits(acts):
    return acts.adapter_inputs.tobytes(), acts.class_token.tobytes()


@pytest.mark.parametrize("adapter_kind", ["fwa", "linear"])
def test_a_stack_of_hits_and_misses_is_the_uncached_pass_with_one_pass_of_the_misses(
        tiny_corpus, monkeypatch, adapter_kind):
    model = build_model(tiny_config(adapter_kind=adapter_kind))
    stack = np.stack([s.image for s in tiny_corpus.samples[:5]])
    uncached = _bits(build_model(tiny_config(adapter_kind=adapter_kind)).frozen_forward(stack))
    model.frozen_forward(stack[[1, 3]], cache_keys=[1, 3])
    parts = []
    blocks = smodel.Backbone._blocks
    monkeypatch.setattr(smodel.Backbone, "_blocks",
                        lambda self, images: parts.append(images.copy()) or blocks(self, images))
    joined = model.frozen_forward(stack, cache_keys=range(5))
    assert len(parts) == 1  # images 0, 2 and 4 in one stacked pass
    np.testing.assert_array_equal(parts[0], stack[[0, 2, 4]])
    assert _bits(joined) == uncached
    assert list(model._feature_cache) == [1, 3, 0, 2, 4]
    for i in range(5):  # each image is its own entry, a stack of one
        entry = model._feature_cache[i]
        assert entry.snapshot == tensor_bytes(stack[i])
        assert _bits(entry) == (joined.adapter_inputs[i].tobytes(),
                                joined.class_token[i].tobytes())
    assert _bits(model.frozen_forward(stack, cache_keys=range(5))) == _bits(joined)
    assert len(parts) == 1  # every image a hit


def test_a_key_shared_by_two_images_of_a_stack_serves_each_its_own(tiny_corpus):
    model = build_model(tiny_config())
    stack = np.stack([s.image for s in tiny_corpus.samples[:3]])
    want = _bits(model.frozen_forward(stack))
    for _ in range(2):  # cold, then with the key's entry made from the last image
        assert _bits(model.frozen_forward(stack, cache_keys=["k", "k", "k"])) == want
        assert list(model._feature_cache) == ["k"]
        assert model._feature_cache["k"].snapshot[2] == stack[2].tobytes()


def test_a_stacked_insert_over_the_limit_evicts_the_least_recently_used(tiny_corpus, monkeypatch):
    monkeypatch.setattr(smodel, "FEATURE_CACHE_LIMIT", 3)
    model = build_model(tiny_config())
    a, b, c, d = (s.image for s in tiny_corpus.samples[:4])
    model.frozen_forward([a, b], cache_keys=["a", "b"])
    hit = model._feature_cache["a"]
    model.frozen_forward([c, a, d], cache_keys=["c", "a", "d"])
    # "a" hit and became the most recent; the misses "c" and "d" came after it
    assert list(model._feature_cache) == ["a", "c", "d"]  # "b", the least recent, left
    assert model._feature_cache["a"] is hit
    model.frozen_forward([b, c, d, a], cache_keys=["b", "c", "d", "a"])
    assert list(model._feature_cache) == ["d", "a", "b"]  # "b" missed and came last; "c" left
    model.frozen_forward([a, b, c, d], cache_keys=["w", "x", "y", "z"])
    assert list(model._feature_cache) == ["x", "y", "z"]  # four over the limit left


@pytest.mark.parametrize("keys", [[], [0], [0, 1, 2]])
def test_a_key_count_that_is_not_the_image_count_is_refused_before_the_cache(
        tiny_corpus, monkeypatch, keys):
    model = build_model(tiny_config())
    pair = np.stack([s.image for s in tiny_corpus.samples[:2]])
    entry = model.frozen_forward(pair[:1], cache_keys=[0])
    calls = _BackboneCalls(monkeypatch)
    with pytest.raises(UsageError, match="cache keys"):
        model.frozen_forward(pair, cache_keys=keys)
    with pytest.raises(UsageError, match="cache keys"):
        model.predict_batch(pair, keys)
    assert calls.count == 0
    assert list(model._feature_cache) == [0] and model._feature_cache[0] is entry


@pytest.mark.parametrize(
    "key, overrides",
    [("64", {}), ("224", {"backbone": {"image_size": 224, "patch_size": 14}})],
)
def test_predict_matches_pinned_golden(key, overrides):
    config = default_config(seed=0, **overrides)
    model = build_model(config)
    size = config.backbone.image_size
    samples = synth_generate(PatternSpec(kind="mixed", seed=0), 2, image_size=size).samples
    with np.load(GOLDEN) as pinned:
        for i, sample in enumerate(samples):
            pred = model.predict(sample.image)
            outputs = {
                "map": pred.anomaly_map.scores,
                "score": np.asarray(pred.image_score),
                "features": np.stack(pred.stage_features),
            }
            for name, actual in outputs.items():
                np.testing.assert_allclose(
                    actual, pinned[f"{key}.{i}.{name}"], rtol=0, atol=GOLDEN_ATOL,
                    err_msg=f"{key}.{i}.{name}",
                )


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="heap thresholds are set through glibc")
def test_warm_predict_reuses_heap_pages():
    # A fresh interpreter, so that no earlier test has moved glibc's own
    # thresholds. Under the defaults every 64 px predict faulted about 1,500
    # pages back in: the temporaries the previous call had freed.
    code = (
        "import resource\n"
        "from sowa.config import default_config\n"
        "from sowa.model import build_model\n"
        "from sowa.synth import PatternSpec, synth_generate\n"
        "model = build_model(default_config(seed=0))\n"
        "image = synth_generate(PatternSpec(kind='mixed', seed=0), 1, image_size=64).samples[0].image\n"
        "model.predict(image)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "for _ in range(10):\n"
        "    model.predict(image)\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(ag.__file__).resolve().parent.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60,
                         capture_output=True, text=True).stdout
    assert int(out) < 10 * 100


@pytest.fixture()
def encode_calls(monkeypatch):
    """A list that grows by one for every ``encode_prompts`` call, at both
    lookup sites: ``sowa.prompts`` (training) and ``sowa.model``
    (``text_features``)."""
    calls = []
    encode = prompts.encode_prompts

    def counting(*args, **kwargs):
        calls.append(None)
        return encode(*args, **kwargs)

    monkeypatch.setattr(prompts, "encode_prompts", counting)
    monkeypatch.setattr(smodel, "encode_prompts", counting)
    return calls


def test_text_encoded_once_per_parameter_state(tiny_corpus, encode_calls, tmp_path):
    model = build_model(tiny_config())
    images = [s.image for s in tiny_corpus.samples[:3]]
    bank = model.build_memory_bank(images)  # stage features need no text
    assert encode_calls == []
    for i, image in enumerate(images):
        features = model.predict(image).stage_features  # (STAGES, L, C)
        rows = features.shape[1]
        np.testing.assert_array_equal(bank.features[:, i * rows:(i + 1) * rows], features)
    samples = tiny_corpus.samples[:4]
    training.mean_dataset_loss(model, samples, training._features(model, samples))
    assert len(encode_calls) == 1

    # Adam rebinds the context arrays
    state = training.TrainState(model.trainable())
    grads = batch_gradients(model, tiny_corpus.samples[:2])[2]
    training.adam_step(state, grads, model.config.optim.lr)
    del encode_calls[:]  # batch_gradients encodes its own graph
    model.predict(images[0])
    model.predict(images[1])
    assert len(encode_calls) == 1

    # an in-place edit of one element, as gradient_check makes
    model.prompt_contexts.data[1, 0, 0] += 1e-3
    model.predict(images[0])
    assert len(encode_calls) == 2

    # a checkpoint rebinds them too
    other = build_model(tiny_config(seed=8))
    other.save_checkpoint(tmp_path / "other.npz")
    model.load_checkpoint(tmp_path / "other.npz")
    model.predict(images[0])
    assert len(encode_calls) == 3
    np.testing.assert_array_equal(
        model.text_features(), prompts.encode_prompts(model.prompt_contexts.data, model.encoder))


def test_cached_text_is_read_only_and_changes_no_output(tiny_corpus):
    model = build_model(tiny_config())
    text = model.text_features()
    assert not text.flags.writeable
    with pytest.raises(ValueError):
        text[0, 0] = 0.0
    np.testing.assert_array_equal(
        text, prompts.encode_prompts(model.prompt_contexts.data, model.encoder))
    warm = [model.predict(s.image) for s in tiny_corpus.samples[:3]]
    for sample, pred in zip(tiny_corpus.samples[:3], warm):
        cold = build_model(tiny_config()).predict(sample.image)  # encodes anew
        np.testing.assert_array_equal(pred.anomaly_map.scores, cold.anomaly_map.scores)
        assert pred.image_score == cold.image_score
        for ours, theirs in zip(pred.stage_features, cold.stage_features):
            np.testing.assert_array_equal(ours, theirs)


@pytest.mark.parametrize("prompt_kind", PROMPT_KINDS)
def test_text_features_are_read_only_for_every_prompt_kind(prompt_kind, tmp_path):
    model = build_model(tiny_config(prompt_kind=prompt_kind))
    assert not model.text_features().flags.writeable
    saved = build_model(tiny_config(seed=8, prompt_kind=prompt_kind))
    saved.save_checkpoint(tmp_path / "c.npz")
    model.load_checkpoint(tmp_path / "c.npz")
    text = model.text_features()
    assert not text.flags.writeable
    # the loaded contexts are encoded
    np.testing.assert_array_equal(model.prompt_contexts.data, saved.prompt_contexts.data)
    np.testing.assert_array_equal(
        text, prompts.encode_prompts(model.prompt_contexts.data, model.encoder))
    with pytest.raises(ValueError):
        text[0, 0] = 0.0


def _pipeline_dtypes(model, sample):
    """Dtypes of the inference outputs and of the training graph's stages."""
    pred = model.predict(sample.image)
    acts = model.frozen_forward(sample.image[None])
    text = prompts.encode_prompts(model.prompt_contexts, model.encoder)
    stars = project_tokens(model.adapter.weight, model.adapter.bias, acts.adapter_inputs)
    logits = fusion.fuse(stars, text)
    size = model.backbone.config.image_size
    pmap = fusion.abnormal_probability_map(logits, model.grid, (size, size))
    score = fusion.image_score(acts.class_token, model.cls_proj, text)
    grads = batch_gradients(model, [sample])[2]
    dtypes = {
        "map": pred.anomaly_map.scores.dtype,
        "score": fusion.image_score(acts.class_token, model.cls_proj, model.text_features()).dtype,
        "text": model.text_features().dtype,
        "graph text": text.dtype,
        "graph logits": logits.dtype,
        "graph map": pmap.dtype,
        "graph score": score.dtype,
    }
    dtypes.update({f"stage {i}": f.dtype for i, f in enumerate(pred.stage_features)})
    dtypes.update({f"grad {n}": g.dtype for n, g in grads.items()})
    return dtypes


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_the_model_computes_in_its_default_dtype(tiny_corpus, dtype):
    with numerics.precision(dtype):
        model = build_model(tiny_config())
        dtypes = _pipeline_dtypes(model, tiny_corpus.samples[1])
    assert len(dtypes) == 7 + 4 + 3
    assert {name: d for name, d in dtypes.items() if d != np.dtype(dtype)} == {}


def test_a_float64_model_ignores_the_default_dtype_at_call_time():
    with numerics.precision("float64"):
        model = build_model(tiny_config())
        image = synth_generate(PatternSpec(kind="mixed", seed=5), 2, image_size=32).samples[1].image
        inside = model.predict(image)
    assert image.dtype == np.float64
    outside = model.predict(image)
    np.testing.assert_array_equal(outside.anomaly_map.scores, inside.anomaly_map.scores)
    assert outside.image_score == inside.image_score
    for ours, theirs in zip(outside.stage_features, inside.stage_features):
        assert ours.dtype == np.float64
        np.testing.assert_array_equal(ours, theirs)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_checkpoint_round_trip_is_bit_exact_in_the_model_dtype(dtype, tmp_path):
    with numerics.precision(dtype):
        saved = build_model(tiny_config(seed=8))
        model = build_model(tiny_config())
    extra = {"adam.step": np.asarray([3.0]), "note": np.arange(4, dtype=np.int32)}
    saved.save_checkpoint(tmp_path / "c.npz", extra=extra)
    leftovers = model.load_checkpoint(tmp_path / "c.npz")  # outside the precision context
    for name, value in saved.state_tensors().items():
        loaded = model.parameters()[name].data
        assert loaded.dtype == np.dtype(dtype), name
        np.testing.assert_array_equal(loaded, value, err_msg=name)
    assert leftovers.keys() == extra.keys()
    for name, value in extra.items():
        assert leftovers[name].dtype == value.dtype
        np.testing.assert_array_equal(leftovers[name], value)


def test_two_saves_of_a_model_are_byte_identical(tmp_path, monkeypatch):
    model = build_model(tiny_config())
    model.save_checkpoint(tmp_path / "a.npz")
    # a day later, as far as a zip entry's timestamp could tell
    now, local = time.time, time.localtime
    monkeypatch.setattr(time, "time", lambda: now() + 86400)
    monkeypatch.setattr(time, "localtime", lambda secs=None: local(time.time() if secs is None else secs))
    model.save_checkpoint(tmp_path / "b.npz")
    assert (tmp_path / "a.npz").read_bytes() == (tmp_path / "b.npz").read_bytes()


def test_save_rejects_a_non_finite_tensor_and_an_extra_named_like_a_parameter(tmp_path):
    model = build_model(tiny_config())
    weight = model.parameters()["adapter.weight"].data.copy()
    with pytest.raises(UsageError, match="adapter.weight"):
        model.save_checkpoint(tmp_path / "c.npz", extra={"adapter.weight": weight + 1})
    with pytest.raises(UsageError, match="non-finite"):
        model.save_checkpoint(tmp_path / "c.npz", extra={"adam.step": np.asarray([np.nan])})
    model.parameters()["adapter.bias"].data[1, 0] = np.inf
    with pytest.raises(UsageError, match="adapter.bias"):
        model.save_checkpoint(tmp_path / "c.npz")


def _write_truncated(path, tensors):
    np.savez(path, **tensors)
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


def _write_bare_npy(path, tensors):
    with open(path, "wb") as fh:
        np.save(fh, tensors["adapter.weight"])


def _write_object_member(path, tensors):
    with open(path, "wb") as fh:
        np.savez(fh, **tensors, extra=np.array([{"a": 1}], dtype=object))


def _write_text_member(path, tensors):
    np.savez(path, **tensors)
    with zipfile.ZipFile(path, "a") as archive:
        archive.writestr("notes.txt", "not an array")


@pytest.mark.parametrize("write", [
    lambda path, tensors: None,  # no file at all
    _write_truncated, _write_bare_npy, _write_object_member, _write_text_member,
])
def test_an_unreadable_checkpoint_raises_archive_error_and_binds_nothing(write, tmp_path):
    model = build_model(tiny_config())
    before = model.state_tensors()
    path = tmp_path / "c.npz"
    write(path, build_model(tiny_config(seed=8)).state_tensors())
    with pytest.raises(ArchiveError):
        model.load_checkpoint(path)
    for name, value in model.state_tensors().items():
        np.testing.assert_array_equal(value, before[name])


@pytest.mark.parametrize("change", [
    lambda value: None,  # missing
    lambda value: value[:-1],
    lambda value: (value * 100).astype(np.int32),
    lambda value: np.full_like(value, np.nan),
], ids=["missing", "shape", "dtype", "non_finite"])
def test_a_checkpoint_that_does_not_fit_binds_nothing(change, tmp_path):
    model = build_model(tiny_config())
    before = model.state_tensors()
    tensors = build_model(tiny_config(seed=8)).state_tensors()
    changed = change(tensors.pop("prompt.contexts"))  # the last one bound
    if changed is not None:
        tensors["prompt.contexts"] = changed
    np.savez(tmp_path / "c.npz", **tensors)
    with pytest.raises(WeightsError, match="prompt.contexts"):
        model.load_checkpoint(tmp_path / "c.npz")
    for name, value in model.state_tensors().items():
        np.testing.assert_array_equal(value, before[name])


def test_a_checkpoint_of_one_tensor_per_stage_is_refused_and_binds_nothing(tmp_path):
    """One adapter.{i}.weight and adapter.{i}.bias pair per stage, as earlier
    versions wrote, leaves adapter.weight unbound: the file is refused."""
    model = build_model(tiny_config())
    before = model.state_tensors()
    tensors = build_model(tiny_config(seed=8)).state_tensors()
    for part in ("weight", "bias"):
        stacked = tensors.pop(f"adapter.{part}")
        tensors.update({f"adapter.{i}.{part}": s for i, s in enumerate(stacked)})
    np.savez(tmp_path / "c.npz", **tensors)
    with pytest.raises(WeightsError, match="'adapter.weight'"):
        model.load_checkpoint(tmp_path / "c.npz")
    for name, value in model.state_tensors().items():
        np.testing.assert_array_equal(value, before[name])


def test_a_checkpoint_of_one_tensor_per_prompt_branch_is_refused_and_binds_nothing(tmp_path):
    """prompt.normal_context and prompt.abnormal_context, as earlier versions
    wrote, leave prompt.contexts unbound: the file is refused."""
    model = build_model(tiny_config())
    before = model.state_tensors()
    tensors = build_model(tiny_config(seed=8)).state_tensors()
    normal, abnormal = tensors.pop("prompt.contexts")
    tensors.update({"prompt.normal_context": normal, "prompt.abnormal_context": abnormal})
    # and the identity tensors the init once made (ones and zeros, no draws):
    # the layer-norm scales and offsets, MLP biases and patch-embedding bias
    c, dtype = model.backbone.config.channels, model.backbone.weights["pos_embed"].dtype
    identity = {"backbone.patch_embed.bias": np.zeros(c, dtype)}
    for prefix, weights in (("backbone", model.backbone.weights),
                            ("text_encoder", model.encoder.weights)):
        for name in [n for n in weights if n.endswith(".mlp.w1")]:
            width, hidden = weights[name].shape
            block = f"{prefix}.{name[: -len('.mlp.w1')]}"
            identity.update({f"{block}.mlp.b1": np.zeros(hidden, dtype),
                             f"{block}.mlp.b2": np.zeros(width, dtype)})
            for ln in ("ln1", "ln2"):
                identity.update({f"{block}.{ln}.scale": np.ones(width, dtype),
                                 f"{block}.{ln}.offset": np.zeros(width, dtype)})
    assert not identity.keys() & tensors.keys()
    tensors.update(identity)
    np.savez(tmp_path / "c.npz", **tensors)
    with pytest.raises(WeightsError, match="'prompt.contexts'"):
        model.load_checkpoint(tmp_path / "c.npz")
    for name, value in model.state_tensors().items():
        np.testing.assert_array_equal(value, before[name])


def test_a_damaged_directory_cannot_hide_members(tmp_path):
    path = tmp_path / "c.npz"
    build_model(tiny_config()).save_checkpoint(path, extra={"adam.step": np.asarray([3.0])})
    blob = bytearray(path.read_bytes())
    with zipfile.ZipFile(path) as archive:  # find the last parameter's directory entry
        entry = archive.start_dir
        for member in archive.infolist()[:-2]:
            entry += 46 + len(member.filename.encode()) + len(member.extra) + len(member.comment)
    blob[entry + 33] ^= 0x08  # its comment now runs over the "adam.step" entry after it
    path.write_bytes(bytes(blob))
    with pytest.raises(ArchiveError):
        build_model(tiny_config()).load_checkpoint(path)


def _member_spans(blob):
    """(structure positions, one position inside each member's array data)."""
    spans = []
    with zipfile.ZipFile(io.BytesIO(blob)) as archive:
        for info in archive.infolist():
            name_len, extra_len = struct.unpack_from("<HH", blob, info.header_offset + 26)
            start = info.header_offset + 30 + name_len + extra_len  # the member's .npy file
            npy_header_end = blob.index(b"\n", start) + 1
            spans.append((npy_header_end, start + info.file_size))
    in_data = np.zeros(len(blob), dtype=bool)
    for lo, hi in spans:
        in_data[lo:hi] = True
    return np.flatnonzero(~in_data), [(lo + hi) // 2 for lo, hi in spans]


def test_no_flipped_bit_loads_changed_tensors(tmp_path):
    saved = build_model(tiny_config(seed=8))
    extra = {"adam.step": np.asarray([3.0])}
    path = tmp_path / "c.npz"
    saved.save_checkpoint(path, extra=extra)
    blob = path.read_bytes()
    want = saved.state_tensors()
    structure, data = _member_spans(blob)
    rng = np.random.default_rng(0)
    positions = np.concatenate([rng.choice(structure, size=300, replace=False), data])
    model = build_model(tiny_config())
    failed = 0
    for pos, bit in zip(positions, rng.integers(0, 8, size=len(positions))):
        flipped = bytearray(blob)
        flipped[pos] ^= 1 << bit
        path.write_bytes(bytes(flipped))
        try:
            leftovers = model.load_checkpoint(path)
        except (ArchiveError, WeightsError):
            failed += 1
            continue
        for name, value in model.state_tensors().items():
            np.testing.assert_array_equal(value, want[name], err_msg=f"byte {pos} bit {bit}")
        assert leftovers.keys() == extra.keys(), f"byte {pos} bit {bit}"
        np.testing.assert_array_equal(leftovers["adam.step"], extra["adam.step"])
    assert failed >= len(data)  # at least every member's data flip was caught


# SHA-256 over every frozen and trainable tensor's name, dtype, shape and
# bytes, pinned from the weights as first built; any change to an init rule,
# a draw order or a seed offset changes it
WEIGHT_DIGESTS = {
    "default-64": (
        dict(), "float32",
        "76abfcd2237948c9ef3f470612a4ed42336619265262ecd3c24b18cd56467f2d",
    ),
    "paper-224": (
        dict(backbone={"image_size": 224, "patch_size": 14}), "float32",
        "7033afb28a66d69b01e09a4dc865641ce5fe21d9c49b0c7eab2681f9fa946729",
    ),
    "template": (
        dict(prompt_kind="template"), "float32",
        "cd9604e20d2c975967073a915bacb13725b0eb5f6c263b1d8809e4b4d6d5caef",
    ),
    "seed3": (
        dict(seed=3), "float32",
        "f4f40f08f7c147a1cf2245de17203589adfb7c6fd6f82dddf0175d418ba397d3",
    ),
    "float64-seed5": (
        dict(seed=5), "float64",
        "c12c63a0104049da8b497bdd2d2e6e2814016c32e4818a246239cf60ac4764f8",
    ),
}


def _weight_digest(model) -> str:
    tensors = {f"backbone.{n}": a for n, a in model.backbone.weights.items()}
    tensors.update({f"text_encoder.{n}": a for n, a in model.encoder.weights.items()})
    tensors["cls_proj"] = model.cls_proj
    tensors.update({n: v.data for n, v in model.parameters().items()})
    # the adapter's stage slices under the names they were pinned by, one
    # tensor per stage: adapter.{i}.weight and adapter.{i}.bias
    for part in ("weight", "bias"):
        stacked = tensors.pop(f"adapter.{part}")
        assert stacked.shape[0] == STAGES
        tensors.update({f"adapter.{i}.{part}": s for i, s in enumerate(stacked)})
    # and the prompt contexts' rows: prompt.normal_context and prompt.abnormal_context
    normal, abnormal = tensors.pop("prompt.contexts")
    tensors.update({"prompt.normal_context": normal, "prompt.abnormal_context": abnormal})
    # and the identity tensors the init once made (ones and zeros, no draws):
    # the layer-norm scales and offsets, MLP biases and patch-embedding bias
    c, dtype = model.backbone.config.channels, model.backbone.weights["pos_embed"].dtype
    identity = {"backbone.patch_embed.bias": np.zeros(c, dtype)}
    for prefix, weights in (("backbone", model.backbone.weights),
                            ("text_encoder", model.encoder.weights)):
        for name in [n for n in weights if n.endswith(".mlp.w1")]:
            width, hidden = weights[name].shape
            block = f"{prefix}.{name[: -len('.mlp.w1')]}"
            identity.update({f"{block}.mlp.b1": np.zeros(hidden, dtype),
                             f"{block}.mlp.b2": np.zeros(width, dtype)})
            for ln in ("ln1", "ln2"):
                identity.update({f"{block}.{ln}.scale": np.ones(width, dtype),
                                 f"{block}.{ln}.offset": np.zeros(width, dtype)})
    assert not identity.keys() & tensors.keys()
    tensors.update(identity)
    digest = hashlib.sha256()
    for name in sorted(tensors):
        arr = np.ascontiguousarray(tensors[name])
        digest.update(f"{name}|{arr.dtype.str}|{arr.shape}|".encode())
        digest.update(arr.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("build", sorted(WEIGHT_DIGESTS))
def test_every_model_tensor_is_bit_identical_to_the_pinned_build(build):
    overrides, dtype, expected = WEIGHT_DIGESTS[build]
    with numerics.precision(dtype):
        model = build_model(default_config(**overrides))
    assert _weight_digest(model) == expected


def _edit_in_place(model):
    w = model.backbone.weights["blocks.0.mlp.w1"]
    w.setflags(write=True)
    w[1, 2] += 1.0


def _edit_a_stage_stack(model):
    # the last block of each stage holds views of the adapter's weight stacks
    stack = model.backbone.stage_attention_weights().w_q
    stack.setflags(write=True)
    stack[0, 0, 0] += 1.0


def _negate_a_zero(model):
    w = model.encoder.weights["text_proj"]
    w.setflags(write=True)
    w[0, 0] = 0.0
    model.frozen_hash()  # the snapshot now holds +0.0
    w[0, 0] = -0.0


def _rebind_an_entry(model):
    w = model.backbone.weights["blocks.1.attn.w_o"].copy()
    w[0, 0] = np.nextafter(w[0, 0], np.inf)
    model.backbone.weights["blocks.1.attn.w_o"] = w


def _replace_cls_proj(model):
    cls_proj = model.cls_proj.copy()
    cls_proj[-1, -1] *= 2.0
    model.cls_proj = cls_proj


def _reshape_to_the_same_bytes(model):
    model.cls_proj = model.cls_proj.reshape(-1)


def _view_as_another_dtype(model):
    model.encoder.weights["pos_embed"] = model.encoder.weights["pos_embed"].view(np.int32)


def _add_a_name(model):
    model.encoder.weights["extra"] = np.zeros(3, np.float32)


def _remove_a_name(model):
    del model.encoder.weights["text_proj"]


@pytest.mark.parametrize("edit", [
    _edit_in_place, _edit_a_stage_stack, _negate_a_zero, _rebind_an_entry, _replace_cls_proj,
    _reshape_to_the_same_bytes, _view_as_another_dtype, _add_a_name, _remove_a_name,
])
def test_frozen_hash_sees_every_edit_since_its_snapshot(tiny_image, edit):
    model = build_model(tiny_config())
    before = model.frozen_hash()
    assert before == fresh_frozen_digest(model)
    model.frozen_forward(tiny_image[None], cache_keys=[0])
    model.text_features()
    edit(model)
    after = model.frozen_hash()
    assert after != before
    assert after == fresh_frozen_digest(model)
    # what was computed from the tensors before the edit is gone
    assert model._feature_cache == {} and model._text_cache is None
    assert model.frozen_hash() == after  # from the new snapshot


def test_the_first_frozen_hash_empties_what_was_cached_before_it(tiny_image):
    model = build_model(tiny_config())
    model.frozen_forward(tiny_image[None], cache_keys=[0])
    model.text_features()
    digest = model.frozen_hash()  # no snapshot saw the tensors those were made from
    assert model._feature_cache == {} and model._text_cache is None
    entry = model.frozen_forward(tiny_image[None], cache_keys=[0])
    text = model.text_features()
    assert model.frozen_hash() == digest  # no new snapshot: the caches are kept
    assert model.frozen_forward(tiny_image[None], cache_keys=[0]) is entry
    assert model.text_features() is text


def test_frozen_hash_of_an_unchanged_model_is_the_same_string():
    model = build_model(tiny_config())
    first = model.frozen_hash()
    snapshot = model._frozen_snapshot
    assert model.frozen_hash() == first
    name = "blocks.0.attn.w_q"  # rebound to a copy of the same bytes
    model.backbone.weights[name] = model.backbone.weights[name].copy()
    assert model.frozen_hash() == first == fresh_frozen_digest(model)
    assert model._frozen_snapshot is snapshot  # compared, never hashed again


def test_a_nan_written_over_its_own_bytes_keeps_the_frozen_hash():
    model = build_model(tiny_config())
    w = model.encoder.weights["embed_table"]
    w.setflags(write=True)
    w[0, 0] = np.nan
    nan = model.frozen_hash()
    snapshot = model._frozen_snapshot
    w[0, 0] = np.nan  # compared as bytes: not as a float, which never equals itself
    assert model.frozen_hash() == nan == fresh_frozen_digest(model)
    assert model._frozen_snapshot is snapshot


def test_a_model_that_has_only_predicted_holds_no_frozen_snapshot(tiny_corpus):
    model = build_model(tiny_config())
    model.predict_batch([s.image for s in tiny_corpus.samples[:3]])
    model.build_memory_bank([tiny_corpus.samples[0].image])
    assert model._frozen_snapshot is None
