"""Model-level contracts: inference builds no autodiff graph, training
gradients reach every trainable tensor, every adapter, attention and prompt
kind predicts and trains, ``predict`` reproduces the outputs
pinned in ``perfbench/golden.npz``, warm ``predict`` calls reuse their
heap pages, the text features are encoded once per parameter state and are
read-only for every prompt kind, and a float32 model computes in float32 (a
float64 one in float64)."""

import itertools
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sowa import autodiff as ag
from sowa import fusion, numerics, prompts, training
from sowa.adapter import project_tokens
from sowa.config import PROMPT_KINDS, default_config
from sowa.model import build_model
from sowa.synth import PatternSpec, synth_generate
from sowa.training import batch_gradients, sample_loss

from conftest import tiny_config

GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden.npz"
GOLDEN_ATOL = 1e-5


def test_predict_creates_no_var(tiny_model, tiny_corpus, var_count):
    pred = tiny_model.predict(tiny_corpus.samples[0].image)
    assert var_count == []
    assert all(isinstance(f, np.ndarray) for f in pred.stage_features)
    assert isinstance(pred.anomaly_map.scores, np.ndarray)
    sample_loss(tiny_model, tiny_corpus.samples[:1])  # the count does see a graph
    assert var_count


def test_sample_loss_reaches_every_trainable(tiny_model, tiny_corpus):
    params = tiny_model.trainable()
    assert len(params) == 10  # 4 adapters x (weight, bias) + 2 prompt contexts
    for var in params.values():
        var.zero_grad()
    sample = next(s for s in tiny_corpus.samples if s.label > 0)
    loss, _ = sample_loss(tiny_model, [sample])
    loss.backward()
    try:
        for name, var in params.items():
            assert var.grad is not None and np.any(var.grad != 0), name
    finally:
        for var in params.values():
            var.zero_grad()


@pytest.mark.parametrize(
    "adapter_kind, attention_mode, prompt_kind",
    list(itertools.product(("fwa", "linear"), ("vv", "qkv"), ("coop", "template", "fixed_pair"))),
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
    assert len(grads) == (10 if prompt_kind == "coop" else 8)


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
    """A list that grows by one for every ``encode_prompts`` call."""
    calls = []
    encode = prompts.encode_prompts

    def counting(*args, **kwargs):
        calls.append(None)
        return encode(*args, **kwargs)

    monkeypatch.setattr(prompts, "encode_prompts", counting)
    return calls


def test_text_encoded_once_per_parameter_state(tiny_corpus, encode_calls, tmp_path):
    model = build_model(tiny_config())
    images = [s.image for s in tiny_corpus.samples[:3]]
    bank = model.build_memory_bank(images)  # stage features need no text
    assert encode_calls == []
    for i, image in enumerate(images):
        features = model.predict(image).stage_features
        for stage, rows in enumerate(features):
            np.testing.assert_array_equal(bank.stages[stage][i * len(rows):(i + 1) * len(rows)], rows)
    training.mean_dataset_loss(model, tiny_corpus.samples[:4])
    assert len(encode_calls) == 1

    # Adam rebinds the context arrays
    state = training.new_train_state(model, model.config.optim)
    training.adam_step(state, batch_gradients(model, tiny_corpus.samples[:2])[2])
    del encode_calls[:]  # batch_gradients encodes its own graph
    model.predict(images[0])
    model.predict(images[1])
    assert len(encode_calls) == 1

    # an in-place edit of one element, as gradient_check makes
    model.prompt_pair.abnormal_context.data[0, 0] += 1e-3
    model.predict(images[0])
    assert len(encode_calls) == 2

    # a checkpoint rebinds them too
    other = build_model(tiny_config(seed=8))
    other.save_checkpoint(tmp_path / "other.sowa")
    model.load_checkpoint(tmp_path / "other.sowa")
    model.predict(images[0])
    assert len(encode_calls) == 3
    np.testing.assert_array_equal(
        model.text_features(), prompts.encode_text(model.prompt_pair, model.encoder))


def test_cached_text_is_read_only_and_changes_no_output(tiny_corpus):
    model = build_model(tiny_config())
    text = model.text_features()
    assert not text.flags.writeable
    with pytest.raises(ValueError):
        text[0, 0] = 0.0
    np.testing.assert_array_equal(text, prompts.encode_text(model.prompt_pair, model.encoder))
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
    build_model(tiny_config(seed=8, prompt_kind=prompt_kind)).save_checkpoint(tmp_path / "c.sowa")
    model.load_checkpoint(tmp_path / "c.sowa")
    text = model.text_features()
    assert not text.flags.writeable
    with pytest.raises(ValueError):
        text[0, 0] = 0.0


def _pipeline_dtypes(model, sample):
    """Dtypes of the inference outputs and of the training graph's stages."""
    pred = model.predict(sample.image)
    acts = model.frozen_forward(sample.image)
    cfg = model.config.fusion
    text = prompts.encode_prompts(model.prompt_pair, model.encoder)
    stars = [project_tokens(a.weight, a.bias, x[None])
             for a, x in zip(model.adapters, acts.adapter_inputs)]
    logits = fusion.fuse(stars, text, cfg)
    size = model.backbone.config.image_size
    pmap = fusion.abnormal_probability_map(logits, model.grid, (size, size), cfg)
    score = fusion.image_score(acts.class_token[None], model.cls_proj, text, cfg)
    grads = batch_gradients(model, [sample])[2]
    dtypes = {
        "map": pred.anomaly_map.scores.dtype,
        "token logits": pred.anomaly_map.token_logits.dtype,
        "score": fusion.image_score(acts.class_token, model.cls_proj, model.text_features(),
                                    cfg).dtype,
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
    assert len(dtypes) == 8 + 4 + 10
    assert {name: d for name, d in dtypes.items() if d != np.dtype(dtype)} == {}
