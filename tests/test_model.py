"""Model-level contracts: inference builds no autodiff graph, training
gradients reach every trainable tensor, every adapter, attention and prompt
kind predicts and trains, ``predict`` reproduces the outputs
pinned in ``perfbench/golden.npz``, and warm ``predict`` calls reuse their
heap pages."""

import itertools
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sowa import autodiff as ag
from sowa.config import default_config
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
