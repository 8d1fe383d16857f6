"""Shared fixtures: a small model configuration and synthetic corpora sized
for fast unit tests."""

import functools
import hashlib

import numpy as np
import pytest

from sowa import autodiff as ag
from sowa import numerics
from sowa.backbone import tensor_hash
from sowa.config import default_config
from sowa.model import build_model
from sowa.synth import PatternSpec, synth_generate

TINY = dict(
    backbone={"image_size": 32, "patch_size": 8, "channels": 32, "heads": 4},
    c_text=16,
    text_width=16,
    prompt_length=4,
    window=2,
)


def tiny_config(seed=7, **overrides):
    merged = dict(TINY)
    for key, value in overrides.items():
        if key == "backbone":
            merged["backbone"] = {**TINY["backbone"], **value}
        else:
            merged[key] = value
    return default_config(seed=seed, **merged)


def fresh_frozen_digest(model) -> str:
    """The digest ``SowaModel.frozen_hash`` stands for, computed afresh from
    the weight dicts: SHA-256 over the sorted ``name:tensor_hash`` lines of
    every ``backbone.*`` and ``text_encoder.*`` tensor and ``cls_proj``."""
    tensors = {f"backbone.{n}": a for n, a in model.backbone.weights.items()}
    tensors.update({f"text_encoder.{n}": a for n, a in model.encoder.weights.items()})
    tensors["cls_proj"] = model.cls_proj
    joined = "\n".join(f"{n}:{tensor_hash(a)}" for n, a in sorted(tensors.items()))
    return hashlib.sha256(joined.encode()).hexdigest()


_SHARED_MODELS = []


def shared_model(model):
    """``model``, which outlives one test: its feature cache is emptied
    before every test, so no test reads an entry another one made."""
    _SHARED_MODELS.append(model)
    return model


@pytest.fixture(autouse=True)
def _empty_feature_caches():
    for model in _SHARED_MODELS:
        model.clear_cache()


@functools.lru_cache(maxsize=None)
def batch_case(dtype, adapter_kind, attention_mode):
    """A tiny model of one adapter kind and attention mode, the 16-sample
    tiny corpus, both made in ``dtype``, and each image's own ``predict``."""
    with numerics.precision(dtype):
        model = build_model(tiny_config(adapter_kind=adapter_kind, attention_mode=attention_mode))
        corpus = synth_generate(PatternSpec(kind="mixed", seed=5), 16, image_size=32)
    return shared_model(model), corpus, [model.predict(s.image) for s in corpus.samples]


@pytest.fixture(scope="session")
def tiny_model():
    return shared_model(build_model(tiny_config()))


@pytest.fixture(scope="session")
def tiny_corpus():
    return synth_generate(PatternSpec(kind="mixed", seed=5), 16, image_size=32)


@pytest.fixture(scope="session")
def tiny_image(tiny_corpus):
    return tiny_corpus.samples[0].image


@pytest.fixture()
def rng():
    return np.random.default_rng(123)


@pytest.fixture()
def var_count(monkeypatch):
    """A list that grows by one for every ``ag.Var`` created while the test runs."""
    created = []
    init = ag.Var.__init__

    def counting(self, *args, **kwargs):
        created.append(None)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ag.Var, "__init__", counting)
    return created
