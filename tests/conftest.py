"""Shared fixtures: a small model configuration and synthetic corpora sized
for fast unit tests."""

import numpy as np
import pytest

from sowa import autodiff as ag
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


@pytest.fixture(scope="session")
def tiny_model():
    return build_model(tiny_config())


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
