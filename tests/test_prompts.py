"""Prompt contracts: fixed text features never move under training, and the
coop text encoding sends each row's gradient to its own context."""

import numpy as np
import pytest

from sowa import autodiff as ag
from sowa import training
from sowa.model import build_model
from sowa.prompts import encode_prompts

from conftest import tiny_config


@pytest.mark.parametrize("prompt_kind", ["template", "fixed_pair"])
def test_fixed_text_features_do_not_change_under_training(prompt_kind, tiny_corpus):
    model = build_model(tiny_config(prompt_kind=prompt_kind))
    before = model.text_features().copy()
    contexts = [model.prompt_pair.normal_context.data.copy(),
                model.prompt_pair.abnormal_context.data.copy()]
    assert not any(name.startswith("prompt.") for name in model.trainable())
    state = training.new_train_state(model, model.config.optim)
    for _ in range(2):
        training.adam_step(state, training.batch_gradients(model, tiny_corpus.samples[:4])[2])
    np.testing.assert_array_equal(model.text_features(), before)
    np.testing.assert_array_equal(model.prompt_pair.normal_context.data, contexts[0])
    np.testing.assert_array_equal(model.prompt_pair.abnormal_context.data, contexts[1])


def test_coop_gradient_reaches_both_contexts(tiny_model):
    pair = tiny_model.prompt_pair
    weights = np.random.default_rng(3).normal(size=(2, tiny_model.config.c_text))
    grads = []
    for rows in ([0, 1], [0], [1]):
        pair.normal_context.zero_grad()
        pair.abnormal_context.zero_grad()
        text = encode_prompts(pair, tiny_model.encoder)
        picked = ag.take(text, rows)
        ag.sum_(ag.mul(picked, weights[rows].astype(picked.dtype))).backward()
        grads.append([pair.normal_context.grad, pair.abnormal_context.grad])
    pair.normal_context.zero_grad()
    pair.abnormal_context.zero_grad()

    def reached(grad):
        return grad is not None and bool(np.any(grad != 0))

    both, normal_only, abnormal_only = grads
    assert reached(both[0]) and reached(both[1])
    assert np.all(np.isfinite(both[0])) and np.all(np.isfinite(both[1]))
    # each row depends on its own context alone
    assert reached(normal_only[0]) and not reached(normal_only[1])
    assert reached(abnormal_only[1]) and not reached(abnormal_only[0])
    np.testing.assert_allclose(both[0], normal_only[0], rtol=1e-5, atol=1e-7)
    np.testing.assert_allclose(both[1], abnormal_only[1], rtol=1e-5, atol=1e-7)
