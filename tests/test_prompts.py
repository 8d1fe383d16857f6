"""Prompt contracts: fixed text features never move under training, the
template pair encodes the two hand-written sentences, the coop text
encoding sends each row's gradient to its own context, and the one batched
encoder pass gives each branch's own encoding."""

import numpy as np
import pytest

from sowa import autodiff as ag
from sowa import numerics, training
from sowa.errors import WeightsError
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
    state = training.TrainState(model.trainable())
    for _ in range(2):
        grads = training.batch_gradients(model, tiny_corpus.samples[:4])[2]
        training.adam_step(state, grads, model.config.optim.lr)
    np.testing.assert_array_equal(model.text_features(), before)
    np.testing.assert_array_equal(model.prompt_pair.normal_context.data, contexts[0])
    np.testing.assert_array_equal(model.prompt_pair.abnormal_context.data, contexts[1])


def test_template_text_is_the_encoding_of_the_two_sentences():
    model = build_model(tiny_config(prompt_kind="template"))
    encoder = model.encoder
    sentences = ("a photo of a normal object", "a photo of an abnormal object")
    expected = np.concatenate([  # each sentence encodes to a (1, C_text) row
        encoder.encode_sequence(np.stack([encoder.token_embedding(w) for w in text.split()]))
        for text in sentences
    ])
    np.testing.assert_array_equal(model.text_features(), expected)


def test_template_contexts_are_the_four_words_whatever_the_prompt_length(tmp_path):
    template = build_model(tiny_config(prompt_kind="template", prompt_length=6))
    assert template.prompt_pair.normal_context.shape == (4, template.config.text_width)
    build_model(tiny_config(prompt_length=6)).save_checkpoint(tmp_path / "coop.npz")
    with pytest.raises(WeightsError, match="prompt.normal_context"):
        template.load_checkpoint(tmp_path / "coop.npz")


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


@pytest.mark.parametrize("prompt_kind", ["coop", "template"])
@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_one_batched_pass_equals_the_per_branch_encodings(prompt_kind, dtype):
    with numerics.precision(dtype):
        model = build_model(tiny_config(prompt_kind=prompt_kind))
    pair, encoder = model.prompt_pair, model.encoder
    rows = []
    for branch, context in (("normal", pair.normal_context), ("abnormal", pair.abnormal_context)):
        tail = np.stack([pair.anchors[branch], pair.anchors["object"]])
        rows.append(encoder.encode_sequence(np.concatenate([context.data, tail])))
    want = np.concatenate(rows)
    for got in (encode_prompts(pair, encoder), model.text_features()):
        got = got.data if ag.is_var(got) else got
        assert got.shape == want.shape and got.dtype == np.dtype(dtype)
        if dtype == "float64":
            np.testing.assert_array_equal(got, want)
        else:
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-6)
