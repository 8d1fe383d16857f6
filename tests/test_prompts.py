"""Prompt contracts: fixed text features never move under training, the
template contexts encode the two hand-written sentences, the coop text
encoding sends each row's gradient to its own context row, the one batched
encoder pass gives each branch's own encoding, and training and inference
encode the one contexts tensor through the one ``encode_prompts``."""

import numpy as np
import pytest

from sowa import autodiff as ag
from sowa import numerics, training
from sowa.backbone import tensor_hash
from sowa.errors import WeightsError
from sowa.model import build_model
from sowa.prompts import VOCABULARY, FrozenTextEncoder, build_prompt_contexts, encode_prompts

from conftest import tiny_config


def test_fixed_text_features_do_not_change_under_training(tiny_corpus):
    model = build_model(tiny_config(prompt_kind="template"))
    before = model.text_features().copy()
    contexts = model.prompt_contexts.data.copy()
    assert not model.prompt_contexts.requires_grad
    assert not any(name.startswith("prompt.") for name in model.trainable())
    state = training.TrainState(model.trainable())
    for _ in range(2):
        grads = training.batch_gradients(model, tiny_corpus.samples[:4])[2]
        training.adam_step(state, grads, model.config.optim.lr)
    np.testing.assert_array_equal(model.text_features(), before)
    np.testing.assert_array_equal(model.prompt_contexts.data, contexts)


def test_template_text_is_the_encoding_of_the_two_sentences():
    model = build_model(tiny_config(prompt_kind="template"))
    encoder = model.encoder
    sentences = ("a photo of a normal object", "a photo of an abnormal object")
    expected = np.concatenate([  # each sentence, a batch of one, encodes to a (1, C_text) row
        encoder.encode_sequence(np.stack([encoder.token_embedding(w) for w in text.split()])[None])
        for text in sentences
    ])
    np.testing.assert_array_equal(model.text_features(), expected)


def test_template_contexts_are_the_four_words_whatever_the_prompt_length(tmp_path):
    template = build_model(tiny_config(prompt_kind="template", prompt_length=6))
    assert template.prompt_contexts.shape == (2, 4, template.config.text_width)
    build_model(tiny_config(prompt_length=6)).save_checkpoint(tmp_path / "coop.npz")
    with pytest.raises(WeightsError, match="prompt.contexts"):
        template.load_checkpoint(tmp_path / "coop.npz")


def test_coop_gradient_reaches_both_contexts(tiny_model):
    contexts = tiny_model.prompt_contexts
    weights = np.random.default_rng(3).normal(size=(2, tiny_model.config.c_text))
    grads = []
    for rows in ([0, 1], [0], [1]):
        contexts.zero_grad()
        text = encode_prompts(contexts, tiny_model.encoder)
        picked = ag.take(text, rows)
        ag.sum_(ag.mul(picked, weights[rows].astype(picked.dtype))).backward()
        assert contexts.grad.shape == contexts.shape
        grads.append([contexts.grad[0], contexts.grad[1]])
    contexts.zero_grad()

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


def test_anchor_tokens_are_the_encoders_frozen_rows(tiny_model):
    """The parameter holds nothing but the contexts: the anchor tokens are
    read from the encoder's read-only table, which ``frozen_hash`` covers."""
    contexts, encoder = tiny_model.prompt_contexts, tiny_model.encoder
    with pytest.raises(ValueError, match="read-only"):
        encoder.token_embedding("object")[:] += 1.0
    table = encoder.weights["embed_table"].copy()
    table[VOCABULARY.index("object")] += 1.0
    edited = FrozenTextEncoder(weights={**encoder.weights, "embed_table": table})
    hashes = lambda enc: {n: tensor_hash(a) for n, a in sorted(enc.weights.items())}
    assert hashes(edited) != hashes(encoder)
    assert not np.array_equal(encode_prompts(contexts, edited).data,
                              encode_prompts(contexts, encoder).data)
    np.testing.assert_array_equal(tiny_model.text_features(),
                                  encode_prompts(contexts.data, encoder))


@pytest.mark.parametrize("prompt_kind", ["coop", "template"])
@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_one_batched_pass_equals_the_per_branch_encodings(prompt_kind, dtype):
    with numerics.precision(dtype):
        model = build_model(tiny_config(prompt_kind=prompt_kind))
    contexts, encoder = model.prompt_contexts, model.encoder
    rows = []
    for branch, context in zip(("normal", "abnormal"), contexts.data):
        tail = np.stack([encoder.token_embedding(branch), encoder.token_embedding("object")])
        rows.append(encoder.encode_sequence(np.concatenate([context, tail])[None]))
    want = np.concatenate(rows)
    for got in (encode_prompts(contexts, encoder), model.text_features()):
        got = got.data if ag.is_var(got) else got
        assert got.shape == want.shape and got.dtype == np.dtype(dtype)
        if dtype == "float64":
            np.testing.assert_array_equal(got, want)
        else:
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-6)


@pytest.mark.parametrize("prompt_kind", ["coop", "template"])
def test_training_and_inference_encode_the_one_contexts_tensor_alike(prompt_kind):
    model = build_model(tiny_config(prompt_kind=prompt_kind))
    contexts = model.prompt_contexts
    assert contexts.shape[0] == 2 and contexts.requires_grad == (prompt_kind == "coop")
    graph = encode_prompts(contexts, model.encoder)
    plain = encode_prompts(contexts.data, model.encoder)
    assert ag.is_var(graph) and not ag.is_var(plain)
    np.testing.assert_array_equal(graph.data, plain)
    np.testing.assert_array_equal(model.text_features(), plain)


def test_coop_contexts_are_one_seeded_draw_of_both_branches(tiny_model):
    encoder, width = tiny_model.encoder, tiny_model.config.text_width
    contexts = build_prompt_contexts("coop", 5, 11, encoder)
    assert contexts.shape == (2, 5, width) and contexts.requires_grad
    # one stream: the normal rows are drawn first, the abnormal rows next
    want = np.random.default_rng(11).normal(0.0, 0.02, size=(2 * 5, width))
    np.testing.assert_array_equal(contexts.data, want.astype(contexts.dtype).reshape(2, 5, width))
    np.testing.assert_array_equal(build_prompt_contexts("coop", 5, 11, encoder).data, contexts.data)
