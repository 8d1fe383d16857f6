"""Dual prompts and the frozen text-encoding path.

Every prompt kind is one (2, l, width) tensor of context sequences, row 0
normal and row 1 abnormal; everything else is frozen: a small seeded
vocabulary of anchor embeddings, a two-block transformer encoder, and the
projection into the shared text feature space. Each branch is encoded
independently as

    [context_1 .. context_l, <branch anchor>, "object"]

and the last token's projected, unit-normalized embedding becomes that
branch's row of the 2 x C_text feature matrix (row 0 normal, row 1 abnormal,
always in that order). The two sequences have the same length and go through
the encoder together, as one (2, n, width) batch: like every function below
the public API, ``FrozenTextEncoder.encode_sequence`` takes batches only, and
one sequence is a batch of one. One function, ``encode_prompts``, encodes
the contexts for training (given the Var) and inference (given its array).
Prompt kinds differ only in how the contexts start and whether they train
(``build_prompt_contexts``): ``template`` contexts hold the words "a photo
of a" / "a photo of an", so their rows encode the sentences "a photo of a
normal object" and "a photo of an abnormal object".

There is no tokenizer: "tokens" are vocabulary IDs with fixed embeddings.
The encoder's shape is fixed apart from its width and output width:
``TEXT_BLOCKS`` blocks of ``TEXT_HEADS`` heads with the backbone's
``MLP_RATIO``, reading at most ``MAX_LEN`` tokens. Its weights and the
seeded contexts are drawn by ``backbone.seeded_weights``, so the contexts
start, as CoOp's do, from N(0, 0.02).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from . import autodiff as ag
from .backbone import MLP_RATIO, block_shapes, seeded_weights, transformer_block
from .errors import UsageError

VOCABULARY = (
    "a",
    "an",
    "photo",
    "of",
    "the",
    "normal",
    "abnormal",
    "object",
    "surface",
    "texture",
    "flawless",
    "damaged",
)


TEXT_HEADS = 4
TEXT_BLOCKS = 2
MAX_LEN = 32


@dataclass
class FrozenTextEncoder:
    weights: Dict[str, np.ndarray] = field(repr=False)

    def __post_init__(self):
        for arr in self.weights.values():
            arr.setflags(write=False)

    def token_embedding(self, word: str) -> np.ndarray:
        if word not in VOCABULARY:
            raise UsageError(f"unknown vocabulary word {word!r}")
        return self.weights["embed_table"][VOCABULARY.index(word)]

    def encode_sequence(self, vectors):
        """Encode a (B, n, width) batch of embedding sequences to (B, C_text)
        unit-norm rows in one pass; one sequence is a batch of one.

        Accepts an autodiff Var (gradients flow to the input sequence only;
        encoder weights are constants) or a plain array.
        """
        n = vectors.shape[1]
        if n > MAX_LEN:
            raise UsageError(f"sequence length {n} exceeds max_len {MAX_LEN}")
        x = ag.add(vectors, self.weights["pos_embed"][:n])
        for b in range(TEXT_BLOCKS):
            x = transformer_block(x, self.weights, b, TEXT_HEADS)
        # every token is projected, so a batch of one and a row of a larger
        # batch take the same matrix-product shape and agree bit for bit (BLAS
        # rounds a one-row product differently)
        projected = ag.matmul(x, self.weights["text_proj"])
        return ag.l2_normalize_rows(projected[:, n - 1])


def build_text_encoder(width: int, c_text: int, seed: int) -> FrozenTextEncoder:
    """A frozen encoder of ``width``-wide tokens into ``c_text`` features, drawn from ``seed``."""
    shapes = {
        "embed_table": (len(VOCABULARY), width),
        "pos_embed": (MAX_LEN, width),
        "text_proj": (width, c_text),
        **block_shapes(TEXT_BLOCKS, width, int(round(MLP_RATIO * width))),
    }
    return FrozenTextEncoder(weights=seeded_weights(shapes, seed))


def build_prompt_contexts(kind: str, length: int, seed: int, encoder: FrozenTextEncoder) -> ag.Var:
    """The (2, l, width) contexts of a prompt kind, row 0 normal and row 1
    abnormal: how they start and whether they train.

    ``coop`` trains seeded Gaussian(0, 0.02) contexts of ``length`` vectors per
    branch, and ``template`` freezes the words "a photo of a" / "a photo of an"
    (``length`` unused).
    """
    if kind == "template":
        contexts = np.stack([[encoder.token_embedding(w) for w in ("a", "photo", "of", article)]
                             for article in ("a", "an")])
    else:
        if length < 1:
            raise UsageError(f"context length must be >= 1, got {length}")
        width = encoder.weights["embed_table"].shape[1]
        contexts = seeded_weights({"contexts": (2, length, width)}, seed)["contexts"]
    return ag.Var(contexts, requires_grad=kind == "coop")


def encode_prompts(contexts, encoder: FrozenTextEncoder):
    """The (2, C_text) text features of (2, l, width) ``contexts``: a Var,
    which builds a graph (training), when they are a Var, and an array when
    they are an array (inference).

    Each branch's anchor tail is appended on the sequence axis, and the two
    sequences go through the encoder as one (2, n, width) batch, a single
    pass whose rows are the two branches' own encodings.
    """
    tails = np.stack([[encoder.token_embedding(b), encoder.token_embedding("object")]
                      for b in ("normal", "abnormal")])
    return encoder.encode_sequence(ag.concat([contexts, tails.astype(contexts.dtype)], axis=1))
