"""Full model assembly: frozen backbone, four window-attention adapters with
injected frozen weights, the dual-prompt text path, and fusion into maps and
scores.

The parameters are the adapter projections and the two prompt contexts, which
train for ``coop`` and are frozen for ``template``; every other tensor is
created once, marked read-only, and hash-checked by the frozen-contract tests.
A checkpoint is a numpy ``.npz`` file of the parameters, plus any extra tensors
such as the optimizer's moments.

Images run in stacks only. One frozen pass, ``frozen_forward`` (backbone,
then the windowed attention), takes a (B, S, S, 3) stack, and one scoring
formula, ``score_batch``, turns its activations into stage features, maps
and scores: training runs it on the parameter Vars, ``predict_batch`` on
their arrays. Only ``predict`` and its ``Prediction`` take and give a single
image, as a stack of one. ``evaluate_dataset`` and ``build_memory_bank``
run their images ``chunk_size`` at a time: ``numerics.CHUNK_TOKENS`` patch
tokens for each of the ``numerics.WORKERS`` threads, 16 images at 64 px and
4 at 224 px on two. The frozen pass splits such a chunk into one part per
thread (backbone and windowed attention, ``numerics.map_image_parts``);
the calling thread runs the first part and every other step of the model.
Every per-image product of a stack is the BLAS call that image makes alone;
a one-row product (the class token's) is kept one row per image, because
BLAS rounds it differently from a row of a larger product. So a prediction
is the same bit for bit in any stack, in any order, on any thread.
"""

from __future__ import annotations

import hashlib
import zipfile
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import autodiff as ag
from . import fusion as fusion_mod
from . import numerics
from .adapter import (
    AdapterParams,
    attended_features,
    new_adapter_params,
    project_tokens,
)
from .backbone import STAGES, Backbone, init_synthetic, seeded_weights, tensor_hash
from .config import RunConfig
from .errors import ArchiveError, UsageError, WeightsError
from .fewshot import MemoryBank, build_memory_bank
from .fusion import AnomalyMap
from .prompts import (
    FrozenTextEncoder,
    PromptPair,
    build_prompt_pair,
    build_text_encoder,
    encode_prompts,  # noqa: F401  not called here; perfbench/tracer.py looks it up in this module
    encode_text,
)

# Most images whose frozen activations the feature cache keeps (LRU): about
# 64 KB each at 64 px and 256 KB at 224 px.
FEATURE_CACHE_LIMIT = 256
_SEED_OFFSETS = {"encoder": 1000003, "prompts": 2000003, "adapters": 3000003, "cls": 4000003}


@dataclass
class FrozenActivations:
    """Constants of the frozen pass over a stack of B images: adapter inputs
    + class tokens."""

    adapter_inputs: List[np.ndarray]  # STAGES x (B, L, C_vis), post-attention for fwa
    class_token: np.ndarray  # (B, C_vis)
    image_hash: Optional[str] = None  # the image's cache key; None when not cached


@dataclass
class Prediction:
    """One image's map, stage features and ``image_score``, the class-token
    score, which ``evaluate_dataset``'s default ``max_map`` does not read."""

    anomaly_map: AnomalyMap
    image_score: float
    stage_features: List[np.ndarray]  # STAGES x (L, C_text), unit-norm rows
    grid: Tuple[int, int]


@dataclass
class SowaModel:
    config: RunConfig
    backbone: Backbone
    encoder: FrozenTextEncoder
    adapters: List[AdapterParams]
    prompt_pair: PromptPair
    cls_proj: np.ndarray
    _feature_cache: Dict[str, FrozenActivations] = field(default_factory=dict, repr=False)
    _text_cache: Optional[Tuple[str, np.ndarray]] = field(default=None, repr=False)

    # ---------------------------------------------------------------- frozen
    @property
    def grid(self) -> Tuple[int, int]:
        g = self.backbone.config.grid
        return (g, g)

    def frozen_hashes(self) -> Dict[str, str]:
        hashes = {f"backbone.{n}": h for n, h in self.backbone.hashes().items()}
        hashes.update({f"text_encoder.{n}": h for n, h in self.encoder.hashes().items()})
        hashes["cls_proj"] = tensor_hash(self.cls_proj)
        return hashes

    def frozen_hash(self) -> str:
        joined = "\n".join(f"{n}:{h}" for n, h in sorted(self.frozen_hashes().items()))
        return hashlib.sha256(joined.encode()).hexdigest()

    @property
    def chunk_size(self) -> int:
        """Images per ``predict_batch`` call where many are run: as many as
        ``numerics.CHUNK_TOKENS`` patch tokens hold per thread, on
        ``numerics.WORKERS`` threads; at least one."""
        return max(1, numerics.WORKERS * numerics.CHUNK_TOKENS // self.backbone.config.tokens)

    def frozen_forward(self, images, cache_key: Optional[int] = None) -> FrozenActivations:
        """Backbone + (for fwa) frozen windowed attention, on a (B, S, S, 3)
        stack of images (see ``Backbone.forward``); cacheable.

        Any non-None ``cache_key`` opts in to the cache. Entries are matched
        by the input itself (its ``tensor_hash``), never by the key, so a key
        reused for another image cannot return stale features. A cached entry
        carries that hash as its ``image_hash``. The cache keeps the
        ``FEATURE_CACHE_LIMIT`` most recently used entries.
        """
        if cache_key is not None:
            cache_key = tensor_hash(images)
            hit = self._feature_cache.pop(cache_key, None)
            if hit is not None:
                self._feature_cache[cache_key] = hit  # now the most recently used
                return hit
        inputs, class_tokens = self.backbone.forward(images)
        if self.config.adapter_kind == "fwa":
            window = (self.config.window, self.config.window)
            inputs = [
                attended_features(
                    tokens,
                    self.backbone.stage_attention_weights(stage + 1),
                    self.grid,
                    window,
                    mode=self.config.attention_mode,
                )
                for stage, tokens in enumerate(inputs)
            ]
        out = FrozenActivations(inputs, class_tokens, image_hash=cache_key)
        if cache_key is not None:
            self._feature_cache[cache_key] = out
            if len(self._feature_cache) > FEATURE_CACHE_LIMIT:
                del self._feature_cache[next(iter(self._feature_cache))]
        return out

    def clear_cache(self) -> None:
        self._feature_cache.clear()

    # ------------------------------------------------------------- trainable
    def parameters(self) -> Dict[str, ag.Var]:
        """Adapter projections and both prompt contexts: what a checkpoint holds."""
        params: Dict[str, ag.Var] = {}
        for i, adapter in enumerate(self.adapters):
            params[f"adapter.{i}.weight"] = adapter.weight
            params[f"adapter.{i}.bias"] = adapter.bias
        params["prompt.normal_context"] = self.prompt_pair.normal_context
        params["prompt.abnormal_context"] = self.prompt_pair.abnormal_context
        return params

    def trainable(self) -> Dict[str, ag.Var]:
        """The parameters that require gradients."""
        return {name: var for name, var in self.parameters().items() if var.requires_grad}

    def text_features(self) -> np.ndarray:
        """The (2, C_text) text features; row 0 normal, row 1 abnormal.

        The encoding is kept, read-only, keyed on the contents of the two
        contexts: in-place edits and rebinding both re-encode.
        """
        pair = self.prompt_pair
        key = tensor_hash(pair.normal_context.data) + tensor_hash(pair.abnormal_context.data)
        if self._text_cache is None or self._text_cache[0] != key:
            text = encode_text(pair, self.encoder)
            text.setflags(write=False)
            self._text_cache = (key, text)
        return self._text_cache[1]

    # ------------------------------------------------------------ scoring
    def score_batch(self, inputs: Sequence, class_tokens: np.ndarray, projections, text):
        """The one scoring formula, over a stacked batch: adapted stage
        features, abnormal probability map and image score.

        ``inputs`` are the ``STAGES`` (B, L, C_vis) adapter inputs and
        ``class_tokens`` the (B, C_vis) class tokens of a frozen pass.
        ``projections`` (one (weight, bias) per stage) and the (2, C_text)
        ``text`` rows are Vars, which build a graph (training), or arrays,
        which do not (inference). Returns the four (B, L, C_text) unit-norm
        stage features, the (B, H, W) map and the (B,) scores.
        """
        stars = [project_tokens(w, b, x) for (w, b), x in zip(projections, inputs)]
        logits = fusion_mod.fuse(stars, text)
        size = self.backbone.config.image_size
        pmap = fusion_mod.abnormal_probability_map(logits, self.grid, (size, size))
        score = fusion_mod.image_score(class_tokens, self.cls_proj, text)
        return stars, pmap, score

    # -------------------------------------------------------------- inference
    def predict_batch(self, images: Sequence[np.ndarray]) -> List[Prediction]:
        """``predict`` for every image of a stack, in one stacked pass.

        ``images`` is a sequence of (S, S, 3) images or one (B, S, S, 3)
        array. Each prediction equals ``predict`` on its image alone, bit for
        bit. Builds no autodiff graph; an empty stack, or one image passed
        as a bare (S, S, 3) array, raises ``UsageError``.
        """
        acts = self.frozen_forward(images)
        projections = [(a.weight.data, a.bias.data) for a in self.adapters]
        stars, pmap, scores = self.score_batch(
            acts.adapter_inputs, acts.class_token, projections, self.text_features()
        )
        return [
            Prediction(AnomalyMap(pmap[i]), float(scores[i]), [s[i] for s in stars], self.grid)
            for i in range(len(pmap))
        ]

    def predict(self, image: np.ndarray) -> Prediction:
        """Map, class-token score (unread by ``evaluate_dataset``'s default
        ``max_map``) and stage features of one image: a stack of one."""
        return self.predict_batch([image])[0]

    def build_memory_bank(self, images: Sequence[np.ndarray], ids=None) -> MemoryBank:
        """A bank of the images' stage features, which need no text features:
        ``chunk_size`` images per frozen pass, then the adapter projections."""
        images = list(images)
        per_image = []
        for start in range(0, len(images), self.chunk_size):
            acts = self.frozen_forward(images[start : start + self.chunk_size])
            pairs = zip(self.adapters, acts.adapter_inputs)
            stars = [project_tokens(a.weight.data, a.bias.data, x) for a, x in pairs]
            per_image += zip(*stars)  # each image's four stage features
        return build_memory_bank(per_image, image_ids=ids)

    # ------------------------------------------------------------ checkpoints
    def state_tensors(self) -> Dict[str, np.ndarray]:
        return {name: var.data.copy() for name, var in self.parameters().items()}

    def save_checkpoint(self, path, extra: Optional[Dict[str, np.ndarray]] = None) -> None:
        """Write the parameters and ``extra`` to ``path`` as an ``.npz`` file.

        Each tensor keeps its dtype, and the same tensors give the same bytes.
        A non-finite tensor, or an ``extra`` name that is a parameter's,
        raises ``UsageError``.
        """
        tensors = self.state_tensors()
        extra = extra or {}
        clash = sorted(tensors.keys() & extra.keys())
        if clash:
            raise UsageError(f"extra tensors {clash} would overwrite parameters")
        tensors.update(extra)
        for name, arr in tensors.items():
            if not np.all(np.isfinite(arr)):
                raise UsageError(f"tensor {name!r} contains non-finite values")
        with open(path, "wb") as fh:  # np.savez appends ".npz" to a bare path
            np.savez(fh, allow_pickle=False, **tensors)

    def load_checkpoint(self, path) -> Dict[str, np.ndarray]:
        """Bind the parameters from an ``.npz`` checkpoint; returns the other tensors.

        Each parameter keeps its own dtype. A file that cannot be read raises
        ``ArchiveError``; a missing parameter, or one of the wrong shape, not
        floating point or not finite, raises ``WeightsError``. Either way
        nothing is bound.
        """
        tensors = _read_npz(path)
        params = self.parameters()
        for name, var in params.items():
            arr = tensors.get(name)
            if arr is None:
                raise WeightsError(f"checkpoint missing tensor {name!r}")
            if arr.shape != var.data.shape or arr.dtype.kind != "f" or not np.isfinite(arr).all():
                raise WeightsError(
                    f"checkpoint tensor {name!r} is {arr.dtype} {arr.shape}, "
                    f"expected finite floats of shape {var.data.shape}"
                )
        for name, var in params.items():
            var.data = tensors.pop(name).astype(var.data.dtype)
        self.clear_cache()
        return tensors


def _read_npz(path) -> Dict[str, np.ndarray]:
    """Every tensor of the ``.npz`` file at ``path``; any failure is an ``ArchiveError``.

    Every member's CRC-32 is checked before anything is read: ``np.load``
    checks a member's only when it reads the member to its end.
    """
    try:
        with zipfile.ZipFile(path) as archive:
            members = archive.infolist()
            corrupt = archive.testzip()
        if corrupt is not None:
            raise ArchiveError(f"checkpoint member {corrupt!r} fails its checksum in {path}")
        names = [m.filename for m in members]
        # np.savez writes no comments: a comment length flipped in the central
        # directory would read the entries after it as that comment
        if (len(set(names)) != len(names) or any(m.comment for m in members)
                or not all(n.endswith(".npy") for n in names)):
            raise ArchiveError(f"{path} is not an np.savez file of uniquely named .npy members")
        with np.load(path, allow_pickle=False) as npz:
            return {name: npz[name] for name in npz.files}
    # what zipfile and np.load raise on a file that is missing, not a zip of
    # .npy members, or corrupted (a damaged central directory raises the last three)
    except (OSError, EOFError, ValueError, zipfile.BadZipFile, RuntimeError,
            NotImplementedError) as exc:
        raise ArchiveError(f"cannot read checkpoint {path}: {exc}") from exc


def build_model(config: RunConfig) -> SowaModel:
    """Construct the full model from a run configuration."""
    seed = config.seed
    backbone = init_synthetic(config.backbone, seed)
    encoder = build_text_encoder(config.text_width, config.c_text, seed + _SEED_OFFSETS["encoder"])
    pair = build_prompt_pair(
        config.prompt_kind, config.prompt_length, seed + _SEED_OFFSETS["prompts"], encoder
    )
    c_vis = config.backbone.channels
    adapters = [
        new_adapter_params(c_vis, config.c_text, seed=seed + _SEED_OFFSETS["adapters"] + i)
        for i in range(STAGES)
    ]
    cls_init = seeded_weights({"cls_proj": (c_vis, config.c_text)}, seed + _SEED_OFFSETS["cls"])
    cls_proj = cls_init["cls_proj"]
    cls_proj.setflags(write=False)
    return SowaModel(
        config=config,
        backbone=backbone,
        encoder=encoder,
        adapters=adapters,
        prompt_pair=pair,
        cls_proj=cls_proj,
    )
