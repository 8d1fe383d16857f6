"""Full model assembly: frozen backbone, four window-attention adapters with
injected frozen weights, the dual-prompt text path, and fusion into maps and
scores.

The parameters are the adapter projections and the two prompt contexts, which
train for ``coop`` and are frozen for the other prompt kinds; every other tensor
is created once, marked read-only, and hash-checked by the frozen-contract tests.
A checkpoint is a numpy ``.npz`` file of the parameters, plus any extra tensors
such as the optimizer's moments.
"""

from __future__ import annotations

import hashlib
import zipfile
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import autodiff as ag
from . import fusion as fusion_mod
from .adapter import (
    AdapterParams,
    attended_features,
    new_adapter_params,
    project_tokens,
)
from .backbone import Backbone, init_synthetic, seeded_weights, tensor_hash
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

_SEED_OFFSETS = {"encoder": 1000003, "prompts": 2000003, "adapters": 3000003, "cls": 4000003}


@dataclass
class FrozenActivations:
    """Per-image constants for the trainable path: adapter inputs + class token."""

    adapter_inputs: List[np.ndarray]  # 4 x (L, C_vis), post-attention for fwa
    class_token: np.ndarray
    image_hash: Optional[str] = None  # the image's cache key; None when not cached


@dataclass
class Prediction:
    anomaly_map: AnomalyMap
    image_score: float
    stage_features: List[np.ndarray]  # 4 x (L, C_text), unit-norm rows
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

    def frozen_forward(self, image: np.ndarray, cache_key: Optional[int] = None) -> FrozenActivations:
        """Backbone + (for fwa) frozen windowed attention; cacheable per image.

        Any non-None ``cache_key`` opts in to the cache. Entries are matched
        by the image itself (its ``tensor_hash``), never by the key, so a key
        reused for another image cannot return stale features. A cached
        entry carries that hash as its ``image_hash``.
        """
        if cache_key is not None:
            cache_key = tensor_hash(image)
            if cache_key in self._feature_cache:
                return self._feature_cache[cache_key]
        feats = self.backbone.forward(image)
        window = (self.config.window, self.config.window)
        inputs = []
        for stage in range(4):
            tokens = feats.stages[stage]
            if self.config.adapter_kind == "fwa":
                tokens = attended_features(
                    tokens,
                    self.backbone.stage_attention_weights(stage + 1),
                    self.grid,
                    window,
                    mode=self.config.attention_mode,
                )
            inputs.append(tokens)
        out = FrozenActivations(inputs, feats.class_token, image_hash=cache_key)
        if cache_key is not None:
            self._feature_cache[cache_key] = out
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

    # -------------------------------------------------------------- inference
    def predict(self, image: np.ndarray) -> Prediction:
        """Map, score and stage features as plain arrays; builds no autodiff graph."""
        acts = self.frozen_forward(image)
        text = self.text_features()
        stars = self._adapted(acts)
        cfg = self.config.fusion
        logits = fusion_mod.fuse(stars, text, cfg)
        size = self.backbone.config.image_size
        amap = fusion_mod.anomaly_map(logits, self.grid, (size, size), cfg)
        score = fusion_mod.image_score(acts.class_token, self.cls_proj, text)
        return Prediction(amap, float(score), stars, self.grid)

    def _adapted(self, acts: FrozenActivations) -> List[np.ndarray]:
        """The four adapted stage features, unit-norm (L, C_text) arrays."""
        pairs = zip(self.adapters, acts.adapter_inputs)
        return [project_tokens(a.weight.data, a.bias.data, x) for a, x in pairs]

    def build_memory_bank(self, images: Sequence[np.ndarray], ids=None) -> MemoryBank:
        """A bank of the images' stage features, which need no text features."""
        per_image = [self._adapted(self.frozen_forward(img)) for img in images]
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
        for i in range(4)
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
