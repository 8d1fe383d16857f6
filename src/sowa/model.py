"""Full model assembly: frozen backbone, four window-attention adapters with
injected frozen weights, the dual-prompt text path, and fusion into maps and
scores.

Only the adapter projections and (in ``coop`` prompt mode) the two context
sequences are trainable; every other tensor is created once, marked
read-only, and hash-checked by the frozen-contract tests.
"""

from __future__ import annotations

import hashlib
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
from .archive import archive_read, archive_write
from .backbone import Backbone, init_synthetic, tensor_hash
from .config import RunConfig
from .errors import WeightsError
from .fewshot import MemoryBank, build_memory_bank
from .fusion import AnomalyMap
from .prompts import (
    FrozenTextEncoder,
    PromptPair,
    TextEncoderConfig,
    build_prompt_pair,
    build_text_encoder,
    encode_prompts,  # noqa: F401  not called here; perfbench/tracer.py looks it up in this module
    encode_text,
    fixed_template_features,
)

_SEED_OFFSETS = {"encoder": 1000003, "prompts": 2000003, "adapters": 3000003, "cls": 4000003}


@dataclass
class FrozenActivations:
    """Per-image constants for the trainable path: adapter inputs + class token."""

    adapter_inputs: List[np.ndarray]  # 4 x (L, C_vis), post-attention for fwa
    class_token: np.ndarray


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
    fixed_text: Optional[np.ndarray] = None
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
        reused for another image cannot return stale features.
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
        out = FrozenActivations(adapter_inputs=inputs, class_token=feats.class_token)
        if cache_key is not None:
            self._feature_cache[cache_key] = out
        return out

    def clear_cache(self) -> None:
        self._feature_cache.clear()

    # ------------------------------------------------------------- trainable
    def trainable(self) -> Dict[str, ag.Var]:
        params: Dict[str, ag.Var] = {}
        for i, adapter in enumerate(self.adapters):
            params[f"adapter.{i}.weight"] = adapter.weight
            params[f"adapter.{i}.bias"] = adapter.bias
        if self.config.prompt_kind == "coop":
            params["prompt.normal_context"] = self.prompt_pair.normal_context
            params["prompt.abnormal_context"] = self.prompt_pair.abnormal_context
        return params

    def text_features(self) -> np.ndarray:
        """The (2, C_text) text features; row 0 normal, row 1 abnormal.

        A ``coop`` encoding is kept, read-only, keyed on the contents of the
        two contexts: in-place edits and rebinding both re-encode.
        """
        if self.config.prompt_kind != "coop":
            assert self.fixed_text is not None
            return self.fixed_text
        pair = self.prompt_pair
        key = tensor_hash(pair.normal_context.data) + tensor_hash(pair.abnormal_context.data)
        if self._text_cache is None or self._text_cache[0] != key:
            text = encode_text(pair, self.encoder)
            text.setflags(write=False)
            self._text_cache = (key, text)
        return self._text_cache[1]

    # -------------------------------------------------------------- inference
    def predict(self, image: np.ndarray, cache_key: Optional[int] = None) -> Prediction:
        """Map, score and stage features as plain arrays; builds no autodiff graph."""
        acts = self.frozen_forward(image, cache_key=cache_key)
        text = self.text_features()
        stars = self._adapted(acts)
        cfg = self.config.fusion
        logits = fusion_mod.fuse(stars, text, cfg)
        size = self.backbone.config.image_size
        amap = fusion_mod.anomaly_map(logits, self.grid, (size, size), cfg)
        score = fusion_mod.image_score(acts.class_token, self.cls_proj, text, cfg)
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
        return {name: var.data.copy() for name, var in self.trainable().items()}

    def save_checkpoint(self, path, extra: Optional[Dict[str, np.ndarray]] = None) -> None:
        tensors = self.state_tensors()
        # contexts are persisted even when frozen so checkpoints are complete
        tensors.setdefault("prompt.normal_context", self.prompt_pair.normal_context.data.copy())
        tensors.setdefault("prompt.abnormal_context", self.prompt_pair.abnormal_context.data.copy())
        if extra:
            tensors.update(extra)
        archive_write(path, tensors)

    def load_checkpoint(self, path) -> Dict[str, np.ndarray]:
        """Bind trainable tensors from an archive; returns leftover entries."""
        tensors = archive_read(path)
        targets = dict(self.trainable())
        targets.setdefault("prompt.normal_context", self.prompt_pair.normal_context)
        targets.setdefault("prompt.abnormal_context", self.prompt_pair.abnormal_context)
        for name, var in targets.items():
            if name not in tensors:
                raise WeightsError(f"checkpoint missing tensor {name!r}")
            arr = tensors.pop(name)
            if arr.shape != var.data.shape:
                raise WeightsError(
                    f"checkpoint tensor {name!r} has shape {arr.shape}, "
                    f"expected {var.data.shape}"
                )
            var.data = arr.astype(numerics.default_dtype())
        if self.config.prompt_kind == "fixed_pair":
            self.fixed_text = fixed_template_features(self.encoder, "fixed_pair", self.prompt_pair)
            self.fixed_text.setflags(write=False)
        self.clear_cache()
        return tensors


def build_model(config: RunConfig) -> SowaModel:
    """Construct the full model from a run configuration."""
    seed = config.seed
    backbone = init_synthetic(config.backbone, seed)
    encoder = build_text_encoder(
        TextEncoderConfig(
            width=config.text_width,
            c_text=config.c_text,
            seed=seed + _SEED_OFFSETS["encoder"],
        )
    )
    pair = build_prompt_pair(config.prompt_length, seed + _SEED_OFFSETS["prompts"], encoder)
    adapters = [
        new_adapter_params(
            config.backbone.channels, config.c_text, seed=seed + _SEED_OFFSETS["adapters"] + i
        )
        for i in range(4)
    ]
    rng = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(seed + _SEED_OFFSETS["cls"]))
    )
    cls_proj = rng.normal(
        0.0, 1.0 / np.sqrt(config.backbone.channels), size=(config.backbone.channels, config.c_text)
    ).astype(numerics.default_dtype())
    cls_proj.setflags(write=False)

    fixed_text = None
    if config.prompt_kind == "template":
        fixed_text = fixed_template_features(encoder, "template")
    elif config.prompt_kind == "fixed_pair":
        fixed_text = fixed_template_features(encoder, "fixed_pair", pair)
    if fixed_text is not None:
        fixed_text.setflags(write=False)
    return SowaModel(
        config=config,
        backbone=backbone,
        encoder=encoder,
        adapters=adapters,
        prompt_pair=pair,
        cls_proj=cls_proj,
        fixed_text=fixed_text,
    )
