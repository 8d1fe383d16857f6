"""Run configuration: one document for a whole run.

Every config object, here and in the modules that own a section
(``BackboneConfig``, ``FusionConfig``), is a frozen dataclass that checks
itself on construction and raises ``ConfigError``, so an object that exists
is valid and no function checks it again. ``to_dict`` and
``config_from_dict`` convert to and from nested plain dicts mirroring the
dataclass layout below; unknown keys are rejected so typos fail loudly.

Only what a run can vary is a field. The fixed settings are module
constants: the MLP ratio and input normalisation in ``backbone``; the text
encoder's heads, blocks and maximum length in ``prompts``, where the text
width and output width are the only text settings here (``text_width``,
``c_text``); the fusion and class-score temperatures in ``fusion``
(``TAU``, ``TAU_CLS``); and the loss (equal dice, focal and BCE weights,
``FOCAL_GAMMA``, ``FOCAL_ALPHA``, ``DICE_EPS``) and Adam's ``BETA1``,
``BETA2`` and ``EPS`` in ``training``. Every tensor is drawn from the run's
``seed`` by the one init rule, ``backbone.seeded_weights``.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Dict

from .autodiff import ATTENTION_MODES
from .backbone import BackboneConfig
from .errors import ConfigError
from .fusion import FusionConfig
from .prompts import MAX_LEN, TEXT_HEADS

ADAPTER_KINDS = ("fwa", "linear")
PROMPT_KINDS = ("coop", "template", "fixed_pair")
IMAGE_SCORE_MODES = ("cls", "max_map")


@dataclass(frozen=True)
class OptimSection:
    lr: float = 1e-3
    batch_size: int = 8

    def __post_init__(self):
        if not 0 < self.lr < math.inf:
            raise ConfigError(f"lr must be positive and finite, got {self.lr}")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    adapter_kind: str = "fwa"
    attention_mode: str = "vv"
    window: int = 4
    prompt_kind: str = "coop"
    prompt_length: int = 12  # context vectors per branch; ``template`` ignores it
    c_text: int = 32
    text_width: int = 32
    image_score_mode: str = "max_map"
    few_shot_beta: float = 0.5
    backbone: BackboneConfig = field(default_factory=BackboneConfig)
    fusion: FusionConfig = field(default_factory=FusionConfig)
    optim: OptimSection = field(default_factory=OptimSection)

    def __post_init__(self):
        if self.adapter_kind not in ADAPTER_KINDS:
            raise ConfigError(f"adapter_kind must be one of {ADAPTER_KINDS}")
        if self.attention_mode not in ATTENTION_MODES:
            raise ConfigError(f"attention_mode must be one of {ATTENTION_MODES}")
        if self.prompt_kind not in PROMPT_KINDS:
            raise ConfigError(f"prompt_kind must be one of {PROMPT_KINDS}")
        if self.image_score_mode not in IMAGE_SCORE_MODES:
            raise ConfigError(f"image_score_mode must be one of {IMAGE_SCORE_MODES}")
        if self.prompt_length < 1:
            raise ConfigError("prompt_length must be >= 1")
        if self.window < 1 or self.backbone.grid % self.window != 0:
            raise ConfigError(
                f"window {self.window} does not tile the "
                f"{self.backbone.grid}x{self.backbone.grid} token grid"
            )
        if self.c_text < 2 or self.text_width < 2:
            raise ConfigError("c_text and text_width must be >= 2")
        if self.text_width % TEXT_HEADS != 0:
            raise ConfigError(f"text_width {self.text_width} not divisible by heads {TEXT_HEADS}")
        # context + branch anchor + "object"; a template's contexts are its 4 words
        if self.prompt_kind != "template" and self.prompt_length + 2 > MAX_LEN:
            raise ConfigError(f"prompt_length {self.prompt_length} + 2 anchors > max_len {MAX_LEN}")
        if not 0.0 <= self.few_shot_beta <= 1.0:
            raise ConfigError("few_shot_beta must lie in [0, 1]")

    def to_dict(self) -> Dict:
        def convert(obj):
            if dataclasses.is_dataclass(obj):
                return {k: convert(v) for k, v in dataclasses.asdict(obj).items()}
            if isinstance(obj, tuple):
                return list(obj)
            return obj

        return convert(self)


_SECTION_TYPES = {
    "backbone": BackboneConfig,
    "fusion": FusionConfig,
    "optim": OptimSection,
}


def _build_section(cls, data: Dict, context: str):
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - set(fields))
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r} in {context}")
    kwargs = {}
    for name, value in data.items():
        if isinstance(value, list):
            value = tuple(value)
        kwargs[name] = value
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise ConfigError(f"bad {context} section: {exc}") from exc


def config_from_dict(data: Dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError(f"config document must be an object, got {type(data).__name__}")
    top_fields = {f.name for f in dataclasses.fields(RunConfig)}
    unknown = sorted(set(data) - top_fields)
    if unknown:
        raise ConfigError(f"unknown config key {unknown[0]!r}")
    kwargs = {}
    for name, value in data.items():
        if name in _SECTION_TYPES:
            if not isinstance(value, dict):
                raise ConfigError(f"section {name!r} must be an object")
            kwargs[name] = _build_section(_SECTION_TYPES[name], value, name)
        else:
            kwargs[name] = value
    try:
        return RunConfig(**kwargs)
    except TypeError as exc:
        raise ConfigError(f"bad config: {exc}") from exc


def default_config(seed: int = 0, **overrides) -> RunConfig:
    """Defaults plus keyword overrides."""
    data = {"seed": seed}
    data.update(overrides)
    return config_from_dict(data)
