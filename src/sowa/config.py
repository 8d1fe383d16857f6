"""Run configuration: one document for a whole run.

Every config object, here and in ``backbone`` (``BackboneConfig``), is a
frozen dataclass that checks itself on construction and raises
``ConfigError``, so an object that exists is valid and no function checks it
again. ``to_dict`` and ``config_from_dict`` convert to and from nested plain
dicts mirroring the dataclass layout below; unknown keys are rejected so
typos fail loudly.

Only what a run can vary is a field. The fixed settings are module
constants: the blocks per stage (``BLOCKS_PER_STAGE``), MLP ratio and input
normalisation in ``backbone``; the text encoder's heads, blocks and maximum
length in ``prompts``, where the text width and output width are the only
encoder settings here (``text_width``, ``c_text``); the fusion and
class-score temperatures in ``fusion`` (``TAU``, ``TAU_CLS``); and the loss
(equal dice, focal and BCE weights, ``FOCAL_GAMMA``, ``FOCAL_ALPHA``,
``DICE_EPS``) and Adam's ``BETA1``, ``BETA2`` and ``EPS`` in ``training``.
Every tensor is drawn from the run's ``seed`` by the one init rule,
``backbone.seeded_weights``. ``prompt_kind`` and ``prompt_length`` choose
the one (2, prompt_length, text_width) prompt contexts tensor
(``prompts.build_prompt_contexts``); a ``template``'s is (2, 4, text_width).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from .autodiff import ATTENTION_MODES
from .backbone import BackboneConfig
from .errors import ConfigError
from .numerics import check_float, check_integer
from .prompts import MAX_LEN, TEXT_HEADS

ADAPTER_KINDS = ("fwa", "linear")
PROMPT_KINDS = ("coop", "template")
IMAGE_SCORE_MODES = ("cls", "max_map")


@dataclass(frozen=True)
class OptimSection:
    lr: float = 1e-3
    batch_size: int = 8

    def __post_init__(self):
        check_float(self.lr, "lr", 0.0, error=ConfigError, low_open=True)
        check_integer(self.batch_size, "batch_size", 1, ConfigError)


_SECTION_TYPES = {
    "backbone": BackboneConfig,
    "optim": OptimSection,
}


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    adapter_kind: str = "fwa"
    attention_mode: str = "vv"
    window: int = 4
    prompt_kind: str = "coop"
    prompt_length: int = 12  # l of the (2, l, text_width) contexts; ``template`` ignores it
    c_text: int = 32
    text_width: int = 32
    image_score_mode: str = "max_map"
    few_shot_beta: float = 0.5
    backbone: BackboneConfig = field(default_factory=BackboneConfig)
    optim: OptimSection = field(default_factory=OptimSection)

    def __post_init__(self):
        for name, cls in _SECTION_TYPES.items():
            if not isinstance(getattr(self, name), cls):
                raise ConfigError(f"{name} must be {cls.__name__}, got {getattr(self, name)!r}")
        for name, minimum in (("seed", 0), ("window", 1), ("prompt_length", 1), ("c_text", 2),
                              ("text_width", 2)):
            check_integer(getattr(self, name), name, minimum, ConfigError)
        if self.adapter_kind not in ADAPTER_KINDS:
            raise ConfigError(f"adapter_kind must be one of {ADAPTER_KINDS}")
        if self.attention_mode not in ATTENTION_MODES:
            raise ConfigError(f"attention_mode must be one of {ATTENTION_MODES}")
        if self.prompt_kind not in PROMPT_KINDS:
            raise ConfigError(f"prompt_kind must be one of {PROMPT_KINDS}")
        if self.image_score_mode not in IMAGE_SCORE_MODES:
            raise ConfigError(f"image_score_mode must be one of {IMAGE_SCORE_MODES}")
        if self.backbone.grid % self.window != 0:
            raise ConfigError(
                f"window {self.window} does not tile the "
                f"{self.backbone.grid}x{self.backbone.grid} token grid"
            )
        if self.text_width % TEXT_HEADS != 0:
            raise ConfigError(f"text_width {self.text_width} not divisible by heads {TEXT_HEADS}")
        # context + branch anchor + "object"; a template's contexts are its 4 words
        if self.prompt_kind != "template" and self.prompt_length + 2 > MAX_LEN:
            raise ConfigError(f"prompt_length {self.prompt_length} + 2 anchors > max_len {MAX_LEN}")
        check_float(self.few_shot_beta, "few_shot_beta", 0.0, 1.0, ConfigError)

    def to_dict(self) -> Dict:
        """Nested plain dicts of Python values: numpy scalars become their ``item()``."""
        return dataclasses.asdict(self, dict_factory=lambda items: {
            k: v.item() if isinstance(v, np.generic) else v for k, v in items})


def _build_section(cls, data: Dict, context: str):
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - set(fields))
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r} in {context}")
    try:
        return cls(**data)
    except TypeError as exc:
        raise ConfigError(f"bad {context} section: {exc}") from exc


def config_from_dict(data: Dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError(f"config document must be an object, got {type(data).__name__}")
    top_fields = {f.name for f in dataclasses.fields(RunConfig)}
    unknown = sorted(set(data) - top_fields)
    if unknown:
        raise ConfigError(f"unknown config key {unknown[0]!r}")
    kwargs = dict(data)
    for name, cls in _SECTION_TYPES.items():
        if isinstance(kwargs.get(name), dict):  # any other value fails RunConfig's type check
            kwargs[name] = _build_section(cls, kwargs[name], name)
    try:
        return RunConfig(**kwargs)
    except TypeError as exc:
        raise ConfigError(f"bad config: {exc}") from exc


def default_config(seed: int = 0, **overrides) -> RunConfig:
    """Defaults plus keyword overrides."""
    data = {"seed": seed}
    data.update(overrides)
    return config_from_dict(data)
