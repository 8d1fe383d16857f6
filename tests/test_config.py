"""Config objects are valid on construction: every invalid one raises
``ConfigError`` as it is built, including a window that does not tile the
token grid and text settings the encoder cannot take, and the serialized
default document round-trips."""

import json

import pytest

from sowa.backbone import BackboneConfig
from sowa.config import OptimSection, RunConfig, config_from_dict, default_config
from sowa.errors import ConfigError
from sowa.fusion import FusionConfig
from sowa.model import build_model
from sowa.prompts import MAX_LEN
from sowa.synth import PatternSpec

DEFAULT_DOCUMENT = {
    "seed": 0, "adapter_kind": "fwa", "attention_mode": "vv", "window": 4,
    "prompt_kind": "coop", "prompt_length": 12, "c_text": 32, "text_width": 32,
    "image_score_mode": "max_map", "few_shot_beta": 0.5,
    "backbone": {"image_size": 64, "patch_size": 8, "channels": 64, "blocks_per_stage": 2,
                 "heads": 4},
    "fusion": {"alpha": [1.0, 1.0, 1.0, 1.0], "sigma": 0.0},
    "optim": {"lr": 0.001, "batch_size": 8},
}


def test_default_document_is_stable_and_round_trips():
    config = default_config(seed=0)
    assert json.dumps(config.to_dict()) == json.dumps(DEFAULT_DOCUMENT)
    assert config_from_dict(config.to_dict()) == config


def test_window_that_does_not_tile_the_grid_is_a_config_error():
    with pytest.raises(ConfigError, match="window 3 does not tile the 8x8 token grid"):
        default_config(window=3)
    document = dict(DEFAULT_DOCUMENT, window=4, backbone={"image_size": 224, "patch_size": 16})
    with pytest.raises(ConfigError, match="14x14"):
        config_from_dict(document)
    assert config_from_dict(dict(document, window=7)).window == 7


@pytest.mark.parametrize(
    "make",
    [
        lambda: FusionConfig(alpha=(1.0, 1.0, 1.0)),
        lambda: FusionConfig(alpha=(1.0, 1.0, 1.0, float("nan"))),
        lambda: FusionConfig(sigma=-1.0),
        lambda: BackboneConfig(patch_size=0),
        lambda: PatternSpec(octaves=0),
        lambda: PatternSpec(base_cells=1),
        lambda: OptimSection(lr=0.0),
        lambda: OptimSection(lr=float("nan")),
        lambda: OptimSection(batch_size=0),
        lambda: BackboneConfig(image_size=60),
        lambda: BackboneConfig(channels=30),
        lambda: RunConfig(adapter_kind="mlp"),
        lambda: RunConfig(few_shot_beta=1.5),
        lambda: RunConfig(window=0),
        lambda: RunConfig(window=3),
        lambda: RunConfig(text_width=30),
        lambda: PatternSpec(kind="scratch"),
        lambda: PatternSpec(amplitude=2.0),
        lambda: RunConfig(prompt_kind="soft"),
        lambda: RunConfig(attention_mode="qk"),
        lambda: RunConfig(image_score_mode="mean_map"),
        lambda: RunConfig(c_text=1),
        lambda: RunConfig(prompt_length=0),
    ],
)
def test_invalid_config_object_rejected_on_construction(make):
    with pytest.raises(ConfigError):
        make()


def test_text_settings_the_encoder_cannot_take_are_config_errors():
    # the encoder reads prompt_length context tokens plus two anchors
    with pytest.raises(ConfigError, match="prompt_length 31"):
        default_config(prompt_length=31)
    assert default_config(prompt_length=30).prompt_length == 30
    with pytest.raises(ConfigError, match="width 6 not divisible by heads 4"):
        default_config(text_width=6)


def test_prompt_length_is_bounded_only_for_kinds_with_that_many_contexts():
    max_len = MAX_LEN
    template = default_config(prompt_kind="template", prompt_length=max_len)
    assert build_model(template).prompt_pair.normal_context.shape[0] == 4
    for kind in ("coop", "fixed_pair"):
        with pytest.raises(ConfigError, match=f"prompt_length {max_len}"):
            default_config(prompt_kind=kind, prompt_length=max_len)


def test_bad_section_values_in_a_document_are_config_errors():
    with pytest.raises(ConfigError):
        config_from_dict({"fusion": {"sigma": -1.0}})
    with pytest.raises(ConfigError):
        config_from_dict({"window": "4"})
    with pytest.raises(ConfigError, match="unknown key 'stages' in backbone"):
        config_from_dict({"backbone": {"stages": 4}})


def test_fixed_settings_are_not_config_keys():
    for document in ({"loss": {"dice": 1.0}}, {"fusion": {"tau": 1.0}}, {"optim": {"beta2": 0.9}}):
        with pytest.raises(ConfigError, match="unknown"):
            config_from_dict(document)
    leaves = [v for section in default_config().to_dict().values()
              for v in (section.values() if isinstance(section, dict) else [section])]
    assert len(leaves) == 19
