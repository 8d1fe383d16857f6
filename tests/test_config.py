"""Config objects are valid on construction: every invalid one raises
``ConfigError`` as it is built, including a window that does not tile the
token grid and text settings the encoder cannot take, and the serialized
default document round-trips."""

import json

import numpy as np
import pytest

from sowa.backbone import BackboneConfig
from sowa.config import OptimSection, RunConfig, config_from_dict, default_config
from sowa.errors import ConfigError
from sowa.model import build_model
from sowa.prompts import MAX_LEN
from sowa.synth import PatternSpec

DEFAULT_DOCUMENT = {
    "seed": 0, "adapter_kind": "fwa", "attention_mode": "vv", "window": 4,
    "prompt_kind": "coop", "prompt_length": 12, "c_text": 32, "text_width": 32,
    "image_score_mode": "max_map", "few_shot_beta": 0.5,
    "backbone": {"image_size": 64, "patch_size": 8, "channels": 64, "heads": 4},
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
        lambda: RunConfig(prompt_kind="fixed_pair"),
        lambda: RunConfig(attention_mode="qk"),
        lambda: RunConfig(image_score_mode="mean_map"),
        lambda: RunConfig(c_text=1),
        lambda: RunConfig(prompt_length=0),
        lambda: RunConfig(optim=None),
        lambda: RunConfig(optim={"lr": 0.1}),
        lambda: RunConfig(backbone={"image_size": 64}),
        lambda: RunConfig(backbone=OptimSection()),
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
    assert build_model(template).prompt_contexts.shape[:2] == (2, 4)
    with pytest.raises(ConfigError, match=f"prompt_length {max_len}"):
        default_config(prompt_kind="coop", prompt_length=max_len)


def test_bad_section_values_in_a_document_are_config_errors():
    with pytest.raises(ConfigError, match="unknown config key 'fusion'"):
        config_from_dict({"fusion": {"alpha": [1.0, 1.0, 1.0, 1.0]}})
    with pytest.raises(ConfigError):
        config_from_dict({"window": "4"})
    with pytest.raises(ConfigError, match="unknown key 'stages' in backbone"):
        config_from_dict({"backbone": {"stages": 4}})
    for section in ("backbone", "optim"):
        with pytest.raises(ConfigError, match=section):
            config_from_dict({section: [0.1]})


@pytest.mark.parametrize("seed", [-1, 1.5, True, "7", None, float("nan")])
def test_a_seed_that_is_not_a_non_negative_integer_is_a_config_error(seed):
    with pytest.raises(ConfigError, match="seed"):
        default_config(seed=seed)
    with pytest.raises(ConfigError, match="seed"):
        PatternSpec(seed=seed)
    assert default_config(seed=np.int64(3)).seed == PatternSpec(seed=np.uint32(3)).seed == 3


@pytest.mark.parametrize("field, value", [
    ("backbone.heads", 0), ("backbone.heads", -4), ("backbone.channels", 0),
    ("backbone.image_size", 64.0), ("window", 4.0),
    ("c_text", 32.0), ("prompt_length", 3.5), ("optim.batch_size", 2.5),
    ("pattern.octaves", 1.5), ("pattern.base_cells", 4.0),
])
def test_an_integer_field_that_is_not_an_integer_in_range_is_a_config_error(field, value):
    section, _, name = field.rpartition(".")
    with pytest.raises(ConfigError, match=name):
        if section == "pattern":
            PatternSpec(**{name: value})
        else:
            default_config(**({section: {name: value}} if section else {name: value}))


@pytest.mark.parametrize("make, name", [
    (lambda v: OptimSection(lr=v), "lr"),
    (lambda v: RunConfig(few_shot_beta=v), "few_shot_beta"),
    (lambda v: PatternSpec(amplitude=v), "amplitude"),
])
@pytest.mark.parametrize("value", ["0.1", None, True, np.bool_(True), float("inf"), [0.5]])
def test_a_float_field_that_is_not_a_finite_number_is_a_config_error(make, name, value):
    with pytest.raises(ConfigError, match=name):
        make(value)


def test_float_fields_take_integers_and_numpy_floats():
    assert OptimSection(lr=1).lr == 1
    assert RunConfig(few_shot_beta=np.float32(0.25)).few_shot_beta == 0.25
    assert PatternSpec(amplitude=0).amplitude == 0


def test_numpy_scalar_fields_give_a_json_document_that_round_trips():
    config = RunConfig(seed=np.int64(3), few_shot_beta=np.float32(0.1),
                       backbone=BackboneConfig(heads=np.int32(4)),
                       optim=OptimSection(lr=np.float32(0.01)))
    document = json.loads(json.dumps(config.to_dict()))
    assert config_from_dict(document) == config
    assert hash(config_from_dict(document)) == hash(config)


def test_fixed_settings_are_not_config_keys():
    for document in ({"loss": {"dice": 1.0}}, {"fusion": {"tau": 1.0}}, {"optim": {"beta2": 0.9}},
                     {"stage_weights": [1.0] * 4}, {"backbone": {"blocks_per_stage": 2}}):
        with pytest.raises(ConfigError, match="unknown"):
            config_from_dict(document)
    leaves = [v for section in default_config().to_dict().values()
              for v in (section.values() if isinstance(section, dict) else [section])]
    assert len(leaves) == 16
