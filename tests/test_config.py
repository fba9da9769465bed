"""Config plumbing: the alignment/tracker/guider keys map onto their dataclasses."""

from dataclasses import fields

import pytest

from coopguide.alignment import AlignmentConfig
from coopguide.config import DEFAULTS, build_config
from coopguide.guider import GuiderConfig
from coopguide.tracker import TrackerConfig


@pytest.mark.parametrize("section, cls", [
    ("alignment", AlignmentConfig),
    ("tracker", TrackerConfig),
    ("guider", GuiderConfig),
])
def test_section_keys_name_dataclass_fields_with_equal_defaults(section, cls):
    # a misspelt key would name no field and be silently ignored
    field_defaults = {f.name: f.default for f in fields(cls)}
    keys = [key for key in DEFAULTS if key.startswith(section + ".")]
    assert keys
    for key in keys:
        name = key[len(section) + 1:]
        assert name in field_defaults, f"{key} names no field of {cls.__name__}"
        assert DEFAULTS[key] == field_defaults[name], key
        assert type(DEFAULTS[key]) is type(field_defaults[name]), key
    assert getattr(build_config(), section) == cls()


def test_section_key_overrides_its_field():
    config = build_config({"alignment.window": 7.0, "tracker.euclid_gate": 3.0,
                           "guider.reinit_reject_limit": 5})
    assert config.alignment.window == 7.0
    assert config.tracker.euclid_gate == 3.0
    assert config.guider.reinit_reject_limit == 5
    assert config.alignment.max_cost == AlignmentConfig().max_cost
