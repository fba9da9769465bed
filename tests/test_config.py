"""Config plumbing: one table declares each key, section keys map onto their
dataclass, point values are checked."""

import re
from dataclasses import fields
from pathlib import Path
from typing import get_type_hints

import pytest

from coopguide.alignment import AlignmentConfig
from coopguide.config import (
    DEFAULTS,
    SCHEMA,
    ConfigError,
    build_config,
    coerce,
    format_value,
    load_config_file,
)
from coopguide.paths import REF_RATE
from coopguide.simulator import run_scenario

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


@pytest.mark.parametrize("section, cls", [
    ("alignment", AlignmentConfig),
])
def test_section_keys_name_dataclass_fields_with_equal_defaults(section, cls):
    # coerce parses a key by the type of its default, so that type must be
    # the field's declared type, and every field must be settable by a key
    hints = get_type_hints(cls)
    keys = {key[len(section) + 1:] for key in DEFAULTS if key.startswith(section + ".")}
    assert keys == {f.name for f in fields(cls)}
    for name in keys:
        assert type(DEFAULTS[f"{section}.{name}"]) is hints[name], name
    assert getattr(build_config(), section) == cls()


def test_section_key_overrides_its_field():
    config = build_config({"alignment.window": 7.0, "guider.realign_period": 3.0,
                           "alignment.estimate_drift": True})
    assert config.alignment.window == 7.0
    assert config["guider.realign_period"] == 3.0
    assert config.alignment.estimate_drift is True
    assert config.alignment.max_cost == AlignmentConfig().max_cost


def test_every_estimator_key_has_a_shipped_config_that_changes_it():
    # an alignment.* or guider.* setting stays a key only while a shipped
    # scenario needs a value other than its default; otherwise it is a
    # constant of its module
    shipped = [load_config_file(str(path)) for path in sorted((ROOT / "configs").glob("*.cfg"))]
    assert shipped
    for key, default in DEFAULTS.items():
        if key.startswith(("alignment.", "guider.")):
            assert any(key in values and values[key] != default for values in shipped), key


@pytest.mark.parametrize("path", sorted((ROOT / "configs").glob("*.cfg")),
                         ids=lambda path: path.name)
def test_every_shipped_config_and_sweep_value_builds(path):
    # a new range must not reject a shipped scenario or a value it sweeps
    overrides = load_config_file(str(path))
    config = build_config(overrides)
    for value in config["sweep.values"]:
        build_config({**overrides, config["sweep.parameter"]: value})


def _readme_rows():
    """(key, default text, valid text) of each key of the README config table.

    Rows such as vio_drift.x/y/z and detection.delay_mean / delay_jitter name
    one key per slash-separated part; a default or valid cell holds one part
    per key, or one part that the keys share.
    """
    rows = []
    for line in re.findall(r"^\| [a-z_]+\..*\|$", README.read_text(), re.M):
        names, *cells, _ = (cell.strip() for cell in line.strip("|").split("|"))
        section, _, names = names.partition(".")
        keys = [f"{section}.{name.strip()}" for name in names.split("/")]
        default, valid = ([part.strip() for part in cell.split(" / ")] for cell in cells)
        rows += zip(keys, default * len(keys) if len(default) == 1 else default,
                    valid * len(keys) if len(valid) == 1 else valid, strict=True)
    return rows


def test_readme_config_table_gives_each_key_default_and_range():
    for key, default, valid in _readme_rows():
        declared_default, declared_valid = SCHEMA[key]
        assert coerce(key, "" if default == "(empty)" else default) == declared_default, key
        if isinstance(declared_valid, tuple):
            declared_valid = ", ".join(declared_valid)
        assert valid == (declared_valid or ""), key


def test_readme_config_table_lists_every_key_once():
    keys = [key for key, _, _ in _readme_rows()]
    assert len(keys) == len(set(keys))
    assert set(keys) == set(DEFAULTS)


def test_readme_library_use_block_runs(capsys):
    # the block sets config keys by name, so a removed key would break it
    block = re.search(r"^## Library use\n\n```python\n(.*?)^```", README.read_text(),
                      re.M | re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    rmse, deviation, failure = capsys.readouterr().out.split()
    assert failure == "False"
    assert 0.0 < float(rmse) < 0.2 and 0.0 < float(deviation) < 0.5


@pytest.mark.parametrize("key", ["detection.rate", "vio.rate"])
def test_a_sensor_rate_above_the_tick_rate_is_a_config_error(key):
    # sensors sample on the tick grid, so a faster rate would be capped to
    # the tick rate while the config echo still named the faster one
    for rate in (60.0, 200.0):
        with pytest.raises(ConfigError, match=f"{key} must be at most scenario.tick_rate"):
            build_config({"scenario.tick_rate": 50.0, key: rate})
    assert build_config({"scenario.tick_rate": 50.0, key: 50.0})[key] == 50.0


def test_a_tick_rate_below_the_reference_rate_is_a_config_error():
    # references stream on the tick grid, so a slower tick would cap the
    # reference rate: a 10 s run at tick rate 2 logged 21 REF records, not 51
    for tick_rate in (2.0, 4.0, REF_RATE - 1e-9):
        with pytest.raises(ConfigError, match="scenario.tick_rate must be at least"):
            build_config({"scenario.tick_rate": tick_rate, "detection.rate": 2.0,
                          "vio.rate": 2.0})
    config = build_config({"scenario.tick_rate": REF_RATE, "detection.rate": 5.0,
                           "vio.rate": 5.0, "scenario.duration": 10.0})
    assert len(list(run_scenario(config).iter_tag("REF"))) == 51


@pytest.mark.parametrize("key, raw", [("trajectory.laps", 1.5), ("scenario.seed", 2.9)])
def test_integer_key_rejects_non_integral_number(key, raw):
    # int() would silently truncate the value
    with pytest.raises(ConfigError, match=key):
        build_config({key: raw})


def test_integer_key_accepts_integral_float():
    # sweep values are parsed as floats, so 2.0 must still mean 2
    value = build_config({"trajectory.laps": 2.0})["trajectory.laps"]
    assert value == 2 and type(value) is int


@pytest.mark.parametrize("key, raw", [
    ("false_targets.positions", "3.4,0.6"),
    ("false_targets.positions", "3.4,0.6,1.5; 2.0,6.8"),
    ("nlos.walls", "-4,-0.5,-1"),
    ("trajectory.waypoints", "0,0,1; 4,0"),
    ("vio.initial_offset", "1,2"),
    ("primary.center", "1,2"),
    ("trajectory.center", "0,3,1.5; 1,1,1"),
    ("primary.center", "1,2,nan"),
    ("nlos.walls", ((1.0, 2.0, 3.0),)),
])
def test_point_of_wrong_length_is_a_config_error(key, raw):
    with pytest.raises(ConfigError, match=key):
        build_config({key: raw})


@pytest.mark.parametrize("key, raw, text", [
    ("false_targets.positions", "3.4,0.6,1.5", "3.4,0.6,1.5"),
    ("false_targets.positions", "3.4,0.6,1.5; 2,6.8,1.5", "3.4,0.6,1.5;2.0,6.8,1.5"),
    ("false_targets.positions", (3.4, 0.6, 1.5), "3.4,0.6,1.5"),
    ("nlos.walls", "-4,-0.5,-1,-0.5", "-4.0,-0.5,-1.0,-0.5"),
    ("trajectory.waypoints", "0,0,1; 4,0,1", "0.0,0.0,1.0;4.0,0.0,1.0"),
    ("primary.center", "0,-4,3", "0.0,-4.0,3.0"),
])
def test_point_lists_coerce_to_groups_and_format_back(key, raw, text):
    value = coerce(key, raw)
    many = key not in ("primary.center", "trajectory.center", "vio.initial_offset")
    assert isinstance(value[0], tuple) == many
    assert format_value(value) == text
    assert coerce(key, text) == value
