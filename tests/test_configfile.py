from dataclasses import dataclass, fields

import numpy as np
import pytest

from bridgediff import configfile
from bridgediff.configfile import UsageError, build_train_config, resolve_dataset
from bridgediff.data import gen_binary_patterns, gen_joint_gaussian, gen_two_moons_paired
from bridgediff.oracle import JointGaussianSpec
from bridgediff.training import TrainConfig


def _as_text(value) -> str:
    if value is None:
        return ""
    if isinstance(value, tuple):
        return ",".join(map(str, value))
    return str(value)


def test_every_field_is_a_key_and_its_default_round_trips():
    default = TrainConfig(seed=5)
    raw = {f.name: _as_text(getattr(default, f.name))
           for f in fields(TrainConfig) if f.name != "gen_params"}
    assert len(raw) == len(fields(TrainConfig)) - 1
    assert build_train_config(raw) == default


def test_field_type_without_parser_fails():
    @dataclass
    class WithSet:
        seed: int
        tags: set

    with pytest.raises(TypeError, match="WithSet.tags"):
        configfile._key_parsers(WithSet)


@pytest.mark.parametrize("raw,message", [
    ({}, "config must set 'seed'"),
    ({"seed": "1", "typo": "2"}, "unknown config key 'typo'"),
    ({"seed": "1", "gen_zzz": "2"}, "unknown config key 'gen_zzz'"),
    ({"seed": "x"}, "bad value for 'seed': 'x'"),
    ({"seed": "1", "gen_n": "1.5"}, "bad value for 'gen_n': '1.5'"),
    ({"seed": "1", "weighted_loss": "maybe"}, "expected a boolean, got 'maybe'"),
    ({"seed": "1", "hidden": "4,x"}, "expected a comma-separated integer list, got '4,x'"),
    ({"seed": "1", "T": "1"}, "T must be >= 2, got 1"),
])
def test_config_errors(raw, message):
    with pytest.raises(UsageError) as info:
        build_train_config(raw)
    assert str(info.value) == message


@pytest.mark.parametrize("raw,message", [
    ({"seed": "1"}, "config must set either 'dataset' or 'generator'"),
    ({"seed": "1", "generator": "two_moons", "dataset": "d.csv"},
     "set either 'dataset' or 'generator', not both"),
    ({"seed": "1", "generator": "spiral"},
     "unknown generator 'spiral'; known: ['binary_patterns', 'joint_gaussian', 'two_moons']"),
    ({"seed": "1", "generator": "two_moons", "gen_side": "3", "gen_dim": "2"},
     "generator 'two_moons' does not take gen_dim"),
    ({"seed": "1", "generator": "two_moons", "gen_noise_sd": "-1"},
     "generator 'two_moons': noise_sd must be non-negative, got -1.0"),
    ({"seed": "1", "generator": "joint_gaussian", "gen_var0": "0"},
     "generator 'joint_gaussian': var0 must be finite and positive, got 0.0"),
    ({"seed": "1", "dataset": "d.csv", "gen_n": "5"},
     "gen_n needs 'generator'; this config sets 'dataset'"),
])
def test_dataset_errors(raw, message):
    with pytest.raises(UsageError) as info:
        resolve_dataset(build_train_config(raw))
    assert str(info.value) == message


@pytest.mark.parametrize("name,direct", [
    ("joint_gaussian", lambda: gen_joint_gaussian(JointGaussianSpec(), dim=1, n=10000, seed=3)),
    ("two_moons", lambda: gen_two_moons_paired(n=10000, noise_sd=0.05, seed=3)),
    ("binary_patterns", lambda: gen_binary_patterns(n=10000, side=4, flip_prob=0.0, seed=3)),
])
def test_generator_defaults(name, direct):
    configured = resolve_dataset(build_train_config({"seed": "3", "generator": name}))
    expected = direct()
    assert np.array_equal(configured.x0, expected.x0)
    assert np.array_equal(configured.y, expected.y)
    assert configured.params == expected.params
