"""Flat ``key = value`` run configuration files.

UTF-8 text, one assignment per line, ``#`` starts a comment, blank lines
ignored. Unknown keys, and a key set twice in one file, are rejected so
typos fail loudly. The same format feeds ``--set key=value`` command-line
overrides, applied after the file; a key given twice there is rejected too.
"""

from __future__ import annotations

from dataclasses import MISSING, fields
from pathlib import Path
from typing import get_type_hints

from .data import GENERATORS, PairedDataset, load as load_dataset, read_line
from .training import TrainConfig


class UsageError(Exception):
    """Bad invocation or configuration; maps to exit code 2."""


def _parse_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise UsageError(f"expected a boolean, got {raw!r}")


def _parse_int_tuple(raw: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in raw.split(",") if part.strip())
    except ValueError as exc:
        raise UsageError(f"expected a comma-separated integer list, got {raw!r}") from exc


# One parser per field type a config key can have. An empty optional
# string is its default, None.
_PARSERS = {
    int: int,
    float: float,
    bool: _parse_bool,
    tuple[int, ...]: _parse_int_tuple,
    str | None: lambda raw: raw or None,
}


def _key_parsers(cls) -> dict:
    """Config key -> parser for every field of the dataclass ``cls``
    except ``gen_params``, which collects the ``gen_<param>`` keys. A field
    type with no parser is an error here, at import, rather than a key
    that silently vanishes."""
    hints = get_type_hints(cls)
    parsers = {}
    for f in fields(cls):
        if f.name == "gen_params":
            continue
        if hints[f.name] not in _PARSERS:
            raise TypeError(f"no config parser for {cls.__name__}.{f.name}: {hints[f.name]}")
        parsers[f.name] = _PARSERS[hints[f.name]]
    return parsers


_KEYS = _key_parsers(TrainConfig)
_REQUIRED = [f.name for f in fields(TrainConfig)
             if f.default is MISSING and f.default_factory is MISSING]
_GEN_KEYS = {
    f"gen_{name}": _PARSERS[type(default)]
    for defaults, _ in GENERATORS.values()
    for name, default in defaults.items()
}


def parse_kv_file(path) -> dict[str, str]:
    path = Path(path)
    if not path.exists():
        raise UsageError(f"config file not found: {path}")
    out: dict[str, str] = {}
    first: dict[str, int] = {}  # key -> the line that set it
    with open(path, "rb") as f:
        for lineno, _ in enumerate(iter(lambda: f.peek(1), b""), start=1):
            raw = read_line(f, path, lineno)  # names a line that is not UTF-8
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise UsageError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            if (key := key.strip()) in first:
                raise UsageError(f"{path}:{lineno}: {key!r} is already set on line {first[key]}")
            out[key], first[key] = value.strip(), lineno
    return out


def apply_overrides(raw: dict[str, str], overrides: list[str]) -> dict[str, str]:
    """``raw`` with each ``key=value`` of ``overrides`` set over it. A key
    may override the file's value, but given twice in ``overrides`` it is
    rejected, as a key set twice in the file is."""
    merged, given = dict(raw), set()
    for item in overrides:
        key, sep, value = item.partition("=")
        if not sep:
            raise UsageError(f"override must be key=value, got {item!r}")
        if (key := key.strip()) in given:
            raise UsageError(f"--set {key!r} is given more than once")
        given.add(key)
        merged[key] = value.strip()
    return merged


def build_train_config(raw: dict[str, str]) -> TrainConfig:
    """Validate raw key/value strings into a TrainConfig."""
    values: dict = {}
    gen_params: dict = {}
    for key, value in raw.items():
        if key in _KEYS:
            parse, into, name = _KEYS[key], values, key
        elif key in _GEN_KEYS:
            parse, into, name = _GEN_KEYS[key], gen_params, key[4:]
        else:
            raise UsageError(f"unknown config key {key!r}")
        try:
            into[name] = parse(value)
        except (ValueError, TypeError) as exc:
            raise UsageError(f"bad value for {key!r}: {value!r}") from exc
    for key in _REQUIRED:
        if key not in values:
            raise UsageError(f"config must set {key!r}")
    try:
        return TrainConfig(**values, gen_params=gen_params)
    except (ValueError, TypeError) as exc:
        raise UsageError(str(exc)) from exc


def resolve_dataset(config: TrainConfig) -> PairedDataset:
    """Load the configured dataset file or run the configured generator."""
    if config.dataset and config.generator:
        raise UsageError("set either 'dataset' or 'generator', not both")
    if config.dataset:
        if config.gen_params:
            raise UsageError(
                f"gen_{sorted(config.gen_params)[0]} needs 'generator'; this config sets 'dataset'"
            )
        path = Path(config.dataset)
        if not path.exists():
            raise UsageError(f"'dataset' points to a missing file: {path}")
        try:
            return load_dataset(path)
        except ValueError as exc:
            raise UsageError(f"could not load dataset {path}: {exc}") from exc
    if not config.generator:
        raise UsageError("config must set either 'dataset' or 'generator'")
    if config.generator not in GENERATORS:
        raise UsageError(
            f"unknown generator {config.generator!r}; known: {sorted(GENERATORS)}"
        )
    defaults, build = GENERATORS[config.generator]
    extra = set(config.gen_params) - set(defaults)
    if extra:
        raise UsageError(
            f"generator {config.generator!r} does not take gen_{sorted(extra)[0]}"
        )
    try:
        return build(seed=config.seed, **{**defaults, **config.gen_params})
    except ValueError as exc:
        raise UsageError(f"generator {config.generator!r}: {exc}") from exc
