"""Typed fields of frozen dataclasses, checked against their annotations.

The config sections, the dataset kinds and the augmentation transforms
share these checks, so a value of the wrong type fails with the same
message whether it was parsed from JSON or given in Python. Every error
is a ``ConfigError`` that names the value's dotted path. A kind-tagged
base is a dataclass with a ``noun`` whose subclasses each set a
``kind``; its JSON form is ``{"kind": ..., **fields}``.
"""

from __future__ import annotations

import sys
import types
import typing
from dataclasses import MISSING, fields, is_dataclass
from functools import cache

from .errors import ConfigError

__all__ = ["require", "check_value", "parse_section", "check_fields", "echo"]

# The JSON values each annotated type takes. Python counts a bool as an
# int, but true is never a count or a number here. A number must be
# finite (NaN fails the comparison), and an integer given for one must
# fit a float.
_ACCEPTS = {
    int: ("an integer", lambda v: type(v) is int),
    float: ("a finite number", lambda v: type(v) in (int, float) and abs(v) <= sys.float_info.max),
    bool: ("true or false", lambda v: type(v) is bool),
    str: ("a string", lambda v: type(v) is str),
    tuple: ("a list", lambda v: isinstance(v, (list, tuple))),
    type(None): ("null", lambda v: v is None),
}


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def require(condition: bool, path: str, message: str):
    if not condition:
        raise ConfigError(f"config: {path}: {message}")


def check_value(annotation, value, path: str, parse: bool = False):
    """``value`` checked against a field annotation. A dataclass takes an
    instance of itself and, when parsing, a JSON object that
    ``parse_section`` (``_parse_kind`` for a kind-tagged base) reads.
    ``tuple[X, ...]`` takes a list of X and returns a tuple; anything else
    takes what ``_ACCEPTS`` lists for the type or a member of the union."""
    if is_dataclass(annotation):
        if isinstance(value, annotation):
            return value
        noun = getattr(annotation, "noun", None)
        require(parse, path, f"must be a {noun or annotation.__name__}, got {value!r}")
        return (_parse_kind if noun else parse_section)(annotation, value, path)
    union = isinstance(annotation, types.UnionType)
    options = typing.get_args(annotation) if union else (annotation,)
    for option in options:
        if _ACCEPTS[typing.get_origin(option) or option][1](value):
            if typing.get_origin(option) is not tuple:
                return value
            item, values = typing.get_args(option)[0], enumerate(value)
            return tuple(check_value(item, v, f"{path}[{i}]", parse=parse) for i, v in values)
    expected = " or ".join(_ACCEPTS[typing.get_origin(o) or o][0] for o in options)
    raise ConfigError(f"config: {path}: must be {expected}, got {value!r}")


def parse_section(cls, raw, path: str, note: str = ""):
    """An instance of the dataclass ``cls`` from a JSON object: each key
    must name a field, a field without a default is required, and each
    value must have its field's annotated type. A ``ClassVar`` is not a
    field, so it is never a key; ``note`` follows an unknown key's name."""
    if not isinstance(raw, dict):
        raise ConfigError(f"config: {path or 'top level'} must be an object")
    annotations = _annotations(cls)
    for key in raw:
        if key not in annotations:
            raise ConfigError(f"config: unknown key {_join(path, key)!r}{note}")
    for key in (f.name for f in fields(cls) if f.default is MISSING):
        if key not in raw:
            raise ConfigError(f"config: missing required key {_join(path, key)!r}")
    values = {
        key: check_value(annotations[key], value, _join(path, key), parse=True)
        for key, value in raw.items()
    }
    return cls(**values)


def _parse_kind(base, raw, path: str):
    """The subclass of ``base`` that ``raw["kind"]`` names, parsed from
    the other keys. A range check that names the value by its kind, as a
    transform built in Python does, is given ``path`` instead."""
    if not isinstance(raw, dict) or "kind" not in raw:
        raise ConfigError(f"config: {path}: needs a 'kind'")
    kinds = {cls.kind: cls for cls in base.__subclasses__()}
    kind = check_value(str, raw["kind"], f"{path}.kind")
    expected = f"expected one of {sorted(kinds)}"
    require(kind in kinds, f"{path}.kind", f"unknown {base.noun} {kind!r}, {expected}")
    values = {key: value for key, value in raw.items() if key != "kind"}
    try:
        return parse_section(kinds[kind], values, path, f": not a parameter of {kind!r}")
    except ConfigError as exc:
        raise ConfigError(str(exc).replace(f"config: {kind}.", f"config: {path}.", 1)) from None


def check_fields(section, path: str) -> None:
    """Each field of a built section checked against its annotation as
    ``parse_section`` checks a parsed value, so a section built in Python
    fails with the same message; the checked value is kept, so a list
    given for a ``tuple[X, ...]`` field becomes the tuple a parse makes."""
    for name, annotation in _annotations(type(section)).items():
        value = check_value(annotation, getattr(section, name), _join(path, name))
        object.__setattr__(section, name, value)


@cache
def _annotations(cls) -> dict:
    """Field name -> annotation of the dataclass ``cls``; a ``ClassVar``
    is not a field."""
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls)}


def echo(value):
    """The JSON form of a checked value, which ``parse_section`` reads
    back: a dataclass as an object of its fields, a kind-tagged one with
    its ``kind`` beside them, and a tuple as a list."""
    if is_dataclass(value):
        tag = {"kind": value.kind} if hasattr(value, "noun") else {}
        return {**tag, **{f.name: echo(getattr(value, f.name)) for f in fields(value)}}
    if isinstance(value, tuple):
        return [echo(item) for item in value]
    return value
