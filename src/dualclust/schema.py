"""Typed fields of frozen dataclasses, checked against their annotations.

The config sections and the augmentation transforms share these checks,
so a value of the wrong type fails with the same message whether it was
parsed from JSON or given in Python. Every error is a ``ConfigError``
that names the value's dotted path.
"""

from __future__ import annotations

import sys
import types
import typing
from dataclasses import MISSING, fields, is_dataclass
from functools import cache

from .errors import ConfigError

__all__ = ["check_keys", "require", "check_value", "parse_section", "check_fields"]

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


def check_keys(section: dict, allowed, required, path: str, note: str = ""):
    if not isinstance(section, dict):
        raise ConfigError(f"config: {path or 'top level'} must be an object")
    for key in section:
        if key not in allowed:
            raise ConfigError(f"config: unknown key {_join(path, key)!r}{note}")
    for key in required:
        if key not in section:
            raise ConfigError(f"config: missing required key {_join(path, key)!r}")


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def require(condition: bool, path: str, message: str):
    if not condition:
        raise ConfigError(f"config: {path}: {message}")


def check_value(annotation, value, path: str):
    """``value`` checked against a field annotation: a config section is
    taken as it is if it is already built (its own checks ran), and is
    otherwise parsed by its ``from_dict`` if it has one and by
    ``parse_section`` if not, ``tuple[X, ...]`` takes a list of X and
    returns a tuple, and anything else takes what ``_ACCEPTS`` lists for
    the type or for one member of the union."""
    if is_dataclass(annotation):
        if isinstance(value, annotation):
            return value
        parse = getattr(annotation, "from_dict", None)
        return parse(value, path) if parse else parse_section(annotation, value, path)
    if typing.get_origin(annotation) is tuple:
        require(isinstance(value, (list, tuple)), path, f"must be a list, got {value!r}")
        item = typing.get_args(annotation)[0]
        return tuple(check_value(item, v, f"{path}[{i}]") for i, v in enumerate(value))
    union = isinstance(annotation, types.UnionType)
    options = typing.get_args(annotation) if union else (annotation,)
    expected = " or ".join(_ACCEPTS[option][0] for option in options)
    accepted = any(_ACCEPTS[option][1](value) for option in options)
    require(accepted, path, f"must be {expected}, got {value!r}")
    return value


def parse_section(cls, raw, path: str):
    """An instance of the dataclass ``cls`` from a JSON object: each key
    must name a field, a field without a default is required, and each
    value must have its field's annotated type. A ``ClassVar`` is not a
    field, so it is never a key."""
    annotations = _annotations(cls)
    required = [f.name for f in fields(cls) if f.default is MISSING]
    check_keys(raw, annotations, required, path)
    values = {key: check_value(annotations[key], raw[key], _join(path, key)) for key in raw}
    return cls(**values)


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
