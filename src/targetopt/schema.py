"""One config schema: JSON values read into dataclasses by their annotations.

`read(cls, value, path)` builds the dataclass `cls` from a JSON object and
`check(obj)` checks one built in code, field by field: an `int` is no bool
or float; a `float` is any number but a bool, and an int stays an int; a
`Literal` of strings is one of them; a union takes its first member that
fits; a tuple or list is a JSON list; a `dict` is any object, kept as
given; a dataclass is an object with no unknown key and every key that
has no default. An error is a ValueError that names the value's JSON
path, such as `runs[1].inner.alpha`.
"""

from __future__ import annotations

import dataclasses
import functools
import numbers
import types
from typing import Literal, Union, get_args, get_origin, get_type_hints

_UNIONS = (Union, types.UnionType)
_NAMES = {int: "an integer", float: "a number", bool: "true or false", str: "a string",
          dict: "an object", type(None): "null"}


@functools.cache
def _fields(cls) -> dict:
    """{name: (annotation, required)} of the fields a caller sets."""
    hints, missing = get_type_hints(cls), dataclasses.MISSING
    return {f.name: (hints[f.name], f.default is missing and f.default_factory is missing)
            for f in dataclasses.fields(cls) if f.init}


def read(cls, value, path: str = ""):
    """The dataclass `cls` read from the JSON object `value` at `path`
    ("" for a whole config)."""
    where, fields = path or "the config", _fields(cls)
    if not isinstance(value, dict):
        raise ValueError(f"{where} must be an object, not {value!r}")
    for problem, keys in (("unknown", sorted(set(value) - set(fields))),
                          ("missing", [k for k, (_, req) in fields.items() if req and k not in value])):
        if keys:
            raise ValueError(f"{problem} key(s) {keys} in {where}")
    return cls(**{k: _value(fields[k][0], v, f"{path}.{k}" if path else k) for k, v in value.items()})


def check(obj, path: str = "") -> None:
    """Check each field of the dataclass `obj` against its annotation."""
    for name, (tp, _) in _fields(type(obj)).items():
        _value(tp, getattr(obj, name), f"{path}.{name}" if path else name)


def reject_unread(obj, reader: str, names, prefix: str = "") -> None:
    """Reject the first of the named fields of the dataclass `obj` that is
    not at its default: `reader` never reads it."""
    for f in dataclasses.fields(obj):
        if f.name in names:
            default = f.default if f.default_factory is dataclasses.MISSING else f.default_factory()
            if getattr(obj, f.name) != default:
                raise ValueError(f"{reader} does not read {prefix + f.name!r}; leave it out")


def _fits(tp, v) -> bool:
    """Whether `v` has the shape of `tp`, not looking into lists or objects."""
    origin = get_origin(tp)
    if origin is Literal:
        return isinstance(v, str) and v in get_args(tp)
    if origin in _UNIONS:
        return any(_fits(member, v) for member in get_args(tp))
    if origin in (tuple, list):
        return isinstance(v, (list, tuple))
    if dataclasses.is_dataclass(tp):
        return isinstance(v, (dict, tp))
    if tp in (int, float):
        return isinstance(v, numbers.Integral if tp is int else numbers.Real) and not isinstance(v, bool)
    return isinstance(v, tp)


def _describe(tp) -> str:
    origin, args = get_origin(tp), get_args(tp)
    if origin is Literal:
        return "one of " + ", ".join(map(repr, args))
    if origin in _UNIONS:
        return " or ".join(map(_describe, args))
    if origin in (tuple, list):
        return "a list"
    return "an object" if dataclasses.is_dataclass(tp) else _NAMES[tp]


def _value(tp, v, path: str):
    """`v` read as a `tp`: a list becomes the annotated tuple or list, an
    object its dataclass; any other value is returned as given."""
    if get_origin(tp) in _UNIONS:
        tp = next((member for member in get_args(tp) if _fits(member, v)), tp)
    if not _fits(tp, v):
        raise ValueError(f"{path} must be {_describe(tp)}, not {v!r}")
    if get_origin(tp) in (tuple, list):
        return get_origin(tp)(_value(get_args(tp)[0], x, f"{path}[{i}]") for i, x in enumerate(v))
    if dataclasses.is_dataclass(tp):
        if isinstance(v, dict):
            return read(tp, v, path)
        check(v, path)
    return v
