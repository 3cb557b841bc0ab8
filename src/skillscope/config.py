"""One reader and one type rule for every JSON file read whole. ``read_json``
raises the caller's error class for a file that does not read or parse. An
int field takes neither a bool nor a float, so no float is truncated; a float
field takes an int but no NaN or infinity; only a bool field takes true or
false; a tuple field takes an array of its length."""

from __future__ import annotations

import dataclasses
import json
import math
import types
import typing

from .errors import ConfigError


def read_json(path, what: str, error=ConfigError):
    """The JSON value in UTF-8 file ``path``; a file that cannot be read,
    decoded or parsed raises ``error`` naming ``what`` and the path."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as e:
        raise error(f"cannot read {what} {path}: {e}") from e


def conforms(value, kind) -> bool:
    origin, args = typing.get_origin(kind), typing.get_args(kind)
    if origin in (typing.Union, types.UnionType):
        return any(conforms(value, a) for a in args)
    if origin in (list, tuple):
        return isinstance(value, list) and (
            all(conforms(v, args[0]) for v in value) if origin is list
            else len(value) == len(args) and all(map(conforms, value, args)))
    if kind is float:
        return type(value) is int or type(value) is float and math.isfinite(value)
    return isinstance(value, kind) and (kind is bool or not isinstance(value, bool))


REQUIRED = object()  # the default of a field that has none


def check_fields(obj, fields: dict[str, tuple], where: str, error=ConfigError) -> dict:
    """The values of JSON object ``obj``, each checked against its field's
    ``(type, default, lowest value)``, with the defaults filled in; a
    violation raises ``error``."""
    if not isinstance(obj, dict):
        raise error(f"{where} must be a JSON object")
    unknown = set(obj) - fields.keys()
    if unknown:
        raise error(f"{where}: unknown keys {sorted(unknown)}")
    values = {}
    for key, (kind, default, low) in fields.items():
        if key not in obj and default is REQUIRED:
            raise error(f"{where}: {key} is required")
        value = obj.get(key, default)
        if key in obj and not (conforms(value, kind) and (low is None or value >= low)):
            name = kind.__name__ if type(kind) is type else kind
            raise error(f"{where}: {key} must be {name}"
                        f"{'' if low is None else f' >= {low}'}, got {value!r}")
        values[key] = float(value) if kind is float and value is not None else value
    return values


def from_json(cls, obj, where: str):
    """Dataclass ``cls`` built from a JSON object: only its fields' keys, each
    of its annotated type (arrays as tuples), those without a default required."""
    hints, MISSING = typing.get_type_hints(cls), dataclasses.MISSING
    given = check_fields(obj, {
        f.name: (hints[f.name], REQUIRED if f.default is f.default_factory is MISSING else None,
                 None) for f in dataclasses.fields(cls)}, where)
    return cls(**{k: tuple(v) if isinstance(v, list) and typing.get_origin(hints[k]) is not list
                  else v for k, v in given.items() if k in obj})
