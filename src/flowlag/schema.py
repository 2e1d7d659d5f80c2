"""Typed parameters, and the check of a JSON object against them.

An experiment's parameters, a train config's fields and a dataset kind's
constructor arguments are each a tuple of Param; the last two are read
off the constructor's signature by ``params_of``.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from typing import get_args, get_type_hints

from .errors import ConfigError

REQUIRED = inspect.Parameter.empty  # the default of a parameter that has none


@dataclass(frozen=True)
class Param:
    """One experiment parameter: flag ``--name-with-dashes``, spec key ``name``.

    ``type`` is int, float, str or bool (dict for the run envelope's spec).
    A ``many`` parameter is a non-empty list: comma-separated text as a
    flag, a JSON list in a spec.
    """

    name: str
    type: type
    default: object = REQUIRED
    help: str | None = None
    choices: tuple | None = None
    many: bool = False


def params_of(cls, choices: dict | None = None) -> tuple:
    """The parameters of ``cls(...)``, typed by its annotations; ``choices``
    maps a parameter name to its allowed values.  A ``tuple[int, ...]``
    annotation is a list of int."""
    hints = get_type_hints(cls.__init__)
    return tuple(Param(name, (get_args(hints[name]) or (hints[name],))[0], p.default,
                       choices=(choices or {}).get(name), many=bool(get_args(hints[name])))
                 for name, p in inspect.signature(cls).parameters.items())


def finite_float(text) -> float:
    """``float(text)``, or ValueError for NaN and ±inf, which JSON and float() accept."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not finite")
    return value


def _typed(value, p: Param):
    """A JSON value as ``p.type``: an integer serves as a float, a boolean only as
    a bool, and a float must be finite."""
    if (not isinstance(value, (int, float) if p.type is float else p.type)
            or isinstance(value, bool) is not (p.type is bool)):
        raise TypeError
    return finite_float(value) if p.type is float else p.type(value)


def validated(what: str, params: tuple, spec) -> dict:
    """``spec`` checked against ``params``, with defaults filled in; ConfigError otherwise."""
    if not isinstance(spec, dict):
        raise ConfigError(f"{what} must be a JSON object")
    unknown = set(spec) - {p.name for p in params}
    if unknown:
        raise ConfigError(f"unknown {what} fields: {sorted(unknown)}")
    out = {}
    for p in params:
        value = spec.get(p.name, p.default)
        if value is REQUIRED:
            raise ConfigError(f"{what} requires {p.name!r}")
        if p.name in spec and not (value is None and p.default is None):
            try:
                if p.many and not isinstance(value, list):
                    raise TypeError
                value = [_typed(v, p) for v in value] if p.many else _typed(value, p)
            except (TypeError, ValueError):
                kind = "finite float" if p.type is float else p.type.__name__
                kind = f"list of {kind}" if p.many else kind
                raise ConfigError(f"{what} field {p.name!r} must be a {kind}, "
                                  f"got {spec[p.name]!r}") from None
            if p.many and not value:
                raise ConfigError(f"{what} field {p.name!r} needs at least one value")
            if p.choices and value not in p.choices:
                raise ConfigError(f"{what} field {p.name!r} must be one of {p.choices}")
        out[p.name] = value
    return out
