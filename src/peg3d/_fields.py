"""What each config and log field may hold, and building dataclasses from loaded data.

The config dataclasses call :func:`check_fields` first in ``__post_init__``,
so a value of the wrong type fails with the same message whether it came from
the Python API, an INI file or a checkpoint.  Each class then checks the
ranges only it knows.  Episode logs are checked the same way when they are
loaded, never when they are built.  INI text is cast by :func:`cast` and
decoded JSON by :func:`build`, both through the one table of field kinds.
Every input file is read through :func:`opened`, which names a file it cannot decode.
This module imports nothing from the package, so every config module can use it.
"""

from __future__ import annotations

import configparser
import json
import math
import reprlib
from contextlib import contextmanager
from dataclasses import MISSING, fields, is_dataclass


def _number(value) -> bool:
    """A real number: ints pass as floats, bools and strings do not."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _numbers(value, *counts: int) -> bool:
    """A tuple of real numbers, as many as one of ``counts``."""
    return isinstance(value, tuple) and len(value) in counts and all(map(_number, value))


def _listed(test):
    """A test for a list whose every item passes ``test``."""
    return lambda v: isinstance(v, list) and all(map(test, v))


def _keyed(test):
    """A test for a dict of str keys whose every value passes ``test``."""
    return lambda v: (
        isinstance(v, dict) and all(isinstance(k, str) for k in v) and all(map(test, v.values()))
    )


def _optional(test):
    return lambda v: v is None or test(v)


def _parse_bool(text: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.strip().lower()]
    except KeyError:
        raise ValueError(f"expected a boolean, got {text!r}") from None


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.replace(",", " ").split())


def _parse_obstacle_rows(text: str) -> tuple[tuple[float, ...], ...]:
    chunks = filter(None, map(str.strip, text.split(";")))
    return tuple(_parse_floats(chunk) for chunk in chunks)


def _int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# Keyed by annotation text (the config and log modules postpone annotation
# evaluation): (test, what the message says the value must be, cast from INI
# text, or None for a log field, which no INI text sets).  A field whose
# annotation is not here holds a nested config, declared with its class as
# default_factory.
_KINDS = {
    "bool": (lambda v: isinstance(v, bool), "a bool", _parse_bool),
    "int": (_int, "an int", int),
    "float": (_number, "a float", float),
    "str": (lambda v: isinstance(v, str), "a str", str),
    "tuple[float, float, float]": (lambda v: _numbers(v, 3), "3 floats (x y z)", _parse_floats),
    "tuple[float, float] | None": (  # () means None, as an empty INI value gives
        lambda v: v is None or _numbers(v, 0, 2),
        "2 floats (alpha theta)",
        _parse_floats,
    ),
    "tuple[tuple[float, float, float, float], ...] | None": (
        lambda v: v is None or isinstance(v, tuple) and all(_numbers(row, 4) for row in v),
        "rows of 4 floats (x y z radius)",
        _parse_obstacle_rows,
    ),
    # Episode logs, as decoded JSON gives them.
    "int | None": (_optional(_int), "an int or None", None),
    "float | None": (_optional(_number), "a float or None", None),
    "list[float]": (_listed(_number), "a list of floats", None),
    "list[list[float]]": (_listed(_listed(_number)), "a list of lists of floats", None),
    "dict[str, float]": (_keyed(_number), "a dict of str to float", None),
    "dict[str, int]": (_keyed(_int), "a dict of str to int", None),
    "dict[str, float | None]": (_keyed(_optional(_number)), "a dict of str to float or None", None),
    "list[StepRecord] | None": (  # stored by column; peg3d.logs checks each column
        _optional(lambda v: isinstance(v, dict)), "a dict of columns", None
    ),
}


def check_fields(obj, where: str = "") -> None:
    """``ValueError`` naming the first field of dataclass ``obj`` that holds a wrong type.

    ``where`` goes before the field's name in the message.
    """
    for f in fields(obj):
        value = getattr(obj, f.name)
        if f.type in _KINDS:
            test, kind, _ = _KINDS[f.type]
            ok = test(value)
        else:
            ok, kind = isinstance(value, f.default_factory), f"a {f.type}"
        if not ok:
            raise ValueError(f"{where}{f.name} must be {kind}, got {value!r}")


def cast(cls, name: str, text: str):
    """The value INI ``text`` spells for field ``name`` of dataclass ``cls``."""
    annotation = next(f.type for f in fields(cls) if f.name == name)
    return _KINDS[annotation][2](text)


def check_int(name: str, value, least: int) -> None:
    """``ValueError`` unless ``value`` is an int (not a bool) of at least ``least``."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an int, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value!r}")


def check_positive(obj, names) -> None:
    """``ValueError`` unless each named attribute of ``obj`` is finite and > 0."""
    for name in names:
        value = getattr(obj, name)
        if not 0.0 < value < math.inf:  # false for NaN too
            raise ValueError(f"{name} must be finite and > 0, got {value!r}")


def _decode(f, value):
    """The value of field ``f`` that decoded JSON ``value`` stands for."""
    if f.type.startswith("tuple[") and isinstance(value, list):  # obstacle rows are lists too
        return tuple(tuple(row) if isinstance(row, list) else row for row in value)
    if is_dataclass(f.default_factory) and not isinstance(value, f.default_factory):
        return build(f.default_factory, value)  # a nested config's dict
    return value


def build(cls, data):
    """``cls(**data)`` from decoded JSON; a ``ValueError`` names the unknown and missing keys.

    Lists become tuples and dicts nested configs, as ``cls``'s fields declare.
    The keys are only inspected once the call fails, so well-formed data costs
    nothing extra.  A ``TypeError`` that no key explains is raised again.
    """
    if isinstance(data, dict):
        data = {**data}
        for f in fields(cls):
            if f.name in data:
                data[f.name] = _decode(f, data[f.name])
    try:
        return cls(**data)
    except TypeError:
        if not isinstance(data, dict):
            raise ValueError(f"{cls.__name__} must be a JSON object, got {data!r}") from None
        names = {f.name for f in fields(cls)}
        required = [
            f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING
        ]
        problems = [
            f"{kind} {cls.__name__} key {', '.join(map(repr, keys))}"
            for kind, keys in (
                ("unknown", sorted(data.keys() - names)),
                ("missing", [name for name in required if name not in data]),
            )
            if keys
        ]
        if not problems:
            raise
        raise ValueError("; ".join(problems)) from None


@contextmanager
def opened(path):
    """``path`` open for reading as UTF-8 text; ``ValueError`` names it when it is not."""
    with open(path, encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path} is not UTF-8 text ({exc.reason})") from None


def check_schema(schema, expected: str, what: str) -> None:
    """``ValueError`` unless the ``schema`` tag of a ``what`` file is ``expected``."""
    if schema != expected:
        raise ValueError(f"unsupported {what} schema {schema!r} (expected {expected})")


def load_json(path, schema: str, what: str) -> dict:
    """The JSON object in file ``path``, a ``what`` whose ``schema`` tag must be ``schema``.

    ``ValueError`` names the file when it is not UTF-8 JSON or holds no
    object; a wrong tag fails as in :func:`check_schema`.
    """
    with opened(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path} is not JSON ({exc})") from None
    if not isinstance(data, dict):
        raise ValueError(f"{path} must hold a JSON object, got {reprlib.repr(data)}")
    check_schema(data.get("schema"), schema, what)
    return data
