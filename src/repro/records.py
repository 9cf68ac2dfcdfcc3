"""One codec for every run record: the body of ``to_dict`` /
``from_dict`` of the configs and results that cross a process boundary
or land in the result cache (``ExperimentConfig`` and what it nests,
``ExperimentResult``, ``RunFailure``).

A record is a dataclass. Its encoded form is a dict with one key per
field, in declaration order:

* a field annotated with a record type (a class with ``from_dict``)
  goes through that type's own ``to_dict`` / ``from_dict``;
* a tuple-annotated field encodes as a list and decodes to a tuple;
* a list or dict field is copied shallowly when encoded, and decodes
  as the object it is;
* anything else passes as it is, and ``None`` stays ``None``.

Decoding refuses a key that names no field with a :class:`ValueError`
naming the class. A class's field plan is built on its first encode or
decode, never at import.
"""

from __future__ import annotations

import dataclasses
import functools
import typing
from typing import Any, Tuple

#: Field kinds of a plan; 0 is a value that passes as it is.
_RECORD, _TUPLE, _LIST, _DICT = 1, 2, 3, 4

_CONTAINERS = {tuple: _TUPLE, list: _LIST, dict: _DICT}


def _kind(hint: Any) -> Tuple[int, Any]:
    """``(kind, record type or None)`` of one field annotation;
    ``Optional[X]`` is read as ``X``."""
    if typing.get_origin(hint) is typing.Union:
        args = [arg for arg in typing.get_args(hint) if arg is not type(None)]
        if len(args) == 1:
            hint = args[0]
    if isinstance(hint, type) and hasattr(hint, "from_dict"):
        return _RECORD, hint
    return _CONTAINERS.get(typing.get_origin(hint) or hint, 0), None


@functools.cache
def _plan(cls: type) -> tuple:
    """``(((name, kind, record type), ...) in field order, {name: (kind,
    record type)})`` of ``cls``, read from its annotations once."""
    hints = typing.get_type_hints(cls)
    order = tuple((f.name,) + _kind(hints[f.name]) for f in dataclasses.fields(cls))
    return order, {name: (kind, sub) for name, kind, sub in order}


def encode(record: Any) -> dict:
    """The JSON-ready dict of ``record``: every field, in declaration order."""
    out = {}
    for name, kind, _sub in _plan(type(record))[0]:
        value = getattr(record, name)
        if kind and value is not None:
            if kind == _RECORD:
                value = value.to_dict()
            elif kind == _DICT:
                value = dict(value)
            else:
                value = list(value)
        out[name] = value
    return out


def decode(cls: type, data: dict) -> Any:
    """The ``cls`` record :func:`encode` (or its JSON round trip) wrote
    as ``data``; a missing key takes the field's default."""
    fields = _plan(cls)[1]
    unknown = data.keys() - fields.keys()
    if unknown:
        raise ValueError(f"unknown {cls.__name__} fields {sorted(unknown)}")
    kwargs = {}
    for name, value in data.items():
        kind, sub = fields[name]
        if value is not None:
            if kind == _RECORD:
                value = sub.from_dict(value)
            elif kind == _TUPLE:
                value = tuple(value)
        kwargs[name] = value
    return cls(**kwargs)
