"""The JSON boundary: every JSON file spadkit reads or writes passes here.

Files hold one JSON object, only finite numbers and no key twice in one
object: ``read_json`` refuses anything else, ``write_json`` writes a
non-finite float as ``null``.  ``read_json`` checks finiteness once per
document, after the parse, not once per number: a file it refuses is
parsed a second time, number by number, for the message.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers

from .errors import DataError


def _finite(text: str) -> float:  # NaN, Infinity and overflows like 1e400
    if not math.isfinite(value := float(text)):
        raise ValueError(f"non-finite number {text}")
    return value


def _unique_keys(pairs: list) -> dict:  # json.load alone keeps the last
    doc = dict(pairs)
    if len(doc) != len(pairs):
        keys = [key for key, _ in pairs]
        repeated = next(key for key in keys if keys.count(key) > 1)
        raise ValueError(f"repeated key {repeated!r}")
    return doc


def _all_finite(doc) -> bool:
    """Does ``doc`` hold no non-finite float?  One iterative walk, so no
    depth the parser accepts is too deep; a list whose ``sum`` is finite
    holds none, any other list is looked at value by value."""
    todo = [doc]
    while todo:
        obj = todo.pop()
        if isinstance(obj, dict):
            todo.extend(obj.values())
        elif isinstance(obj, list):
            try:  # TypeError: not all numbers; OverflowError: a huge int
                if math.isfinite(sum(obj)):
                    continue
            except (TypeError, OverflowError):
                pass
            todo.extend(obj)
        elif isinstance(obj, float) and not math.isfinite(obj):
            return False
    return True


def read_json(path: str, error: type[DataError] = DataError) -> dict:
    """The JSON object in ``path``; any defect of the file raises ``error``.

    A file that fails the parse or the finiteness check is read again with
    ``_finite`` on every number, which reports the first defect in the
    file's order (an overflow before a repeated key that follows it)."""
    with open(path, "rb") as fh:
        try:  # ValueError covers JSONDecodeError and UnicodeDecodeError
            doc = json.load(fh, parse_constant=_finite,
                            object_pairs_hook=_unique_keys)
        except (ValueError, RecursionError):
            clean = False
        else:
            clean = _all_finite(doc)
        if not clean:
            fh.seek(0)
            try:
                doc = json.load(fh, parse_constant=_finite,
                                parse_float=_finite,
                                object_pairs_hook=_unique_keys)
            except (ValueError, RecursionError) as exc:
                raise error(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise error(f"{path} holds a JSON {type(doc).__name__}, not an object")
    return doc


def _nulled(obj):
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {key: _nulled(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_nulled(value) for value in obj]
    return obj


def write_json(path: str, doc, **dump_options) -> None:
    try:
        text = json.dumps(doc, allow_nan=False, **dump_options)
    except ValueError:  # a nan or an inf somewhere
        text = json.dumps(_nulled(doc), allow_nan=False, **dump_options)
    with open(path, "w") as fh:
        fh.write(text)


class Document:
    """``save``/``load`` over ``to_json_dict``/``from_json_dict``; ``load``
    passes extra arguments on and raises ``LOAD_ERROR`` for a bad file."""

    LOAD_ERROR = DataError

    def save(self, path: str) -> None:
        write_json(path, self.to_json_dict())

    @classmethod
    def load(cls, path: str, *args):
        return cls.from_json_dict(read_json(path, cls.LOAD_ERROR), *args)


def field_dict(obj) -> dict:
    """A dataclass's fields by name, values as they are: a shallow copy,
    where ``dataclasses.asdict`` deep-copies every value."""
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}


# Field decoders raise TypeError for a wrong type, ValueError for a bad value.

def _scalar(kind: type, abc: type):
    def decode(value):
        if isinstance(value, bool) is not (kind is bool) \
                or not isinstance(value, abc):
            raise TypeError(f"expected {kind.__name__}, got {value!r}")
        return kind(value)
    return decode


_real = _scalar(float, numbers.Real)


def as_float(value) -> float:
    try:
        return _finite(_real(value))
    except OverflowError:  # an int beyond the float range
        raise ValueError(f"non-finite number {value}") from None


as_bool = _scalar(bool, bool)
_SCALARS = {"int": _scalar(int, numbers.Integral), "float": as_float,
            "bool": as_bool, "str": _scalar(str, str)}


def as_count(value) -> int:
    """A JSON integer in [0, 2**63): a count, a length or an index."""
    n = _SCALARS["int"](value)
    if not 0 <= n < 1 << 63:
        raise ValueError(f"expected an integer in [0, 2**63), got {n}")
    return n


def as_list(value) -> list | tuple:
    if not isinstance(value, (list, tuple)):
        raise TypeError(f"expected a list, got {value!r}")
    return value


def pairs(key: type, value: type):
    """Decoder for ``((k, v), ...)`` from an object (``{"17": 2500}``,
    keys parsed by ``key``) or a list of pairs (``[[17, 2500]]``)."""
    as_key, as_value = _SCALARS[key.__name__], _SCALARS[value.__name__]

    def decode(doc):
        if isinstance(doc, dict):
            return tuple((key(k), as_value(v)) for k, v in doc.items())
        if any(len(as_list(item)) != 2 for item in as_list(doc)):
            raise ValueError(f"expected [key, value] pairs, got {doc!r}")
        return tuple((as_key(k), as_value(v)) for k, v in doc)
    return decode


def decode_fields(cls, doc, **decoders):
    """Dataclass ``cls`` from a JSON object with one key per field.

    An omitted key keeps the default; an unknown key raises ``DataError``.
    Fields without a decoder convert by their annotated scalar type.
    """
    if not isinstance(doc, dict):
        raise TypeError(f"{cls.__name__} must be a JSON object, got {doc!r}")
    fields = {f.name: f.type for f in dataclasses.fields(cls) if f.init}
    unknown = [key for key in doc if key not in fields]
    if unknown:
        raise DataError(f"unknown {cls.__name__} key(s): "
                        + ", ".join(map(repr, unknown)))
    kwargs = {}
    for key, value in doc.items():
        try:
            kwargs[key] = (decoders.get(key) or _SCALARS[fields[key]])(value)
        except (TypeError, ValueError) as exc:
            kind = TypeError if isinstance(exc, TypeError) else ValueError
            raise kind(f"{key}: {exc}") from None
    return cls(**kwargs)
