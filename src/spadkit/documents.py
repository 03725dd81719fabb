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
    """``save``/``load`` over ``to_json_dict``/``from_json_dict``.

    ``from_json_dict`` is the one decode boundary: it runs the subclass's
    ``_decode`` on a JSON object and raises any defect it meets as
    ``LOAD_ERROR``, "malformed ``NOUN`` document: ...", while a
    ``DataError`` that ``_decode`` raises passes unchanged.  A decoder
    checks a nested value with ``as_object`` or ``as_list`` before it
    calls a method of it, so every defect is a ``KeyError``,
    ``TypeError``, ``ValueError`` or ``OverflowError``.
    """

    LOAD_ERROR = DataError
    NOUN = "JSON"

    def save(self, path: str) -> None:
        write_json(path, self.to_json_dict())

    @classmethod
    def load(cls, path: str, *args):
        return cls.from_json_dict(read_json(path, cls.LOAD_ERROR), *args)

    @classmethod
    def from_json_dict(cls, doc, *args, **kwargs):
        try:
            return cls._decode(as_object(doc), *args, **kwargs)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise cls.LOAD_ERROR(
                f"malformed {cls.NOUN} document: {exc}") from None


def field_dict(obj) -> dict:
    """A dataclass's fields by name, values as they are: a shallow copy,
    where ``dataclasses.asdict`` deep-copies every value."""
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}


# Field decoders raise TypeError for a wrong type, ValueError for a bad value.

def _shown(value) -> str:
    """``value``'s repr for a message, cut short: a LUT's rows are 35,840
    numbers."""
    text = repr(value)
    return text if len(text) <= 80 else text[:76] + " ..."


def _scalar(kind: type, abc: type):
    def decode(value):
        if isinstance(value, bool) is not (kind is bool) \
                or not isinstance(value, abc):
            raise TypeError(f"expected {kind.__name__}, got {_shown(value)}")
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


def as_key(key: str) -> int:
    """An integer key of a JSON object (a pixel, a distance): the plain
    decimal of a non-negative integer, so that no two keys name one pixel
    ("3", not "03", " 3", "+3" or "1_0")."""
    if not (key.isascii() and key.isdigit() and (key[0] != "0" or key == "0")):
        raise ValueError(f"key {_shown(key)} is not a plain decimal integer")
    return int(key)


def as_list(value) -> list | tuple:
    if not isinstance(value, (list, tuple)):
        raise TypeError(f"expected a list, got {_shown(value)}")
    return value


def as_object(value) -> dict:
    if not isinstance(value, dict):
        raise TypeError(f"expected an object, got {_shown(value)}")
    return value


def pairs(key: type, value: type):
    """Decoder for ``((k, v), ...)`` from an object (``{"17": 2500}``,
    an int key read by ``as_key``) or a list of pairs (``[[17, 2500]]``)."""
    as_item, as_value = _SCALARS[key.__name__], _SCALARS[value.__name__]
    of_text = as_key if key is int else str

    def decode(doc):
        if isinstance(doc, dict):
            return tuple((of_text(k), as_value(v)) for k, v in doc.items())
        if any(len(as_list(item)) != 2 for item in as_list(doc)):
            raise ValueError(
                f"expected [key, value] pairs, got {_shown(doc)}")
        return tuple((as_item(k), as_value(v)) for k, v in doc)
    return decode


def decode_fields(cls, doc, **decoders):
    """Dataclass ``cls`` from a JSON object with one key per field.

    An omitted key keeps the default; an unknown key raises ``DataError``.
    Fields without a decoder convert by their annotated scalar type.
    """
    fields = {f.name: f.type for f in dataclasses.fields(cls) if f.init}
    unknown = [key for key in as_object(doc) if key not in fields]
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
