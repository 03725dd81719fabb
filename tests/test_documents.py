"""The JSON boundary: ``read_json`` checks finiteness once per document and
refuses exactly what a parse with ``_finite`` on every number refuses,
with the same message."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from spadkit.documents import _all_finite, _finite, _unique_keys, read_json
from spadkit.errors import CalibrationError, DataError

ZEROS = "0" * 400


def per_number_outcome(path):
    """The document, or the message, of a parse with ``_finite`` on every
    number: the reference for ``read_json``."""
    with open(path, "rb") as fh:
        try:
            return json.load(fh, parse_constant=_finite, parse_float=_finite,
                             object_pairs_hook=_unique_keys)
        except (ValueError, RecursionError) as exc:
            return f"{path} is not valid JSON: {exc}"


def read_outcome(path):
    try:
        return read_json(path)
    except DataError as exc:
        return str(exc)


REFUSED = {
    "overflow": '{"a": 1e400}',
    "negative overflow": '{"a": -1e400}',
    "long literal": '{"a": 1' + ZEROS + '.0}',
    "nan": '{"a": NaN}',
    "infinity in a list": '{"a": [1.0, -Infinity]}',
    "nested in mixed lists":
        '{"a": [1, "x", [2.5, {"b": [true, null, [0.5, 1e999]]}]]}',
    "in an object in a list": '{"a": [{"b": 1.5}, {"c": -1e400}]}',
    "huge int beside an overflow": '{"a": [1' + ZEROS + ', 1e400]}',
    "overflow before a repeated key": '{"a": 1e400, "a": 1}',
    "repeated key before an overflow": '{"a": 1, "a": 2, "b": 1e400}',
    "overflow before a syntax error": '{"a": 1e400, "b": }',
    "syntax error before an overflow": '{"a": , "b": 1e400}',
    "deep overflow": '{"a": ' + "[" * 300 + "1e400" + "]" * 300 + "}",
}


@pytest.mark.parametrize("text", REFUSED.values(), ids=REFUSED.keys())
def test_refusals_and_their_messages_are_the_per_number_parse(text,
                                                              tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(text)
    want = per_number_outcome(str(path))
    assert isinstance(want, str)
    with pytest.raises(CalibrationError) as exc:
        read_json(str(path), CalibrationError)
    assert str(exc.value) == want


ACCEPTED = {
    "sum overflows": '{"a": [1e308, 1e308]}',
    "sum of a huge int and a float": '{"a": [1' + ZEROS + ', 1.5]}',
    "huge int alone": '{"a": 1' + ZEROS + '}',
    "mixed lists": '{"a": [true, "x", null, [1.5, -0.0], {"b": [2, 2.5]}]}',
    "deep": '{"a": ' + "[" * 300 + "1.5" + "]" * 300 + "}",
    "empty lists": '{"a": [], "b": [[]], "c": {}}',
}


@pytest.mark.parametrize("text", ACCEPTED.values(), ids=ACCEPTED.keys())
def test_finite_documents_read_as_the_per_number_parse(text, tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(text)
    want = per_number_outcome(str(path))
    assert isinstance(want, dict)
    assert read_json(str(path)) == want
    assert _all_finite(want)  # read in one parse


LEAVES = ["1e400", "-1e400", "1" + ZEROS + ".0", "1" + ZEROS, "1e308",
          "-0.0", "2.5", "7", "true", "null", '"s"', "NaN"]


def documents(leaf):
    """JSON text: lists and objects over ``LEAVES``, keys from a set of
    two so that some repeat."""
    return st.recursive(
        leaf, lambda inner: st.one_of(
            st.lists(inner, max_size=4).map(
                lambda items: "[" + ", ".join(items) + "]"),
            st.lists(st.tuples(st.sampled_from(['"k"', '"m"']), inner),
                     max_size=3).map(lambda items: "{" + ", ".join(
                         f"{k}: {v}" for k, v in items) + "}")),
        max_leaves=12)


@settings(max_examples=200, deadline=None)
@given(text=documents(st.sampled_from(LEAVES)))
def test_property_read_json_is_the_per_number_parse(text, tmp_path_factory):
    path = tmp_path_factory.mktemp("doc") / "doc.json"
    path.write_text('{"doc": ' + text + "}")
    assert read_outcome(str(path)) == per_number_outcome(str(path))
