"""The JSON boundary: ``read_json`` checks finiteness once per document and
refuses exactly what a parse with ``_finite`` on every number refuses,
with the same message; every document decodes through one guard and reads
its integer keys by one rule; and no mutant of a document the command line
reads ends in a traceback."""

from __future__ import annotations

import copy
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spadkit.cli import main
from spadkit.coincidence import DeltaHistogram, normalize_histogram
from spadkit.crosstalk import CtCurve, CtEstimate, CtPoint, CtShape
from spadkit.documents import (_all_finite, _finite, _unique_keys, as_key,
                               pairs, read_json, write_json)
from spadkit.errors import CalibrationError, DataError
from spadkit.offsets import DelayVector, OffsetMeasurement
from spadkit.simulator import (BeamSpec, DcrProfile, SimConfig, simulate,
                               simulate_code_density)
from spadkit.tdc import TdcLut
from spadkit.timestream import SensorConfig

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


# ---------------------------------------------------------------------------
# integer keys: one spelling per pixel or distance

@pytest.mark.parametrize("key", ["0", "7", "255", str(2**70)])
def test_plain_decimal_keys_are_read(key):
    assert as_key(key) == int(key)
    assert pairs(int, float)({key: 1.5}) == ((int(key), 1.5),)


@pytest.mark.parametrize("key", ["03", "00", " 3", "3 ", "+3", "-1", "-0",
                                 "1_0", "3.0", "", "\u0663", "\u00b3"])
def test_other_spellings_of_an_integer_key_are_refused(key):
    with pytest.raises(ValueError):
        as_key(key)
    with pytest.raises(ValueError):
        pairs(int, float)({key: 1.5})
    # the delays and the LUT read their pixel keys by the same rule
    with pytest.raises(DataError, match="malformed delay document"):
        DelayVector.from_json_dict(
            {"delays_ps": {"0": 0.5, "1": -0.5, key: 0.0}})
    lut = TdcLut(SensorConfig(num_pixels=2, tdc_bins_per_clock=2),
                 np.full((2, 2), 1250.0)).to_json_dict()
    with pytest.raises(CalibrationError, match="malformed LUT document"):
        TdcLut.from_json_dict(
            {**lut, "widths_ps": {**lut["widths_ps"], key: [1250.0] * 2}})


def test_a_document_that_is_not_an_object_is_a_load_error():
    for cls, error in ((DeltaHistogram, DataError), (CtCurve, DataError),
                       (DelayVector, DataError), (SimConfig, DataError),
                       (TdcLut, CalibrationError)):
        with pytest.raises(error, match=f"malformed {cls.NOUN} document: "
                                        "expected an object, got \\[\\]"):
            cls.from_json_dict([])
    # a message shows a long value cut short
    with pytest.raises(DataError) as exc:
        DelayVector.from_json_dict({"delays_ps": list(range(10**4))})
    assert len(str(exc.value)) < 150


# ---------------------------------------------------------------------------
# The mutation oracle: in every document the command line reads, each
# value is replaced by each of MUTANT_VALUES and each key deleted.  Every
# mutant exits 0, 2 or 3, and one that exits 2 ends its stderr in a JSON
# error line.  No command reads a cross-talk curve, so a curve's mutants
# go through CtCurve.load, which must load them or raise DataError.

MUTANT_VALUES = ["s", None, [], {}, True, 1e308, -1e308, 2**70, -1, 0,
                 1e-300, -0.0]


def nodes(doc, path=()):
    """The path of every value in ``doc``, containers included."""
    yield path
    items = doc.items() if isinstance(doc, dict) else \
        enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from nodes(value, path + (key,))


def mutants(doc):
    """(what changed, document) for each value of ``doc`` replaced by each
    of ``MUTANT_VALUES`` and each key deleted."""
    for path in list(nodes(doc))[1:]:
        for value in MUTANT_VALUES:
            yield f"{list(path)} = {value!r}", _changed(doc, path, value)
        if isinstance(path[-1], str):
            yield f"del {list(path)}", _changed(doc, path, None, delete=True)


def _changed(doc, path, value, delete=False):
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if delete:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


@pytest.fixture(scope="module")
def oracle_inputs(tmp_path_factory):
    """The stream each CLI document is read against, and the documents."""
    work = tmp_path_factory.mktemp("oracle")
    plain = SimConfig(sensor=SensorConfig(num_pixels=4), seed=2,
                      duration_s=0.02, dcr=DcrProfile(base_cps=5e4),
                      ct_profile=((1, 0.05),))
    simulate(plain)[0].write(str(work / "plain.spk1"))
    lut_sensor = SensorConfig(num_pixels=2, tdc_bins_per_clock=4)
    widths = np.array([[500.0, 700.0, 600.0, 700.0],
                       [625.0, 625.0, 625.0, 625.0]])
    simulate_code_density(lut_sensor, widths, 400, seed=4,
                          n_cycles=5).write(str(work / "raw.spk1"))
    counts = np.full(16, 20, dtype=np.int64)
    counts[6:10] = [60, 140, 150, 70]
    hist = normalize_histogram(DeltaHistogram(
        pixel_a=0, pixel_b=1, window_ps=400.0, bin_width_ps=50.0,
        counts=counts, total_pairs=int(counts.sum())))
    config = SimConfig(
        sensor=SensorConfig(num_pixels=8), seed=3, duration_s=1e-4,
        dcr=DcrProfile(base_cps=2e3, overrides=((5, 1e5),), drift_scale=1.2),
        beams=(BeamSpec(pixel=1, rate_cps=1e5, mix=(("h", 0.5), ("v", 0.5))),
               BeamSpec(pixel=6, rate_cps=1e5, mix=(("h", 1.0),))),
        pair_fraction=0.3, fiber_delay_ps=500.0,
        ct_profile=((1, 0.01), (2, 0.001)),
        delays_ps=(-30.0, 10.0, 0.0, 5.5, -2.0, 8.0, 4.0, 4.5))
    delays = DelayVector(
        np.array([-1.5, 0.5, 2.0, -1.0]),
        provenance=(OffsetMeasurement(0, 1, -2.0, 0.5, True),
                    OffsetMeasurement(1, 2, math.nan, math.inf, False),
                    OffsetMeasurement(2, 3, 3.0, 0.4, True)),
        gap_pixels=((1, 2),), degraded=True)
    # every default, no rate at all
    quiet = SimConfig(sensor=SensorConfig(num_pixels=8), duration_s=1e-4)
    return {"config": (["simulate", "--config"], config.to_json_dict()),
            "default config": (["simulate", "--config"],
                               quiet.to_json_dict()),
            "histogram": (["fit", "--in"], hist.to_json_dict()),
            "delays": (["coincidence", "--in", str(work / "plain.spk1"),
                        "--pair", "0,1", "--delays"], delays.to_json_dict()),
            "lut": (["coincidence", "--in", str(work / "raw.spk1"),
                     "--pair", "0,1", "--lut"],
                    TdcLut(lut_sensor, widths).to_json_dict())}


@pytest.mark.parametrize("kind", ["config", "default config", "histogram",
                                  "delays", "lut"])
def test_every_mutant_of_a_cli_document_exits_with_a_json_error(
        kind, oracle_inputs, tmp_path, capsys):
    command, doc = oracle_inputs[kind]
    path, out = tmp_path / "doc.json", tmp_path / "out"
    failures = []
    for what, mutant in [("unchanged", doc), *mutants(doc)]:
        write_json(str(path), mutant)
        try:
            code = main([*command, str(path), "--out", str(out)])
        except Exception as exc:  # a traceback at the command line
            code = f"{type(exc).__name__}: {exc}"
        err = capsys.readouterr().err.strip().splitlines()
        if code == 2:
            try:
                ok = set(json.loads(err[-1])) == {"error", "type"}
            except (IndexError, ValueError):
                ok = False
            code = 2 if ok else f"stderr {err!r}"
        if code not in (0, 2, 3) or what == "unchanged" and code != 0:
            failures.append(f"{what}: {code}")
    assert not failures, f"{len(failures)} mutants: " + "; ".join(failures)


def test_every_mutant_of_a_curve_loads_or_raises_data_error(tmp_path):
    shape = CtShape(sigma_ps=58.2, offset_ps=3.1, chi2_dof=1.04,
                    n_iterations=7, stop_reason="chi2_stall", n_pooled=2,
                    fallback=False, window_share=0.998)
    estimates = (
        CtEstimate(source=5, target=6, probability=1.2e-3, error=3e-5,
                   n_source=10**6, significant=True, gross=1201,
                   net=1200.0, bg_per_bin=0.04, center_ps=22.5,
                   placement="matched_filter"),
        CtEstimate(source=5, target=3, probability=-1e-6, error=1e-6,
                   n_source=10**6, significant=False, upper_limit=3e-6,
                   gross=0, net=-1.0, bg_per_bin=0.03))
    doc = CtCurve(points=(CtPoint(1, 1.2e-3, 3e-5, 1, False),
                          CtPoint(2, 0.0, 1e-6, 1, True)),
                  pairs=((5, 6), (5, 3)), window_ps=25_000.0,
                  estimates=estimates, shape=shape).to_json_dict()
    path = tmp_path / "ct.json"
    failures = []
    assert CtCurve.from_json_dict(doc).to_json_dict() == doc
    for what, mutant in mutants(doc):
        write_json(str(path), mutant)
        try:
            CtCurve.load(str(path))
        except DataError:
            pass
        except Exception as exc:
            failures.append(f"{what}: {type(exc).__name__}: {exc}")
    assert not failures, f"{len(failures)} mutants: " + "; ".join(failures)
