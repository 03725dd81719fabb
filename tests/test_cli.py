"""End-to-end subcommand runs against simulated inputs."""

from __future__ import annotations

import dataclasses
import json
import logging
import os
import pathlib
import subprocess
import sys
import types
import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import stream_bytes, with_metadata_entry

from spadkit import cli, simulator
from spadkit.cli import main
from spadkit.coincidence import (MAX_BINS, DeltaHistogram, build_histogram,
                                 normalize_histogram)
from spadkit.crosstalk import CtCurve, ct_scan
from spadkit.documents import write_json
from spadkit.errors import DataError
from spadkit.offsets import DelayVector, apply_delays
from spadkit.peakfit import MAX_ITERATIONS, fit_two_peaks
from spadkit.simulator import BeamSpec, DcrProfile, SimConfig, simulate, \
    simulate_code_density
from spadkit.rates import compute_rates
from spadkit.svg import ct_curve_svg, histogram_svg
from spadkit.tdc import TdcLut, apply_lut, build_lut
from spadkit.timestream import (AcquisitionCycle, PhotonStream, SensorConfig,
                                StreamHeader, TimestampRecord, record_order)


def write_config(path, config: SimConfig) -> str:
    with open(path, "w") as fh:
        json.dump(config.to_json_dict(), fh)
    return str(path)


def read_manifest(out_path) -> dict:
    with open(str(out_path) + ".manifest.json") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def sim_stream_path(tmp_path_factory):
    """A stream with hot pixels, neighbor CT, and a correlated beam pair."""
    tmp = tmp_path_factory.mktemp("cli")
    # beam rates are set high enough that the accidental background
    # between 70 and 73 has a nonzero median, so normalization works
    config = SimConfig(
        seed=21,
        duration_s=2.0,
        dcr=DcrProfile(base_cps=100.0, overrides=((40, 2e4), (200, 1.5e4))),
        beams=(BeamSpec(pixel=70, rate_cps=2e5),
               BeamSpec(pixel=73, rate_cps=2e5)),
        pair_fraction=0.3,
        fiber_delay_ps=5000.0,
        ct_profile=((1, 0.004), (3, 0.002)),
    )
    cfg = write_config(tmp / "sim.json", config)
    out = tmp / "s.spk1"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    return str(out)


def test_simulate_is_deterministic(tmp_path):
    config = SimConfig(seed=7, duration_s=0.2,
                       dcr=DcrProfile(base_cps=500.0))
    cfg = write_config(tmp_path / "c.json", config)
    a, b = tmp_path / "a.spk1", tmp_path / "b.spk1"
    t = tmp_path / "truth.json"
    assert main(["simulate", "--config", cfg, "--seed", "7",
                 "--out", str(a), "--truth", str(t)]) == 0
    assert main(["simulate", "--config", cfg, "--seed", "7",
                 "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    truth = json.loads(t.read_text())
    assert truth["counts"]["dark"] > 0
    manifest = read_manifest(a)
    assert manifest["seed"] == 7
    assert manifest["subcommand"] == "simulate"
    assert str(a) in manifest["outputs"]
    assert manifest["peak_rss_mb"] > 0


@pytest.mark.parametrize("platform, maxrss, expected", [
    ("linux", 3 << 20, 3072.0),     # KiB
    ("darwin", 3 << 20, 3.0),       # bytes
])
def test_manifest_peak_rss_units(monkeypatch, tmp_path, platform, maxrss,
                                 expected):
    usage = types.SimpleNamespace(ru_maxrss=maxrss)
    monkeypatch.setattr(cli, "resource", types.SimpleNamespace(
        RUSAGE_SELF=0, getrusage=lambda who: usage))
    monkeypatch.setattr(cli.sys, "platform", platform)
    cfg = write_config(tmp_path / "c.json", SimConfig(duration_s=0.01))
    out = tmp_path / "s.spk1"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    assert read_manifest(out)["peak_rss_mb"] == expected


def test_manifest_peak_rss_is_null_without_resource(monkeypatch, tmp_path):
    monkeypatch.setattr(cli, "resource", None)
    cfg = write_config(tmp_path / "c.json", SimConfig(duration_s=0.01))
    out = tmp_path / "s.spk1"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    assert read_manifest(out)["peak_rss_mb"] is None


def test_truth_without_lineage_above_the_limit_warns(monkeypatch, tmp_path,
                                                     caplog):
    config = SimConfig(seed=4, duration_s=0.2,
                       dcr=DcrProfile(base_cps=500.0), include_lineage=True)
    cfg = write_config(tmp_path / "c.json", config)
    out, truth_path = tmp_path / "s.spk1", tmp_path / "truth.json"
    args = ["simulate", "--config", cfg, "--out", str(out),
            "--truth", str(truth_path)]
    assert main(args) == 0
    n_records = len(json.loads(truth_path.read_text())["lineage"]["origin"])
    assert n_records > 10
    assert not [r for r in caplog.records if r.levelno >= logging.WARNING]

    monkeypatch.setattr(simulator, "LINEAGE_JSON_MAX", 10)
    assert main(args) == 0
    assert "lineage" not in json.loads(truth_path.read_text())
    [record] = [r for r in caplog.records if r.levelno == logging.WARNING]
    assert record.name == "spadkit.simulator"
    assert record.args == (n_records, 10)
    assert f"lineage of {n_records} records" in record.getMessage()
    assert "LINEAGE_JSON_MAX = 10" in record.getMessage()


def test_dcr_report(sim_stream_path, tmp_path):
    out = tmp_path / "report.json"
    assert main(["dcr", "--in", sim_stream_path, "--subsets", "4",
                 "--hot-threshold", "1000", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    hot = {p for p, _rate in doc["hot_pixels"]}
    assert {40, 70, 73, 200} <= hot
    assert len(doc["subsets"]) == 4
    assert doc["median_rate_cps"] < 1000


def test_coincidence_then_fit_two_peaks(sim_stream_path, tmp_path):
    hist_path = tmp_path / "h.json"
    assert main(["coincidence", "--in", sim_stream_path, "--pair", "70,73",
                 "--window", "25000", "--out", str(hist_path)]) == 0
    hist = DeltaHistogram.load(str(hist_path))
    assert hist.normalized is not None

    fit_path = tmp_path / "fit.json"
    svg_path = tmp_path / "fit.svg"
    assert main(["fit", "--in", str(hist_path), "--two-peaks",
                 "--hint", "5000", "--svg", str(svg_path),
                 "--out", str(fit_path)]) == 0
    doc = json.loads(fit_path.read_text())
    assert doc["kind"] == "two_peak_fit"
    assert abs(doc["far_peak"]["center_ps"] - 5000.0) < 300.0
    ET.fromstring(svg_path.read_text())
    manifest = read_manifest(fit_path)
    assert str(svg_path) in manifest["outputs"]


def test_fit_single_peak(sim_stream_path, tmp_path):
    hist_path = tmp_path / "h.json"
    main(["coincidence", "--in", sim_stream_path, "--pair", "70,71",
          "--out", str(hist_path)])
    fit_path = tmp_path / "fit.json"
    assert main(["fit", "--in", str(hist_path),
                 "--out", str(fit_path)]) == 0
    assert json.loads(fit_path.read_text())["kind"] == "gaussian_fit"


def test_ct_scan_outputs(sim_stream_path, tmp_path):
    out = tmp_path / "ct.json"
    svg = tmp_path / "ct.svg"
    assert main(["ct-scan", "--in", sim_stream_path, "--dmax", "4",
                 "--nhot", "4", "--out", str(out), "--svg", str(svg)]) == 0
    curve = CtCurve.load(str(out))
    assert [p.distance for p in curve.points] == [1, 2, 3, 4]
    doc = json.loads(out.read_text())
    assert doc["schema_version"] == 2
    assert [[e["source"], e["target"]] for e in doc["estimates"]] == \
        doc["pairs"]
    p1 = curve.point(1)
    assert abs(p1.probability - 0.004) <= 3 * p1.stderr
    ET.fromstring(svg.read_text())


def test_calibrate_and_ct_scan_log_fit_stop_reasons(sim_stream_path, tmp_path,
                                                   caplog):
    caplog.set_level(logging.INFO)
    assert main(["ct-scan", "--in", sim_stream_path, "--dmax", "4",
                 "--nhot", "4", "--out", str(tmp_path / "ct.json")]) == 0
    main(["calibrate", "--in", sim_stream_path,
          "--out", str(tmp_path / "d.json")])
    logged = {r.getMessage().split(":")[0]: r.args for r in caplog.records
              if r.levelno == logging.INFO}
    reasons = {"relative_step", "chi2_stall", "predicted_decrease",
               "max_iterations", "stalled", "singular", "non_finite_seed",
               "flat_data", "empty_histogram", "too_few_counts"}
    # ct_scan fits once: the pooled nearest-neighbor histograms
    curve = CtCurve.load(str(tmp_path / "ct.json"))
    (n_pairs, n_pooled, sigma, offset, _chi2_dof, iterations, reason,
     share, n_placed, n_null) = logged["ct_scan"]
    assert n_pairs == len(curve.pairs) == n_placed + n_null
    assert n_pooled == sum(abs(t - s) == 1 for s, t in curve.pairs)
    assert (sigma, offset, iterations, reason, share) == (
        curve.shape.sigma_ps, curve.shape.offset_ps,
        curve.shape.n_iterations, curve.shape.stop_reason,
        curve.shape.window_share)
    assert 0.9 < share < 1.0
    assert reason in reasons and 0 < iterations <= MAX_ITERATIONS
    assert n_placed == sum(e.significant for e in curve.estimates)
    (n_pairs, cut_half, by_reason, median_chi2_dof, max_chi2_dof,
     iterations, passes, by_fit, by_width,
     by_sideband) = logged["measure_offsets"]
    assert n_pairs == 255
    # +-700 ps in bins of the mean TDC bin, 2500/140 ps
    assert cut_half == 40
    assert sum(by_reason.values()) == n_pairs and set(by_reason) <= reasons
    assert 0.0 <= median_chi2_dof <= max_chi2_dof
    _check_solver_work(by_reason, iterations, passes)
    n_invalid, n_pairs, fraction = logged["calibrate"]
    assert n_pairs == 255 and 0 <= n_invalid <= n_pairs
    assert fraction == n_invalid / n_pairs
    # each invalid pair is refused by the first test it fails
    assert by_fit + by_width + by_sideband == n_invalid


def _check_solver_work(by_reason, iterations, passes):
    """A scan's solver work as logged: every pass is one iteration of each
    fit still running, so a fit that ran out of iterations took them all."""
    solved = sum(n for reason, n in by_reason.items()
                 if reason not in ("flat_data", "empty_histogram",
                                   "too_few_counts"))
    assert passes <= iterations <= solved * passes
    assert passes <= MAX_ITERATIONS
    if "max_iterations" in by_reason:
        assert passes == MAX_ITERATIONS
        assert iterations >= by_reason["max_iterations"] * MAX_ITERATIONS


def test_calibrate_full_chain_exit_zero(tmp_path):
    config = SimConfig(seed=13, duration_s=6.0,
                       dcr=DcrProfile(base_cps=900.0),
                       ct_profile=((1, 0.012),),
                       delays_ps=tuple(
                           np.random.default_rng(2).uniform(-3000, 3000, 256)))
    cfg = write_config(tmp_path / "c.json", config)
    stream = tmp_path / "ambient.spk1"
    main(["simulate", "--config", cfg, "--out", str(stream)])
    out = tmp_path / "delays.json"
    assert main(["calibrate", "--in", str(stream), "--out", str(out)]) == 0
    vec = DelayVector.load(str(out))
    assert len(vec) == 256
    assert not vec.degraded
    assert vec.gap_pixels == ()


def test_manifest_lists_every_input(tmp_path):
    # A raw-code flood: each record's time is cut to its clock base and
    # the fine time becomes a TDC code, which a uniform LUT maps back.
    sensor = SensorConfig(num_pixels=8)
    config = SimConfig(sensor=sensor, seed=5, duration_s=2.0,
                       dcr=DcrProfile(base_cps=3000.0),
                       ct_profile=((1, 0.05),))
    stream, _truth = simulate(config)
    clock = sensor.clock_period_ps
    base = np.floor(stream.time_ps / clock) * clock
    codes = (stream.time_ps - base) / sensor.mean_bin_width_ps
    order = record_order(stream.cycle_index, base, stream.pixel)
    raw = dataclasses.replace(stream, time_ps=base,
                              raw_code=codes.astype(np.uint32)).take(order)
    raw_path, lut_path = tmp_path / "raw.spk1", tmp_path / "lut.json"
    raw.write(str(raw_path))
    widths = np.full((8, sensor.tdc_bins_per_clock), sensor.mean_bin_width_ps)
    TdcLut(sensor, widths).save(str(lut_path))
    out = tmp_path / "delays.json"
    assert main(["calibrate", "--in", str(raw_path), "--lut", str(lut_path),
                 "--out", str(out)]) == 0
    assert read_manifest(out)["inputs"] == [str(raw_path), str(lut_path)]


def test_calibrate_degraded_exit_three(tmp_path):
    # only ten adjacent pixels are lit: most pairs have no peak
    config = SimConfig(seed=4, duration_s=5.0,
                       dcr=DcrProfile(base_cps=0.0,
                                      overrides=tuple((p, 3000.0)
                                                      for p in range(10))),
                       ct_profile=((1, 0.01),))
    cfg = write_config(tmp_path / "c.json", config)
    stream = tmp_path / "sparse.spk1"
    main(["simulate", "--config", cfg, "--out", str(stream)])
    out = tmp_path / "delays.json"
    assert main(["calibrate", "--in", str(stream), "--out", str(out)]) == 3
    vec = DelayVector.load(str(out))  # outputs still written
    assert vec.degraded
    assert len(vec.gap_pixels) > 200


def test_calibrate_without_any_peak_is_data_error(tmp_path, capsys):
    config = SimConfig(seed=3, duration_s=2.0,
                       dcr=DcrProfile(base_cps=300.0))
    cfg = write_config(tmp_path / "c.json", config)
    stream = tmp_path / "dark.spk1"
    main(["simulate", "--config", cfg, "--out", str(stream)])
    code = main(["calibrate", "--in", str(stream),
                 "--out", str(tmp_path / "d.json")])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["type"] == "CalibrationError"


def test_report_directory(sim_stream_path, tmp_path):
    out_dir = tmp_path / "report"
    assert main(["report", "--in", sim_stream_path, "--pair", "70,73",
                 "--hint", "5000", "--out", str(out_dir)]) == 0
    fit_doc = json.loads((out_dir / "fit.json").read_text())
    assert fit_doc["kind"] == "two_peak_fit"
    DeltaHistogram.load(str(out_dir / "histogram.json"))
    ET.fromstring((out_dir / "report.svg").read_text())
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["subcommand"] == "report"
    assert manifest["config"]["pair"] == [70, 73]


@pytest.mark.skipif(np.lib.NumpyVersion(np.__version__) < "2.0.0",
                    reason="numpy 1.x imports numpy.ma with numpy itself")
def test_analyses_never_import_numpy_ma(sim_stream_path, tmp_path):
    # np.median imports numpy.ma on float input, and np.unique does on
    # numpy 2.4: several ms of every analysis process.  The commands,
    # the LUT chain's included, go without it.
    _, raw = _code_density_path(tmp_path, 12_000)
    script = (
        "import json, sys\n"
        "from spadkit.cli import main\n"
        "assert 'numpy.ma' not in sys.modules\n"
        "stream, raw, out = sys.argv[1:]\n"
        "codes = [main(['report', '--in', stream, '--pair', '70,73',\n"
        "               '--hint', '5000', '--out', out + '/report']),\n"
        "         main(['calibrate', '--in', stream,\n"
        "               '--out', out + '/d.json']),\n"
        "         main(['dcr', '--in', stream, '--subsets', '4',\n"
        "               '--out', out + '/r.json']),\n"
        "         main(['tdc-cal', '--in', raw, '--out', out + '/l.json']),\n"
        "         main(['coincidence', '--in', raw, '--lut',\n"
        "               out + '/l.json', '--pair', '0,1',\n"
        "               '--out', out + '/h.json']),\n"
        "         main(['ct-scan', '--in', stream, '--dmax', '2',\n"
        "               '--nhot', '1', '--out', out + '/ct.json'])]\n"
        "print(json.dumps([codes, 'numpy.ma' in sys.modules]))\n")
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "-c", script, sim_stream_path,
                           raw, str(tmp_path)], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    codes, ma = json.loads(done.stdout.splitlines()[-1])
    assert codes[1] in (0, 3) and codes[:1] + codes[2:] == [0] * 5, codes
    assert not ma


def test_fit_on_malformed_json_exits_two(tmp_path, capsys):
    bad = tmp_path / "empty.json"
    bad.write_text("{}")
    code = main(["fit", "--in", str(bad), "--out", str(tmp_path / "f.json")])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["type"] == "DataError"
    assert "histogram" in err["error"]


def test_missing_input_file_exits_two(tmp_path, capsys):
    code = main(["dcr", "--in", str(tmp_path / "nope.spk1"),
                 "--out", str(tmp_path / "r.json")])
    assert code == 2
    assert "error" in json.loads(capsys.readouterr().err.strip())


def test_usage_errors_exit_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["dcr", "--nonsense"])
    assert exc.value.code == 1
    assert "usage" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["coincidence", "--in", "x", "--pair", "banana",
              "--out", "y"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["--threads", "2", "dcr", "--in", "x", "--out", "y"])
    assert exc.value.code == 1
    # out-of-range values are usage errors, not tracebacks
    for argv in (["dcr", "--subsets", "0"],
                 ["ct-scan", "--dmax", "0"],
                 ["ct-scan", "--nhot", "-1"],
                 ["ct-scan", "--window", "0"],
                 ["calibrate", "--window", "inf"],
                 ["coincidence", "--pair", "1,2", "--window", "-5"],
                 ["coincidence", "--pair", "1,2", "--bin", "nan"],
                 ["coincidence", "--pair", "3,3"],
                 ["report", "--pair", "4,3"],
                 ["report", "--pair", "1,2", "--hint", "0"],
                 ["fit", "--hint", "-1"],
                 ["dcr", "--hot-threshold", "nan"],
                 ["dcr", "--hot-threshold", "-1"],
                 ["ct-scan", "--hot-threshold", "0"]):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--in", "x", "--out", "y"])
        assert exc.value.code == 1, argv
        assert "error: argument" in capsys.readouterr().err


def test_delays_flag_matches_library_application(tmp_path):
    rng = np.random.default_rng(8)
    delays = rng.uniform(-2000, 2000, 256)
    delays -= delays.mean()
    config = SimConfig(seed=19, duration_s=1.0,
                       dcr=DcrProfile(base_cps=400.0),
                       ct_profile=((1, 0.01),),
                       delays_ps=tuple(delays))
    cfg = write_config(tmp_path / "c.json", config)
    stream_path = tmp_path / "s.spk1"
    main(["simulate", "--config", cfg, "--out", str(stream_path)])
    vec_path = tmp_path / "d.json"
    DelayVector(delays).save(str(vec_path))

    plain = tmp_path / "plain.json"
    corrected = tmp_path / "corr.json"
    main(["coincidence", "--in", str(stream_path), "--pair", "30,31",
          "--out", str(plain)])
    main(["coincidence", "--in", str(stream_path), "--pair", "30,31",
          "--delays", str(vec_path), "--out", str(corrected)])
    h0 = DeltaHistogram.load(str(plain))
    h1 = DeltaHistogram.load(str(corrected))
    assert h0.total_pairs == h1.total_pairs  # window is wide, shift is small
    peak0 = h0.bin_centers[np.argmax(h0.counts)]
    peak1 = h1.bin_centers[np.argmax(h1.counts)]
    assert abs(peak1) <= abs(peak0) or abs(peak1) < 200.0


def test_ct_scan_delays_matches_library_chain(sim_stream_path, tmp_path):
    rng = np.random.default_rng(12)
    delays = rng.uniform(-300, 300, 256)
    vec_path = tmp_path / "d.json"
    DelayVector(delays - delays.mean()).save(str(vec_path))
    argv = ["ct-scan", "--in", sim_stream_path, "--dmax", "4", "--nhot", "4"]
    for extra, name in (([], "plain"), (["--delays", str(vec_path)], "got")):
        assert main([*argv, *extra, "--svg", str(tmp_path / f"{name}.svg"),
                     "--out", str(tmp_path / f"{name}.json")]) == 0

    corrected = apply_delays(PhotonStream.read(sim_stream_path),
                             DelayVector.load(str(vec_path)))
    curve = ct_scan(corrected, compute_rates(corrected), d_max=4, n_hot=4)
    curve.save(str(tmp_path / "want.json"))
    (tmp_path / "want.svg").write_text(ct_curve_svg(curve))
    for suffix in (".json", ".svg"):
        got = (tmp_path / f"got{suffix}").read_bytes()
        assert got == (tmp_path / f"want{suffix}").read_bytes(), suffix
    # the delays moved the fits, so the comparison above saw them applied
    assert (tmp_path / "plain.json").read_bytes() != \
        (tmp_path / "got.json").read_bytes()


# ---------------------------------------------------------------------------
# the JSON boundary: every bad input file is a structured data error

FILE, STREAM, RAW = "<file>", "<stream>", "<raw stream>"
BAD_CODE = "<raw stream with a code past tdc_bins on pixel 5>"
DEEP = b"[" * 100_000
HIST = DeltaHistogram(pixel_a=0, pixel_b=1, window_ps=1000.0,
                      bin_width_ps=50.0, total_pairs=4000,
                      counts=np.full(40, 100, dtype=np.int64))
LUT = TdcLut(SensorConfig(), np.full((256, 140), 2500 / 140))
ROWS = LUT.to_json_dict()["widths_ps"]


def changed(document, **fields) -> bytes:
    return json.dumps({**document.to_json_dict(), **fields}).encode()


def lut_rows_before(text: str) -> bytes:
    """The LUT document with ``text`` put first in its ``widths_ps``."""
    doc = json.dumps(LUT.to_json_dict())
    opening = '"widths_ps": {'
    return doc.replace(opening, opening + text + ", ").encode()


@pytest.fixture(scope="module")
def raw_stream_path(tmp_path_factory):
    """Raw TDC codes on every pixel of the default sensor."""
    path = tmp_path_factory.mktemp("raw") / "raw.spk1"
    simulate_code_density(SensorConfig(), LUT.widths[0], 40, seed=3,
                          n_cycles=10).write(str(path))
    return str(path)


@pytest.fixture(scope="module")
def bad_code_stream_path(tmp_path_factory):
    """The raw stream above with one code of ``tdc_bins`` on pixel 5."""
    path = tmp_path_factory.mktemp("raw") / "bad-code.spk1"
    stream = simulate_code_density(SensorConfig(), LUT.widths[0], 40, seed=3,
                                   n_cycles=10)
    stream.raw_code[np.flatnonzero(stream.pixel == 5)[0]] = 140
    stream.write(str(path))
    return str(path)


BAD_INPUTS = [
    ("config typo", ["simulate", "--config", FILE],
     b'{"duration_s": 0.01, "pair_fracton": 0.5}'),
    ("unknown sensor key", ["simulate", "--config", FILE],
     b'{"duration_s": 0.01, "sensor": {"num_pixel": 16}}'),
    ("config list", ["simulate", "--config", FILE], b'[{"duration_s": 0.01}]'),
    ("non-utf8 config", ["simulate", "--config", FILE],
     b'{"duration_s": 0.01, "note": "caf\xe9"}'),
    ("nan literal", ["simulate", "--config", FILE], b'{"duration_s": NaN}'),
    ("float overflow", ["simulate", "--config", FILE], b'{"duration_s": 1e400}'),
    ("string for number", ["simulate", "--config", FILE],
     b'{"duration_s": "abc"}'),
    ("beam without rate", ["simulate", "--config", FILE],
     b'{"duration_s": 0.01, "beams": [{"pixel": 3}]}'),
    ("negative duration", ["simulate", "--config", FILE],
     b'{"duration_s": -1}'),
    ("string for bool", ["simulate", "--config", FILE],
     b'{"duration_s": 0.01, "include_lineage": "false"}'),
    ("explicit empty mix", ["simulate", "--config", FILE],
     b'{"duration_s": 0.01, "beams": [{"pixel": 3, "rate_cps": 1.0,'
     b' "mix": []}]}'),
    ("pixels beyond u16", ["simulate", "--config", FILE],
     b'{"duration_s": 0.01, "sensor": {"num_pixels": 70000}}'),
    # a cycle count is an integer in [1, 2**64), a stream's total_cycles
    ("duration beyond 2**64 cycles", ["simulate", "--config", FILE],
     b'{"duration_s": 1e308}',
     "malformed config document: duration_s 1e+308 is inf cycles of "
     "4000000 ps, not 1 to 2**64 - 1"),
    ("duration under a cycle", ["simulate", "--config", FILE],
     b'{"duration_s": 1e-300}'),
    # one override per pixel, one spelling per pixel key
    ("repeated override pixel", ["simulate", "--config", FILE],
     b'{"duration_s": 0.01, "dcr": {"overrides": [[3, 900], [3, 5]]}}',
     "malformed config document: duplicate pixel in dcr overrides"),
    ("zero-padded override pixel", ["simulate", "--config", FILE],
     b'{"duration_s": 0.01, "dcr": {"overrides": {"3": 900, "03": 5}}}',
     "malformed config document: dcr: overrides: key '03' is not a plain "
     "decimal integer"),
    ("deep fit input", ["fit", "--in", FILE], DEEP),
    ("deep delays", ["coincidence", "--in", STREAM, "--pair", "0,1",
                     "--delays", FILE], DEEP),
    ("deep lut", ["calibrate", "--in", STREAM, "--lut", FILE], DEEP),
    # integers in result documents are JSON integers, counts not negative
    ("fractional pixel", ["fit", "--in", FILE], changed(HIST, pixel_a=0.9)),
    ("fractional counts", ["fit", "--in", FILE],
     changed(HIST, counts=[-3.9] + [100] * 39)),
    ("negative count", ["fit", "--in", FILE],
     changed(HIST, counts=[-3] + [100] * 39)),
    ("negative total", ["fit", "--in", FILE], changed(HIST, total_pairs=-4)),
    # the median of the counts, so at most the largest: squared by the fit
    ("median above every count", ["fit", "--in", FILE],
     changed(normalize_histogram(HIST), median_count=1e308)),
    ("fractional gap pixel", ["coincidence", "--in", STREAM, "--pair", "0,1",
                              "--delays", FILE],
     changed(DelayVector(np.zeros(256)), gap_pixels=[[0.5, 1]])),
    # floats in result documents are JSON numbers, not strings or booleans
    ("string window", ["fit", "--in", FILE], changed(HIST, window_ps="1000")),
    ("string bin width", ["fit", "--in", FILE],
     changed(HIST, bin_width_ps="5e1")),
    ("string delay", ["coincidence", "--in", STREAM, "--pair", "0,1",
                      "--delays", FILE],
     changed(DelayVector(np.zeros(256)),
             delays_ps={str(p): "0" if p == 7 else 0.0 for p in range(256)})),
    ("string lut width", ["coincidence", "--in", RAW, "--pair", "0,1",
                          "--lut", FILE],
     changed(LUT, widths_ps={**ROWS, "1": [str(w) for w in ROWS["1"]]})),
    # one spelling per LUT row: no second row can replace a pixel's first
    ("padded lut key", ["coincidence", "--in", RAW, "--pair", "0,1",
                        "--lut", FILE],
     changed(LUT, widths_ps={**ROWS, " +1": ROWS["1"]})),
    ("repeated lut key", ["coincidence", "--in", RAW, "--pair", "0,1",
                          "--lut", FILE],
     lut_rows_before(f'"1": {json.dumps(ROWS["1"])}')),
    ("lut rows not an object", ["coincidence", "--in", RAW, "--pair", "0,1",
                                "--lut", FILE],
     changed(LUT, widths_ps=list(ROWS.values()))),
]
# coincidence and report convert only their pair's records, but check the
# whole stream against the LUT first: each case fails off the pair, with
# its own message (the fourth field)
BAD_INPUTS += [
    (f"{name}, {command[0]}", [*command, "--in", stream, "--lut", FILE],
     content, message)
    for command in (["coincidence", "--pair", "0,1"], ["report", "--pair", "0,1"])
    for name, stream, content, message in (
        ("unusable pixel off the pair", RAW, changed(LUT, unusable_pixels=[7]),
         "stream contains records from uncalibrated pixels: 7"),
        ("raw code off the pair", BAD_CODE, changed(LUT),
         "raw code 140 out of range (tdc_bins=140)"),
        ("lut of another sensor", RAW,
         changed(LUT, sensor={**LUT.to_json_dict()["sensor"],
                              "clock_period_ps": 2600}),
         "LUT sensor fingerprint does not match the stream sensor"))]
# the acquisition length that rates divide by: one cycle at index 9, so a
# fallback to the cycle span would read 10
BAD_INPUTS += [
    ("malformed total_cycles", ["dcr", "--in", FILE],
     with_metadata_entry(
         stream_bytes(StreamHeader(SensorConfig()),
                      [AcquisitionCycle(9, (TimestampRecord(3, 100),))]),
         "total_cycles", "abc"),
     "metadata total_cycles 'abc' is not a cycle count")]


@pytest.mark.parametrize("argv, content, message",
                         [(*case[1:3], case[3] if len(case) > 3 else None)
                          for case in BAD_INPUTS],
                         ids=[case[0] for case in BAD_INPUTS])
def test_bad_input_files_exit_two(argv, content, message, sim_stream_path,
                                  raw_stream_path, bad_code_stream_path,
                                  tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    out = tmp_path / "out"
    argv = [{FILE: str(bad), STREAM: sim_stream_path, RAW: raw_stream_path,
             BAD_CODE: bad_code_stream_path}.get(a, a) for a in argv]
    assert main([*argv, "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] and err["type"] in (
        {"StreamFormatError"} if content.startswith(b"SPK1")
        else {"DataError", "CalibrationError"})
    if message is not None:
        assert err["error"] == message
    assert not out.exists()


def test_delays_must_cover_the_stream(sim_stream_path, tmp_path, capsys):
    eight = tmp_path / "d8.json"
    DelayVector(np.zeros(8)).save(str(eight))
    for argv in (["coincidence", "--pair", "0,1"], ["ct-scan"],
                 ["report", "--pair", "0,1"]):
        assert main([*argv, "--in", sim_stream_path, "--delays", str(eight),
                     "--out", str(tmp_path / "out")]) == 2, argv
        err = json.loads(capsys.readouterr().err.strip())
        assert err["type"] == "DataError"
        assert "8 delays" in err["error"] and "256 pixels" in err["error"]


@pytest.mark.parametrize("pair", ["0,300", "=-1,5", "255,256"])
@pytest.mark.parametrize("command", ["coincidence", "report"])
def test_pair_outside_the_sensor_exits_two(sim_stream_path, tmp_path, capsys,
                                           command, pair):
    # "--pair=-1,5": a bare "-1,5" after "--pair" is read as an option
    flag = f"--pair{pair}" if pair.startswith("=") else f"--pair={pair}"
    out = tmp_path / "out"
    assert main([command, "--in", sim_stream_path, flag,
                 "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["type"] == "DataError"
    assert pair.lstrip("=") in err["error"] and "0..255" in err["error"]
    assert not out.exists()


def test_fit_documents_are_strict_json(tmp_path):
    # A flat histogram fits a zero-amplitude peak whose center and width
    # are unconstrained: their errors are infinite.
    flat = DeltaHistogram(pixel_a=0, pixel_b=1, window_ps=1000.0,
                          bin_width_ps=50.0, total_pairs=4000,
                          counts=np.full(40, 100, dtype=np.int64))
    hist_path, fit_path = tmp_path / "flat.json", tmp_path / "fit.json"
    flat.save(str(hist_path))
    assert main(["fit", "--in", str(hist_path), "--out", str(fit_path)]) == 0
    doc = json.loads(fit_path.read_text(), parse_constant=pytest.fail)
    assert doc["center_err_ps"] is None and doc["sigma_err_ps"] is None


@pytest.mark.parametrize("command", ["simulate", "fit"])
def test_floating_point_warnings_leave_one_json_line(command, tmp_path,
                                                     capsys):
    # numpy overflows before the command refuses its input: a dark rate
    # of 1e308 in a config, a normalized value of 1e308 in a histogram.
    # Under an "error" filter, a warning that reached stderr would raise.
    path = tmp_path / "in.json"
    if command == "simulate":
        write_json(str(path), {"duration_s": 0.001,
                               "dcr": {"base_cps": 1e308}})
        argv = ["simulate", "--config", str(path)]
    else:
        counts = np.full(40, 100, dtype=np.int64)
        counts[18:22] = 400
        doc = normalize_histogram(DeltaHistogram(
            pixel_a=0, pixel_b=1, window_ps=1000.0, bin_width_ps=50.0,
            total_pairs=int(counts.sum()), counts=counts)).to_json_dict()
        doc["normalized"][0] = 1e308
        write_json(str(path), doc)
        argv = ["fit", "--in", str(path)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([*argv, "--out", str(tmp_path / "out")]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1, lines
    assert json.loads(lines[0])["type"] in {"DataError", "FitError"}


def test_fit_on_too_few_bins_exits_two(tmp_path, capsys):
    few = DeltaHistogram(pixel_a=0, pixel_b=1, window_ps=100.0,
                         bin_width_ps=50.0, total_pairs=10,
                         counts=np.array([1, 2, 5, 2], dtype=np.int64))
    few.save(str(tmp_path / "few.json"))
    for extra in ([], ["--two-peaks"]):
        assert main(["fit", "--in", str(tmp_path / "few.json"), *extra,
                     "--out", str(tmp_path / "fit.json")]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["type"] == "DataError" and "bins" in err["error"]


@pytest.mark.parametrize("change", [
    {"normalized": 5.0},                       # a scalar, not a list
    {"median_count": -3},
    {"normalized": [1.0] * 39},                # one value short
    {"normalized": [[1.0]] * 40},              # nested
], ids=["scalar", "negative median", "short", "nested"])
def test_fit_refuses_a_malformed_normalization(change, tmp_path, capsys):
    counts = np.full(40, 100, dtype=np.int64)
    counts[18:22] = 400
    peak = normalize_histogram(DeltaHistogram(
        pixel_a=0, pixel_b=1, window_ps=1000.0, bin_width_ps=50.0,
        total_pairs=int(counts.sum()), counts=counts))
    path = tmp_path / "h.json"
    write_json(str(path), {**peak.to_json_dict(), **change})
    assert main(["fit", "--in", str(path),
                 "--out", str(tmp_path / "fit.json")]) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["type"] == "DataError"
    assert "malformed histogram document" in err["error"]


@pytest.mark.parametrize("argv, model_bins, grid_bins", [
    (["calibrate", "--window", "50"], 10, 6),
    (["ct-scan", "--dmax", "2", "--nhot", "2", "--window", "50"], 10, 6),
    (["report", "--pair", "70,73", "--bin", "100000"], 14, 1),
])
def test_too_few_bins_for_the_model_exits_two(argv, model_bins, grid_bins,
                                              sim_stream_path, tmp_path,
                                              capsys):
    # calibrate and ct-scan bin at the mean TDC bin (2500/140 ps), so a
    # 50 ps window leaves ceil(100 / 17.86) = 6 bins; report's 100 ns bin
    # leaves one.
    out = tmp_path / "out"
    assert main([*argv, "--in", sim_stream_path, "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["type"] == "DataError"
    assert f"need at least {model_bins} bins" in err["error"]
    assert f"got {grid_bins}" in err["error"]
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["coincidence", "--pair", "5,6", "--bin", "1e-300"],
    ["report", "--pair", "70,73", "--window", "1e300"],
    ["calibrate", "--window", "1e300"],
    ["ct-scan", "--dmax", "2", "--nhot", "2", "--window", "1e300"],
])
def test_too_many_bins_exits_two(argv, sim_stream_path, tmp_path, capsys):
    # each grid needs over 2**63 bins, more than any array may hold: the
    # bin limit refuses it before the count cube is allocated
    out = tmp_path / "out"
    assert main([*argv, "--in", sim_stream_path, "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["type"] == "DataError"
    assert f"needs over {MAX_BINS} bins" in err["error"]
    assert not out.exists()


@pytest.fixture(scope="module")
def tiny_stream_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("tiny") / "tiny.spk1"
    stream, _truth = simulate(SimConfig(
        sensor=SensorConfig(num_pixels=8), seed=9, duration_s=0.2,
        dcr=DcrProfile(base_cps=2000.0), ct_profile=((1, 0.05),)))
    stream.write(str(path))
    return str(path)


_KEYS = st.sampled_from(["pixel_a", "pixel_b", "window_ps", "bin_width_ps",
                         "counts", "total_pairs", "normalized", "delays_ps",
                         "provenance", "sensor", "num_pixels",
                         "tdc_bins_per_clock", "clock_period_ps",
                         "widths_ps", "unusable_pixels", "0", "1"])
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(_KEYS, inner, max_size=6), max_leaves=20)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(blob=st.binary(max_size=300)
       | _JSON.map(lambda doc: json.dumps(doc).encode()),
       command=st.sampled_from(["fit", "coincidence", "calibrate"]))
def test_property_document_inputs_never_raise(blob, command,
                                              tiny_stream_path,
                                              tmp_path_factory):
    tmp = tmp_path_factory.getbasetemp()
    bad, out = tmp / "blob.json", tmp / "blob-out.json"
    bad.write_bytes(blob)
    argv = {"fit": ["fit", "--in", str(bad)],
            "coincidence": ["coincidence", "--in", tiny_stream_path,
                            "--pair", "0,1", "--delays", str(bad)],
            "calibrate": ["calibrate", "--in", tiny_stream_path,
                          "--lut", str(bad)]}[command]
    assert main([*argv, "--out", str(out)]) in {0, 1, 2, 3}


def test_lut_documents_load_and_apply(raw_stream_path, tmp_path):
    # the valid LUT the bad-input cases above alter applies, and both
    # documents read back as written
    lut_path, out = tmp_path / "lut.json", tmp_path / "hist.json"
    LUT.save(str(lut_path))
    assert main(["coincidence", "--in", raw_stream_path, "--pair", "0,1",
                 "--lut", str(lut_path), "--out", str(out)]) == 0
    for path, cls in ((lut_path, TdcLut), (out, DeltaHistogram)):
        doc = json.loads(path.read_text())
        assert cls.load(str(path)).to_json_dict() == doc


# ---------------------------------------------------------------------------
# tdc-cal: the LUT that --lut applies, from a raw-code stream

def _code_density_path(tmp_path, counts):
    sensor = SensorConfig(num_pixels=2)
    path = tmp_path / "codes.spk1"
    stream = simulate_code_density(sensor, LUT.widths[0], counts, seed=4,
                                   n_cycles=20)
    stream.write(str(path))
    return stream, str(path)


def test_tdc_cal_writes_the_lut_that_coincidence_applies(tmp_path, caplog):
    caplog.set_level(logging.INFO)
    stream, raw = _code_density_path(tmp_path, 12_000)
    lut_path, hist = tmp_path / "lut.json", tmp_path / "hist.json"
    assert main(["tdc-cal", "--in", raw, "--out", str(lut_path)]) == 0
    want = build_lut(stream).to_json_dict()
    assert json.loads(lut_path.read_text()) == want
    assert read_manifest(lut_path)["inputs"] == [raw]
    assert "tdc-cal: 24000 records, 0 of 2 pixels unusable" in caplog.messages
    assert main(["coincidence", "--in", raw, "--lut", str(lut_path),
                 "--pair", "0,1", "--out", str(hist)]) == 0
    assert DeltaHistogram.load(str(hist)).total_pairs > 0


def test_tdc_cal_with_an_unusable_pixel_exits_three(tmp_path):
    # pixel 1 has too few counts to calibrate: the LUT is still written
    _stream, raw = _code_density_path(tmp_path, (12_000, 50))
    lut_path = tmp_path / "lut.json"
    assert main(["tdc-cal", "--in", raw, "--out", str(lut_path)]) == 3
    assert TdcLut.load(str(lut_path)).unusable == {1}


def test_tdc_cal_on_a_stream_without_raw_codes_exits_two(tiny_stream_path,
                                                         tmp_path, capsys):
    lut_path = tmp_path / "lut.json"
    assert main(["tdc-cal", "--in", tiny_stream_path,
                 "--out", str(lut_path)]) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err == {"error": "stream carries no raw TDC codes",
                   "type": "DataError"}
    assert not lut_path.exists()


# ---------------------------------------------------------------------------
# --lut on coincidence and report: only the pair's records are converted,
# with the same result as converting the whole stream

@pytest.fixture(scope="module")
def lut_chain(tmp_path_factory):
    """A raw-code stream with a correlated beam pair on 70/73 and no
    records on pixel 9, a LUT of uneven per-pixel widths, and a delay
    vector."""
    tmp = tmp_path_factory.mktemp("lut-chain")
    sensor = SensorConfig()
    config = SimConfig(seed=31, duration_s=1.0,
                       dcr=DcrProfile(base_cps=400.0, overrides=((9, 0.0),)),
                       beams=(BeamSpec(pixel=70, rate_cps=2e5),
                              BeamSpec(pixel=73, rate_cps=2e5)),
                       pair_fraction=0.3, fiber_delay_ps=5000.0)
    stream, _truth = simulate(config)
    clock = sensor.clock_period_ps
    base = np.floor(stream.time_ps / clock) * clock
    codes = np.minimum((stream.time_ps - base) // sensor.mean_bin_width_ps,
                       sensor.tdc_bins_per_clock - 1).astype(np.uint32)
    order = record_order(stream.cycle_index, base, stream.pixel)
    raw = dataclasses.replace(stream, time_ps=base, raw_code=codes).take(order)
    assert not (raw.pixel == 9).any()
    rng = np.random.default_rng(6)
    widths = rng.uniform(0.5, 1.5, (sensor.num_pixels,
                                    sensor.tdc_bins_per_clock))
    widths *= clock / widths.sum(axis=1, keepdims=True)
    paths = {"stream": tmp / "raw.spk1", "lut": tmp / "lut.json",
             "delays": tmp / "delays.json"}
    raw.write(str(paths["stream"]))
    TdcLut(sensor, widths).save(str(paths["lut"]))
    delays = rng.uniform(-300, 300, sensor.num_pixels)
    DelayVector(delays - delays.mean()).save(str(paths["delays"]))
    return {k: str(v) for k, v in paths.items()}


def _whole_stream_histogram(chain, pair, delays=False):
    """The oracle: every record converted (and delay-corrected), then the
    pair histogrammed."""
    stream = PhotonStream.read(chain["stream"])
    stream = apply_lut(stream, TdcLut.load(chain["lut"], stream.sensor))
    if delays:
        stream = apply_delays(stream, DelayVector.load(chain["delays"]))
    hist = build_histogram(stream, pair)
    try:
        return normalize_histogram(hist)
    except DataError:
        return hist


@pytest.mark.parametrize("pair, delays", [
    ((70, 71), False),   # adjacent
    ((70, 200), False),  # distant
    ((9, 10), False),    # pixel 9 has no records
    ((70, 73), True),    # with --delays
], ids=["adjacent", "distant", "one pixel empty", "with delays"])
def test_coincidence_lut_matches_whole_stream_conversion(lut_chain, pair,
                                                         delays, tmp_path):
    out = tmp_path / "hist.json"
    argv = ["coincidence", "--in", lut_chain["stream"], "--lut",
            lut_chain["lut"], "--pair", f"{pair[0]},{pair[1]}"]
    if delays:
        argv += ["--delays", lut_chain["delays"]]
    assert main([*argv, "--out", str(out)]) == 0
    want = _whole_stream_histogram(lut_chain, pair, delays)
    got = DeltaHistogram.load(str(out))
    assert np.array_equal(got.counts, want.counts)
    assert got.total_pairs == want.total_pairs
    if pair == (9, 10):
        assert want.total_pairs == 0
    else:
        assert want.total_pairs > 0
    want.save(str(tmp_path / "want.json"))
    assert out.read_bytes() == (tmp_path / "want.json").read_bytes()


@pytest.mark.parametrize("delays", [False, True],
                         ids=["plain", "with delays"])
def test_report_lut_matches_whole_stream_conversion(lut_chain, delays,
                                                    tmp_path):
    out = tmp_path / "report"
    argv = ["report", "--in", lut_chain["stream"], "--lut", lut_chain["lut"],
            "--pair", "70,73", "--hint", "5000"]
    if delays:
        argv += ["--delays", lut_chain["delays"]]
    assert main([*argv, "--out", str(out)]) == 0
    hist = _whole_stream_histogram(lut_chain, (70, 73), delays)
    fit = fit_two_peaks(hist, separation_hint_ps=5000.0)
    want = tmp_path / "want"
    want.mkdir()
    hist.save(str(want / "histogram.json"))
    write_json(str(want / "fit.json"), fit.to_json_dict())
    (want / "report.svg").write_text(
        histogram_svg(hist, fit, title="pixels 70,73"))
    for name in ("histogram.json", "fit.json", "report.svg"):
        assert (out / name).read_bytes() == (want / name).read_bytes(), name


def test_coincidence_and_report_log_the_records_converted(lut_chain, tmp_path,
                                                          caplog):
    caplog.set_level(logging.INFO)
    stream = PhotonStream.read(lut_chain["stream"])
    on_pair = int(np.isin(stream.pixel, (70, 73)).sum())
    for command in ("coincidence", "report"):
        caplog.clear()
        assert main([command, "--in", lut_chain["stream"], "--lut",
                     lut_chain["lut"], "--pair", "70,73",
                     "--out", str(tmp_path / command)]) == 0
        logged = [r for r in caplog.records if r.levelno == logging.INFO
                  and r.getMessage().startswith("apply_lut:")]
        assert [r.getMessage() for r in logged] == [
            f"apply_lut: converted {on_pair} of {stream.n_records} records "
            "(pixels 70, 73)"]
        assert 0 < on_pair < stream.n_records

