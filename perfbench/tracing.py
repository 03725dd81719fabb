"""Spans around spadkit's public functions, installed from outside `src/`.

The tracer replaces each public function under every name a caller can
look it up by (``spadkit.cli.measure_offsets``, ``spadkit.offsets.
fit_gaussian``, ``spadkit.crosstalk.fit_gaussian`` ...) and each public
method on its class (``PhotonStream.read``, ``PixelIndex.histogram``), so
spans nest the way the program really calls them:

    cli.main -> PhotonStream.read
             -> measure_offsets -> PixelIndex.from_stream
                                -> PixelIndex.histogram x255
                                -> fit_gaussian x255

A span records name, start, end and parent.  Spans stay in memory; the
caller writes them out when the run ends.  Counts a layer's output implies
(records read, pairs expanded, fit iterations) are computed right after
the call returns inside a ``bench.count`` span, so their cost never lands
in a program layer's self time.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import time

import numpy as np


class Span:
    __slots__ = ("name", "key", "start", "end", "parent", "failed", "counts")

    def __init__(self, name, key, start, parent):
        self.name = name
        self.key = key
        self.start = start
        self.end = start
        self.parent = parent
        self.failed = False
        self.counts = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json_dict(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "failed": self.failed,
                "counts": self.counts}


# ---------------------------------------------------------------------------
# counters: derived from a call's arguments and result, outside its span

def _count_read(args, result):
    source = args[1]  # args[0] is the class: read is a classmethod
    size = os.path.getsize(source) if isinstance(source, str) else 0
    return {"records": result.n_records, "bytes": size}


def _count_write(args, result):
    return {"records": args[0].n_records, "bytes": int(result)}


def _count_simulate(args, result):
    return {"records": result[0].n_records}


def _count_code_density(args, result):
    return {"records": result.n_records}


def _expanded_pairs(cyc_a, cyc_b) -> int:
    """Sum over cycles of n_a * n_b: the pairs a same-cycle join expands."""
    if len(cyc_a) == 0 or len(cyc_b) == 0:
        return 0
    cycles, n_a = np.unique(cyc_a, return_counts=True)
    n_b = (np.searchsorted(cyc_b, cycles, side="right")
           - np.searchsorted(cyc_b, cycles, side="left"))
    return int(np.dot(n_a.astype(np.int64), n_b.astype(np.int64)))


def _count_index_histogram(args, result):
    index = args[0]
    cyc_a, _ = index.records_for(result.pixel_a)
    cyc_b, _ = index.records_for(result.pixel_b)
    return {"pairs_in_window": result.total_pairs,
            "pairs_expanded": _expanded_pairs(cyc_a, cyc_b)}


def _count_stream_histogram(args, result):
    stream = args[0]
    cyc_a = stream.cycle_index[stream.pixel == result.pixel_a]
    cyc_b = stream.cycle_index[stream.pixel == result.pixel_b]
    return {"pairs_in_window": result.total_pairs,
            "pairs_expanded": _expanded_pairs(cyc_a, cyc_b)}


def _count_fit(args, result):
    return {"iterations": result.n_iterations}


def _count_offsets(args, result):
    return {"invalid_pairs": sum(not m.valid for m in result)}


# (defining module, attribute path, layer key, counter).  The layer key
# names the per-layer metric a span feeds; several functions may share one.
TARGETS = (
    ("spadkit.timestream", "PhotonStream.read", "timestream.read", _count_read),
    ("spadkit.timestream", "PhotonStream.write", "timestream.write",
     _count_write),
    ("spadkit.simulator", "simulate", "simulator.simulate", _count_simulate),
    ("spadkit.simulator", "simulate_code_density", "simulator.code_density",
     _count_code_density),
    ("spadkit.tdc", "build_lut", "tdc.build_lut", None),
    ("spadkit.tdc", "apply_lut", "tdc.apply_lut", None),
    ("spadkit.rates", "compute_rates", "rates.compute_rates", None),
    ("spadkit.coincidence", "PixelIndex.from_stream", "coincidence.index",
     None),
    ("spadkit.coincidence", "PixelIndex.histogram", "coincidence.histogram",
     _count_index_histogram),
    ("spadkit.coincidence", "build_histogram", "coincidence.histogram",
     _count_stream_histogram),
    ("spadkit.peakfit", "fit_gaussian", "peakfit.fit", _count_fit),
    ("spadkit.peakfit", "fit_two_peaks", "peakfit.fit", _count_fit),
    ("spadkit.crosstalk", "ct_scan", "crosstalk.ct_scan", None),
    ("spadkit.offsets", "measure_offsets", "offsets.measure_offsets",
     _count_offsets),
    ("spadkit.offsets", "solve_delays", "offsets.solve_delays", None),
    ("spadkit.offsets", "apply_delays", "offsets.apply_delays", None),
    ("spadkit.svg", "histogram_svg", "svg.render", None),
    ("spadkit.svg", "ct_curve_svg", "svg.render", None),
    ("spadkit.cli", "main", "cli.main", None),
)


class Tracer:
    """Records spans while installed; a no-op on the program otherwise."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _open(self, name: str, key: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, key, time.perf_counter(), parent)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, key: str | None = None):
        """One span; ``key`` names the metric it feeds (default: name)."""
        span = self._open(name, key or name)
        try:
            yield span
        except BaseException:
            span.failed = True
            raise
        finally:
            self._close(span)

    def _wrap(self, name: str, key: str, func, counter):
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            # A function that re-enters itself (PhotonStream.read on a path
            # calls read on the open file) gets one span, not two.
            if tracer._stack and tracer.spans[tracer._stack[-1]].name == name:
                return func(*args, **kwargs)
            with tracer.span(name, key) as span:
                result = func(*args, **kwargs)
            if counter is not None:
                with tracer.span("bench.count"):
                    span.counts = counter(args, result)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every target under every name spadkit binds it to."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "spadkit" or n.startswith("spadkit.")) and m]
        for mod_name, attr, key, counter in TARGETS:
            owner = sys.modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                name = f"{mod_name}.{attr}"
                if isinstance(raw, classmethod):
                    wrapped = classmethod(
                        self._wrap(name, key, raw.__func__, counter))
                else:
                    wrapped = self._wrap(name, key, raw, counter)
                self._restore.append((cls, meth, raw))
                setattr(cls, meth, wrapped)
                continue
            func = getattr(owner, attr)
            for mod in modules:
                for binding, value in list(vars(mod).items()):
                    if value is func:
                        name = f"{mod.__name__}.{binding}"
                        self._restore.append((mod, binding, value))
                        setattr(mod, binding,
                                self._wrap(name, key, func, counter))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def take(self) -> list[Span]:
        """Hand over the spans recorded so far and start a fresh list."""
        if self._stack:
            raise RuntimeError("cannot take spans while a span is open")
        spans, self.spans = self.spans, []
        return spans


# ---------------------------------------------------------------------------
# per-layer metrics from one iteration's spans

def self_times(spans: list[Span]) -> list[float]:
    """Duration minus the time covered by direct child spans."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.duration
    return [s.duration - c for s, c in zip(spans, covered)]


def layer_metrics(spans: list[Span], scale: float) -> dict[str, float]:
    """Fold one iteration's spans into the per-layer metric values.

    Every span duration is multiplied by ``scale`` (the reference-speed
    factor of the iteration, see reference.py).
    """
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, dict[str, int]] = {}
    self_by_layer: dict[str, float] = {}
    failed_fits = 0
    for span, self_s in zip(spans, self_times(spans)):
        total[span.key] = total.get(span.key, 0.0) + span.duration * scale
        calls[span.key] = calls.get(span.key, 0) + 1
        layer = span.key.split(".")[0]
        self_by_layer[layer] = self_by_layer.get(layer, 0.0) + self_s * scale
        if span.counts:
            bucket = counts.setdefault(span.key, {})
            for k, v in span.counts.items():
                bucket[k] = bucket.get(k, 0) + v
        if span.key == "peakfit.fit" and span.failed:
            failed_fits += 1

    def t(key):
        return total.get(key, 0.0)

    def c(key, field):
        return counts.get(key, {}).get(field, 0)

    read_s = t("timestream.read")
    read_bytes = c("timestream.read", "bytes")
    sim_s = t("simulator.simulate") + t("simulator.code_density")
    sim_records = (c("simulator.simulate", "records")
                   + c("simulator.code_density", "records"))
    expanded = c("coincidence.histogram", "pairs_expanded")
    in_window = c("coincidence.histogram", "pairs_in_window")
    return {
        "timestream.read_s": read_s,
        "timestream.read_calls": calls.get("timestream.read", 0),
        "timestream.read_mb_per_s":
            read_bytes / 1e6 / read_s if read_s > 0 else 0.0,
        "timestream.write_s": t("timestream.write"),
        "timestream.bytes": read_bytes + c("timestream.write", "bytes"),
        "timestream.records": c("timestream.read", "records"),
        "simulator.simulate_s": t("simulator.simulate"),
        "simulator.code_density_s": t("simulator.code_density"),
        "simulator.records_per_s": sim_records / sim_s if sim_s > 0 else 0.0,
        "tdc.build_lut_s": t("tdc.build_lut"),
        "tdc.apply_lut_s": t("tdc.apply_lut"),
        "rates.compute_rates_s": t("rates.compute_rates"),
        "rates.calls": calls.get("rates.compute_rates", 0),
        "coincidence.index_s": t("coincidence.index"),
        "coincidence.histogram_s": t("coincidence.histogram"),
        "coincidence.histogram_calls": calls.get("coincidence.histogram", 0),
        "coincidence.pairs_in_window": in_window,
        "coincidence.pairs_expanded": expanded,
        "coincidence.window_hit_ratio":
            in_window / expanded if expanded else 0.0,
        "peakfit.fit_s": t("peakfit.fit"),
        "peakfit.fit_calls": calls.get("peakfit.fit", 0),
        "peakfit.iterations": c("peakfit.fit", "iterations"),
        "peakfit.failed": failed_fits,
        "crosstalk.ct_scan_s": t("crosstalk.ct_scan"),
        "crosstalk.self_s": self_by_layer.get("crosstalk", 0.0),
        "offsets.measure_offsets_s": t("offsets.measure_offsets"),
        "offsets.self_s": self_by_layer.get("offsets", 0.0),
        "offsets.solve_delays_s": t("offsets.solve_delays"),
        "offsets.apply_delays_s": t("offsets.apply_delays"),
        "offsets.invalid_pairs": c("offsets.measure_offsets", "invalid_pairs"),
        "cli.self_s": self_by_layer.get("cli", 0.0),
        "svg.render_s": t("svg.render"),
    }
