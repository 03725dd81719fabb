"""TDC nonlinearity calibration by code density.

Each pixel's time-to-digital converter divides one clock period into
``tdc_bins_per_clock`` bins of unequal width.  Under illumination that is
uniform in time, the count share of a code estimates its bin width:

    width(pixel, code) = clock_period * count(pixel, code) / total(pixel)

A lookup table built this way converts raw codes to calibrated intra-clock
times using the bin midpoint convention.  Pixels without enough statistics
to trust the estimate are flagged unusable and refuse conversion.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace

import numpy as np

from .documents import (Document, as_count, as_float, as_key, as_list,
                        as_object)
from .errors import CalibrationError, DataError
from .timestream import (PhotonStream, SensorConfig, _bincount, _pieces,
                         record_order)

logger = logging.getLogger(__name__)

MIN_COUNTS_PER_PIXEL = 10_000

SCHEMA_VERSION = 1
# What a LUT document records of its sensor; it converts only the streams
# of a sensor with the same values.
_FINGERPRINT = ("num_pixels", "tdc_bins_per_clock", "clock_period_ps")


def _fingerprint(sensor: SensorConfig) -> dict:
    return {key: getattr(sensor, key) for key in _FINGERPRINT}


def _require_sensor(fingerprint: dict, sensor: SensorConfig) -> None:
    """Refuse a LUT of the sensor ``fingerprint`` for a ``sensor`` stream."""
    if fingerprint != _fingerprint(sensor):
        raise CalibrationError(
            "LUT sensor fingerprint does not match the stream sensor")


@dataclass
class TdcLut(Document):
    """Per-pixel bin widths (ps) and derived offsets for one sensor.

    ``widths`` has shape (num_pixels, tdc_bins_per_clock).  For every
    pixel not in ``unusable`` all widths are positive and sum to the clock
    period (relative tolerance 1e-6).  Unusable pixels keep whatever raw
    shares were measured, for inspection only.
    """

    sensor: SensorConfig
    widths: np.ndarray
    unusable: frozenset[int] = frozenset()
    offsets: np.ndarray = field(init=False)

    LOAD_ERROR = CalibrationError
    NOUN = "LUT"

    def __post_init__(self):
        expected = (self.sensor.num_pixels, self.sensor.tdc_bins_per_clock)
        self.widths = np.asarray(self.widths, dtype=np.float64)
        if self.widths.shape != expected:
            raise ValueError(f"widths shape {self.widths.shape}, want {expected}")
        clock = self.sensor.clock_period_ps
        usable = np.ones(self.sensor.num_pixels, dtype=bool)
        usable[list(self.unusable)] = False
        if usable.any():
            w = self.widths[usable]
            if not (w > 0).all():
                raise ValueError("usable pixel has non-positive bin width")
            err = np.abs(w.sum(axis=1) - clock) / clock
            if err.max() > 1e-6:
                raise ValueError("usable pixel widths do not sum to clock period")
        offs = np.zeros_like(self.widths)
        offs[:, 1:] = np.cumsum(self.widths, axis=1)[:, :-1]
        self.offsets = offs

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "tdc_lut",
            "sensor": _fingerprint(self.sensor),
            "unusable_pixels": sorted(self.unusable),
            "widths_ps": {str(p): self.widths[p].tolist()
                          for p in range(self.sensor.num_pixels)},
        }

    @classmethod
    def _decode(cls, doc: dict, sensor: SensorConfig | None = None) -> "TdcLut":
        fp = as_object(doc["sensor"])
        fingerprint = {key: as_count(fp[key]) for key in _FINGERPRINT}
        if sensor is None:
            sensor = SensorConfig(**fingerprint)
        else:
            _require_sensor(fingerprint, sensor)
        num_pixels = fingerprint["num_pixels"]
        bins = fingerprint["tdc_bins_per_clock"]
        # one row of ``bins`` widths per pixel, checked before the table
        # is allocated: its size is then the document's own count of
        # widths, however large a sensor the document declares
        rows = as_object(doc["widths_ps"])
        pixels = []
        for key, vals in rows.items():
            p = as_key(key)
            if p >= num_pixels or len(as_list(vals)) != bins:
                raise CalibrationError(f"malformed LUT row for pixel {key!r}")
            pixels.append(p)
        if len(pixels) != num_pixels:
            raise ValueError(f"{len(pixels)} rows for {num_pixels} pixels")
        widths = np.empty((num_pixels, bins))
        for p, vals in zip(pixels, rows.values()):
            widths[p] = _width_row(vals)
        unusable = frozenset(as_count(p)
                             for p in as_list(doc.get("unusable_pixels", [])))
        if not unusable <= set(range(num_pixels)):
            raise CalibrationError("unusable pixel outside the sensor")
        return cls(sensor=sensor, widths=widths, unusable=unusable)


def _width_row(vals):
    """One LUT row under ``as_float``'s rule (JSON numbers, finite), with
    one conversion for a row of plain ints and floats."""
    if not {type(v) for v in vals} <= {float, int}:
        return [as_float(v) for v in vals]  # raises for the first bad one
    row = np.asarray(vals, dtype=np.float64)
    if not np.isfinite(row).all():
        raise ValueError("non-finite LUT width")
    return row


def build_lut(stream: PhotonStream) -> TdcLut:
    """Estimate per-pixel bin widths from a uniform-illumination run.

    Pixels are flagged unusable when their total count is below
    ``MIN_COUNTS_PER_PIXEL`` or when any code never fired (a dead code
    makes the positive-width invariant unsatisfiable; with uniform light
    and enough counts this only happens to genuinely defective channels).
    """
    sensor = stream.sensor
    if stream.raw_code is None:
        raise DataError("stream carries no raw TDC codes")
    bins = sensor.tdc_bins_per_clock
    codes = stream.raw_code
    if codes.size and codes.max() >= bins:
        bad = int(codes.max())
        raise DataError(f"raw code {bad} out of range (tdc_bins={bins})")

    def flat(lo: int, hi: int) -> np.ndarray:
        # a piece's (pixel, code) index: both are 16-bit, so it fits
        index = np.multiply(stream.pixel[lo:hi], bins, dtype=np.uint32)
        index += codes[lo:hi]
        return index

    counts = _bincount((flat(lo, hi) for lo, hi in _pieces(len(codes))),
                       sensor.num_pixels * bins)
    counts = counts.reshape(sensor.num_pixels, bins)
    totals = counts.sum(axis=1)

    starved = totals < MIN_COUNTS_PER_PIXEL
    dead_code = (counts == 0).any(axis=1)
    unusable = frozenset(np.flatnonzero(starved | dead_code).tolist())
    if unusable:
        logger.warning("%d pixels unusable after code-density calibration",
                       len(unusable))

    clock = float(sensor.clock_period_ps)
    with np.errstate(invalid="ignore", divide="ignore"):
        widths = clock * counts / totals[:, None]
    widths[totals == 0] = 0.0
    return TdcLut(sensor=sensor, widths=widths, unusable=unusable)


def _check_lut(stream: PhotonStream, lut: TdcLut) -> None:
    """Refuse a stream ``lut`` cannot convert: another sensor's LUT, no
    raw codes, a code beyond ``tdc_bins_per_clock``, or a record on a
    pixel the LUT marks unusable.  The last takes a pass over the pixel
    column, which a LUT without unusable pixels skips: it blocks no
    record."""
    sensor = stream.sensor
    _require_sensor(_fingerprint(lut.sensor), sensor)
    if stream.raw_code is None:
        raise DataError("stream carries no raw TDC codes")
    codes = stream.raw_code
    if codes.size and codes.max() >= sensor.tdc_bins_per_clock:
        raise DataError(
            f"raw code {int(codes.max())} out of range "
            f"(tdc_bins={sensor.tdc_bins_per_clock})")
    if not lut.unusable:
        return

    seen = np.zeros(sensor.num_pixels, dtype=bool)
    seen[stream.pixel] = True
    hit = np.flatnonzero(seen)
    blocked = sorted(int(p) for p in hit if p in lut.unusable)
    if blocked:
        shown = ", ".join(str(p) for p in blocked[:10])
        more = "" if len(blocked) <= 10 else f" (+{len(blocked) - 10} more)"
        raise CalibrationError(
            f"stream contains records from uncalibrated pixels: {shown}{more}")


def apply_lut(stream: PhotonStream, lut: TdcLut) -> PhotonStream:
    """Convert raw codes to calibrated times (bin midpoint convention).

        time_ps = clock_base(time_ps) + offset[pixel, code] + width[pixel, code] / 2

    The coarse clock base is whatever multiple of the clock period the raw
    record's time field encodes.  The result stream drops raw codes and
    is re-sorted, since calibrated fine times can reorder ties.  Delays,
    if any, are applied afterwards (``offsets.apply_delays``).

    A record's calibrated time depends only on its own pixel and code, so
    converting a subset (``stream.take`` of some pixels' records) gives
    those records the same times, in the same relative order, as
    converting the whole stream.  The command line relies on that:
    ``coincidence`` and ``report`` check the whole stream against the LUT
    and then convert only their pair's records, while ``calibrate`` and
    ``ct-scan``, which need every pixel, convert the whole stream.
    """
    _check_lut(stream, lut)

    # floor(t / clock) * clock + (offset + width / 2), in one array, so
    # the sort below sees no per-record temporary besides the times
    clock = float(stream.sensor.clock_period_ps)
    times = np.floor(stream.time_ps / clock)
    times *= clock
    times += (lut.offsets + lut.widths / 2.0)[stream.pixel, stream.raw_code]

    order = record_order(stream.cycle_index, times, stream.pixel)
    return replace(stream, time_ps=times, raw_code=None).take(order)
