"""Monte Carlo generator of synthetic photon-timestamp streams.

Generates dark counts, beam photons with distinguishability classes,
cross-arm time-correlated pairs (the bunching signal), distance-dependent
optical cross-talk, per-pixel electrical delays, and Gaussian detection
jitter, with a ground-truth sidecar for every count.  The model is
phenomenological: bunching is injected as explicit correlated pairs
rather than derived from thermal field statistics.

Reproducibility contract: the same config (seed included) produces a
byte-identical stream on any platform.  Cycles are generated in fixed
blocks, each from its own child generator keyed by the block index, so
blocks could be produced in parallel without changing the output.  Block
size is a pure function of the config.

Pair semantics: ``pair_fraction`` allocates that fraction of the weaker
arm's rate to cross-arm pair attempts.  Each attempt draws one class per
arm from the respective mix; attempts whose classes coincide become
time-correlated pairs (arm-b photon at arm-a time + N(0, sigma) + fiber
delay), the rest turn into two unrelated photons in independent cycles.
Independent cycles matter: keeping a failed attempt's photons in one
cycle would correlate the arm counts and raise the accidental floor in
proportion to the class-mismatch rate, and the measured contrast ratio
between mixes would no longer converge to the ratio of
``theoretical_contrast`` values (= sum of squared weights).

Cross-talk spawns are drawn from every generated photon (depth 1, no
CT-of-CT) before per-pixel delays are applied, and strictly follow their
source in time by |N(0, ct_jitter)|.

Memory contract: ``simulate`` and ``simulate_code_density`` hold one
stream's columns plus bounded scratch.  A block is generated into its
final columns, with room for the cross-talk spawns behind their sources;
delays, jitter and rounding act in place, a piece of ``_PIECE`` records
at a time, jitter draw included.  A record pushed out of its cycle is
not gathered away: it is given a cycle past the block's last and leaves
through the sort, which puts it behind every kept record, and the
columns are cut to the kept length.  Sorting (``timestream.sort_records``)
sorts one packed 8-byte key per record in place, into which the old
cycle column is freed, and decodes the columns from it: no permutation
exists.  The scratch is then at most about one 8-byte column of the
largest block: the sort key.  Only with lineage, when the key and the
record index need more than 64 bits together, does the sort gather
through a permutation, which adds a second 8-byte column.  A stream of
one block keeps that block's columns (its kept front), and the columns
of several blocks are joined one column at a time.  Lineage arrays exist
only when ``include_lineage`` is set.  ``PhotonStream.write`` adds one
boundary per cycle and pieces of a fixed length.  The code-density
simulation packs its integer draws into one word per record, built in
place of the cycle draw, and sorts and decodes that
(``simulate_code_density``).  Traced by ``tracemalloc``, simulating and
writing a one-block beam run peaks at 1.63x its column bytes, in the
sort, and the code-density simulation at 1.45x (the tests bound them at
1.8x and 1.7x).
"""

from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass, field
from functools import partial

import numpy as np

from .documents import Document, as_float, as_list, decode_fields, pairs
from .errors import DataError
from .timestream import (PhotonStream, SensorConfig, StreamHeader, _field,
                         _pieces, sort_records)

logger = logging.getLogger(__name__)

MAX_MEAN_RECORDS_PER_CYCLE = 10_000.0

# Target records per generation block; blocks are the determinism and
# parallelism unit.
_BLOCK_TARGET_RECORDS = 1 << 21
_BLOCK_MAX_CYCLES = 1 << 22

# Lineage arrays are only serialized to JSON below this record count.
LINEAGE_JSON_MAX = 1_000_000

ORIGIN_DARK = 0
ORIGIN_BEAM_SINGLE = 1
ORIGIN_PAIR_A = 2
ORIGIN_PAIR_B = 3
ORIGIN_CT = 4

ORIGIN_NAMES = ("dark", "beam_single", "pair_a", "pair_b", "crosstalk")


def theoretical_contrast(mix) -> float:
    """Probability that two photons drawn from the mix share a class.

    This is the factor by which distinguishability dilutes the bunching
    contrast: 1 for a single class, 0.5 for two equal classes, 0.25 for
    four equal classes.  Duplicate labels are merged before squaring.
    """
    mix = list(mix)
    if not mix:
        raise ValueError("class mix is empty")
    weights: dict[str, float] = {}
    for label, w in mix:
        w = float(w)
        if w < 0:
            raise ValueError(f"class weight must be >= 0, got {w} for {label!r}")
        weights[str(label)] = weights.get(str(label), 0.0) + w
    total = sum(weights.values())
    if abs(total - 1.0) > 1e-6:
        raise ValueError(f"class weights must sum to 1, got {total}")
    return float(sum(w * w for w in weights.values()))


@dataclass(frozen=True)
class DcrProfile:
    """Dark-count rates: a common base plus per-pixel overrides.

    ``drift_scale`` linearly ramps every dark rate from 1x at the first
    cycle to ``drift_scale``x at the last, modeling slow heating.
    """

    base_cps: float = 0.0
    overrides: tuple[tuple[int, float], ...] = ()
    drift_scale: float = 1.0

    def rates(self, num_pixels: int) -> np.ndarray:
        rates = np.full(num_pixels, float(self.base_cps))
        for pixel, rate in self.overrides:
            if not 0 <= pixel < num_pixels:
                raise ValueError(f"override pixel {pixel} out of range")
            rates[pixel] = float(rate)
        if (rates < 0).any():
            raise ValueError("dark rates must be >= 0")
        return rates

    @classmethod
    def from_json_dict(cls, d: dict) -> "DcrProfile":
        return decode_fields(cls, d, overrides=pairs(int, float))


@dataclass(frozen=True)
class BeamSpec:
    """One illuminated pixel: rate plus its distinguishability-class mix."""

    pixel: int
    rate_cps: float
    mix: tuple[tuple[str, float], ...] = (("c0", 1.0),)

    @classmethod
    def from_json_dict(cls, d: dict) -> "BeamSpec":
        return decode_fields(cls, d, mix=pairs(str, float))


@dataclass(frozen=True)
class SimConfig(Document):
    sensor: SensorConfig = field(default_factory=SensorConfig)
    seed: int = 0
    duration_s: float = 1.0
    dcr: DcrProfile = field(default_factory=DcrProfile)
    beams: tuple[BeamSpec, ...] = ()
    pair_fraction: float = 0.0
    correlation_sigma_ps: float = 100.0
    fiber_delay_ps: float = 0.0
    ct_profile: tuple[tuple[int, float], ...] = ()
    ct_jitter_sigma_ps: float = 30.0
    delays_ps: tuple[float, ...] | None = None
    jitter_sigma_ps: float = 40.0
    include_lineage: bool = False

    NOUN = "config"

    def __post_init__(self):
        # a sigma of -0.0 is 0.0: numpy's normal refuses a negative sign
        for name in ("correlation_sigma_ps", "ct_jitter_sigma_ps",
                     "jitter_sigma_ps"):
            if getattr(self, name) == 0:
                object.__setattr__(self, name, 0.0)

    # -- validation --------------------------------------------------------

    def validated(self) -> "SimConfig":
        """Raise on an inconsistent config; returns self for chaining."""
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 bits")
        if self.duration_s <= 0:
            raise ValueError("duration must be positive")
        cycles = self.total_cycles  # refuses a count outside [1, 2**64)
        self.dcr.rates(self.sensor.num_pixels)
        pixels = [p for p, _ in self.dcr.overrides]
        if len(set(pixels)) != len(pixels):
            raise ValueError("duplicate pixel in dcr overrides")
        if self.dcr.drift_scale < 0:
            raise ValueError("drift_scale must be >= 0")
        if self.dcr.drift_scale * cycles == math.inf:
            # the dark rates' ramp sums up to drift_scale per cycle
            raise ValueError(f"drift_scale {self.dcr.drift_scale} overflows "
                             f"over {cycles} cycles")
        for beam in self.beams:
            if not 0 <= beam.pixel < self.sensor.num_pixels:
                raise ValueError(f"beam pixel {beam.pixel} out of range")
            if beam.rate_cps < 0:
                raise ValueError("beam rate must be >= 0")
            theoretical_contrast(beam.mix)  # validates the mix
        if not 0.0 <= self.pair_fraction <= 1.0:
            raise ValueError("pair_fraction must be in [0, 1]")
        if self.pair_fraction > 0 and len(self.beams) != 2:
            raise ValueError("pair generation requires exactly two beams")
        for sigma in (self.correlation_sigma_ps, self.ct_jitter_sigma_ps,
                      self.jitter_sigma_ps):
            if sigma < 0:
                raise ValueError("sigma values must be >= 0")
        for dist, prob in self.ct_profile:
            if int(dist) != dist or dist < 1:
                raise ValueError(f"ct distance must be a positive int, got {dist}")
            if not 0.0 <= prob <= 1.0:
                raise ValueError(f"ct probability {prob} outside [0, 1]")
        if len(set(d for d, _ in self.ct_profile)) != len(self.ct_profile):
            raise ValueError("duplicate distance in ct_profile")
        if self.delays_ps is not None \
                and len(self.delays_ps) != self.sensor.num_pixels:
            raise ValueError("delays_ps must have one entry per pixel")

        per_cycle = self._mean_records_per_cycle()
        if per_cycle > MAX_MEAN_RECORDS_PER_CYCLE:
            raise DataError(
                f"mean records/cycle {per_cycle:.0f} exceeds "
                f"{MAX_MEAN_RECORDS_PER_CYCLE:.0f}; rates unphysical "
                "for this model")
        return self

    def _mean_records_per_cycle(self) -> float:
        cycle_s = self.sensor.cycle_period_ps * 1e-12
        dark = self.dcr.rates(self.sensor.num_pixels).sum() \
            * max(1.0, self.dcr.drift_scale)
        beams = sum(b.rate_cps for b in self.beams)
        ct_factor = 1.0 + 2.0 * sum(p for _, p in self.ct_profile)
        return (dark + beams) * cycle_s * ct_factor

    # -- derived -----------------------------------------------------------

    @property
    def total_cycles(self) -> int:
        """``duration_s`` in whole cycles: an integer in [1, 2**64), the
        range of a stream's ``total_cycles``."""
        cycles = self.duration_s / (self.sensor.cycle_period_ps * 1e-12)
        if not 0.5 < cycles < 2.0**64:  # rounds to 1 .. 2**64 - 1
            raise ValueError(
                f"duration_s {self.duration_s} is {cycles:g} cycles of "
                f"{self.sensor.cycle_period_ps} ps, not 1 to 2**64 - 1")
        return round(cycles)

    def class_labels(self) -> tuple[str, ...]:
        labels = sorted({label for b in self.beams for label, _ in b.mix})
        return tuple(labels)

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def _decode(cls, d: dict) -> "SimConfig":
        return decode_fields(
            cls, d, sensor=partial(decode_fields, SensorConfig),
            dcr=DcrProfile.from_json_dict,
            beams=lambda beams: tuple(BeamSpec.from_json_dict(b)
                                      for b in as_list(beams)),
            ct_profile=pairs(int, float),
            delays_ps=lambda delays: None if delays is None
            else tuple(as_float(x) for x in as_list(delays))).validated()


@dataclass
class SimTruth:
    """Ground truth for one simulation run.

    The count fields satisfy, and tests verify,
    ``n_records = n_dark + n_beam_singles + 2*n_pair_attempts + n_ct
    - n_dropped``.  ``n_blocks`` counts the generation blocks, a property
    of the run rather than of its physics, and stays out of the JSON form.
    ``origin``/``class_id`` are per-record lineage arrays aligned with the
    stream (present only when requested).  The JSON form carries them only
    up to ``LINEAGE_JSON_MAX`` records, and logs a warning when it leaves
    them out.
    """

    delays_ps: np.ndarray
    ct_profile: dict[int, float]
    total_cycles: int
    class_labels: tuple[str, ...]
    n_dark: int = 0
    n_beam_singles: int = 0
    n_pair_attempts: int = 0
    n_pair_bunched: int = 0
    n_ct: int = 0
    n_dropped: int = 0
    n_blocks: int = 0
    origin: np.ndarray | None = None
    class_id: np.ndarray | None = None

    def to_json_dict(self) -> dict:
        out = {
            "delays_ps": [float(d) for d in self.delays_ps],
            "ct_profile": {str(d): p for d, p in sorted(self.ct_profile.items())},
            "total_cycles": self.total_cycles,
            "class_labels": list(self.class_labels),
            "counts": {
                "dark": self.n_dark,
                "beam_singles": self.n_beam_singles,
                "pair_attempts": self.n_pair_attempts,
                "pair_bunched": self.n_pair_bunched,
                "crosstalk": self.n_ct,
                "dropped": self.n_dropped,
            },
        }
        if self.origin is None:
            return out
        if len(self.origin) > LINEAGE_JSON_MAX:
            logger.warning("truth: lineage of %d records left out of the "
                           "JSON, above LINEAGE_JSON_MAX = %d records",
                           len(self.origin), LINEAGE_JSON_MAX)
            return out
        out["lineage"] = {
            "origin_names": list(ORIGIN_NAMES),
            "origin": self.origin.tolist(),
            "class_id": self.class_id.tolist(),
        }
        return out


def simulate(config: SimConfig) -> tuple[PhotonStream, SimTruth]:
    """Generate a stream and its ground truth from a validated config.

    Holds the stream's columns (18 bytes per record, 21 with lineage) plus
    the scratch that the module docstring bounds: per block, one sort key
    (8 bytes per record, dropped records included) and pieces of fixed
    length for the delays, the jitter and the drop test.

    A dropped record sorts as cycle ``c0 + span``, time 0 and pixel 0 of
    its block.  That can widen the sort key's cycle field by one bit (a
    block of 2**k cycles), its time field to span from 0, and the record
    index by one bit.  A block whose key then no longer fits in 64 bits
    sorts by ``np.lexsort``, and a lineage block whose index no longer
    fits beside the key through a permutation: the same stream, at
    several times the sort's cost.  On every sensor with
    ``bit_length(cycle_period_ps - 1) + bit_length(num_pixels - 1) <= 41``
    (the default's is 30) the key of a block, which spans at most 2**22
    cycles, fits either way.
    """
    config.validated()
    sensor = config.sensor
    period = float(sensor.cycle_period_ps)
    cycle_s = sensor.cycle_period_ps * 1e-12
    total_cycles = config.total_cycles

    dark_rates = config.dcr.rates(sensor.num_pixels)
    labels = config.class_labels()
    label_index = {label: k for k, label in enumerate(labels)}
    delays = np.zeros(sensor.num_pixels) if config.delays_ps is None \
        else np.asarray(config.delays_ps, dtype=np.float64)

    per_cycle = max(config._mean_records_per_cycle(), 1e-12)
    block_cycles = int(_BLOCK_TARGET_RECORDS / per_cycle)
    block_cycles = max(1, min(block_cycles, _BLOCK_MAX_CYCLES, total_cycles))

    truth = SimTruth(
        delays_ps=delays.copy(),
        ct_profile={int(d): float(p) for d, p in config.ct_profile},
        total_cycles=total_cycles,
        class_labels=labels,
    )

    parts: dict[str, list] = {}
    for block_idx, c0 in enumerate(range(0, total_cycles, block_cycles)):
        span = min(block_cycles, total_cycles - c0)
        rng = np.random.default_rng(
            np.random.SeedSequence(config.seed, spawn_key=(block_idx,)))
        block = _generate_block(rng, config, dark_rates, label_index, c0,
                                span, period, cycle_s, truth)
        kept = _detect(rng, block, None if config.delays_ps is None
                       else delays, config.jitter_sigma_ps, period, c0 + span)
        truth.n_blocks += 1
        truth.n_dropped += len(block["pixel"]) - kept
        # the dropped records sort last, behind every kept cycle
        sort_records(block)
        for name, column in block.items():
            parts.setdefault(name, []).append(column[:kept])

    header = StreamHeader(sensor=sensor, metadata={
        "source": "simulation", "seed": str(config.seed)})
    # total_cycles >= 1, so every part list is non-empty.
    stream = PhotonStream(header=header, total_cycles=total_cycles, **{
        name: _join(parts.pop(name))
        for name in ("cycle_index", "pixel", "time_ps")})
    if config.include_lineage:
        truth.origin = _join(parts.pop("origin"))
        truth.class_id = _join(parts.pop("class_id"))
    return stream, truth


def _detect(rng, block: dict[str, np.ndarray], delays, sigma: float,
            period: float, end: int) -> int:
    """Detect a block's records in place: each time becomes ``rint((t +
    delays[pixel]) + N(0, sigma))``, piece by piece (``delays`` None adds
    nothing), and returns how many records stay in their cycle.

    A record pushed out of ``[0, period)`` is marked for dropping: cycle
    ``end``, one past the block's last, time 0 and pixel 0, so that
    ``sort_records`` puts it behind every kept record and the caller cuts
    it off.  The jitter is the block's last draw; ``Generator.normal``
    keeps no state between calls, so pieces draw the values of one call.
    """
    cyc, pix, time = block["cycle_index"], block["pixel"], block["time_ps"]
    end = np.uint64(end)
    kept = 0
    for lo, hi in _pieces(len(time)):
        t = time[lo:hi]
        if delays is not None:
            t += delays[pix[lo:hi]]
        t += rng.normal(0.0, sigma, hi - lo)
        np.rint(t, out=t)
        keep = t >= 0.0
        keep &= t < period
        n = int(np.count_nonzero(keep))
        kept += n
        if n < hi - lo:
            out = ~keep
            cyc[lo:hi][out] = end
            t[out] = 0.0
            pix[lo:hi][out] = 0
    return kept


def _join(parts: list[np.ndarray], extra: int = 0) -> np.ndarray:
    """The parts one after another, with room for ``extra`` entries more.

    Empties ``parts``, releasing each part once it is copied.  A single
    part that needs no room added is returned as it is.
    """
    if len(parts) == 1 and not extra:
        return parts.pop()
    out = np.empty(sum(len(part) for part in parts) + extra,
                   dtype=parts[0].dtype)
    at = 0
    while parts:
        part = parts.pop(0)
        out[at:at + len(part)] = part
        at += len(part)
    return out


def _cycles(rng, c0: int, span: int, n: int) -> np.ndarray:
    """n cycle indices drawn uniformly from [c0, c0 + span), as uint64.

    The draw is int64 and never negative, so a view keeps every value.
    """
    return rng.integers(c0, c0 + span, n).view(np.uint64)


def _generate_block(rng, config: SimConfig, dark_rates, label_index,
                    c0: int, span: int, period: float, cycle_s: float,
                    truth: SimTruth) -> dict[str, np.ndarray]:
    """All photons for cycles [c0, c0+span) in a fixed draw order.

    Returns pre-delay, pre-drop record columns by the stream's names
    (``cycle_index``, ``pixel``, ``time_ps``), and ``origin`` and
    ``class_id`` with lineage.
    The sources come first, then their cross-talk spawns.  The RNG call
    sequence depends only on the config (array shapes are data-dependent),
    which is what makes the output reproducible.
    """
    sensor = config.sensor
    num_pixels = sensor.num_pixels
    lineage = config.include_lineage
    parts: dict[str, list] = {
        name: [] for name in ("cycle_index", "pixel", "time_ps")
        + (("origin", "class_id") if lineage else ())}

    def emit(cycles, pixels, times, origin, class_id):
        parts["cycle_index"].append(cycles.astype(np.uint64, copy=False))
        parts["pixel"].append(pixels.astype(np.uint16, copy=False))
        parts["time_ps"].append(times.astype(np.float64, copy=False))
        if not lineage:
            return
        n = len(cycles)
        parts["origin"].append(np.full(n, origin, dtype=np.uint8))
        if isinstance(class_id, np.ndarray):
            parts["class_id"].append(class_id.astype(np.int16, copy=False))
        else:
            parts["class_id"].append(np.full(n, class_id, dtype=np.int16))

    # 1. dark counts, with optional linear drift across the acquisition
    drift = config.dcr.drift_scale
    if drift != 1.0:
        denom = max(truth.total_cycles - 1, 1)
        ramp = 1.0 + (drift - 1.0) * (np.arange(c0, c0 + span) / denom)
        weight_sum = float(ramp.sum())
        n_dark = rng.poisson(dark_rates * weight_sum * cycle_s)
        total_dark = int(n_dark.sum())
        cdf = np.cumsum(ramp)
        dark_cyc = np.searchsorted(
            cdf, rng.uniform(0.0, weight_sum, total_dark)).astype(np.uint64)
        dark_cyc += np.uint64(c0)
    else:
        n_dark = rng.poisson(dark_rates * span * cycle_s)
        total_dark = int(n_dark.sum())
        dark_cyc = _cycles(rng, c0, span, total_dark)
    dark_pix = np.repeat(np.arange(num_pixels, dtype=np.uint16), n_dark)
    dark_t = rng.uniform(0.0, period, total_dark)
    emit(dark_cyc, dark_pix, dark_t, ORIGIN_DARK, -1)
    truth.n_dark += total_dark
    # each stage's arrays go once emitted: the parts hold the records, and
    # the columns are joined from them below
    del dark_cyc, dark_pix, dark_t

    # 2. beam singles (pair attempts are carved out of the two-beam rates)
    attempt_rate = 0.0
    if config.pair_fraction > 0:
        attempt_rate = config.pair_fraction * min(b.rate_cps
                                                  for b in config.beams)
    for beam in config.beams:
        single_rate = beam.rate_cps - attempt_rate
        n = int(rng.poisson(max(single_rate, 0.0) * span * cycle_s))
        cycles = _cycles(rng, c0, span, n)
        times = rng.uniform(0.0, period, n)
        # the singles' classes are read only as lineage
        class_id = _draw_classes(rng, beam.mix, label_index, n,
                                 read=lineage)
        emit(cycles, np.full(n, beam.pixel, dtype=np.uint16), times,
             ORIGIN_BEAM_SINGLE, class_id)
        truth.n_beam_singles += n
        del cycles, times, class_id

    # 3. cross-arm pair attempts; same-class attempts become bunched pairs
    if attempt_rate > 0:
        arm_a, arm_b = config.beams
        n = int(rng.poisson(attempt_rate * span * cycle_s))
        cycles = _cycles(rng, c0, span, n)
        t_a = rng.uniform(0.0, period, n)
        cls_a = _draw_classes(rng, arm_a.mix, label_index, n)
        cls_b = _draw_classes(rng, arm_b.mix, label_index, n)
        dt = rng.normal(0.0, config.correlation_sigma_ps, n)
        t_indep = rng.uniform(0.0, period, n)
        cyc_indep = _cycles(rng, c0, span, n)
        # a class is one id where its arm's mix is one class
        matched = np.broadcast_to(cls_a == cls_b, (n,))
        # t_b = where(matched, t_a + dt, t_indep) + fiber delay
        t_b = np.add(t_a, dt, out=dt)
        np.copyto(t_b, t_indep, where=~matched)
        t_b += config.fiber_delay_ps
        del t_indep
        # Mismatched attempts must not share the a-photon's cycle: that
        # would correlate the per-cycle arm counts and inflate the flat
        # coincidence floor by the mismatch rate, skewing contrast ratios.
        np.copyto(cyc_indep, cycles, where=matched)
        cyc_b = cyc_indep
        emit(cycles, np.full(n, arm_a.pixel, dtype=np.uint16), t_a,
             ORIGIN_PAIR_A, cls_a)
        emit(cyc_b, np.full(n, arm_b.pixel, dtype=np.uint16), t_b,
             ORIGIN_PAIR_B, cls_b)
        truth.n_pair_attempts += n
        truth.n_pair_bunched += int(matched.sum())
        del cycles, t_a, t_b, cyc_b, cyc_indep, cls_a, cls_b, dt, matched

    # 4. cross-talk spawns from every photon above, depth 1.  Only the
    # pixels decide which photons spawn, so the other columns are joined
    # once the spawn count is known, with room for the spawns behind the
    # sources.
    pix = _join(parts.pop("pixel"))
    n_src = len(pix)
    spawns = []
    for dist, prob in sorted(truth.ct_profile.items()):
        for direction in (dist, -dist):
            chosen = _ct_sources(rng, pix, direction, num_pixels, prob)
            if len(chosen) == 0:
                continue
            spawns.append((chosen, direction, np.abs(
                rng.normal(0.0, config.ct_jitter_sigma_ps, len(chosen)))))
    n_ct = sum(len(chosen) for chosen, _, _ in spawns)
    truth.n_ct += n_ct

    block = {name: _join(column, n_ct) for name, column in parts.items()}
    block["pixel"] = _join([pix], n_ct)
    del pix
    cyc, pix = block["cycle_index"], block["pixel"]
    time = block["time_ps"]
    at = n_src
    for chosen, direction, jitter in spawns:
        stop = at + len(chosen)
        cyc[at:stop] = cyc[chosen]
        pix[at:stop] = pix[chosen].astype(np.int64) + direction
        time[at:stop] = time[chosen] + jitter
        at = stop
    if lineage:
        block["origin"][n_src:] = ORIGIN_CT
        block["class_id"][n_src:] = -1
    return block


def _ct_sources(rng, pix: np.ndarray, direction: int, num_pixels: int,
                prob: float) -> np.ndarray:
    """Positions of the records that spawn cross-talk at ``pixel +
    direction``: Bernoulli(prob) picks among the records whose target
    pixel is on the sensor, in position order.

    Only the records near the sensor's edge have no target, so the picks
    map to positions through that short list: the j-th record with a
    target sits j places plus one per outside record at a position that,
    less the outside records before it, is at most j.
    """
    dist = abs(direction)
    if dist >= num_pixels:
        return _bernoulli_indices(rng, 0, prob)
    outside = np.flatnonzero(pix >= num_pixels - dist if direction > 0
                             else pix < dist)
    picks = _bernoulli_indices(rng, len(pix) - len(outside), prob)
    return picks + np.searchsorted(outside - np.arange(len(outside)), picks,
                                   side="right")


def _draw_classes(rng, mix, label_index, n, *, read: bool = True):
    """Class ids for n photons drawn from the (label, weight) mix.

    The n uniforms are drawn in every case, so that the draws after them
    stay where they are.  Unless ``read``, the ids are not built (None);
    a mix whose labels are all one class gives that id, one ``np.int16``.
    """
    u = rng.uniform(0.0, 1.0, n)
    if not read:
        return None
    ids = np.array([label_index[label] for label, _ in mix], dtype=np.int16)
    if (ids == ids[0]).all():
        return ids[0]
    weights = np.array([w for _, w in mix], dtype=np.float64)
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    picks = np.searchsorted(cdf, u, side="right")
    del u
    np.minimum(picks, len(mix) - 1, out=picks)
    return ids[picks]


def _bernoulli_indices(rng, n: int, p: float) -> np.ndarray:
    """Indices of successes of n iid Bernoulli(p) trials, without
    materializing n draws: successive gaps are geometric."""
    if n == 0 or p <= 0.0:
        return np.array([], dtype=np.int64)
    if p >= 1.0:
        return np.arange(n, dtype=np.int64)
    chunks = []
    pos = -1
    expect = n * p
    size = int(expect + 6.0 * np.sqrt(expect) + 16)
    while pos < n - 1:
        # A gap beyond n ends the trials as well, and so clipped, the sum
        # cannot wrap: for p below about 1e-18 the draws reach 2**63 - 1.
        gaps = np.minimum(rng.geometric(p, size), n + 1)
        idx = pos + np.cumsum(gaps)
        chunks.append(idx)
        pos = int(idx[-1])
    idx = np.concatenate(chunks)
    return idx[idx < n]


def simulate_code_density(sensor: SensorConfig, widths_ps, counts_per_pixel,
                          seed: int, *, n_cycles: int = 1000) -> PhotonStream:
    """Raw-code stream under temporally uniform illumination.

    ``widths_ps`` gives the true TDC bin widths, one row per pixel or a
    single shared row; each detection samples its fine code from those
    widths, which is exactly the population a code-density calibration
    estimates.  Record times carry the correct coarse clock slot plus the
    nominal (uniform-width) code position, ``rint(slot * clock + code *
    mean_bin_width_ps)``.  Widths must be finite and >= 0 (a zero-width
    code never fires), and ``n_cycles`` at least 1.

    The records are sorted as one ``uint64`` word each, built in place of
    the cycle draw from the integer draws:

        word = cycle | slot | code | pixel   (high bits to low)

    each field as wide as its range needs (``n_cycles``, the clock slots
    of a cycle, ``tdc_bins_per_clock``, ``num_pixels``; 37 bits on the
    default sensor).  The words are sorted in place and all four columns
    decoded from them, the times last: no float time, record index or
    permutation exists before the sort.  Word order is stream order
    (cycle, time, pixel) only where the time strictly increases over
    (slot, code), which holds when ``mean_bin_width_ps >= 2``: adjacent
    positions are then at least 2 ps less rounding apart before ``rint``.
    A sensor with narrower bins, or fields over 64 bits, takes the times
    first and ``timestream.sort_records``, with ``raw_code`` following.
    Both give the same stream.
    """
    widths = np.atleast_2d(np.asarray(widths_ps, dtype=np.float64))
    if widths.shape[0] == 1:
        widths = np.broadcast_to(widths, (sensor.num_pixels, widths.shape[1]))
    if widths.shape != (sensor.num_pixels, sensor.tdc_bins_per_clock):
        raise ValueError(
            f"widths shape {widths.shape} does not match sensor geometry")
    if not (np.isfinite(widths).all() and (widths >= 0).all()):
        raise ValueError("widths must be finite and >= 0")
    counts = np.broadcast_to(
        np.asarray(counts_per_pixel, dtype=np.int64), (sensor.num_pixels,))
    if (counts < 0).any():
        raise ValueError("counts must be >= 0")
    if n_cycles < 1:
        raise ValueError(f"n_cycles must be >= 1, got {n_cycles}")

    clock = float(sensor.clock_period_ps)
    width = sensor.mean_bin_width_ps
    n_slots = sensor.cycle_period_ps // sensor.clock_period_ps
    rng = np.random.default_rng(np.random.SeedSequence(seed))

    pix = np.repeat(np.arange(sensor.num_pixels, dtype=np.uint16), counts)
    total = len(pix)
    codes = np.empty(total, dtype=np.uint32)
    cum = np.cumsum(widths, axis=1)
    start = 0
    for p in range(sensor.num_pixels):
        n = int(counts[p])
        fine = rng.uniform(0.0, clock, n)
        codes[start:start + n] = _draw_codes(cum[p], fine, clock)
        start += n
    np.minimum(codes, sensor.tdc_bins_per_clock - 1, out=codes)

    cycles = _cycles(rng, 0, n_cycles, total)
    slots = rng.integers(0, n_slots, total).view(np.uint64)
    # the word's fields, low to high: pixel, code, slot, cycle
    pix_bits, code_bits, slot_bits, cycle_bits = (
        (n - 1).bit_length()
        for n in (sensor.num_pixels, sensor.tdc_bins_per_clock, n_slots,
                  n_cycles))
    if width < 2 or pix_bits + code_bits + slot_bits + cycle_bits > 64:
        times = np.empty(total)
        for lo, hi in _pieces(total):
            _code_times(slots[lo:hi], codes[lo:hi], clock, width,
                        times[lo:hi])
        columns = {"cycle_index": cycles, "pixel": pix, "time_ps": times,
                   "raw_code": codes}
        del cycles, slots, pix, times, codes  # so that the sort frees them
        sort_records(columns)
    else:
        words = cycles  # built in place, field by field
        for lo, hi in _pieces(total):
            part = words[lo:hi]
            for column, bits in ((slots, slot_bits), (codes, code_bits),
                                 (pix, pix_bits)):
                part <<= np.uint64(bits)
                part |= column[lo:hi]
        del cycles, slots, pix, codes
        words.sort()
        pix = np.empty(total, dtype=np.uint16)
        codes = np.empty(total, dtype=np.uint32)
        times = np.empty(total)
        for lo, hi in _pieces(total):
            part = words[lo:hi]
            pix[lo:hi] = _field(part, 0, pix_bits)
            codes[lo:hi] = _field(part, pix_bits, code_bits)
            _code_times(_field(part, pix_bits + code_bits, slot_bits),
                        codes[lo:hi], clock, width, times[lo:hi])
        # the cycles, decoded in place of the words
        if cycle_bits:
            words >>= np.uint64(pix_bits + code_bits + slot_bits)
        else:
            words.fill(0)
        columns = {"cycle_index": words, "pixel": pix, "time_ps": times,
                   "raw_code": codes}
    return PhotonStream(
        header=StreamHeader(sensor=sensor,
                            metadata={"source": "simulation",
                                      "seed": str(seed)}),
        total_cycles=n_cycles, **columns)


def _code_times(slots: np.ndarray, codes: np.ndarray, clock: float,
                width: float, out: np.ndarray) -> None:
    """``out = rint(slot * clock + code * width)``: a code-density
    record's time, its clock slot's start plus its code's nominal
    (uniform-width) position."""
    np.multiply(slots, clock, out=out)
    out += codes * width
    np.rint(out, out=out)


# Cells of the clock in _draw_codes' table: several per TDC bin, so that
# few draws share a cell with a bin edge.
_CODE_CELLS = 1024


def _draw_codes(cum: np.ndarray, fine: np.ndarray, clock: float) -> np.ndarray:
    """``np.searchsorted(cum, fine, side="right")`` for a non-decreasing
    ``cum`` and fine times in [0, clock), from a table.

    Each time first takes the code at the lower edge of its cell, one of
    ``_CODE_CELLS`` equal cells of the clock.  That code is the answer
    exactly when ``ext[code] <= fine < ext[code + 1]``, with ``ext = [-inf,
    cum..., +inf]``: for a non-decreasing ``cum`` one code alone meets
    that condition.  The few times that share a cell with a bin edge and
    fail it go through ``np.searchsorted``.
    """
    scale = _CODE_CELLS / clock
    table = np.searchsorted(cum, np.arange(_CODE_CELLS + 1) / scale,
                            side="right")
    code = table[(fine * scale).astype(np.intp)]
    ext = np.concatenate(([-np.inf], cum, [np.inf]))
    wrong = fine < ext[code]
    wrong |= fine >= ext[code + 1]
    if wrong.any():
        code[wrong] = np.searchsorted(cum, fine[wrong], side="right")
    return code
