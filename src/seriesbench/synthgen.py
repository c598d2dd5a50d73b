"""Deterministic synthetic benchmark generator with aligned multimodal conditions.

Each series is the sum of five components: a trend (one of four function
families, up or down), a seasonal sinusoid, local shapelets injected into
three equal segments, a high-frequency sinusoid, and Gaussian noise.  The
univariate variant emits one feature; the multivariate variant derives a
second feature from the first through a sampled transform (axis flips or a
circular temporal shift).

A sample is one attribute-index vector: its value index per attribute, in
schema order, plus a shift distance when its transform is a shift.  The build
draws one such row per sample into the conditions table, and the sample's
caption, components and second variate all derive from it.

Randomness is drawn from named counter-based streams keyed by
``(seed, sample_index, purpose)`` so per-sample draws are order-independent:
regenerating any single sample, or the whole dataset in any order, yields
identical values.  A stream is ``Generator(Philox(SeedSequence(row)))``: its
key is ``SeedSequence``'s hash of the row, and ``streams.stream_keys`` derives
the keys of a whole primary combination in one vectorised pass.  A build opens
one Generator and reseats its Philox at the start of each stream in turn
(``streams.reseat_stream``), so it draws what a fresh Generator per stream
would.  The build's per-sample loops only start streams and store draws; the
rest, shapelets included (one scatter per segment and kind), is array math
over the combination's (n_per_combo, length) block in a few buffers reused
across combinations; ``univariate_components`` is the one-row case of the
same kernel.  The generator is its own ground truth: ``ATTRIBUTE_TABLE`` holds
each attribute's name, definition, values and per-value caption clause.  The
schema and ``decode_attrs`` read it, and a sample's caption is a lookup of
one clause per entry of its index row, in schema order, so a caption always
agrees with its vector and the injected patterns.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from seriesbench.core import (
    Attribute,
    AttributeSchema,
    ConditionTable,
    ContractViolation,
    TimeSeriesTensor,
)
from seriesbench.streams import open_stream, reseat_stream, stream_keys

TREND_TYPES = ("linear", "quadratic", "exponential", "logistic")
TREND_DIRECTIONS = ("up", "down")
SEASON_CYCLES = (0, 1, 2, 4)
HF_CYCLES = (0, 16, 32, 64)
SHAPELET_KINDS = ("none", "single_peak", "sag", "double_peaks")
MV_TRANSFORMS = ("x_flip", "y_flip", "shift_forward", "shift_backward")

SHAPELET_PROBS = (0.70, 0.10, 0.10, 0.10)  # aligned with SHAPELET_KINDS
SHAPELET_SPAN = 9
PEAK_HEIGHT_RANGE = (1.0, 1.2)
SEASON_AMPLITUDE_RANGE = (0.4, 0.6)
HF_AMPLITUDE_RANGE = (0.1, 0.3)
NOISE_SIGMA_RANGE = (0.04, 0.06)
SHIFT_DISTANCE_RANGE = (20, 40)
N_SEGMENTS = 3
DEFAULT_LENGTH = 96
PHASE_RANGE = (0.0, 2.0 * np.pi)
# the range of each column of _component_rows' draws
_DRAW_LOW, _DRAW_HIGH = np.array(
    [SEASON_AMPLITUDE_RANGE, PHASE_RANGE, HF_AMPLITUDE_RANGE, PHASE_RANGE, NOISE_SIGMA_RANGE]
).T

# purpose ids for the keyed RNG streams
_P_SEASON = 0
_P_HF = 1
_P_SHAPELET_LABELS = 2
_P_SHAPELET_PLACE = 3
_P_NOISE = 4
_P_SECONDARY = 5
_P_TRANSFORM = 6
_N_SAMPLE_PURPOSES = 7  # purposes 0-6 key per-sample streams
_P_SPLIT = 7  # keyed by (seed, combination index, 7)


def sample_rng(rng: np.random.Generator, key) -> np.random.Generator:
    """``rng`` at the start of one synth stream, given its key as a ``stream_keys(...).tolist()`` row."""
    return reseat_stream(rng, key)


def _sample_keys(seed: int, first: int, n: int) -> np.ndarray:
    """(n, 7, 2) stream keys of samples ``first .. first + n - 1``, indexed by purpose."""
    keys = stream_keys(seed, np.arange(first, first + n)[:, None], np.arange(_N_SAMPLE_PURPOSES))
    return keys.reshape(n, _N_SAMPLE_PURPOSES, 2)


@dataclass(frozen=True)
class PrimaryAttrs:
    """Dataset-wide attribute combination: 4 trend types x 2 directions x 4 cycle counts."""

    trend_type: str
    trend_direction: str
    season_cycles: int

    def __post_init__(self) -> None:
        if self.trend_type not in TREND_TYPES:
            raise ContractViolation(f"unknown trend type {self.trend_type!r}")
        if self.trend_direction not in TREND_DIRECTIONS:
            raise ContractViolation(f"unknown trend direction {self.trend_direction!r}")
        if self.season_cycles not in SEASON_CYCLES:
            raise ContractViolation(f"season cycles must be one of {SEASON_CYCLES}")


@dataclass(frozen=True)
class SecondaryAttrs:
    """Sample-specific attributes: high-frequency cycles and per-segment shapelets."""

    hf_cycles: int
    segment_shapelets: tuple[str, str, str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "segment_shapelets", tuple(self.segment_shapelets))
        if self.hf_cycles not in HF_CYCLES:
            raise ContractViolation(f"hf cycles must be one of {HF_CYCLES}")
        if len(self.segment_shapelets) != N_SEGMENTS:
            raise ContractViolation(f"need exactly {N_SEGMENTS} segment shapelets")
        for kind in self.segment_shapelets:
            if kind not in SHAPELET_KINDS:
                raise ContractViolation(f"unknown shapelet kind {kind!r}")


# ---------------------------------------------------------------------------
# Components
# ---------------------------------------------------------------------------


def trend_component(trend_type: str, direction: str, length: int) -> np.ndarray:
    """Evaluate the trend family on evenly spaced points.

    Linear and quadratic use t over [0, 1]; exponential (2^t' / 1024) and
    logistic (1 / (1 + e^-t')) use t' over [-10, 10].  A down direction
    negates the series.
    """
    if length < 2:
        raise ContractViolation("trend needs length >= 2")
    if trend_type in ("linear", "quadratic"):
        t = np.linspace(0.0, 1.0, length)
        x = t if trend_type == "linear" else t**2
    elif trend_type == "exponential":
        tp = np.linspace(-10.0, 10.0, length)
        x = np.exp2(tp) / 1024.0
    elif trend_type == "logistic":
        tp = np.linspace(-10.0, 10.0, length)
        x = 1.0 / (1.0 + np.exp(-tp))
    else:
        raise ContractViolation(f"unknown trend type {trend_type!r}")
    if direction == "down":
        return -x
    if direction != "up":
        raise ContractViolation(f"unknown trend direction {direction!r}")
    return x


def _sinusoid_rows(n_cycles: np.ndarray, amplitude: np.ndarray, phase: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Row r of ``out`` becomes the sinusoid of ``n_cycles[r]``, ``amplitude[r]`` and ``phase[r]``."""
    for n_cycle in np.unique(n_cycles):
        out[n_cycles == n_cycle] = 2.0 * np.pi * np.linspace(0.0, float(n_cycle), out.shape[1])
    np.add(out, phase[:, None], out=out)
    np.sin(out, out=out)
    np.multiply(out, amplitude[:, None], out=out)
    out[n_cycles == 0] = 0.0
    return out


_HALF_SPAN = (SHAPELET_SPAN - 1) // 2
_UNIT_PEAK = 1.0 - np.abs(np.arange(SHAPELET_SPAN) - _HALF_SPAN) / _HALF_SPAN
# the cumulative probabilities Generator.choice searches for p=SHAPELET_PROBS
_SHAPELET_CDF = np.array(SHAPELET_PROBS).cumsum()
_SHAPELET_CDF /= _SHAPELET_CDF[-1]


def shapelet_template(kind: str, peak_height: float) -> np.ndarray:
    """Short local pattern over 9 points (18 for double peaks).

    single_peak: linear incline to ``peak_height`` at the midpoint, then a
    symmetric decline, zero at both endpoints.  sag: the single peak mirrored
    across the x-axis.  double_peaks: two single peaks back to back.
    """
    if kind == "none":
        raise ContractViolation("no template for shapelet kind 'none'")
    if kind not in SHAPELET_KINDS:
        raise ContractViolation(f"unknown shapelet kind {kind!r}")
    peak = peak_height * _UNIT_PEAK
    if kind == "single_peak":
        return peak
    if kind == "sag":
        return -peak
    return np.concatenate([peak, peak])  # double_peaks


@functools.cache
def _segment_bounds(length: int) -> tuple[tuple[int, int], ...]:
    if length % N_SEGMENTS != 0:
        raise ContractViolation(f"length {length} not divisible by {N_SEGMENTS}")
    seg = length // N_SEGMENTS
    if seg < 2 * SHAPELET_SPAN:
        raise ContractViolation(
            f"segment length {seg} too short, need >= {2 * SHAPELET_SPAN} to fit every template"
        )
    return tuple((k * seg, (k + 1) * seg) for k in range(N_SEGMENTS))


def _transform_rows(series: np.ndarray, kinds: np.ndarray, shifts: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Row r of ``out`` becomes row r of ``series``, an (n, length) array, under ``MV_TRANSFORMS[kinds[r]]``.

    ``shifts[r]`` is the shift distance d, 0 for a flip.  Each row is a
    gather: x_flip reads t from length - 1 - t, a shift by d forward
    (backward) reads t from t - d (t + d) modulo length, y_flip reads t from
    t and negates.
    """
    n, length = series.shape
    x_flip, y_flip, shift_forward = (kinds[:, None] == k for k in range(3))  # MV_TRANSFORMS order
    start = np.where(x_flip, length - 1, np.where(shift_forward, -shifts[:, None], shifts[:, None]))
    source = (np.where(x_flip, -1, 1) * np.arange(length) + start) % length + np.arange(n)[:, None] * length
    np.take(series, source, out=out)
    return np.negative(out, out=out, where=y_flip)


# ---------------------------------------------------------------------------
# The attribute table: schema, attribute vectors and captions
# ---------------------------------------------------------------------------


class _Row(NamedTuple):
    name: str
    definition: str
    values: tuple  # the schema names each value with str()
    clauses: tuple  # caption clause per value: None adds no clause, "{}" takes the shift distance


# rows in schema order, which is also caption order; Synth-U has all but the last
ATTRIBUTE_TABLE = (
    _Row("trend_type", "shape family of the overall trend", TREND_TYPES,
         tuple(f"the overall trend is {t}" for t in TREND_TYPES)),
    _Row("trend_direction", "whether the trend rises or falls", TREND_DIRECTIONS,
         ("the trend moves upward", "the trend moves downward")),
    _Row("season_cycles", "number of seasonal cycles across the series", SEASON_CYCLES,
         ("there is no seasonal pattern",
          *(f"the seasonal pattern repeats {c} times" for c in SEASON_CYCLES[1:]))),
    *(
        _Row(f"segment_{k}_shapelet", f"local pattern injected into segment {k}", SHAPELET_KINDS,
             (None, *(f"segment {k} contains {p}" for p in ("a single peak", "a sag", "double peaks"))))
        for k in range(1, N_SEGMENTS + 1)
    ),
    _Row("hf_cycles", "number of high-frequency oscillation cycles", HF_CYCLES,
         ("no high-frequency oscillation is present",
          *(f"a high-frequency oscillation repeats {c} times" for c in HF_CYCLES[1:]))),
    _Row("mv_transform", "rule deriving the second variable", MV_TRANSFORMS, (
        "the second variable mirrors the first along the time axis",
        "the second variable mirrors the first along the value axis",
        "the second variable repeats the first shifted forward by {} steps",
        "the second variable repeats the first shifted backward by {} steps",
    )),
)
_SEGMENT_ROWS = slice(3, 3 + N_SEGMENTS)  # after the three primary attributes
_HF_ROW = _SEGMENT_ROWS.stop  # then hf cycles, then (Synth-M only) the transform


@functools.cache  # an AttributeSchema is frozen, so callers may share one
def synth_schema(variant: str) -> AttributeSchema:
    """The governing attribute schema for a synthetic dataset variant ('u' or 'm')."""
    if variant not in ("u", "m"):
        raise ContractViolation(f"variant must be 'u' or 'm', got {variant!r}")
    rows = ATTRIBUTE_TABLE if variant == "m" else ATTRIBUTE_TABLE[:-1]
    return AttributeSchema(tuple(Attribute(r.name, r.definition, tuple(map(str, r.values))) for r in rows))


def _caption(vector: Sequence[int], shift_distance: int) -> str:
    """An in-range index row's clauses in schema order, as one sentence; a shift fills the transform's ``{}``."""
    clauses = [row.clauses[i] for row, i in zip(ATTRIBUTE_TABLE, vector)]
    if not any(vector[_SEGMENT_ROWS]):  # one clause for three absent shapelets, which add none
        clauses[_SEGMENT_ROWS.start] = "no local patterns appear in any segment"
    if len(vector) == len(ATTRIBUTE_TABLE):
        clauses[-1] = clauses[-1].format(shift_distance)
    text = "; ".join(c for c in clauses if c is not None)
    return text[0].upper() + text[1:] + "."


def decode_attrs(attrs: Mapping[str, int]) -> tuple[PrimaryAttrs, SecondaryAttrs]:
    """Rebuild the attribute dataclasses from a condition record's value indices.

    The multivariable transform is not recoverable here: its shift distance
    lives only in the caption, not in the attribute vector.
    """
    if problem := synth_schema("u").misfit(attrs):
        raise ContractViolation(problem)
    values = [row.values[attrs[row.name]] for row in ATTRIBUTE_TABLE[:-1]]
    return PrimaryAttrs(*values[:3]), SecondaryAttrs(values[-1], values[_SEGMENT_ROWS])


# ---------------------------------------------------------------------------
# Composition and dataset construction
# ---------------------------------------------------------------------------


def univariate_components(
    primary: PrimaryAttrs,
    secondary: SecondaryAttrs,
    seed: int,
    sample_index: int,
    length: int,
) -> dict[str, np.ndarray]:
    """Recompute the five named components for one sample from its keyed streams."""
    trend = trend_component(primary.trend_type, primary.trend_direction, length)
    kinds = np.array([[SHAPELET_KINDS.index(kind) for kind in secondary.segment_shapelets]])
    season, local, hf, noise = np.empty((4, 1, length))
    keys = _sample_keys(seed, sample_index, 1)
    _component_rows(primary.season_cycles, np.array([secondary.hf_cycles]), kinds,
                    keys.tolist(), open_stream(keys[0, _P_SEASON]), season, local, hf, noise)
    return {"trend": trend, "season": season[0], "local": local[0], "hf": hf[0], "noise": noise[0]}


def _component_rows(
    season_cycles: int,
    hf_cycles: np.ndarray,
    kinds: np.ndarray,
    keys: list,
    rng: np.random.Generator,
    season: np.ndarray,
    local: np.ndarray,
    hf: np.ndarray,
    noise: np.ndarray,
) -> None:
    """Fill row j of the four (n, length) buffers with sample j's components, n = len(keys).

    Every sample has ``season_cycles``; sample j has ``hf_cycles[j]``, the
    segments' ``SHAPELET_KINDS`` indices ``kinds[j]`` and stream keys
    ``keys[j]`` (a ``_sample_keys`` row as lists of ints).  The loop only
    reseats ``rng`` at each stream's start and stores its draws, each stream
    in its fixed order: amplitude, phase; per non-empty segment a height, then
    an offset where the template fits; sigma, then the standard normals.
    A uniform is stored as its ``random()`` double u and scaled after the
    loop to ``low + (high - low) * u``, the two roundings ``uniform(low,
    high)`` makes, so one call draws both doubles of an amplitude and phase.
    """
    n = len(keys)
    bounds = _segment_bounds(local.shape[1])
    templates = [shapelet_template(kind, 1.0) for kind in SHAPELET_KINDS[1:]]
    room = [0, *(bounds[0][1] - len(t) for t in templates)]  # the largest offset, per kind index
    draws = np.empty((n, 5))  # season amplitude, season phase, hf amplitude, hf phase, noise sigma
    heights = np.zeros((n, N_SEGMENTS))  # zero where a segment has no shapelet, so its scaling stays finite
    offsets = np.empty((n, N_SEGMENTS), dtype=np.intp)
    for j, (row, segment_kinds, key) in enumerate(zip(draws, kinds.tolist(), keys)):
        sample_rng(rng, key[_P_SEASON]).random(out=row[0:2])
        sample_rng(rng, key[_P_HF]).random(out=row[2:4])
        rng = sample_rng(rng, key[_P_SHAPELET_PLACE])
        for k, kind in enumerate(segment_kinds):
            if kind:  # none draws nothing
                heights[j, k] = rng.random()
                offsets[j, k] = rng.integers(0, room[kind], endpoint=True)
        rng = sample_rng(rng, key[_P_NOISE])
        row[4] = rng.random()
        rng.standard_normal(out=noise[j])
    draws = _DRAW_LOW + (_DRAW_HIGH - _DRAW_LOW) * draws
    heights = PEAK_HEIGHT_RANGE[0] + (PEAK_HEIGHT_RANGE[1] - PEAK_HEIGHT_RANGE[0]) * heights
    _sinusoid_rows(np.full(n, season_cycles), draws[:, 0], draws[:, 1], season)
    _sinusoid_rows(hf_cycles, draws[:, 2], draws[:, 3], hf)
    # normal(0.0, sigma) returns 0.0 + sigma * z, which turns a -0.0 into +0.0
    np.multiply(noise, draws[:, 4, None], out=noise)
    np.add(noise, 0.0, out=noise)
    # h * template(kind, 1.0) is template(kind, h) bitwise, and segments do not overlap, so
    # each row gets its templates added onto zeros as one scatter per segment and kind
    local.fill(0.0)
    for k, (start, _) in enumerate(bounds):
        for kind, template in enumerate(templates, start=1):
            rows = np.flatnonzero(kinds[:, k] == kind)
            span = start + offsets[rows, k, None] + np.arange(len(template))
            local[rows[:, None], span] += heights[rows, k, None] * template


@dataclass(frozen=True)
class SynthDataset:
    series: TimeSeriesTensor
    conditions: ConditionTable
    schema: AttributeSchema
    splits: dict[str, list[int]]


def build_synth_dataset(
    variant: str,
    seed: int,
    n_per_combo: int,
    length: int = DEFAULT_LENGTH,
) -> SynthDataset:
    """Emit 32 * n_per_combo aligned samples with per-combination 6:1:1 splits.

    The class label of a sample is the index of its primary combination (trend
    type, trend direction, season cycles) in the lexicographic order of their
    value indices.  The multivariate variant appends a second feature derived
    from the first by a uniformly sampled transform.
    """
    schema = synth_schema(variant)
    if n_per_combo < 8:
        raise ContractViolation("n_per_combo must be >= 8 to split 6:1:1")
    _segment_bounds(length)  # fail fast on bad length
    primary_shape = tuple(len(row.values) for row in ATTRIBUTE_TABLE[:3])
    n_combos = int(np.prod(primary_shape))
    n_features = 1 if variant == "u" else 2
    n_total = n_combos * n_per_combo

    data = np.empty((n_total, length, n_features))
    # row i: sample i's attribute-index vector, in schema order; filled a combination at a time
    values = np.empty((n_total, len(schema.names)), dtype=np.int64)
    texts: list[str] = []
    captions: dict[str, str] = {}  # each distinct caption, so equal captions share one string
    splits: dict[str, list[int]] = {"train": [], "valid": [], "test": []}
    # one combination's components, reused for every combination
    season, local, hf, noise = np.empty((4, n_per_combo, length))
    split_keys = stream_keys(seed, np.arange(n_combos), _P_SPLIT)
    rng = open_stream(split_keys[0])  # the build's one Generator, reseated at every stream it draws from
    split_keys = split_keys.tolist()
    n_valid = n_per_combo // 8  # 6:1:1; valid and test get floor(n/8) each, train the rest
    n_train = n_per_combo - 2 * n_valid
    shifts = np.zeros(n_per_combo, dtype=np.intp)  # row j: sample j's shift distance (0 without a shift)
    uniforms = np.empty((n_per_combo, N_SEGMENTS))  # row j: sample j's segment-label draw

    for combo_idx in range(n_combos):
        base = combo_idx * n_per_combo
        keys = _sample_keys(seed, base, n_per_combo).tolist()
        attr_idx = values[base : base + n_per_combo]  # row j: sample j's attribute-index vector
        attr_idx[:, :3] = np.unravel_index(combo_idx, primary_shape)
        trend_type, direction, season_cycles = (row.values[i] for row, i in zip(ATTRIBUTE_TABLE, attr_idx[0, :3]))
        for j, key in enumerate(keys):
            attr_idx[j, _HF_ROW] = sample_rng(rng, key[_P_SECONDARY]).integers(0, len(HF_CYCLES))
            uniforms[j] = sample_rng(rng, key[_P_SHAPELET_LABELS]).random(N_SEGMENTS)
            if variant == "m":
                rng_t = sample_rng(rng, key[_P_TRANSFORM])
                attr_idx[j, -1] = kind = rng_t.integers(0, len(MV_TRANSFORMS))
                is_shift = MV_TRANSFORMS[kind].startswith("shift")
                shifts[j] = rng_t.integers(*SHIFT_DISTANCE_RANGE, endpoint=True) if is_shift else 0
        # the draws of choice(len(SHAPELET_KINDS), N_SEGMENTS, p=SHAPELET_PROBS), without its checks of p
        attr_idx[:, _SEGMENT_ROWS] = _SHAPELET_CDF.searchsorted(uniforms, side="right")
        # in range by construction; a caption met before is dropped as soon as it is made
        texts += [captions.setdefault(c, c) for c in map(_caption, attr_idx.tolist(), shifts.tolist())]

        _component_rows(season_cycles, np.take(HF_CYCLES, attr_idx[:, _HF_ROW]),
                        attr_idx[:, _SEGMENT_ROWS], keys, rng, season, local, hf, noise)
        # trend + season + local + hf + noise, added in that order, in place
        series = np.add(season, trend_component(trend_type, direction, length), out=season)
        series += local
        series += hf
        series += noise
        data[base : base + n_per_combo, :, 0] = series
        if variant == "m":
            data[base : base + n_per_combo, :, 1] = _transform_rows(series, attr_idx[:, -1], shifts, local)

        perm = sample_rng(rng, split_keys[combo_idx]).permutation(n_per_combo)
        for part, members in zip(splits.values(), np.split(perm, [n_train, n_train + n_valid])):
            part.extend((np.sort(members) + base).tolist())

    sample_ids = [f"{variant}-{i:06d}" for i in range(n_total)]
    labels = np.repeat(np.arange(n_combos), n_per_combo)  # the primary combination's index
    for array in data, values, labels:  # frozen, so the tensor and the table take them without a copy
        array.setflags(write=False)
    return SynthDataset(
        series=TimeSeriesTensor(data=data),
        conditions=ConditionTable(sample_ids, texts, schema.names, values, labels),
        schema=schema,
        splits=splits,
    )
