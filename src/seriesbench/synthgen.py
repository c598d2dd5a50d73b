"""Deterministic synthetic benchmark generator with aligned multimodal conditions.

Each series is the sum of five components: a trend (one of four function
families, up or down), a seasonal sinusoid, local shapelets injected into
three equal segments, a high-frequency sinusoid, and Gaussian noise.  The
univariate variant emits one feature; the multivariate variant derives a
second feature from the first through a sampled transform (axis flips or a
circular temporal shift).

Randomness is drawn from named counter-based streams keyed by
``(seed, sample_index, purpose)`` so per-sample draws are order-independent:
regenerating any single sample, or the whole dataset in any order, yields
identical values.  The generator is its own ground truth: segment labels in
the emitted conditions always match the injected patterns.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from seriesbench.core import (
    Attribute,
    AttributeSchema,
    ConditionRecord,
    ContractViolation,
    TimeSeriesTensor,
)

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

# purpose ids for the keyed RNG streams
_P_SEASON = 0
_P_HF = 1
_P_SHAPELET_LABELS = 2
_P_SHAPELET_PLACE = 3
_P_NOISE = 4
_P_SECONDARY = 5
_P_TRANSFORM = 6
_P_SPLIT = 7


def sample_rng(seed: int, index: int, purpose: int) -> np.random.Generator:
    """Counter-based stream for one (seed, index, purpose) triple."""
    return np.random.Generator(np.random.Philox(seed=np.random.SeedSequence((seed, index, purpose))))


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


@dataclass(frozen=True)
class MvTransform:
    """Rule deriving the second variate from the first (Synth-M only)."""

    kind: str
    shift_distance: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in MV_TRANSFORMS:
            raise ContractViolation(f"unknown transform kind {self.kind!r}")
        is_shift = self.kind in ("shift_forward", "shift_backward")
        if is_shift:
            lo, hi = SHIFT_DISTANCE_RANGE
            if self.shift_distance is None or not lo <= self.shift_distance <= hi:
                raise ContractViolation(f"shift distance must be in [{lo}, {hi}]")
        elif self.shift_distance is not None:
            raise ContractViolation("shift distance only applies to shift transforms")


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


def sinusoid_component(n_cycle: int, amplitude: float, phase: float, length: int) -> np.ndarray:
    """a * sin(2*pi*t + phase) with t evenly spaced over [0, n_cycle]; zero cycles means a zero series."""
    if n_cycle not in SEASON_CYCLES and n_cycle not in HF_CYCLES:
        raise ContractViolation(f"cycle count {n_cycle} not in {set(SEASON_CYCLES) | set(HF_CYCLES)}")
    if length < 2:
        raise ContractViolation("sinusoid needs length >= 2")
    if n_cycle == 0:
        return np.zeros(length)
    t = np.linspace(0.0, float(n_cycle), length)
    return amplitude * np.sin(2.0 * np.pi * t + phase)


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
    half = (SHAPELET_SPAN - 1) // 2
    i = np.arange(SHAPELET_SPAN)
    peak = peak_height * (1.0 - np.abs(i - half) / half)
    if kind == "single_peak":
        return peak
    if kind == "sag":
        return -peak
    return np.concatenate([peak, peak])  # double_peaks


def _segment_bounds(length: int) -> list[tuple[int, int]]:
    if length % N_SEGMENTS != 0:
        raise ContractViolation(f"length {length} not divisible by {N_SEGMENTS}")
    seg = length // N_SEGMENTS
    if seg < 2 * SHAPELET_SPAN:
        raise ContractViolation(
            f"segment length {seg} too short, need >= {2 * SHAPELET_SPAN} to fit every template"
        )
    return [(k * seg, (k + 1) * seg) for k in range(N_SEGMENTS)]


def _sample_segment_labels(rng: np.random.Generator) -> tuple[str, str, str]:
    idx = rng.choice(len(SHAPELET_KINDS), size=N_SEGMENTS, p=SHAPELET_PROBS)
    return tuple(SHAPELET_KINDS[k] for k in idx)


def _place_shapelets(labels: tuple[str, ...], rng: np.random.Generator, length: int) -> np.ndarray:
    """Add one template per labelled segment onto a zero base.

    Heights are drawn uniformly from [1.0, 1.2]; the start offset is uniform
    over the positions where the template fits entirely inside its segment.
    """
    out = np.zeros(length)
    for (start, stop), kind in zip(_segment_bounds(length), labels):
        if kind == "none":
            continue
        height = rng.uniform(*PEAK_HEIGHT_RANGE)
        template = shapelet_template(kind, height)
        offset = int(rng.integers(0, stop - start - len(template), endpoint=True))
        out[start + offset : start + offset + len(template)] += template
    return out


def noise_component(rng: np.random.Generator, length: int) -> np.ndarray:
    """i.i.d. zero-mean Gaussian noise with sigma drawn once from U(0.04, 0.06)."""
    sigma = rng.uniform(*NOISE_SIGMA_RANGE)
    return rng.normal(0.0, sigma, size=length)


def apply_mv_transform(series: np.ndarray, transform: MvTransform) -> np.ndarray:
    """Derive the second variate: axis flips or a circular temporal shift."""
    series = np.asarray(series, dtype=np.float64)
    if transform.kind == "x_flip":
        return series[::-1].copy()
    if transform.kind == "y_flip":
        return -series
    d = int(transform.shift_distance)
    return np.roll(series, d if transform.kind == "shift_forward" else -d)


# ---------------------------------------------------------------------------
# Captions
# ---------------------------------------------------------------------------


def caption_clause(attr_name: str, value: str, shift_distance: int | None = None) -> str:
    """Fixed clause for one attribute value; captions concatenate these in schema order."""
    if attr_name == "trend_type":
        return f"the overall trend is {value}"
    if attr_name == "trend_direction":
        return "the trend moves upward" if value == "up" else "the trend moves downward"
    if attr_name == "season_cycles":
        if value == "0":
            return "there is no seasonal pattern"
        return f"the seasonal pattern repeats {value} times"
    if attr_name == "hf_cycles":
        if value == "0":
            return "no high-frequency oscillation is present"
        return f"a high-frequency oscillation repeats {value} times"
    if attr_name.endswith("_shapelet"):
        segment = attr_name.split("_")[1]
        phrases = {
            "single_peak": "a single peak",
            "sag": "a sag",
            "double_peaks": "double peaks",
        }
        return f"segment {segment} contains {phrases[value]}"
    if attr_name == "mv_transform":
        if value == "x_flip":
            return "the second variable mirrors the first along the time axis"
        if value == "y_flip":
            return "the second variable mirrors the first along the value axis"
        word = "forward" if value == "shift_forward" else "backward"
        return f"the second variable repeats the first shifted {word} by {shift_distance} steps"
    raise ContractViolation(f"no caption clause for attribute {attr_name!r}")


def render_caption(
    primary: PrimaryAttrs, secondary: SecondaryAttrs, transform: MvTransform | None = None
) -> str:
    clauses = [
        caption_clause("trend_type", primary.trend_type),
        caption_clause("trend_direction", primary.trend_direction),
        caption_clause("season_cycles", str(primary.season_cycles)),
    ]
    shapelet_clauses = [
        caption_clause(f"segment_{k + 1}_shapelet", kind)
        for k, kind in enumerate(secondary.segment_shapelets)
        if kind != "none"
    ]
    if not shapelet_clauses:
        shapelet_clauses = ["no local patterns appear in any segment"]
    clauses.extend(shapelet_clauses)
    clauses.append(caption_clause("hf_cycles", str(secondary.hf_cycles)))
    if transform is not None:
        clauses.append(caption_clause("mv_transform", transform.kind, transform.shift_distance))
    text = "; ".join(clauses)
    return text[0].upper() + text[1:] + "."


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
    rng_season = sample_rng(seed, sample_index, _P_SEASON)
    amp = rng_season.uniform(*SEASON_AMPLITUDE_RANGE)
    phase = rng_season.uniform(0.0, 2.0 * np.pi)
    rng_hf = sample_rng(seed, sample_index, _P_HF)
    hf_amp = rng_hf.uniform(*HF_AMPLITUDE_RANGE)
    hf_phase = rng_hf.uniform(0.0, 2.0 * np.pi)
    return {
        "trend": trend_component(primary.trend_type, primary.trend_direction, length),
        "season": sinusoid_component(primary.season_cycles, amp, phase, length),
        "local": _place_shapelets(
            secondary.segment_shapelets, sample_rng(seed, sample_index, _P_SHAPELET_PLACE), length
        ),
        "hf": sinusoid_component(secondary.hf_cycles, hf_amp, hf_phase, length),
        "noise": noise_component(sample_rng(seed, sample_index, _P_NOISE), length),
    }


def decode_attrs(attrs: Mapping[str, int]) -> tuple[PrimaryAttrs, SecondaryAttrs]:
    """Rebuild the attribute dataclasses from a condition record's value indices.

    The multivariable transform is not recoverable here: its shift distance
    lives only in the caption, not in the attribute vector.
    """
    primary = PrimaryAttrs(
        trend_type=TREND_TYPES[attrs["trend_type"]],
        trend_direction=TREND_DIRECTIONS[attrs["trend_direction"]],
        season_cycles=SEASON_CYCLES[attrs["season_cycles"]],
    )
    secondary = SecondaryAttrs(
        hf_cycles=HF_CYCLES[attrs["hf_cycles"]],
        segment_shapelets=tuple(
            SHAPELET_KINDS[attrs[f"segment_{k}_shapelet"]] for k in (1, 2, 3)
        ),
    )
    return primary, secondary


def synth_schema(variant: str) -> AttributeSchema:
    """The governing attribute schema for a synthetic dataset variant ('u' or 'm')."""
    attrs = [
        Attribute("trend_type", "shape family of the overall trend", TREND_TYPES),
        Attribute("trend_direction", "whether the trend rises or falls", TREND_DIRECTIONS),
        Attribute(
            "season_cycles",
            "number of seasonal cycles across the series",
            tuple(str(v) for v in SEASON_CYCLES),
        ),
        Attribute("segment_1_shapelet", "local pattern injected into segment 1", SHAPELET_KINDS),
        Attribute("segment_2_shapelet", "local pattern injected into segment 2", SHAPELET_KINDS),
        Attribute("segment_3_shapelet", "local pattern injected into segment 3", SHAPELET_KINDS),
        Attribute(
            "hf_cycles",
            "number of high-frequency oscillation cycles",
            tuple(str(v) for v in HF_CYCLES),
        ),
    ]
    if variant == "m":
        attrs.append(
            Attribute("mv_transform", "rule deriving the second variable", MV_TRANSFORMS)
        )
    elif variant != "u":
        raise ContractViolation(f"variant must be 'u' or 'm', got {variant!r}")
    return AttributeSchema(attributes=tuple(attrs))


def primary_combinations() -> list[PrimaryAttrs]:
    """All 32 primary combinations in label order (lexicographic by value indices)."""
    return [
        PrimaryAttrs(t, d, c)
        for t, d, c in itertools.product(TREND_TYPES, TREND_DIRECTIONS, SEASON_CYCLES)
    ]


@dataclass(frozen=True)
class SynthDataset:
    series: TimeSeriesTensor
    conditions: tuple[ConditionRecord, ...]
    schema: AttributeSchema
    splits: dict[str, list[int]]


def _split_counts(n: int) -> tuple[int, int, int]:
    # 6:1:1; valid and test get floor(n/8) each, train the rest
    n_valid = n // 8
    n_test = n // 8
    return n - n_valid - n_test, n_valid, n_test


def build_synth_dataset(
    variant: str,
    seed: int,
    n_per_combo: int,
    length: int = DEFAULT_LENGTH,
) -> SynthDataset:
    """Emit 32 * n_per_combo aligned samples with per-combination 6:1:1 splits.

    The class label of a sample is the index of its primary combination in
    ``primary_combinations()`` order.  The multivariate variant appends a
    second feature derived from the first by a uniformly sampled transform.
    """
    if variant not in ("u", "m"):
        raise ContractViolation(f"variant must be 'u' or 'm', got {variant!r}")
    if n_per_combo < 8:
        raise ContractViolation("n_per_combo must be >= 8 to split 6:1:1")
    _segment_bounds(length)  # fail fast on bad length
    schema = synth_schema(variant)
    combos = primary_combinations()
    n_features = 1 if variant == "u" else 2
    n_total = len(combos) * n_per_combo

    data = np.empty((n_total, length, n_features))
    conditions: list[ConditionRecord] = []
    splits: dict[str, list[int]] = {"train": [], "valid": [], "test": []}

    shapelet_index = {k: i for i, k in enumerate(SHAPELET_KINDS)}
    for combo_idx, primary in enumerate(combos):
        base = combo_idx * n_per_combo
        for j in range(n_per_combo):
            i = base + j
            rng_secondary = sample_rng(seed, i, _P_SECONDARY)
            hf = HF_CYCLES[rng_secondary.integers(0, len(HF_CYCLES))]
            labels = _sample_segment_labels(sample_rng(seed, i, _P_SHAPELET_LABELS))
            secondary = SecondaryAttrs(hf_cycles=hf, segment_shapelets=labels)
            series = sum(univariate_components(primary, secondary, seed, i, length).values())
            data[i, :, 0] = series

            transform = None
            if variant == "m":
                rng_t = sample_rng(seed, i, _P_TRANSFORM)
                kind = MV_TRANSFORMS[rng_t.integers(0, len(MV_TRANSFORMS))]
                dist = None
                if kind in ("shift_forward", "shift_backward"):
                    dist = int(rng_t.integers(SHIFT_DISTANCE_RANGE[0], SHIFT_DISTANCE_RANGE[1], endpoint=True))
                transform = MvTransform(kind=kind, shift_distance=dist)
                data[i, :, 1] = apply_mv_transform(series, transform)

            attrs = {
                "trend_type": TREND_TYPES.index(primary.trend_type),
                "trend_direction": TREND_DIRECTIONS.index(primary.trend_direction),
                "season_cycles": SEASON_CYCLES.index(primary.season_cycles),
                "segment_1_shapelet": shapelet_index[labels[0]],
                "segment_2_shapelet": shapelet_index[labels[1]],
                "segment_3_shapelet": shapelet_index[labels[2]],
                "hf_cycles": HF_CYCLES.index(hf),
            }
            if transform is not None:
                attrs["mv_transform"] = MV_TRANSFORMS.index(transform.kind)
            conditions.append(
                ConditionRecord(
                    sample_id=f"{variant}-{i:06d}",
                    text=render_caption(primary, secondary, transform),
                    attrs=attrs,
                    label=combo_idx,
                )
            )

        n_train, n_valid, _ = _split_counts(n_per_combo)
        perm = sample_rng(seed, combo_idx, _P_SPLIT).permutation(n_per_combo)
        splits["train"].extend(sorted(int(base + p) for p in perm[:n_train]))
        splits["valid"].extend(sorted(int(base + p) for p in perm[n_train : n_train + n_valid]))
        splits["test"].extend(sorted(int(base + p) for p in perm[n_train + n_valid :]))

    return SynthDataset(
        series=TimeSeriesTensor(data=data),
        conditions=tuple(conditions),
        schema=schema,
        splits=splits,
    )
