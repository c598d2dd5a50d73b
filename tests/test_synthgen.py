import hashlib
import itertools
import math

import numpy as np
import pytest

from seriesbench.core import ContractViolation
from seriesbench import synthgen
from seriesbench.streams import open_stream, stream_keys
from seriesbench.synthgen import (
    PrimaryAttrs,
    SecondaryAttrs,
    build_synth_dataset,
    sample_rng,
    shapelet_template,
    trend_component,
    univariate_components,
)


# ---------------------------------------------------------------------------
# trend
# ---------------------------------------------------------------------------


def test_linear_up_endpoints():
    x = trend_component("linear", "up", 50)
    assert x[0] == 0.0 and x[-1] == 1.0


def test_linear_down_endpoints():
    x = trend_component("linear", "down", 50)
    assert x[0] == 0.0 and x[-1] == -1.0


def test_exponential_up_last_point_is_one():
    # 2^10 / 1024 == 1 at t' = 10
    x = trend_component("exponential", "up", 96)
    assert x[-1] == pytest.approx(1.0, abs=1e-12)


def test_quadratic_matches_scalar_eval():
    length = 11
    x = trend_component("quadratic", "up", length)
    t = [i / (length - 1) for i in range(length)]
    assert np.allclose(x, [v * v for v in t], atol=1e-15)


def test_logistic_midpoint_half():
    x = trend_component("logistic", "up", 21)  # t' grid hits 0 at index 10
    assert x[10] == pytest.approx(0.5, abs=1e-12)


# ---------------------------------------------------------------------------
# sinusoids
# ---------------------------------------------------------------------------


def _sinusoid(n_cycle, amplitude, phase, length):
    """One row of the batched sinusoid kernel."""
    out = np.empty((1, length))
    return synthgen._sinusoid_rows(np.array([n_cycle]), np.array([amplitude]), np.array([phase]), out)[0]


def test_sinusoid_quarter_cycle_value():
    x = _sinusoid(1, 0.5, 0.0, 5)  # t = 0, .25, .5, .75, 1
    assert x[1] == pytest.approx(0.5, abs=1e-12)


def test_sinusoid_zero_cycles_is_zero_series():
    assert np.array_equal(_sinusoid(0, 0.7, 1.3, 40), np.zeros(40))


def test_sinusoid_two_cycles_against_scalar_oracle():
    x = _sinusoid(2, 0.5, 0.0, 9)
    expected = [0.5 * math.sin(2.0 * math.pi * (0.25 * i)) for i in range(9)]
    assert np.allclose(x, expected, atol=1e-12)


# ---------------------------------------------------------------------------
# shapelets
# ---------------------------------------------------------------------------


def test_single_peak_template_values():
    expected = [0.0, 0.25, 0.5, 0.75, 1.0, 0.75, 0.5, 0.25, 0.0]
    assert np.allclose(shapelet_template("single_peak", 1.0), expected, atol=1e-15)


def test_sag_is_negated_peak():
    peak = shapelet_template("single_peak", 1.13)
    assert np.array_equal(shapelet_template("sag", 1.13), -peak)


def test_double_peaks_is_two_concatenated():
    peak = shapelet_template("single_peak", 1.07)
    double = shapelet_template("double_peaks", 1.07)
    assert len(double) == 18
    assert np.array_equal(double, np.concatenate([peak, peak]))


def test_template_symmetry_and_zero_endpoints():
    for height in (1.0, 1.1, 1.2):
        peak = shapelet_template("single_peak", height)
        assert peak[0] == 0.0 and peak[-1] == 0.0
        assert np.array_equal(peak, peak[::-1])
        assert peak[4] == pytest.approx(height)


def test_template_rejects_none():
    with pytest.raises(ContractViolation):
        shapelet_template("none", 1.0)


NO_SHAPELETS = ("none", "none", "none")


def test_inject_all_none_gives_zero_series():
    primary = PrimaryAttrs("linear", "up", 1)
    secondary = SecondaryAttrs(hf_cycles=16, segment_shapelets=NO_SHAPELETS)
    for i in range(5):
        local = univariate_components(primary, secondary, 7, i, 96)["local"]
        assert np.array_equal(local, np.zeros(96))


def test_inject_rejects_bad_length():
    primary = PrimaryAttrs("linear", "up", 0)
    secondary = SecondaryAttrs(hf_cycles=0, segment_shapelets=("single_peak", "sag", "double_peaks"))
    with pytest.raises(ContractViolation):
        univariate_components(primary, secondary, 0, 0, 97)  # not divisible by 3
    with pytest.raises(ContractViolation):
        univariate_components(primary, secondary, 0, 0, 45)  # segments of 15 cannot fit double peaks


def test_inject_label_frequencies_and_peak_range():
    ds = build_synth_dataset("u", seed=11, n_per_combo=125, length=96)
    counts = {k: 0 for k in synthgen.SHAPELET_KINDS}
    for i, rec in enumerate(ds.conditions):
        primary, secondary = synthgen.decode_attrs(rec.attrs)
        local = univariate_components(primary, secondary, 11, i, 96)["local"]
        for seg, kind in enumerate(secondary.segment_shapelets):
            counts[kind] += 1
            segment = local[seg * 32 : (seg + 1) * 32]
            if kind in ("single_peak", "double_peaks"):
                assert 1.0 <= segment.max() <= 1.2
            elif kind == "sag":
                assert -1.2 <= segment.min() <= -1.0
    total = 3 * len(ds.conditions)
    assert counts["none"] / total == pytest.approx(0.70, abs=0.02)
    for kind in ("single_peak", "sag", "double_peaks"):
        assert counts[kind] / total == pytest.approx(0.10, abs=0.02)


def test_injected_template_confined_to_segment():
    primary = PrimaryAttrs("logistic", "down", 2)
    for i, labels in enumerate(itertools.product(synthgen.SHAPELET_KINDS, repeat=3)):
        secondary = SecondaryAttrs(hf_cycles=32, segment_shapelets=labels)
        local = univariate_components(primary, secondary, 5, i, 96)["local"]
        for seg, kind in enumerate(labels):
            segment = local[seg * 32 : (seg + 1) * 32]
            if kind == "none":
                assert not segment.any()
                continue
            # exactly one template, wholly inside its segment (a template's first point is zero)
            template = shapelet_template(kind, np.abs(segment).max())
            start = np.flatnonzero(segment)[0] - 1
            expected = np.zeros(32)
            expected[start : start + len(template)] = template
            assert np.array_equal(segment, expected)


# ---------------------------------------------------------------------------
# noise
# ---------------------------------------------------------------------------


def _noise(seed, sample_index, length):
    """The noise component of one sample, drawn from its (seed, sample_index) noise stream."""
    return univariate_components(PrimaryAttrs("linear", "up", 0), SecondaryAttrs(0, NO_SHAPELETS),
                                 seed, sample_index, length)["noise"]


def test_noise_std_matches_drawn_sigma():
    key = stream_keys(3, 0, 4)[0]
    sigma = open_stream(key).uniform(0.04, 0.06)  # identical stream, first draw
    noise = _noise(3, 0, 999_999)
    assert abs(noise.std() - sigma) < 0.001
    assert abs(noise.mean()) < 0.001


def test_noise_deterministic_per_stream():
    a = _noise(9, 4, 129)
    b = _noise(9, 4, 129)
    assert np.array_equal(a, b)


def test_noise_sigma_uniform_over_samples():
    from scipy.stats import kstest

    keys, rng = stream_keys(1, np.arange(100_000), 4), open_stream(stream_keys(1, 0, 0)[0])
    sigmas = np.array([sample_rng(rng, key).uniform(0.04, 0.06) for key in keys.tolist()])
    stat = kstest(sigmas, "uniform", args=(0.04, 0.02)).pvalue
    assert stat > 1e-4
    assert sigmas.min() >= 0.04 and sigmas.max() <= 0.06


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------


def test_compose_reduces_to_trend_when_everything_disabled():
    primary = PrimaryAttrs("quadratic", "down", 0)
    secondary = SecondaryAttrs(hf_cycles=0, segment_shapelets=NO_SHAPELETS)
    parts = univariate_components(primary, secondary, 0, 0, 96)
    series = sum(v for name, v in parts.items() if name != "noise")
    assert np.array_equal(series, trend_component("quadratic", "down", 96))
    # quadratic, down, and every other attribute at its first value
    assert synthgen._caption([1, 1, 0, 0, 0, 0, 0], 0) == (
        "The overall trend is quadratic; the trend moves downward; there is no seasonal pattern; "
        "no local patterns appear in any segment; no high-frequency oscillation is present."
    )


def test_compose_monotone_linear_up():
    primary = PrimaryAttrs("linear", "up", 0)
    secondary = SecondaryAttrs(hf_cycles=0, segment_shapelets=NO_SHAPELETS)
    parts = univariate_components(primary, secondary, 1, 2, 96)
    series = sum(v for name, v in parts.items() if name != "noise")
    assert np.all(np.diff(series) > 0)


def test_caption_contains_all_five_attribute_phrases():
    # linear, up, 2 seasonal cycles, a single peak in segment 2, 16 hf cycles
    caption = synthgen._caption([0, 0, 2, 0, 1, 0, 1], 0)
    for phrase in (
        "the overall trend is linear",
        "the trend moves upward",
        "the seasonal pattern repeats 2 times",
        "segment 2 contains a single peak",
        "a high-frequency oscillation repeats 16 times",
    ):
        assert phrase in caption.lower()


@pytest.mark.parametrize(
    "transform, clause",
    [
        (0, "the second variable mirrors the first along the time axis."),
        (1, "the second variable mirrors the first along the value axis."),
        (2, "the second variable repeats the first shifted forward by 31 steps."),
        (3, "the second variable repeats the first shifted backward by 31 steps."),
    ],
    ids=list(synthgen.MV_TRANSFORMS),
)
def test_a_synth_m_caption_ends_with_its_transform_clause(transform, clause):
    caption = synthgen._caption([0, 0, 0, 0, 0, 0, 0, transform], 31)
    assert caption == (
        "The overall trend is linear; the trend moves upward; there is no seasonal pattern; "
        "no local patterns appear in any segment; no high-frequency oscillation is present; " + clause
    )


def test_built_captions_spell_out_a_backward_shift_and_absent_segments():
    ds = build_synth_dataset("m", seed=0, n_per_combo=8, length=96)
    shifted, plain = ds.conditions[5], ds.conditions[17]
    assert (shifted.sample_id, shifted.attrs["mv_transform"]) == ("m-000005", 3)  # shift_backward
    assert shifted.text == (
        "The overall trend is linear; the trend moves upward; there is no seasonal pattern; "
        "segment 2 contains double peaks; no high-frequency oscillation is present; "
        "the second variable repeats the first shifted backward by 24 steps."
    )
    # the distance the caption names is the one the second variate was shifted by
    assert np.array_equal(ds.series.data[5, :, 1], np.roll(ds.series.data[5, :, 0], -24))
    assert plain.sample_id == "m-000017"
    assert plain.text == (
        "The overall trend is linear; the trend moves upward; the seasonal pattern repeats 2 times; "
        "no local patterns appear in any segment; a high-frequency oscillation repeats 32 times; "
        "the second variable repeats the first shifted forward by 32 steps."
    )


DECODABLE = {"trend_type": 0, "trend_direction": 1, "season_cycles": 2, "segment_1_shapelet": 0,
             "segment_2_shapelet": 1, "segment_3_shapelet": 3, "hf_cycles": 2}


@pytest.mark.parametrize(
    "fn, args",
    [
        (synthgen.decode_attrs, ({**DECODABLE, "trend_type": -1},)),
        (synthgen.decode_attrs, ({**DECODABLE, "hf_cycles": 9},)),
        (synthgen.decode_attrs, ({k: v for k, v in DECODABLE.items() if k != "segment_2_shapelet"},)),
    ],
    ids=["decode-negative-index", "decode-index-past-end", "decode-missing-attribute"],
)
def test_invalid_caption_or_decode_input_is_a_contract_violation(fn, args):
    with pytest.raises(ContractViolation):
        fn(*args)


def test_decodable_attrs_decode():
    primary, secondary = synthgen.decode_attrs(DECODABLE)
    assert primary == PrimaryAttrs("linear", "down", 2)
    assert secondary == SecondaryAttrs(32, ("none", "single_peak", "double_peaks"))


# ---------------------------------------------------------------------------
# multivariable transforms
# ---------------------------------------------------------------------------


X_FLIP, Y_FLIP, SHIFT_FORWARD, SHIFT_BACKWARD = range(len(synthgen.MV_TRANSFORMS))  # kind indices


def _transform(series, kind, shift=0):
    """One row of the batched transform gather: transform ``MV_TRANSFORMS[kind]``, shift distance ``shift``."""
    return synthgen._transform_rows(series[None], np.array([kind]), np.array([shift]), np.empty((1, series.size)))[0]


def test_xflip_is_involution():
    series = np.arange(96, dtype=float)
    assert np.array_equal(_transform(_transform(series, X_FLIP), X_FLIP), series)


def test_yflip_negates():
    assert np.array_equal(_transform(np.array([1.0, -2.0]), Y_FLIP), [-1.0, 2.0])


def test_shifts_invert_each_other():
    series = np.sin(np.arange(96) / 5.0)
    fwd = _transform(series, SHIFT_FORWARD, 20)
    back = _transform(fwd, SHIFT_BACKWARD, 20)
    assert np.array_equal(back, series)


# ---------------------------------------------------------------------------
# dataset construction
# ---------------------------------------------------------------------------


def test_build_counts_labels_and_splits():
    n = 16
    ds = build_synth_dataset("u", seed=5, n_per_combo=n, length=96)
    assert ds.series.data.shape == (32 * n, 96, 1)
    labels = np.array([rec.label for rec in ds.conditions])
    values, counts = np.unique(labels, return_counts=True)
    assert list(values) == list(range(32))
    assert all(c == n for c in counts)
    assert len(ds.splits["train"]) == 32 * 12
    assert len(ds.splits["valid"]) == 32 * 2
    assert len(ds.splits["test"]) == 32 * 2
    everything = sorted(ds.splits["train"] + ds.splits["valid"] + ds.splits["test"])
    assert everything == list(range(32 * n))


def test_build_deterministic():
    a = build_synth_dataset("u", seed=21, n_per_combo=8, length=96)
    b = build_synth_dataset("u", seed=21, n_per_combo=8, length=96)
    assert np.array_equal(a.series.data, b.series.data)
    assert list(a.conditions) == list(b.conditions)
    assert a.splits == b.splits


def test_build_m_second_variate_matches_transform():
    ds = build_synth_dataset("m", seed=2, n_per_combo=8, length=96)
    assert ds.series.n_features == 2
    kinds = [rec.attrs["mv_transform"] for rec in ds.conditions]
    assert set(kinds) <= {0, 1, 2, 3}
    # every x_flip sample: second variate is the exact time reversal of the first
    checked = 0
    for i, rec in enumerate(ds.conditions):
        if synthgen.MV_TRANSFORMS[rec.attrs["mv_transform"]] == "x_flip":
            first = ds.series.data[i, :, 0]
            second = ds.series.data[i, :, 1]
            assert np.array_equal(second, first[::-1])
            checked += 1
    assert checked > 0


def test_components_reproduce_stored_series():
    ds = build_synth_dataset("u", seed=13, n_per_combo=8, length=96)
    for i in (0, 100, 255):
        primary, secondary = synthgen.decode_attrs(ds.conditions[i].attrs)
        parts = univariate_components(primary, secondary, 13, i, 96)
        rebuilt = sum(parts.values())
        assert np.array_equal(rebuilt, ds.series.data[i, :, 0])


def test_segment_labels_match_injected_patterns():
    # with season/hf/noise removed, the residual in a labelled segment is the template
    ds = build_synth_dataset("u", seed=17, n_per_combo=8, length=96)
    for i in (3, 77, 140):
        primary, secondary = synthgen.decode_attrs(ds.conditions[i].attrs)
        parts = univariate_components(primary, secondary, 17, i, 96)
        local = parts["local"]
        for seg, kind in enumerate(secondary.segment_shapelets):
            segment = local[seg * 32 : (seg + 1) * 32]
            if kind == "none":
                assert not segment.any()
            else:
                assert segment.any()


def test_build_rejects_small_n_per_combo():
    with pytest.raises(ContractViolation):
        build_synth_dataset("u", seed=0, n_per_combo=7, length=96)


def test_build_rejects_bad_length():
    with pytest.raises(ContractViolation):
        build_synth_dataset("u", seed=0, n_per_combo=8, length=100)


# sha256 of the four files ``seriesbench synth`` writes; captions, attribute
# vectors, schema and splits change these, so an edit to any of them shows here
GOLDEN_SHA256 = {
    ("u", 0, 8, 96): {
        "series.tsb": "4c05e34b9dc639bc27b690e8f3fba758b3fb609c85816d33777d49f328a380a9",
        "conditions.jsonl": "d2e697ee7f10a2943cca05a29169655d49536cde8dfc414a118d2c45ac23daa0",
        "schema.json": "ca65914fef1f686d8f7007a87154c9e4632cc745305ed447c4ca2fb855cacbc3",
        "splits.json": "eb7058120c1b631f8856c12e0a5831fb88eb3be9a79f129a4d3bf8ad88529209",
    },
    ("m", 1, 9, 57): {
        "series.tsb": "70784bc3091b1d7b7ec55cfe5faa918f5cd67017dd9a8f03e73ae7256359ee00",
        "conditions.jsonl": "73c58c249847587afa3210f87ea22c174ea105115f747dd92ca6d2c3cbb566cf",
        "schema.json": "4a97418a41ced662a307a50104e7fedfbb11ddb8225f1138af742d59ac6c6819",
        "splits.json": "8432370cf90297a2fdc47386c1e3aef7ac7c96b7557b2371d9d1be5e63b3fa19",
    },
}


@pytest.mark.parametrize("variant, seed, n_per_combo, length", sorted(GOLDEN_SHA256))
def test_synth_outputs_match_golden_digests(variant, seed, n_per_combo, length, tmp_path):
    from seriesbench.cli import main

    argv = ["synth", "--variant", variant, "--seed", str(seed), "--n-per-combo", str(n_per_combo),
            "--length", str(length), "--out", str(tmp_path)]
    assert main(argv) == 0
    want = GOLDEN_SHA256[variant, seed, n_per_combo, length]
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in want} == want


# ---------------------------------------------------------------------------
# the batched build against the per-sample build it replaced
# ---------------------------------------------------------------------------


def _ref_rng(seed, index, purpose):
    return np.random.Generator(np.random.Philox(seed=np.random.SeedSequence((seed, index, purpose))))


def _ref_sinusoid(n_cycle, amplitude, phase, length):
    if n_cycle == 0:
        return np.zeros(length)
    t = np.linspace(0.0, float(n_cycle), length)
    return amplitude * np.sin(2.0 * np.pi * t + phase)


def _ref_template(kind, peak_height):
    i = np.arange(9)
    peak = peak_height * (1.0 - np.abs(i - 4) / 4)
    if kind == "single_peak":
        return peak
    if kind == "sag":
        return -peak
    return np.concatenate([peak, peak])


def _ref_transform(series, kind, d):
    if kind == "x_flip":
        return series[::-1]
    if kind == "y_flip":
        return -series
    return np.roll(series, d if kind == "shift_forward" else -d)


def _ref_components(primary, secondary, seed, i, length):
    """The per-sample body of ``univariate_components`` before the batched kernel."""
    rng_season = _ref_rng(seed, i, 0)
    amp = rng_season.uniform(0.4, 0.6)
    phase = rng_season.uniform(0.0, 2.0 * np.pi)
    rng_hf = _ref_rng(seed, i, 1)
    hf_amp = rng_hf.uniform(0.1, 0.3)
    hf_phase = rng_hf.uniform(0.0, 2.0 * np.pi)
    local = np.zeros(length)
    rng_place = _ref_rng(seed, i, 3)
    seg = length // 3
    for k, kind in enumerate(secondary.segment_shapelets):
        if kind == "none":
            continue
        template = _ref_template(kind, rng_place.uniform(1.0, 1.2))
        offset = int(rng_place.integers(0, seg - len(template), endpoint=True))
        local[k * seg + offset : k * seg + offset + len(template)] += template
    rng_noise = _ref_rng(seed, i, 4)
    sigma = rng_noise.uniform(0.04, 0.06)
    return {
        "trend": trend_component(primary.trend_type, primary.trend_direction, length),
        "season": _ref_sinusoid(primary.season_cycles, amp, phase, length),
        "local": local,
        "hf": _ref_sinusoid(secondary.hf_cycles, hf_amp, hf_phase, length),
        "noise": rng_noise.normal(0.0, sigma, size=length),
    }


def _ref_caption(attrs, dist):
    """A record's caption, written out from the caption grammar rather than the build's attribute table."""
    season_cycles = synthgen.SEASON_CYCLES[attrs["season_cycles"]]
    hf_cycles = synthgen.HF_CYCLES[attrs["hf_cycles"]]
    patterns = (None, "a single peak", "a sag", "double peaks")
    segments = [f"segment {k} contains {patterns[attrs[f'segment_{k}_shapelet']]}"
                for k in (1, 2, 3) if attrs[f"segment_{k}_shapelet"]]
    clauses = [
        f"the overall trend is {synthgen.TREND_TYPES[attrs['trend_type']]}",
        "the trend moves " + ("upward", "downward")[attrs["trend_direction"]],
        f"the seasonal pattern repeats {season_cycles} times" if season_cycles else "there is no seasonal pattern",
        *(segments or ["no local patterns appear in any segment"]),
        f"a high-frequency oscillation repeats {hf_cycles} times" if hf_cycles
        else "no high-frequency oscillation is present",
    ]
    if "mv_transform" in attrs:
        clauses.append("the second variable " + (
            "mirrors the first along the time axis",
            "mirrors the first along the value axis",
            f"repeats the first shifted forward by {dist} steps",
            f"repeats the first shifted backward by {dist} steps",
        )[attrs["mv_transform"]])
    text = "; ".join(clauses)
    return text[0].upper() + text[1:] + "."


def _ref_build(variant, seed, n_per_combo, length):
    """The per-sample ``build_synth_dataset`` before the batched kernel: series, records, splits.

    A record's attribute indices come from its draws and its combination
    index, not from the attribute table the build reads.
    """
    n_features = 1 if variant == "u" else 2
    data = np.empty((32 * n_per_combo, length, n_features))
    records, splits = [], {"train": [], "valid": [], "test": []}
    primaries = itertools.product(synthgen.TREND_TYPES, synthgen.TREND_DIRECTIONS, synthgen.SEASON_CYCLES)
    for combo_idx, values in enumerate(primaries):
        primary = PrimaryAttrs(*values)
        base = combo_idx * n_per_combo
        for j in range(n_per_combo):
            i = base + j
            hf_idx = _ref_rng(seed, i, 5).integers(0, 4)
            hf = synthgen.HF_CYCLES[hf_idx]
            idx = _ref_rng(seed, i, 2).choice(4, size=3, p=synthgen.SHAPELET_PROBS)
            labels = tuple(synthgen.SHAPELET_KINDS[k] for k in idx)
            secondary = SecondaryAttrs(hf_cycles=hf, segment_shapelets=labels)
            series = sum(_ref_components(primary, secondary, seed, i, length).values())
            data[i, :, 0] = series
            trend_idx, direction_idx, season_idx = np.unravel_index(combo_idx, (4, 2, 4))
            attrs = {"trend_type": trend_idx, "trend_direction": direction_idx, "season_cycles": season_idx,
                     "segment_1_shapelet": idx[0], "segment_2_shapelet": idx[1], "segment_3_shapelet": idx[2],
                     "hf_cycles": hf_idx}
            dist = None
            if variant == "m":
                rng_t = _ref_rng(seed, i, 6)
                attrs["mv_transform"] = rng_t.integers(0, 4)
                kind = synthgen.MV_TRANSFORMS[attrs["mv_transform"]]
                dist = int(rng_t.integers(20, 40, endpoint=True)) if kind.startswith("shift") else None
                data[i, :, 1] = _ref_transform(series, kind, dist)
            records.append((f"{variant}-{i:06d}", _ref_caption(attrs, dist), attrs, combo_idx))
        n_train, n_valid = n_per_combo - 2 * (n_per_combo // 8), n_per_combo // 8
        perm = _ref_rng(seed, combo_idx, 7).permutation(n_per_combo)
        splits["train"].extend(sorted(int(base + p) for p in perm[:n_train]))
        splits["valid"].extend(sorted(int(base + p) for p in perm[n_train : n_train + n_valid]))
        splits["test"].extend(sorted(int(base + p) for p in perm[n_train + n_valid :]))
    return data, records, splits


@pytest.mark.parametrize(
    "variant, seed, n_per_combo, length",
    [
        ("u", 0, 8, 96),
        ("m", 1, 9, 57),
        ("u", 2, 17, 75),
        ("m", 3, 17, 111),
        ("m", 0, 250, 96),
        ("u", 2**32 - 1, 8, 57),
        ("m", 2**32, 9, 96),
        ("m", 2**64, 8, 75),
    ],
)
def test_build_matches_per_sample_reference_bitwise(variant, seed, n_per_combo, length):
    ds = build_synth_dataset(variant, seed, n_per_combo, length)
    data, records, splits = _ref_build(variant, seed, n_per_combo, length)
    assert ds.series.data.view(np.uint64).tobytes() == data.view(np.uint64).tobytes()
    assert [(r.sample_id, r.text, dict(r.attrs), r.label) for r in ds.conditions] == records
    assert ds.splits == splits
    for i in (0, n_per_combo + 1, len(records) - 1):
        primary, secondary = synthgen.decode_attrs(ds.conditions[i].attrs)
        got = univariate_components(primary, secondary, seed, i, length)
        want = _ref_components(primary, secondary, seed, i, length)
        assert list(got) == list(want)
        for name in want:
            assert got[name].tobytes() == want[name].tobytes(), name


# the build draws every stream from one reseated Generator
@pytest.mark.parametrize("purpose", [*range(synthgen._N_SAMPLE_PURPOSES), synthgen._P_SPLIT])
def test_a_reseated_generator_draws_like_an_opened_stream(purpose):
    keys = stream_keys(3, np.arange(5000), purpose)
    rng = open_stream(keys[0])

    def draws(g):  # every kind of draw the build takes, each stream leaving rng in another state
        return (g.uniform(0.4, 0.6), g.integers(0, 4), g.integers(20, 40, endpoint=True),
                g.random(3).tobytes(), g.standard_normal(5).tobytes(), g.permutation(9).tobytes())

    for key, row in zip(keys, keys.tolist()):
        assert draws(sample_rng(rng, row)) == draws(open_stream(key))


@pytest.mark.parametrize("low, high", [synthgen.SEASON_AMPLITUDE_RANGE, synthgen.HF_AMPLITUDE_RANGE,
                                       synthgen.PHASE_RANGE, synthgen.NOISE_SIGMA_RANGE, synthgen.PEAK_HEIGHT_RANGE])
def test_a_scaled_random_double_is_the_uniform_draw_bitwise(low, high):
    # the build stores random() doubles and scales them as arrays; an FMA in that scaling would round once, not twice
    keys = stream_keys(11, np.arange(5000), synthgen._P_SEASON)
    u = np.array([open_stream(key).random() for key in keys])
    want = np.array([open_stream(key).uniform(low, high) for key in keys])
    assert (low + (high - low) * u).tobytes() == want.tobytes()


def test_a_synth_m_build_opens_one_stream(monkeypatch):
    opened = []

    def counting(key):
        opened.append(key)
        return open_stream(key)

    monkeypatch.setattr(synthgen, "open_stream", counting)
    build_synth_dataset("m", 0, 8)
    assert len(opened) == 1


@pytest.mark.parametrize("n_per_combo", [8, 250])
@pytest.mark.parametrize("variant", ["u", "m"])
def test_build_is_bitwise_the_build_with_a_fresh_generator_per_stream(monkeypatch, variant, n_per_combo):
    ds = build_synth_dataset(variant, 5, n_per_combo)
    monkeypatch.setattr(synthgen, "sample_rng", lambda rng, key: open_stream(np.array(key, dtype=np.uint64)))
    ref = build_synth_dataset(variant, 5, n_per_combo)
    assert ds.series.data.tobytes() == ref.series.data.tobytes()
    assert list(ds.conditions) == list(ref.conditions)
    assert ds.splits == ref.splits


def test_sinusoid_and_noise_match_reference_bitwise():
    for n_cycle in synthgen.SEASON_CYCLES + synthgen.HF_CYCLES:
        for length in (2, 57, 96):
            got = _sinusoid(n_cycle, 0.37, 5.9, length)
            assert got.tobytes() == _ref_sinusoid(n_cycle, 0.37, 5.9, length).tobytes()
    for row in range(50):
        got = _noise(4, row, 57)
        ref = _ref_rng(4, row, 4)
        assert got.tobytes() == ref.normal(0.0, ref.uniform(0.04, 0.06), size=57).tobytes()


def test_build_rejects_negative_seed():
    with pytest.raises(ContractViolation, match="non-negative"):
        build_synth_dataset("u", seed=-1, n_per_combo=8, length=96)


def test_build_m_scratch_peak_stays_bounded():
    import tracemalloc

    build_synth_dataset("m", 0, 8)  # warm imports and caches outside the measurement
    tracemalloc.start()
    try:
        ds = build_synth_dataset("m", 0, 250)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the per-sample build peaked at 31-31.8 MiB, holding the array and the tensor's copy of it;
    # frozen, the array becomes the tensor's data and the peak is ~20 MiB
    assert peak <= 24 * 2**20, peak / 2**20
    assert not ds.series.data.flags.writeable


@pytest.mark.parametrize("idx", [1.5, True, "1"])
def test_decode_rejects_a_non_integer_index(idx):
    with pytest.raises(ContractViolation, match="is not an integer"):
        synthgen.decode_attrs({**DECODABLE, "trend_type": idx})
