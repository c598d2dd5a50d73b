import json
import re

import numpy as np
import pytest

from seriesbench.core import ContractViolation, InputFormatError, ProposerError
from seriesbench.schema_discovery import (
    DiscoveryParams,
    LabelIndex,
    MockProposer,
    assign_attributes_batch,
    canonicalize,
    discover,
    index_labels,
    schema_hash,
)

SCHEMA_A = {
    "attributes": [
        {"name": "trend", "definition": "overall direction", "values": ["up", "down", "other"]},
        {"name": "volatility", "definition": "noise level", "values": ["low", "high", "other"]},
    ]
}

SCHEMA_B = {
    "attributes": [
        {"name": "trend", "definition": "overall direction", "values": ["up", "flat", "other"]},
    ]
}


class ConstantProposer:
    def __init__(self, schema_doc=SCHEMA_A):
        self.schema_doc = schema_doc
        self.calls = 0

    def __call__(self, request):
        self.calls += 1
        return {"schema": self.schema_doc}


class AlternatingProposer:
    def __init__(self):
        self.calls = 0

    def __call__(self, request):
        self.calls += 1
        return {"schema": SCHEMA_A if self.calls % 2 else SCHEMA_B}


class FlakyProposer:
    """Unparseable on rounds 2 and 3 (including their repair retries)."""

    def __init__(self):
        self.round_calls = 0

    def __call__(self, request):
        if request.get("task") == "repair":
            return {"error": "still broken"}
        self.round_calls += 1
        if self.round_calls in (2, 3):
            return {"garbage": True}
        return {"schema": SCHEMA_A}


class DeadProposer:
    def __call__(self, request):
        raise ProposerError("endpoint unreachable")


CORPUS = [f"caption number {i} with an upward trend" for i in range(30)]


# ---------------------------------------------------------------------------
# canonicalize / hash
# ---------------------------------------------------------------------------


def test_canonicalize_idempotent():
    once = canonicalize(SCHEMA_A)
    twice = canonicalize(once)
    assert once == twice


def test_canonicalize_trims_lowercases_dedupes_sorts():
    schema = canonicalize(
        {"attributes": [{"name": " trend ", "values": ["Up ", "up", "down"]}]}
    )
    assert schema.attributes[0].name == "trend"
    assert schema.attributes[0].values == ("down", "up")


def test_canonicalize_appends_other_when_required():
    schema = canonicalize(
        {"attributes": [{"name": "trend", "values": ["up", "down"]}]}, require_other=True
    )
    assert schema.attributes[0].values == ("down", "up", "other")


def test_canonicalize_forces_other_last():
    schema = canonicalize(
        {"attributes": [{"name": "a", "values": ["other", "zz", "aa"]}]}
    )
    assert schema.attributes[0].values == ("aa", "zz", "other")


def test_canonicalize_order_insensitive():
    shuffled = {"attributes": list(reversed(SCHEMA_A["attributes"]))}
    assert canonicalize(shuffled) == canonicalize(SCHEMA_A)


def test_hash_stable_and_sensitive():
    a = schema_hash(canonicalize(SCHEMA_A))
    assert a == schema_hash(canonicalize(SCHEMA_A))
    assert a != schema_hash(canonicalize(SCHEMA_B))
    shuffled = {"attributes": list(reversed(SCHEMA_A["attributes"]))}
    assert a == schema_hash(canonicalize(shuffled))


def test_canonicalize_rejects_structural_garbage():
    with pytest.raises(ContractViolation):
        canonicalize({"attributes": [{"values": ["a", "b"]}]})
    with pytest.raises(ContractViolation):
        canonicalize({"nope": []})


@pytest.mark.parametrize("bad", [None, 1, 2.5, True, {"a": 1}], ids=["null", "int", "float", "bool", "object"])
@pytest.mark.parametrize("field", ["name", "values[0]", "definition"])
def test_canonicalize_refuses_a_field_that_is_no_string(field, bad):
    # names, definitions and values were coerced with str(): null became "None"
    attribute = {"name": "trend", "definition": "overall direction", "values": ["up", "down"]}
    if field == "values[0]":
        attribute["values"] = [bad, "down"]
    else:
        attribute[field] = bad
    message = f"schema document.attributes[0].{field}: expected a string, got {json.dumps(bad)}"
    with pytest.raises(ContractViolation, match=f"^{re.escape(message)}$"):
        canonicalize({"attributes": [attribute]})


def test_canonicalize_takes_string_subclasses_as_strings():
    values = np.array(["Up ", "down", "other"])  # elements are np.str_
    doc = {"attributes": [{"name": np.str_(" trend"), "definition": np.str_("direction"), "values": list(values)}]}
    assert canonicalize(doc) == canonicalize({"attributes": [{"name": "trend", "definition": "direction",
                                                              "values": ["up", "down", "other"]}]})


def test_canonicalize_names_the_document_when_it_is_no_object():
    with pytest.raises(ContractViolation, match=r"^schema document: expected an object, got \[1\]$"):
        canonicalize([1])
    # a value JSON cannot encode is shown by its repr, not raised from the encoder
    with pytest.raises(ContractViolation, match=r"^schema document: expected an object, got \"<object object at "):
        canonicalize(object())
    with pytest.raises(ContractViolation, match=re.escape("schema document.attributes[0].values: expected a list, got")):
        canonicalize({"attributes": [{"name": "trend", "values": {"up", "down"}}]})


# ---------------------------------------------------------------------------
# discovery loop
# ---------------------------------------------------------------------------


def test_constant_proposer_terminates_after_stability_plus_one():
    params = DiscoveryParams(batch_size=10, stability=3, max_iter=50, seed=0)
    result = discover(CORPUS, ConstantProposer(), params)
    assert result.converged
    assert result.iterations == 4  # round 1 establishes, rounds 2..4 match


def test_alternating_proposer_runs_to_max_iter():
    params = DiscoveryParams(batch_size=10, stability=3, max_iter=50, seed=0)
    result = discover(CORPUS, AlternatingProposer(), params)
    assert not result.converged
    assert result.iterations == 50


def test_small_corpus_reshuffles_instead_of_failing():
    params = DiscoveryParams(batch_size=25, stability=2, max_iter=8, seed=1)
    result = discover(CORPUS, AlternatingProposer(), params)  # 8 * 25 > 30 captions
    assert result.iterations == 8


def test_corpus_smaller_than_batch_rejected():
    params = DiscoveryParams(batch_size=100, stability=3, max_iter=50, seed=0)
    with pytest.raises(ContractViolation):
        discover(CORPUS, ConstantProposer(), params)


def test_parse_failures_skip_rounds_without_resetting_stability():
    params = DiscoveryParams(batch_size=5, stability=3, max_iter=50, seed=0)
    result = discover(CORPUS, FlakyProposer(), params)
    assert result.converged
    skipped = [r for r in result.rounds if r.skipped]
    assert len(skipped) == 2
    # rounds: ok, skip, skip, ok(+1), ok(+2), ok(+3) -> 6 iterations
    assert result.iterations == 6


def test_dead_proposer_raises():
    params = DiscoveryParams(batch_size=5, stability=2, max_iter=4, seed=0)
    with pytest.raises(ProposerError):
        discover(CORPUS, DeadProposer(), params)


def test_discovery_deterministic():
    params = DiscoveryParams(batch_size=7, stability=2, max_iter=9, seed=5)
    a = discover(CORPUS, AlternatingProposer(), params)
    b = discover(CORPUS, AlternatingProposer(), params)
    assert a.rounds == b.rounds
    assert a.schema == b.schema


@pytest.mark.parametrize("seed", [0, 5, 2**32, 2**64])
def test_batches_come_from_the_seed_zero_stream(seed):
    seen = []

    def proposer(request):
        seen.append(request["observations"])
        return {"schema": SCHEMA_A}

    discover(CORPUS, proposer, DiscoveryParams(batch_size=25, stability=2, max_iter=5, seed=seed))
    # the sampler's stream is Generator(Philox(SeedSequence((seed, 0)))); it reshuffles on exhaustion
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, 0))))
    order = [int(i) for _ in range(len(seen)) for i in rng.permutation(len(CORPUS))]
    assert seen == [[CORPUS[i] for i in order[k * 25 : (k + 1) * 25]] for k in range(len(seen))]


def test_a_reply_with_a_null_name_gets_the_grammar_text_and_the_round_is_skipped():
    requests = []

    def proposer(request):
        requests.append(request)
        if len(requests) <= 2:  # the first round's request and its repair
            return {"schema": {"attributes": [{"name": None, "values": ["up", "down"]}]}}
        return {"schema": SCHEMA_A}

    result = discover(CORPUS, proposer, DiscoveryParams(batch_size=5, stability=1, max_iter=5, seed=0))
    repair = requests[1]
    assert repair["task"] == "repair"
    assert repair["error"] == "schema document.attributes[0].name: expected a string, got null"
    assert repair["observations"] == requests[0]["observations"]
    assert result.rounds[0].skipped and result.rounds[0].schema_hash is None
    assert [r.skipped for r in result.rounds[1:]] == [False, False]
    assert result.converged


@pytest.mark.parametrize("value", [2.5, True])
@pytest.mark.parametrize("field", ["batch_size", "stability", "max_iter"])
def test_discovery_params_refuse_bools_and_fractions(field, value):
    # a batch size of 2.5 ended in a bare TypeError in the sampler
    with pytest.raises(ContractViolation, match="must be integers, got"):
        DiscoveryParams(**{field: value})


def test_a_bool_seed_is_refused():
    # seed=True ran as seed 1: operator.index takes a bool
    with pytest.raises(ContractViolation, match="a stream seed must be one integer, got bool"):
        discover(CORPUS, ConstantProposer(), DiscoveryParams(batch_size=5, seed=True))


def test_negative_seed_rejected():
    with pytest.raises(ContractViolation, match="non-negative"):
        discover(CORPUS, ConstantProposer(), DiscoveryParams(batch_size=5, seed=-1))


# ---------------------------------------------------------------------------
# value assignment
# ---------------------------------------------------------------------------


@pytest.fixture
def mock_proposer():
    return MockProposer(
        schema_doc=SCHEMA_A,
        keywords={
            "trend": {"up": ["upward", "rising"], "down": ["downward", "falling"]},
            "volatility": {"low": ["calm"], "high": ["noisy", "volatile"]},
        },
    )


def test_assign_keyword_match(mock_proposer):
    schema = canonicalize(SCHEMA_A)
    vector = assign_attributes_batch(["a calm series with an upward trend"], schema, mock_proposer)[0]
    assert vector["trend"] == schema.attributes[schema.names.index("trend")].values.index("up")
    assert vector["volatility"] == schema.attributes[schema.names.index("volatility")].values.index("low")


def test_assign_falls_back_to_other(mock_proposer):
    schema = canonicalize(SCHEMA_A)
    vector = assign_attributes_batch(["nothing matches here"], schema, mock_proposer)[0]
    assert vector["trend"] == schema.attributes[schema.names.index("trend")].values.index("other")
    assert vector["volatility"] == schema.attributes[schema.names.index("volatility")].values.index("other")


def test_assign_unknown_value_maps_to_other():
    class WeirdProposer:
        def __call__(self, request):
            n = len(request["observations"])
            return {"assignments": [{"trend": "sideways"}] * n}

    schema = canonicalize(SCHEMA_A)
    vector = assign_attributes_batch(["whatever"], schema, WeirdProposer())[0]
    assert vector["trend"] == schema.attributes[schema.names.index("trend")].values.index("other")


def test_assign_batch_preserves_order(mock_proposer):
    schema = canonicalize(SCHEMA_A)
    captions = ["rising and calm", "falling and noisy", "plain"]
    vectors = assign_attributes_batch(captions, schema, mock_proposer)
    trend = schema.attributes[schema.names.index("trend")]
    assert trend.values[vectors[0]["trend"]] == "up"
    assert trend.values[vectors[1]["trend"]] == "down"
    assert trend.values[vectors[2]["trend"]] == "other"


def test_assign_repairs_a_non_object_entry_then_raises():
    requests = []

    def proposer(request):
        requests.append(request)
        return {"assignments": [5]}

    schema = canonicalize(SCHEMA_A)
    with pytest.raises(ProposerError, match=re.escape("response.assignments[0]: expected an object, got 5")):
        assign_attributes_batch(["caption"], schema, proposer)
    assert [r["task"] for r in requests] == ["assign_values", "repair"]
    assert requests[1]["error"] == "response.assignments[0]: expected an object, got 5"


@pytest.mark.parametrize("value", [None, 3, ["up"]], ids=["null", "int", "list"])
def test_assign_maps_a_non_string_value_to_other(value):
    def proposer(request):
        return {"assignments": [{"trend": value, "volatility": "High "}]}

    schema = canonicalize(SCHEMA_A)
    vector = assign_attributes_batch(["caption"], schema, proposer)[0]
    assert vector == {"trend": schema.attributes[0].values.index("other"),
                      "volatility": schema.attributes[1].values.index("high")}


def test_assign_raises_after_failed_repair():
    class BrokenProposer:
        def __call__(self, request):
            return {"nonsense": 1}

    schema = canonicalize(SCHEMA_A)
    with pytest.raises(ProposerError):
        assign_attributes_batch(["caption"], schema, BrokenProposer())


# ---------------------------------------------------------------------------
# label indexing
# ---------------------------------------------------------------------------


def test_index_labels_lexicographic():
    labels, index = index_labels([(0, 1), (0, 1), (1, 0)])
    assert list(labels) == [0, 0, 1]
    assert index.combos == ((0, 1), (1, 0))


def test_index_labels_single_combo():
    labels, _ = index_labels([(2, 2), (2, 2), (2, 2)])
    assert list(labels) == [0, 0, 0]


def test_index_labels_synth_primary_combos():
    from seriesbench.synthgen import build_synth_dataset

    ds = build_synth_dataset("u", seed=1, n_per_combo=8, length=96)
    primary = [
        (r.attrs["trend_type"], r.attrs["trend_direction"], r.attrs["season_cycles"])
        for r in ds.conditions
    ]
    labels, index = index_labels(primary)
    assert len(index.combos) == 32
    assert list(labels) == [r.label for r in ds.conditions]


def test_index_labels_table_stable_under_permutation():
    rng = np.random.default_rng(0)
    vectors = [tuple(v) for v in rng.integers(0, 3, size=(60, 4))]
    _, index_a = index_labels(vectors)
    perm = rng.permutation(60)
    _, index_b = index_labels([vectors[int(i)] for i in perm])
    assert index_a.combos == index_b.combos


def test_label_index_apply_unseen_combo_errors():
    _, index = index_labels([(0, 0), (1, 1)])
    assert index.apply((1, 1)) == 1
    with pytest.raises(ContractViolation):
        index.apply((0, 1))


def test_label_index_table_built_once():
    _, index = index_labels([(0, 2), (1, 0), (1, 1)])
    assert index.table is index.table
    assert [index.apply(c) for c in index.combos] == [0, 1, 2]
    assert index == LabelIndex(combos=index.combos)  # the cached table is not a field


def test_label_index_round_trip():
    _, index = index_labels([(0, 2), (1, 0)])
    assert LabelIndex.from_dict(index.to_dict()) == index


@pytest.mark.parametrize(
    "combos, first_repeat",
    [
        ([[0, 1], [0, 1], [1, 0]], r"\[0, 1\] at entries 0 and 1"),
        ([[0], [1], [2], [1], [0]], r"\[1\] at entries 1 and 3"),
    ],
)
def test_label_index_refuses_a_repeated_combination(combos, first_repeat):
    # a repeat would map its combination to the later label, so labels would skip the earlier one
    with pytest.raises(InputFormatError, match=first_repeat):
        LabelIndex.from_dict({"combos": combos})


def test_index_labels_mixed_widths_rejected():
    with pytest.raises(ContractViolation):
        index_labels([(0, 1), (0, 1, 2)])
