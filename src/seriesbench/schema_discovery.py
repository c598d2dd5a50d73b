"""Iterative attribute-schema discovery against a pluggable proposer, plus
value assignment and class-label indexing.

The proposer is a wire interface: a single JSON request document in, a single
JSON response document out, carried over HTTP POST or any Python callable.

Request documents::

    {"task": "propose_schema", "current_schema": <schema|null>,
     "observations": ["caption", ...],
     "constraints": {"min_values": 3, "max_values": 8, "require_other": true}}

    {"task": "assign_values", "schema": <schema>, "observations": ["caption", ...]}

Responses carry ``{"schema": <schema>}`` or
``{"assignments": [{"<attr>": "<value name>", ...}, ...]}``.  A response, from
an HTTP endpoint or a callable alike, is checked with the shape grammar that
checks every input file (``tensorfile.shape_problem``), so a schema's names,
definitions and values must be strings: nothing is coerced.  Anything else is
a parse failure, answered once with a repair request: the original request
resent with ``"task": "repair"`` and an ``error`` field holding the
grammar's text, such as ``schema document.attributes[0].name: expected a
string, got null``.

A deterministic keyword-rule proposer is shipped for tests and offline runs,
so no live language model is ever required.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from seriesbench.core import (
    Attribute,
    AttributeSchema,
    ContractViolation,
    InputFormatError,
    ProposerError,
    is_integer,
)
from seriesbench.streams import open_stream, stream_keys
from seriesbench.tensorfile import SCHEMA_SHAPE, canonical_json, load_json, shape_problem

OTHER_VALUE = "other"
_HTTP_TIMEOUT_S = 60.0

Proposer = Callable[[dict], object]  # the reply is checked, whatever its shape


# ---------------------------------------------------------------------------
# Canonical form and hashing
# ---------------------------------------------------------------------------


def canonicalize(schema: AttributeSchema | dict, require_other: bool = False) -> AttributeSchema:
    """Normalize a schema to its canonical form.

    A document must have the shape of a schema file (``SCHEMA_SHAPE``); a
    departure raises ContractViolation naming the field.  Trims whitespace,
    lowercases value names, drops empty and duplicate values, sorts values
    lexicographically with ``'other'`` forced last, and sorts attributes by
    name.  With ``require_other`` the ``'other'`` value is appended when
    missing.  Idempotent.
    """
    doc = schema.to_dict() if isinstance(schema, AttributeSchema) else schema
    if problem := shape_problem(doc, SCHEMA_SHAPE):
        raise ContractViolation(f"schema document{problem}")
    attributes = []
    for raw in doc["attributes"]:
        values = {v.strip().lower() for v in raw["values"]} - {""}
        if require_other:
            values.add(OTHER_VALUE)
        ordered = sorted(values, key=lambda v: (v == OTHER_VALUE, v))  # 'other' last
        attributes.append(Attribute(raw["name"].strip(), raw.get("definition", "").strip(), tuple(ordered)))
    attributes.sort(key=lambda a: a.name)
    return AttributeSchema(attributes=tuple(attributes))


def schema_hash(schema: AttributeSchema) -> str:
    """SHA-256 of the canonical serialized form; equal schemas hash equal."""
    return hashlib.sha256(canonical_json(schema.to_dict()).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Proposers
# ---------------------------------------------------------------------------


class HttpProposer:
    """POSTs request documents to an endpoint and returns the parsed JSON response, whatever its shape."""

    def __init__(self, url: str) -> None:
        self.url = url

    def __call__(self, request: dict) -> object:
        # imported here: every CLI process would otherwise pay for the import
        import http.client
        import urllib.request

        body = json.dumps(request).encode("utf-8")
        # OSError: transport, timeout, HTTP status; HTTPException: bad reply; ValueError: URL, JSON;
        # RecursionError: JSON nested too deep
        try:
            post = urllib.request.Request(self.url, body, {"Content-Type": "application/json"})
            with urllib.request.urlopen(post, timeout=_HTTP_TIMEOUT_S) as resp:
                return json.loads(resp.read())
        except (OSError, http.client.HTTPException, ValueError, RecursionError) as exc:
            raise ProposerError(f"proposer at {self.url} failed: {exc}") from exc


class MockProposer:
    """Deterministic keyword-rule proposer loaded from a rules JSON file.

    Rules document::

        {"schema": {"attributes": [...]},
         "keywords": {"<attr>": {"<value>": ["keyword", ...], ...}, ...}}

    ``propose_schema`` always answers with the fixed schema;
    ``assign_values`` picks the first value whose keyword list has a match in
    the caption (attribute order and value order as listed), else 'other'.
    """

    def __init__(self, schema_doc: Mapping, keywords: Mapping[str, Mapping[str, list[str]]]) -> None:
        self.schema_doc = dict(schema_doc)
        self.keywords = {a: dict(vals) for a, vals in keywords.items()}

    @classmethod
    def from_rules_file(cls, path: str | Path) -> "MockProposer":
        doc = load_json(path, {"schema": {}, "keywords?": {str: {str: [str]}}})
        try:  # the check every discovery round applies to the schema this proposer answers with
            _parse_schema_response({"schema": doc["schema"]})
        except ValueError as exc:
            raise InputFormatError(f"{path}: unusable rules schema: {exc}") from exc
        return cls(schema_doc=doc["schema"], keywords=doc.get("keywords", {}))

    def __call__(self, request: dict) -> dict:
        task = request.get("task")
        if task in ("propose_schema", "repair"):
            return {"schema": self.schema_doc}
        if task == "assign_values":
            out = []
            for caption in request.get("observations", []):
                lowered = str(caption).lower()
                assignment = {}
                for attr, value_rules in self.keywords.items():
                    chosen = OTHER_VALUE
                    for value, words in value_rules.items():
                        if any(w.lower() in lowered for w in words):
                            chosen = value
                            break
                    assignment[attr] = chosen
                out.append(assignment)
            return {"assignments": out}
        return {"error": f"unknown task {task!r}"}


def load_proposer(spec: str) -> Proposer:
    """Build a proposer from a CLI spec: ``mock:<rules.json>`` or an http(s) URL."""
    if spec.startswith("mock:"):
        return MockProposer.from_rules_file(spec[len("mock:") :])
    if spec.startswith("http://") or spec.startswith("https://"):
        return HttpProposer(spec)
    raise ContractViolation(f"unknown proposer spec {spec!r}")


# ---------------------------------------------------------------------------
# Discovery loop
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiscoveryParams:
    batch_size: int = 100
    stability: int = 3
    max_iter: int = 50
    seed: int = 0

    def __post_init__(self) -> None:
        counts = (self.batch_size, self.stability, self.max_iter)
        if not all(is_integer(c) for c in counts):
            raise ContractViolation(f"batch_size, stability and max_iter must be integers, got {counts!r}")
        if min(counts) < 1:
            raise ContractViolation("batch_size, stability and max_iter must be >= 1")


@dataclass(frozen=True)
class RoundRecord:
    round: int
    schema_hash: str | None
    stable_count: int
    skipped: bool = False


@dataclass(frozen=True)
class DiscoveryResult:
    schema: AttributeSchema
    converged: bool
    rounds: tuple[RoundRecord, ...] = field(default=())

    @property
    def iterations(self) -> int:
        return len(self.rounds)


def _call_with_repair(proposer: Proposer, request: dict, parse: Callable[[object], object]):
    """One proposer call with a single repair retry; returns parse(...) or raises."""
    attempt = dict(request)
    for repaired in (False, True):
        try:
            return parse(proposer(attempt))
        except ProposerError:
            raise
        except Exception as exc:
            if repaired:
                raise _RoundFailure(str(exc)) from exc
            attempt = {**request, "task": "repair", "error": str(exc)}


class _RoundFailure(Exception):
    """Round-local parse failure after the repair retry; the round is skipped."""


def _parse_schema_response(response: object) -> AttributeSchema:
    if problem := shape_problem(response, {"schema": {}}):
        raise ValueError(f"response{problem}")
    schema = canonicalize(response["schema"], require_other=True)
    if not schema.attributes:
        raise ValueError("proposed schema has no attributes")
    return schema


def discover(
    corpus: Sequence[str],
    proposer: Proposer,
    params: DiscoveryParams = DiscoveryParams(),
) -> DiscoveryResult:
    """Iterative schema discovery.

    Each round samples ``batch_size`` unseen captions, asks the proposer for
    a schema update given the previous schema, canonicalizes it and compares
    hashes.  The loop terminates once the hash is unchanged for ``stability``
    consecutive rounds (a first-round match against the empty predecessor
    does not count) or after ``max_iter`` rounds, whichever comes first.  A
    round whose response stays unparseable after one repair retry is skipped:
    it consumes an iteration but leaves the schema and the stability counter
    untouched.
    """
    if len(corpus) < params.batch_size:
        raise ContractViolation(
            f"corpus of {len(corpus)} captions smaller than batch size {params.batch_size}"
        )
    rng = open_stream(stream_keys(params.seed, 0)[0])  # the stream of (seed, 0)
    # captions without replacement; the next permutation is drawn only when the last one runs out
    order = itertools.chain.from_iterable(rng.permutation(len(corpus)).tolist() for _ in itertools.count())
    constraints = {"min_values": 3, "max_values": 8, "require_other": True}
    prev_schema: AttributeSchema | None = None
    prev_hash: str | None = None
    stable = 0
    rounds: list[RoundRecord] = []

    for round_no in range(1, params.max_iter + 1):
        batch = [corpus[i] for i in itertools.islice(order, params.batch_size)]
        request = {
            "task": "propose_schema",
            "current_schema": prev_schema.to_dict() if prev_schema is not None else None,
            "observations": batch,
            "constraints": constraints,
        }
        try:
            schema = _call_with_repair(proposer, request, _parse_schema_response)
        except _RoundFailure:
            rounds.append(RoundRecord(round=round_no, schema_hash=prev_hash, stable_count=stable, skipped=True))
            continue
        digest = schema_hash(schema)
        if prev_hash is not None and digest == prev_hash:
            stable += 1
        else:
            stable = 0
        prev_schema, prev_hash = schema, digest
        rounds.append(RoundRecord(round=round_no, schema_hash=digest, stable_count=stable))
        if stable >= params.stability:
            break

    if prev_schema is None:
        raise ProposerError("proposer never returned a parseable schema")
    return DiscoveryResult(
        schema=prev_schema,
        converged=stable >= params.stability,
        rounds=tuple(rounds),
    )


# ---------------------------------------------------------------------------
# Value assignment and label indexing
# ---------------------------------------------------------------------------


def _parse_assignments(response: object, count: int) -> list[dict]:
    if problem := shape_problem(response, {"assignments": [{}]}):
        raise ValueError(f"response{problem}")
    assignments = response["assignments"]
    if len(assignments) != count:
        raise ValueError(f"response.assignments: expected {count} assignments, got {len(assignments)}")
    return assignments


def assign_attributes_batch(
    captions: Sequence[str], schema: AttributeSchema, proposer: Proposer
) -> list[dict[str, int]]:
    """Assign attribute vectors for many captions, preserving input order.

    Unparseable or out-of-schema values fall back to the attribute's
    ``'other'`` index.  Raises :class:`ProposerError` after the repair retry
    fails.
    """
    request = {
        "task": "assign_values",
        "schema": schema.to_dict(),
        "observations": list(captions),
    }
    try:
        assignments = _call_with_repair(
            proposer, request, lambda resp: _parse_assignments(resp, len(captions))
        )
    except _RoundFailure as exc:
        raise ProposerError(f"value assignment failed after repair retry: {exc}") from exc

    # per attribute: its value-to-index table and the index of 'other' (else the first value)
    tables = [
        (a.name, {v: i for i, v in enumerate(a.values)},
         a.values.index(OTHER_VALUE) if OTHER_VALUE in a.values else 0)
        for a in schema.attributes
    ]
    out: list[dict[str, int]] = []
    for assignment in assignments:
        vector: dict[str, int] = {}
        for name, index, fallback in tables:
            value = assignment.get(name)
            vector[name] = index.get(value.strip().lower(), fallback) if isinstance(value, str) else fallback
        out.append(vector)
    return out


@dataclass(frozen=True)
class LabelIndex:
    """Bijection between distinct attribute combinations and label integers."""

    combos: tuple[tuple[int, ...], ...]

    @functools.cached_property
    def table(self) -> dict[tuple[int, ...], int]:
        return {combo: i for i, combo in enumerate(self.combos)}

    def apply(self, vector: Sequence[int]) -> int:
        key = tuple(int(v) for v in vector)
        try:
            return self.table[key]
        except KeyError:
            raise ContractViolation(f"unseen attribute combination {key}") from None

    def to_dict(self) -> dict:
        return {"combos": [list(c) for c in self.combos]}

    @classmethod
    def from_dict(cls, doc: Mapping) -> "LabelIndex":
        """Build the index from a document shaped like the one ``to_dict`` returns; a repeated combination is refused."""
        combos = tuple(tuple(c) for c in doc["combos"])
        first = {}
        for i, combo in enumerate(combos):
            if first.setdefault(combo, i) != i:
                raise InputFormatError(f"combination table repeats {list(combo)} at entries {first[combo]} and {i}")
        return cls(combos=combos)


def index_labels(attr_vectors: Sequence[Sequence[int]]) -> tuple[np.ndarray, LabelIndex]:
    """Number distinct attribute combinations lexicographically.

    Returns one label per input vector and the reusable combination table;
    applying the table to an unseen combination is an error.
    """
    vectors = [tuple(int(v) for v in vec) for vec in attr_vectors]
    if not vectors:
        raise ContractViolation("no attribute vectors given")
    width = len(vectors[0])
    if any(len(v) != width for v in vectors):
        raise ContractViolation("attribute vectors must share one schema")
    index = LabelIndex(combos=tuple(sorted(set(vectors))))
    table = index.table
    labels = np.fromiter((table[v] for v in vectors), dtype=np.int64, count=len(vectors))
    return labels, index
