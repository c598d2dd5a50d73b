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
``{"assignments": [{"<attr>": "<value name>", ...}, ...]}``; anything else is
treated as a parse failure, answered once with a repair request
(``{"task": "repair", "error": ..., "request": <original>}`` semantics are
conveyed by resending the request with an ``error`` field).

A deterministic keyword-rule proposer is shipped for tests and offline runs,
so no live language model is ever required.
"""

from __future__ import annotations

import hashlib
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
)
from seriesbench.tensorfile import canonical_json, load_json

OTHER_VALUE = "other"

Proposer = Callable[[dict], dict]


# ---------------------------------------------------------------------------
# Canonical form and hashing
# ---------------------------------------------------------------------------


def canonicalize(
    schema: AttributeSchema | Mapping, require_other: bool = False
) -> AttributeSchema:
    """Normalize a schema to its canonical form.

    Trims whitespace, lowercases value names, drops duplicate values, sorts
    values lexicographically with ``'other'`` forced last, and sorts
    attributes by name.  With ``require_other`` the ``'other'`` value is
    appended when missing.  Idempotent.
    """
    if isinstance(schema, AttributeSchema):
        doc = schema.to_dict()
    elif isinstance(schema, Mapping):
        doc = schema
    else:
        raise ContractViolation(f"cannot canonicalize {type(schema).__name__}")

    raw_attrs = doc.get("attributes")
    if not isinstance(raw_attrs, (list, tuple)):
        raise ContractViolation("schema document has no attribute list")
    attributes = []
    for raw in raw_attrs:
        if not isinstance(raw, Mapping):
            raise ContractViolation("attribute entries must be objects")
        name = str(raw.get("name", "")).strip()
        definition = str(raw.get("definition", "")).strip()
        raw_values = raw.get("values")
        if not name or not isinstance(raw_values, (list, tuple)):
            raise ContractViolation(f"attribute {name!r} is structurally invalid")
        seen: list[str] = []
        for v in raw_values:
            v = str(v).strip().lower()
            if v and v not in seen:
                seen.append(v)
        if require_other and OTHER_VALUE not in seen:
            seen.append(OTHER_VALUE)
        values = sorted(v for v in seen if v != OTHER_VALUE)
        if OTHER_VALUE in seen:
            values.append(OTHER_VALUE)
        attributes.append(Attribute(name=name, definition=definition, values=tuple(values)))
    attributes.sort(key=lambda a: a.name)
    return AttributeSchema(attributes=tuple(attributes))


def schema_hash(schema: AttributeSchema) -> str:
    """SHA-256 of the canonical serialized form; equal schemas hash equal."""
    return hashlib.sha256(canonical_json(schema.to_dict()).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Proposers
# ---------------------------------------------------------------------------


class HttpProposer:
    """POSTs request documents to an endpoint and returns the JSON response."""

    def __init__(self, url: str, timeout: float = 60.0) -> None:
        self.url = url
        self.timeout = timeout

    def __call__(self, request: dict) -> dict:
        import requests

        try:
            resp = requests.post(self.url, json=request, timeout=self.timeout)
            resp.raise_for_status()
            doc = resp.json()
        except Exception as exc:  # transport or JSON failure
            raise ProposerError(f"proposer at {self.url} failed: {exc}") from exc
        if not isinstance(doc, dict):
            raise ProposerError(f"proposer at {self.url} returned a non-object response")
        return doc


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
        doc = load_json(path)
        try:
            return cls(schema_doc=doc["schema"], keywords=doc.get("keywords", {}))
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise InputFormatError(f'{path}: bad rules file, needs a "schema" object: {exc!r}') from exc

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
        if min(self.batch_size, self.stability, self.max_iter) < 1:
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


class _BatchSampler:
    """Draw captions without replacement; reshuffle the corpus on exhaustion."""

    def __init__(self, corpus: Sequence[str], seed: int) -> None:
        self.corpus = list(corpus)
        self.rng = np.random.Generator(np.random.Philox(seed=np.random.SeedSequence((seed, 0))))
        self.pool: list[int] = []

    def next_batch(self, n: int) -> list[str]:
        batch: list[int] = []
        while len(batch) < n:
            if not self.pool:
                self.pool = list(self.rng.permutation(len(self.corpus)))
            take = min(n - len(batch), len(self.pool))
            batch.extend(self.pool[:take])
            self.pool = self.pool[take:]
        return [self.corpus[i] for i in batch]


def _call_with_repair(proposer: Proposer, request: dict, parse: Callable[[dict], object]):
    """One proposer call with a single repair retry; returns parse(...) or raises."""
    try:
        response = proposer(dict(request))
        return parse(response)
    except ProposerError:
        raise
    except Exception as first:
        repair = dict(request)
        repair["task"] = "repair"
        repair["error"] = str(first)
        try:
            response = proposer(repair)
            return parse(response)
        except ProposerError:
            raise
        except Exception as second:
            raise _RoundFailure(str(second)) from second


class _RoundFailure(Exception):
    """Round-local parse failure after the repair retry; the round is skipped."""


def _parse_schema_response(response: dict) -> AttributeSchema:
    if "schema" not in response:
        raise ValueError(f"response lacks a schema: {response.get('error', response)}")
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
    sampler = _BatchSampler(corpus, params.seed)
    constraints = {"min_values": 3, "max_values": 8, "require_other": True}
    prev_schema: AttributeSchema | None = None
    prev_hash: str | None = None
    stable = 0
    rounds: list[RoundRecord] = []

    for round_no in range(1, params.max_iter + 1):
        batch = sampler.next_batch(params.batch_size)
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


def _parse_assignments(response: dict, count: int) -> list[dict]:
    assignments = response.get("assignments")
    if not isinstance(assignments, list) or len(assignments) != count:
        raise ValueError(f"expected {count} assignments, got {response.get('error', response)}")
    return assignments


def assign_attributes(
    caption: str, schema: AttributeSchema, proposer: Proposer
) -> dict[str, int]:
    """Map one caption to a value index per attribute.

    Unparseable or out-of-schema values fall back to the attribute's
    ``'other'`` index.  Raises :class:`ProposerError` after the repair retry
    fails.
    """
    return assign_attributes_batch([caption], schema, proposer)[0]


def assign_attributes_batch(
    captions: Sequence[str], schema: AttributeSchema, proposer: Proposer
) -> list[dict[str, int]]:
    """Assign attribute vectors for many captions, preserving input order."""
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

    out: list[dict[str, int]] = []
    for assignment in assignments:
        vector: dict[str, int] = {}
        for attr in schema.attributes:
            fallback = attr.values.index(OTHER_VALUE) if OTHER_VALUE in attr.values else 0
            value = assignment.get(attr.name) if isinstance(assignment, Mapping) else None
            if isinstance(value, str) and value.strip().lower() in attr.values:
                vector[attr.name] = attr.values.index(value.strip().lower())
            else:
                vector[attr.name] = fallback
        out.append(vector)
    return out


@dataclass(frozen=True)
class LabelIndex:
    """Bijection between distinct attribute combinations and label integers."""

    combos: tuple[tuple[int, ...], ...]

    @property
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
        try:
            return cls(combos=tuple(tuple(int(v) for v in c) for c in doc["combos"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise InputFormatError(f"malformed combination table: {exc!r}") from exc


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
