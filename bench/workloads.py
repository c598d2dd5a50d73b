"""The benchmark's workloads: seeded inputs and the CLI calls that consume them.

Each workload is a closed loop with one client: its CLI calls run one after
another, each as a fresh ``python -m seriesbench`` process, and the next
starts only when the previous one has exited.  Inputs are built from the
workload seed by the benchmark itself; the program sees only the files.

Why these two: they split the program's layers so that each planned
optimisation has one workload that exercises it and one that bypasses it.

* ``synth-m`` builds a dataset: Synth-M generation, validation and the stat
  metrics.  It is the only workload that writes data; its time goes to
  ``synthgen``, TSB1/JSONL writes, ``core`` validation and ``stat_metrics``,
  and it never calls ``align_metrics``, ``embed_metrics`` or ``protocols``.
* ``align-embed-retrieval`` evaluates a model: best-of-K DTW (the per-pair
  DTW loop), four kNN manifolds (``metrics embed --cond-emb``) and
  caption-deduplicated retrieval (the O(n^2) caption masks and per-query
  pool streams).  It sets the peak RSS and never calls ``synthgen``,
  ``core.validate_dataset`` or ``stat_metrics``.

DTW, kNN and retrieval share one workload because on a shared 2-core host
whose speed drifts by tens of percent over minutes, two workloads with long
runs give steadier medians than three with short ones in the same time.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Full sizes come from the benchmark definition; tiny sizes only check that
# every path runs and every metric is emitted.
SIZES = {
    "synth_m": {"full": {"n_per_combo": 250}, "tiny": {"n_per_combo": 8}},
    "align_u": {"full": {"refs": 100, "k": 10}, "tiny": {"refs": 8, "k": 3}},
    "embed_retrieval": {
        "full": {"n": 6000, "d": 64, "captions_per_combo": 125, "text_d": 32},
        "tiny": {"n": 300, "d": 8, "captions_per_combo": 8, "text_d": 8},
    },
}


@dataclass
class Op:
    """One CLI call: its per-command metric name, argv and the data outputs to digest."""

    metric: str
    argv: list[str]
    outputs: list[Path]


@dataclass
class Prepared:
    ops: list[Op]
    # digests the outputs must have whatever the seed: the synth outputs as
    # build_synth_dataset writes them through the tensorfile writers, and a
    # passing validation report
    reference: dict[str, str] = field(default_factory=dict)


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_dataset(dataset, out: Path) -> list[Path]:
    from seriesbench import tensorfile

    out.mkdir(parents=True, exist_ok=True)
    paths = [out / "series.tsb", out / "conditions.jsonl", out / "schema.json", out / "splits.json"]
    tensorfile.write_tensor(dataset.series, paths[0])
    tensorfile.write_conditions(dataset.conditions, paths[1])
    tensorfile.write_schema(dataset.schema, paths[2])
    tensorfile.write_splits(dataset.splits, paths[3])
    return paths


def prepare_synth_m(work: Path, seed: int, n_per_combo: int) -> Prepared:
    from seriesbench import synthgen, tensorfile

    gen = synthgen.build_synth_dataset("m", seed + 1, n_per_combo)
    tensorfile.write_tensor(gen.series, work / "gen.tsb")
    reference_paths = _write_dataset(synthgen.build_synth_dataset("m", seed, n_per_combo), work / "reference")
    reference = {f"synth/{p.name}": sha256(p) for p in reference_paths}
    passing = (tensorfile.canonical_json({"ok": True, "violations": []}) + "\n").encode("utf-8")
    reference["validate.json"] = hashlib.sha256(passing).hexdigest()

    out = work / "synth"
    series, conditions, schema = out / "series.tsb", out / "conditions.jsonl", out / "schema.json"
    ops = [
        Op("synth_s",
           ["synth", "--variant", "m", "--seed", str(seed), "--n-per-combo", str(n_per_combo), "--out", str(out)],
           [series, conditions, schema, out / "splits.json"]),
        Op("validate_s",
           ["validate", "--series", str(series), "--conditions", str(conditions), "--schema", str(schema),
            "--out", str(work / "validate.json")],
           [work / "validate.json"]),
        Op("metrics_stat_s",
           ["metrics", "stat", "--train", str(series), "--real", str(series), "--gen", str(work / "gen.tsb"),
            "--bins", "32", "--out", str(work / "stat.json")],
           [work / "stat.json"]),
    ]
    return Prepared(ops, reference)


def prepare_align_u(work: Path, seed: int, refs: int, k: int) -> Prepared:
    from seriesbench import synthgen, tensorfile

    pool = synthgen.build_synth_dataset("u", seed, 8).series.data
    rng = np.random.default_rng([seed, 1])
    chosen = pool[np.sort(rng.choice(pool.shape[0], size=refs, replace=False))]
    # perturbations: small circular shift, amplitude jitter and noise
    bundle = np.empty((refs, k) + chosen.shape[1:])
    for i in range(refs):
        for j in range(k):
            shifted = np.roll(chosen[i], int(rng.integers(-4, 5)), axis=0)
            bundle[i, j] = shifted * rng.uniform(0.9, 1.1) + rng.normal(0.0, 0.1, size=shifted.shape)
    tensorfile.write_tensor(chosen, work / "refs.tsb")
    tensorfile.write_tensor(bundle.reshape((refs * k,) + chosen.shape[1:]), work / "bundle.tsb")
    ops = [
        Op("metrics_align_s",
           ["metrics", "align", "--refs", str(work / "refs.tsb"), "--gen-bundle", str(work / "bundle.tsb"),
            "--k-per-sample", str(k), "--out", str(work / "align.json")],
           [work / "align.json"]),
    ]
    return Prepared(ops)


def prepare_embed_retrieval(work: Path, seed: int, n: int, d: int, captions_per_combo: int, text_d: int) -> Prepared:
    from seriesbench import synthgen, tensorfile

    rng = np.random.default_rng([seed, 2])
    # clustered embeddings; gen is a shifted, wider copy of real
    centers = rng.normal(size=(32, d))
    label = rng.integers(0, 32, size=n)
    real = centers[label] + 0.5 * rng.normal(size=(n, d))
    gen = centers[label] + 0.1 + 0.55 * rng.normal(size=(n, d))
    cond = centers[label] @ rng.normal(size=(d, d)) / np.sqrt(d) + 0.3 * rng.normal(size=(n, d))
    for name, arr in (("real.tsb", real), ("gen.tsb", gen), ("cond.tsb", cond)):
        tensorfile.write_tensor(arr, work / name)

    dataset = synthgen.build_synth_dataset("u", seed, captions_per_combo)
    tensorfile.write_conditions(dataset.conditions, work / "conditions.jsonl")
    _, caption_id = np.unique([rec.text for rec in dataset.conditions], return_inverse=True)
    caption_emb = rng.normal(size=(caption_id.max() + 1, text_d))
    text = caption_emb[caption_id] + 0.3 * rng.normal(size=(caption_id.size, text_d))
    series_emb = text + 0.8 * rng.normal(size=text.shape)
    tensorfile.write_tensor(text, work / "text_emb.tsb")
    tensorfile.write_tensor(series_emb, work / "series_emb.tsb")

    ops = [
        Op("metrics_embed_s",
           ["metrics", "embed", "--real-emb", str(work / "real.tsb"), "--gen-emb", str(work / "gen.tsb"),
            "--cond-emb", str(work / "cond.tsb"), "--k", "5", "--out", str(work / "embed.json")],
           [work / "embed.json"]),
        Op("protocol_retrieval_s",
           ["protocol", "retrieval", "--gen-emb", str(work / "series_emb.tsb"),
            "--text-emb", str(work / "text_emb.tsb"),
            "--conditions", str(work / "conditions.jsonl"), "--pool-size", "10", "--repeats", "5",
            "--seed", str(seed), "--out", str(work / "retrieval.json")],
           [work / "retrieval.json"]),
    ]
    return Prepared(ops)


PREPARE = {
    "synth_m": prepare_synth_m,
    "align_u": prepare_align_u,
    "embed_retrieval": prepare_embed_retrieval,
}

# workload name -> the parts whose CLI calls it runs, in order
WORKLOADS = {
    "synth-m": ("synth_m",),
    "align-embed-retrieval": ("align_u", "embed_retrieval"),
}


def prepare(name: str, work: Path, seed: int, tiny: bool) -> Prepared:
    prepared = Prepared([])
    for part in WORKLOADS[name]:
        done = PREPARE[part](work, seed, **SIZES[part]["tiny" if tiny else "full"])
        prepared.ops.extend(done.ops)
        prepared.reference.update(done.reference)
    return prepared
