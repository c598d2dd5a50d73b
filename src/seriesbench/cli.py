"""Command-line surface: reproducible file-in/file-out runs of every operation.

Subcommands: ``synth``, ``metrics stat|embed|align``,
``protocol retrieval|temporal|compgen|droprate|rank``,
``schema discover|assign|label``, ``validate``.

Exit codes: 0 success, 2 input error (malformed file, unreadable or
unwritable path), 3 contract violation, 4 proposer failure.  Each ``_cmd_*``
only computes; ``_run`` writes its ``--out`` document and a run manifest
(command line, flags, input digests, tool version, wall time) next to it, and
maps errors to exit codes.  All data
outputs are byte-identical across identical seeded invocations, the manifest
is provenance metadata and carries the wall time.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import sys
import time
from pathlib import Path
from typing import NamedTuple

import seriesbench
from seriesbench import (
    align_metrics,
    embed_metrics,
    protocols,
    schema_discovery,
    stat_metrics,
    synthgen,
    tensorfile,
)
from seriesbench.core import (
    AttributeSchema,
    ContractViolation,
    InputFormatError,
    MetricEntry,
    MetricReport,
    ProposerError,
    ReportContext,
    validate_dataset,
)


class _Outcome(NamedTuple):
    """What a command computed: its ``--out`` document, the files it read, its summary."""

    doc: MetricReport | dict | None  # None: the command wrote its own outputs
    inputs: list[str | Path]
    summary: str


def _sha256(path: str | Path) -> str | None:
    """The digest of a regular file; None for a pipe or device, which the command already drained."""
    if not Path(path).is_file():
        return None
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _manifest_path(out: Path) -> Path:
    if out.is_dir():
        return out / "manifest.json"
    if out.suffix:
        return out.with_suffix(".manifest.json")
    return out.parent / (out.name + ".manifest.json")


def _run(args: argparse.Namespace) -> int:
    """Run one command: write its ``--out`` document and manifest, print its summary.

    Every error a command may raise is mapped to its exit code here.
    """
    started = time.time()
    try:
        outcome = args.func(args)
        if args.out:
            out = Path(args.out)
            if isinstance(outcome.doc, MetricReport):
                tensorfile.emit_report(outcome.doc, out)
            elif outcome.doc is not None:
                tensorfile.dump_json(outcome.doc, out)
            manifest = {
                "command": " ".join(sys.argv) if sys.argv else "seriesbench",
                "flags": {k: v for k, v in vars(args).items() if k != "func" and v is not None},
                "inputs": {str(Path(p)): _sha256(p) for p in outcome.inputs},
                "version": seriesbench.__version__,
                "wall_time_s": time.time() - started,
            }
            tensorfile.dump_json(manifest, _manifest_path(out))
    except (InputFormatError, OSError, UnicodeDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except ContractViolation as exc:
        print(f"contract violation: {exc}", file=sys.stderr)
        return 3
    except ProposerError as exc:
        print(f"proposer failure: {exc}", file=sys.stderr)
        return 4
    if outcome.summary:
        print(outcome.summary)
    return 0


def _report(args: argparse.Namespace, inputs: list[str], entries: list[MetricEntry]) -> _Outcome:
    report = MetricReport(
        entries=tuple(entries),
        context=ReportContext(args.dataset_id, args.model_id, args.context_seed),
    )
    summary = "\n".join(
        f"{e.metric_name}: {e.value:.6g}" for e in sorted(entries, key=lambda e: e.metric_name)
    )
    return _Outcome(report, inputs, summary)


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------


def _cmd_synth(args: argparse.Namespace) -> _Outcome:
    dataset = synthgen.build_synth_dataset(
        variant=args.variant, seed=args.seed, n_per_combo=args.n_per_combo, length=args.length
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    tensorfile.write_tensor(dataset.series, out / "series.tsb")
    tensorfile.write_conditions(dataset.conditions, out / "conditions.jsonl")
    tensorfile.write_schema(dataset.schema, out / "schema.json")
    tensorfile.write_splits(dataset.splits, out / "splits.json")
    return _Outcome(None, [], f"wrote {dataset.series.n_samples} samples to {out}")


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def _cmd_metrics_stat(args: argparse.Namespace) -> _Outcome:
    # only the spec is kept, so the training tensor is freed before the others are read
    spec = stat_metrics.HistogramSpec.from_training(
        tensorfile.read_tensor(args.train), n_bins=args.bins
    )
    real = tensorfile.read_tensor(args.real)
    gen = tensorfile.read_tensor(args.gen)
    entries = [
        MetricEntry("mdd", stat_metrics.mdd(real, gen, spec), "lower_better"),
        MetricEntry("acd", stat_metrics.acd(real, gen), "lower_better"),
        MetricEntry("sd", stat_metrics.sd(real, gen), "lower_better"),
        MetricEntry("kd", stat_metrics.kd(real, gen), "lower_better"),
    ]
    return _report(args, [args.train, args.real, args.gen], entries)


def _cmd_metrics_embed(args: argparse.Namespace) -> _Outcome:
    real = tensorfile.read_embedding(args.real_emb)
    gen = tensorfile.read_embedding(args.gen_emb)
    inputs = [args.real_emb, args.gen_emb]
    entries = [
        MetricEntry("fid", embed_metrics.fid(real, gen), "lower_better"),
        MetricEntry("precision", embed_metrics.precision(real, gen, k=args.k), "higher_better"),
        MetricEntry("recall", embed_metrics.recall(real, gen, k=args.k), "higher_better"),
    ]
    if args.cond_emb:
        cond = tensorfile.read_embedding(args.cond_emb)
        inputs.append(args.cond_emb)
        jp, jr = embed_metrics.joint_precision_recall(real, gen, cond, k=args.k)
        entries.extend(
            [
                MetricEntry("cttp_score", embed_metrics.cttp_score(gen, cond), "higher_better"),
                MetricEntry("j_ftsd", embed_metrics.j_ftsd(real, gen, cond), "lower_better"),
                MetricEntry("joint_precision", jp, "higher_better"),
                MetricEntry("joint_recall", jr, "higher_better"),
            ]
        )
    return _report(args, inputs, entries)


def _cmd_metrics_align(args: argparse.Namespace) -> _Outcome:
    refs = tensorfile.read_tensor(args.refs)
    bundle = align_metrics.GenerationBundle.from_flat(
        tensorfile.read_tensor(args.gen_bundle), k=args.k_per_sample
    )
    entries = [
        MetricEntry("dtw_score", align_metrics.dtw_score(refs, bundle), "lower_better"),
        MetricEntry("crps_score", align_metrics.crps_score(refs, bundle), "lower_better"),
    ]
    return _report(args, [args.refs, args.gen_bundle], entries)


# ---------------------------------------------------------------------------
# protocols
# ---------------------------------------------------------------------------


def _cmd_protocol_retrieval(args: argparse.Namespace) -> _Outcome:
    gen = tensorfile.read_embedding(args.gen_emb)
    text = tensorfile.read_embedding(args.text_emb)
    inputs = [args.gen_emb, args.text_emb]
    texts = None
    if args.conditions:
        texts = tensorfile.read_conditions(args.conditions).texts
        inputs.append(args.conditions)
    cfg = protocols.RetrievalConfig(pool_size=args.pool_size, repeats=args.repeats, seed=args.seed)
    acc = protocols.retrieval_acc1(gen, text, cfg, texts=texts)
    return _report(args, inputs, [MetricEntry("retrieval_acc1", acc, "higher_better")])


def _cmd_protocol_temporal(args: argparse.Namespace) -> _Outcome:
    seg = tensorfile.read_array(args.segment_emb)
    text = tensorfile.read_array(args.text_emb)
    if seg.ndim != 3 or text.ndim != 3:
        raise InputFormatError("segment and text embeddings must be (n, P, d) tensors")
    if args.segments is not None and seg.shape[1] != args.segments:
        raise ContractViolation(f"expected {args.segments} segments, file has {seg.shape[1]}")
    confusion, accuracy = protocols.temporal_order_eval(seg, text)
    doc = {
        "confusion": confusion.tolist(),
        "accuracy": accuracy,
        "segments": int(seg.shape[1]),
    }
    return _Outcome(
        doc, [args.segment_emb, args.text_emb], f"temporal order accuracy: {accuracy:.4f}"
    )


def _cmd_protocol_compgen(args: argparse.Namespace) -> _Outcome:
    if args.gen_emb or args.text_emb or args.ref_emb:
        missing = [flag for flag, path in (("--gen-emb", args.gen_emb), ("--text-emb", args.text_emb)) if not path]
        if missing:
            raise InputFormatError(f"head/tail retrieval needs --gen-emb and --text-emb; missing {' and '.join(missing)}")
    schema = tensorfile.read_schema(args.schema)
    train = tensorfile.read_conditions(args.train_conditions)
    test = tensorfile.read_conditions(args.test_conditions)
    inputs = [args.schema, args.train_conditions, args.test_conditions]
    train_vecs = train.vectors(schema)
    values = protocols.dknn_values(test.vectors(schema), train_vecs, k=args.k)
    head, tail = protocols.head_tail_split(values, fraction=args.fraction)
    doc: dict = {
        "k": args.k,
        "fraction": args.fraction,
        "dknn": values.tolist(),
        "head_indices": head.tolist(),
        "tail_indices": tail.tolist(),
    }
    if args.gen_emb:
        gen = tensorfile.read_embedding(args.gen_emb)
        text = tensorfile.read_embedding(args.text_emb)
        inputs.extend([args.gen_emb, args.text_emb])
        cfg = protocols.RetrievalConfig(
            pool_size=args.pool_size, repeats=args.repeats, seed=args.seed
        )
        texts = test.texts

        def head_tail_acc(emb) -> dict:
            return {
                part: protocols.retrieval_acc1(emb, text, cfg, texts=texts, query_indices=idx)
                for part, idx in (("head", head), ("tail", tail))
            }

        acc = doc["acc_gen"] = head_tail_acc(gen)
        if args.ref_emb:
            ref = tensorfile.read_embedding(args.ref_emb)
            inputs.append(args.ref_emb)
            ref_acc = doc["acc_ref"] = head_tail_acc(ref)
            doc["acc_norm"] = {p: protocols.normalized_accuracy(acc[p], ref_acc[p]) for p in acc}
    return _Outcome(doc, inputs, f"dknn head/tail sizes: {head.size}/{tail.size}")


def _cmd_protocol_droprate(args: argparse.Namespace) -> _Outcome:
    rate = protocols.drop_rate(args.acc_real, args.acc_gen, args.acc_rand)
    if rate is None:
        raise ContractViolation(
            f"drop rate undefined: acc_real={args.acc_real} <= acc_rand={args.acc_rand}"
        )
    doc = {
        "acc_real": args.acc_real,
        "acc_gen": args.acc_gen,
        "acc_rand": args.acc_rand,
        "drop_rate": rate,
    }
    return _Outcome(doc, [], f"drop rate: {rate:.6g}")


def _cmd_protocol_rank(args: argparse.Namespace) -> _Outcome:
    report_paths = [Path(p) for p in args.report]
    if args.reports_dir:
        out = Path(args.out).resolve()  # an earlier run of this rank may have written it there
        report_paths.extend(
            p
            for p in sorted(Path(args.reports_dir).glob("*.json"))
            if not p.name.endswith(".manifest.json") and p.resolve() != out
        )
    if not report_paths:
        raise InputFormatError("no reports given")
    reports = [tensorfile.read_report(p) for p in report_paths]
    grouping = tensorfile.load_json(args.grouping, {str: str})
    rows, table = protocols.aggregate_ranks(reports, grouping)
    doc = {
        "groups": [dataclasses.asdict(r) for r in rows],
        "models": list(table.models),
        "datasets": list(table.datasets),
        "metrics": list(table.metrics),
        "ranks": table.ranks.tolist(),
    }
    if args.csv:
        with open(args.csv, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["model", "group", "mean_rank", "std_rank"])
            writer.writerows(
                [r.model, r.group, format(r.mean_rank, ".17g"), format(r.std_rank, ".17g")] for r in rows
            )
    summary = "\n".join(
        f"{r.model} [{r.group}]: mean rank {r.mean_rank:.3f} ± {r.std_rank:.3f}" for r in rows
    )
    return _Outcome(doc, [*report_paths, args.grouping], summary)


# ---------------------------------------------------------------------------
# schema
# ---------------------------------------------------------------------------


def _read_captions(path: str | Path) -> list[str]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    captions = [line.strip() for line in lines if line.strip()]
    if not captions:
        raise InputFormatError(f"{path}: no captions found")
    return captions


def _read_attrs(path: str, schema: AttributeSchema) -> tuple[list[dict], list[tuple[int, ...]]]:
    """Rows of an attrs JSONL file and their attribute vectors in schema order."""
    rows, vectors = [], []
    for lineno, row in tensorfile.load_jsonl(path, {"attrs": {str: int}}):
        if problem := schema.misfit(row["attrs"]):
            raise InputFormatError(f"{path}:{lineno}: {problem}")
        vectors.append(tuple(row["attrs"][name] for name in schema.names))
        rows.append(row)
    return rows, vectors


def _proposer_inputs(spec: str) -> list[str]:
    """The rules file a ``mock:`` proposer reads; an HTTP proposer reads none."""
    return [spec[len("mock:") :]] if spec.startswith("mock:") else []


def _cmd_schema_discover(args: argparse.Namespace) -> _Outcome:
    captions = _read_captions(args.captions)
    proposer = schema_discovery.load_proposer(args.proposer)
    params = schema_discovery.DiscoveryParams(
        batch_size=args.batch, stability=args.stable, max_iter=args.max_iter, seed=args.seed
    )
    result = schema_discovery.discover(captions, proposer, params)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    tensorfile.write_schema(result.schema, out / "schema.json")
    trace = {
        "converged": result.converged,
        "iterations": result.iterations,
        "rounds": [dataclasses.asdict(r) for r in result.rounds],
    }
    tensorfile.dump_json(trace, out / "discovery.json")
    return _Outcome(
        None,
        [args.captions, *_proposer_inputs(args.proposer)],
        f"converged={result.converged} after {result.iterations} rounds",
    )


def _cmd_schema_assign(args: argparse.Namespace) -> _Outcome:
    captions = _read_captions(args.captions)
    schema = tensorfile.read_schema(args.schema)
    proposer = schema_discovery.load_proposer(args.proposer)
    vectors = schema_discovery.assign_attributes_batch(captions, schema, proposer)
    tensorfile.dump_jsonl(
        (
            {"sample_id": f"s-{i:06d}", "text": caption, "attrs": attrs}
            for i, (caption, attrs) in enumerate(zip(captions, vectors))
        ),
        args.out,
    )
    return _Outcome(
        None,
        [args.captions, args.schema, *_proposer_inputs(args.proposer)],
        f"assigned {len(vectors)} attribute vectors",
    )


def _cmd_schema_label(args: argparse.Namespace) -> _Outcome:
    schema = tensorfile.read_schema(args.schema)
    rows, vectors = _read_attrs(args.attrs, schema)
    inputs = [args.attrs, args.schema]
    if args.combo_table:
        table = tensorfile.load_json(args.combo_table, {"combos": [[int]]})
        index = schema_discovery.LabelIndex.from_dict(table)
        labels = [index.apply(v) for v in vectors]
        inputs.append(args.combo_table)
    else:
        label_arr, index = schema_discovery.index_labels(vectors)
        labels = [int(v) for v in label_arr]
    tensorfile.dump_jsonl(
        ({**row, "label": int(label)} for row, label in zip(rows, labels)), args.out
    )
    if args.combo_table_out:
        tensorfile.dump_json(index.to_dict(), args.combo_table_out)
    return _Outcome(
        None, inputs, f"labeled {len(labels)} records over {len(index.combos)} combinations"
    )


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def _cmd_validate(args: argparse.Namespace) -> _Outcome:
    series = tensorfile.read_tensor(args.series)
    conditions = tensorfile.read_conditions(args.conditions)
    schema = tensorfile.read_schema(args.schema)
    report = validate_dataset(series, conditions, schema)
    if report.ok:
        summary = "validation: pass"
    else:
        summary = "\n".join(
            [f"validation: {len(report.violations)} violation(s)"]
            + [f"  - {v}" for v in report.violations]
        )
    doc = {"ok": report.ok, "violations": list(report.violations)}
    return _Outcome(doc, [args.series, args.conditions, args.schema], summary)


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------


def _command(sub, name: str, help: str, func, *, out_help: str | None = None,
             out_required: bool = True, report: bool = False) -> argparse.ArgumentParser:
    """Register a subcommand with its ``--out`` flag and its runner function.

    ``report`` commands emit a MetricReport and also take its context flags.
    """
    p = sub.add_parser(name, help=help)
    p.add_argument("--out", required=out_required, help=out_help)
    if report:
        p.add_argument("--dataset-id", default="dataset", help="report context dataset id")
        p.add_argument("--model-id", default="model", help="report context model id")
        p.add_argument(
            "--context-seed", type=int, default=0, help="report context seed (provenance only)"
        )
    p.set_defaults(func=func)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seriesbench",
        description="Synthetic benchmark generation and evaluation for conditional time-series generation",
    )
    parser.add_argument("--version", action="version", version=seriesbench.__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = _command(sub, "synth", "generate a synthetic dataset with aligned conditions", _cmd_synth,
                 out_help="output directory")
    p.add_argument("--variant", choices=("u", "m"), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-per-combo", type=int, required=True)
    p.add_argument("--length", type=int, default=synthgen.DEFAULT_LENGTH)

    metrics = sub.add_parser("metrics", help="fidelity and adherence metrics")
    msub = metrics.add_subparsers(dest="metrics_command", required=True)

    p = _command(msub, "stat", "histogram/autocorrelation/moment fidelity metrics",
                 _cmd_metrics_stat, report=True)
    p.add_argument("--train", required=True, help="training tensor defining bin boundaries")
    p.add_argument("--real", required=True)
    p.add_argument("--gen", required=True)
    p.add_argument("--bins", type=int, default=32)

    p = _command(msub, "embed", "embedding-space fidelity and adherence metrics",
                 _cmd_metrics_embed, report=True)
    p.add_argument("--real-emb", required=True)
    p.add_argument("--gen-emb", required=True)
    p.add_argument("--cond-emb", help="aligned condition embeddings for adherence metrics")
    p.add_argument("--k", type=int, default=5)

    p = _command(msub, "align", "reference-anchored best-of-K DTW and CRPS", _cmd_metrics_align,
                 report=True)
    p.add_argument("--refs", required=True)
    p.add_argument("--gen-bundle", required=True, help="(n*K, L, F) tensor grouped by sample")
    p.add_argument("--k-per-sample", type=int, required=True)

    protocol = sub.add_parser("protocol", help="evaluation protocol harnesses")
    psub = protocol.add_subparsers(dest="protocol_command", required=True)

    p = _command(psub, "retrieval", "top-1 retrieval accuracy with distractor pools",
                 _cmd_protocol_retrieval, report=True)
    p.add_argument("--gen-emb", required=True)
    p.add_argument("--text-emb", required=True)
    p.add_argument("--pool-size", type=int, required=True)
    p.add_argument("--repeats", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--conditions", help="conditions JSONL for caption-string dedup")

    p = _command(psub, "temporal", "within-series positional retrieval", _cmd_protocol_temporal)
    p.add_argument("--segment-emb", required=True, help="(n, P, d) tensor")
    p.add_argument("--text-emb", required=True, help="(n, P, d) tensor")
    p.add_argument("--segments", type=int, help="expected segment count P")

    p = _command(psub, "compgen", "compositional distance and head/tail analysis",
                 _cmd_protocol_compgen)
    p.add_argument("--schema", required=True)
    p.add_argument("--train-conditions", required=True)
    p.add_argument("--test-conditions", required=True)
    p.add_argument("--k", type=int, required=True, help="neighbour count for dknn")
    p.add_argument("--fraction", type=float, default=0.20)
    p.add_argument("--gen-emb")
    p.add_argument("--text-emb")
    p.add_argument("--ref-emb")
    p.add_argument("--pool-size", type=int, default=10)
    p.add_argument("--repeats", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)

    p = _command(psub, "droprate", "normalized downstream-utility loss", _cmd_protocol_droprate)
    p.add_argument("--acc-real", type=float, required=True)
    p.add_argument("--acc-gen", type=float, required=True)
    p.add_argument("--acc-rand", type=float, required=True)

    p = _command(psub, "rank", "direction-normalized rank aggregation", _cmd_protocol_rank)
    p.add_argument("--report", action="append", default=[], help="metric report JSON (repeatable)")
    p.add_argument("--reports-dir", help="directory of metric report JSON files")
    p.add_argument("--grouping", required=True, help="JSON mapping metric name -> group")
    p.add_argument("--csv", help="also emit (model, group, mean_rank, std_rank) CSV")

    schema = sub.add_parser("schema", help="attribute schema discovery and labeling")
    ssub = schema.add_subparsers(dest="schema_command", required=True)

    p = _command(ssub, "discover", "iterative schema discovery against a proposer",
                 _cmd_schema_discover, out_help="output directory")
    p.add_argument("--captions", required=True, help="text file, one caption per line")
    p.add_argument("--proposer", required=True, help="http(s) URL or mock:<rules.json>")
    p.add_argument("--batch", type=int, default=100)
    p.add_argument("--stable", type=int, default=3)
    p.add_argument("--max-iter", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)

    p = _command(ssub, "assign", "assign attribute vectors to captions", _cmd_schema_assign,
                 out_help="attrs JSONL output")
    p.add_argument("--captions", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--proposer", required=True)

    p = _command(ssub, "label", "index attribute combinations into class labels", _cmd_schema_label)
    p.add_argument("--attrs", required=True, help="attrs JSONL from `schema assign`")
    p.add_argument("--schema", required=True)
    p.add_argument("--combo-table", help="reuse an existing combination table (apply mode)")
    p.add_argument("--combo-table-out", help="write the fitted combination table")

    p = _command(sub, "validate", "cross-check a (series, conditions, schema) triple",
                 _cmd_validate, out_required=False)
    p.add_argument("--series", required=True)
    p.add_argument("--conditions", required=True)
    p.add_argument("--schema", required=True)

    return parser


def main(argv: list[str] | None = None) -> int:
    return _run(build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
