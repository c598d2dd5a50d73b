import csv
import json
import os
import re
import shlex
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from seriesbench import tensorfile
from seriesbench.cli import build_parser, main
from seriesbench.core import MetricEntry, MetricReport, ReportContext

SRC = Path(__file__).resolve().parent.parent / "src"


def _run_module(argv, **kwargs) -> subprocess.CompletedProcess:
    """``python -m seriesbench *argv`` in a child that imports the library from ``src``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-m", "seriesbench", *argv], env=env, capture_output=True, text=True,
                          **kwargs)


@pytest.fixture
def synth_dir(tmp_path):
    out = tmp_path / "synth"
    code = main(
        ["synth", "--variant", "u", "--seed", "3", "--n-per-combo", "8", "--out", str(out)]
    )
    assert code == 0
    return out


def _write_embeddings(tmp_path, n=40, d=6, seed=0):
    rng = np.random.default_rng(seed)
    paths = {}
    for name in ("real", "gen", "cond"):
        arr = rng.normal(size=(n, d))
        path = tmp_path / f"{name}.tsb"
        tensorfile.write_tensor(arr, path)
        paths[name] = str(path)
    return paths


def _report_values(path) -> dict[str, float]:
    return {e.metric_name: e.value for e in tensorfile.read_report(path).entries}


def test_synth_outputs_and_determinism(tmp_path, synth_dir):
    for name in ("series.tsb", "conditions.jsonl", "schema.json", "splits.json", "manifest.json"):
        assert (synth_dir / name).exists()
    other = tmp_path / "again"
    assert main(
        ["synth", "--variant", "u", "--seed", "3", "--n-per-combo", "8", "--out", str(other)]
    ) == 0
    for name in ("series.tsb", "conditions.jsonl", "schema.json", "splits.json"):
        assert (synth_dir / name).read_bytes() == (other / name).read_bytes(), name


def test_validate_passes_on_synth_output(synth_dir, capsys):
    code = main(
        [
            "validate",
            "--series", str(synth_dir / "series.tsb"),
            "--conditions", str(synth_dir / "conditions.jsonl"),
            "--schema", str(synth_dir / "schema.json"),
        ]
    )
    assert code == 0
    assert "pass" in capsys.readouterr().out


def test_metrics_stat_round_trip(tmp_path, synth_dir):
    report_path = tmp_path / "stat.json"
    code = main(
        [
            "metrics", "stat",
            "--train", str(synth_dir / "series.tsb"),
            "--real", str(synth_dir / "series.tsb"),
            "--gen", str(synth_dir / "series.tsb"),
            "--out", str(report_path),
        ]
    )
    assert code == 0
    values = _report_values(report_path)
    assert values["mdd"] == 0.0
    assert values["acd"] == 0.0
    assert (tmp_path / "stat.manifest.json").exists()


def test_metrics_stat_bins_a_value_far_above_the_training_range_last(tmp_path):
    train = np.zeros((4, 2, 1))
    train[1] = 1e-20  # bin width ~3e-22: every generated value lies >= 2**63 widths out
    above = np.arange(1.0, 9.0).reshape(4, 2, 1)
    for name, arr in (("train", train), ("above", above), ("below", -above)):
        tensorfile.write_tensor(arr, tmp_path / f"{name}.tsb")
    train_path, out = str(tmp_path / "train.tsb"), tmp_path / "stat.json"
    for gen, expected in (("above", 0.046875), ("below", 0.015625)):
        proc = _run_module(["metrics", "stat", "--train", train_path, "--real", train_path,
                            "--gen", str(tmp_path / f"{gen}.tsb"), "--out", str(out)])
        assert (proc.returncode, proc.stderr) == (0, "")
        assert _report_values(out)["mdd"] == expected


def test_metrics_embed_with_conditions(tmp_path):
    paths = _write_embeddings(tmp_path)
    out = tmp_path / "embed.json"
    code = main(
        [
            "metrics", "embed",
            "--real-emb", paths["real"],
            "--gen-emb", paths["gen"],
            "--cond-emb", paths["cond"],
            "--k", "3",
            "--out", str(out),
        ]
    )
    assert code == 0
    report = tensorfile.read_report(out)
    names = {e.metric_name for e in report.entries}
    assert names == {"fid", "precision", "recall", "cttp_score", "j_ftsd", "joint_precision", "joint_recall"}


def test_metrics_align(tmp_path):
    rng = np.random.default_rng(1)
    refs = rng.normal(size=(4, 12, 1))
    bundle = np.repeat(refs, 3, axis=0)  # grouped by sample, K=3 exact copies
    tensorfile.write_tensor(refs, tmp_path / "refs.tsb")
    tensorfile.write_tensor(bundle, tmp_path / "bundle.tsb")
    out = tmp_path / "align.json"
    code = main(
        [
            "metrics", "align",
            "--refs", str(tmp_path / "refs.tsb"),
            "--gen-bundle", str(tmp_path / "bundle.tsb"),
            "--k-per-sample", "3",
            "--out", str(out),
        ]
    )
    assert code == 0
    values = _report_values(out)
    assert values["dtw_score"] == pytest.approx(0.0, abs=1e-6)
    assert values["crps_score"] == pytest.approx(0.0, abs=1e-6)


def test_protocol_retrieval_pool_one(tmp_path):
    paths = _write_embeddings(tmp_path)
    out = tmp_path / "ret.json"
    code = main(
        [
            "protocol", "retrieval",
            "--gen-emb", paths["gen"],
            "--text-emb", paths["cond"],
            "--pool-size", "1",
            "--repeats", "2",
            "--out", str(out),
        ]
    )
    assert code == 0
    assert _report_values(out)["retrieval_acc1"] == 1.0


def test_protocol_temporal(tmp_path):
    rng = np.random.default_rng(2)
    seg = rng.normal(size=(30, 4, 5))
    tensorfile.write_tensor(seg, tmp_path / "seg.tsb")
    tensorfile.write_tensor(seg, tmp_path / "txt.tsb")
    out = tmp_path / "temporal.json"
    code = main(
        [
            "protocol", "temporal",
            "--segment-emb", str(tmp_path / "seg.tsb"),
            "--text-emb", str(tmp_path / "txt.tsb"),
            "--segments", "4",
            "--out", str(out),
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["accuracy"] == 1.0


def test_protocol_compgen(tmp_path, synth_dir):
    out = tmp_path / "compgen.json"
    code = main(
        [
            "protocol", "compgen",
            "--schema", str(synth_dir / "schema.json"),
            "--train-conditions", str(synth_dir / "conditions.jsonl"),
            "--test-conditions", str(synth_dir / "conditions.jsonl"),
            "--k", "1",
            "--out", str(out),
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert len(doc["head_indices"]) == len(doc["tail_indices"]) > 0
    assert all(v == 0.0 for v in doc["dknn"])  # every test vector occurs in training


def test_protocol_droprate(tmp_path):
    out = tmp_path / "dr.json"
    code = main(
        [
            "protocol", "droprate",
            "--acc-real", "0.9", "--acc-gen", "0.7", "--acc-rand", "0.5",
            "--out", str(out),
        ]
    )
    assert code == 0
    assert json.loads(out.read_text())["drop_rate"] == 0.5


def test_protocol_droprate_contract_violation_exit_code(tmp_path):
    code = main(
        [
            "protocol", "droprate",
            "--acc-real", "0.4", "--acc-gen", "0.7", "--acc-rand", "0.5",
            "--out", str(tmp_path / "dr.json"),
        ]
    )
    assert code == 3


def test_protocol_rank_with_csv(tmp_path):
    for model, value in (("alpha", 0.9), ("beta", 0.2)):
        for dataset in ("d1", "d2"):
            report = MetricReport(
                entries=(MetricEntry("score", value, "higher_better"),),
                context=ReportContext(dataset, model, 0),
            )
            tensorfile.emit_report(report, tmp_path / f"{model}-{dataset}.json")
    grouping = tmp_path / "grouping.json"
    grouping.write_text(json.dumps({"score": "fidelity"}))
    out = tmp_path / "rank.json"
    csv_out = tmp_path / "rank.csv"
    code = main(
        [
            "protocol", "rank",
            "--report", str(tmp_path / "alpha-d1.json"),
            "--report", str(tmp_path / "alpha-d2.json"),
            "--report", str(tmp_path / "beta-d1.json"),
            "--report", str(tmp_path / "beta-d2.json"),
            "--grouping", str(grouping),
            "--out", str(out),
            "--csv", str(csv_out),
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    means = {g["model"]: g["mean_rank"] for g in doc["groups"]}
    assert means == {"alpha": 1.0, "beta": 2.0}
    lines = csv_out.read_text().strip().splitlines()
    assert lines[0] == "model,group,mean_rank,std_rank"
    assert len(lines) == 3


def _stat_reports_dir(tmp_path, model_ids):
    """A ``reports/`` directory of one ``metrics stat --out`` run per model id, each with its manifest."""
    rng = np.random.default_rng(5)
    for name in ("train", "real"):
        tensorfile.write_tensor(rng.normal(size=(12, 8, 1)), tmp_path / f"{name}.tsb")
    reports = tmp_path / "reports"
    reports.mkdir()
    for n, model_id in enumerate(model_ids):
        tensorfile.write_tensor(rng.normal(loc=n, size=(12, 8, 1)), tmp_path / f"g{n}.tsb")
        code = main(
            [
                "metrics", "stat",
                "--train", str(tmp_path / "train.tsb"),
                "--real", str(tmp_path / "real.tsb"),
                "--gen", str(tmp_path / f"g{n}.tsb"),
                "--model-id", model_id,
                "--out", str(reports / f"g{n}.json"),
            ]
        )
        assert code == 0
        assert (reports / f"g{n}.manifest.json").exists()
    grouping = tmp_path / "grouping.json"
    grouping.write_text(json.dumps({m: "stat" for m in ("mdd", "acd", "sd", "kd")}))
    return reports, grouping


def test_protocol_rank_reports_dir_skips_run_manifests(tmp_path):
    reports, grouping = _stat_reports_dir(tmp_path, ["model g0", "model g1"])
    ranks = []
    # the last run finds the previous one's rank.json in the directory and must not read it as a report
    for out in (tmp_path / "rank.json", reports / "rank.json", reports / "rank.json"):
        argv = ["protocol", "rank", "--reports-dir", str(reports), "--grouping", str(grouping), "--out", str(out)]
        assert main(argv) == 0
        manifest = json.loads(out.with_name("rank.manifest.json").read_text())
        assert sorted(manifest["inputs"]) == sorted(str(p) for p in (reports / "g0.json", reports / "g1.json", grouping))
        ranks.append(out.read_bytes())
    assert ranks[0] == ranks[1] == ranks[2]


def test_protocol_rank_csv_quotes_a_model_id_with_comma_and_quote(tmp_path):
    model_id = 'model a, v"2"'
    reports, grouping = _stat_reports_dir(tmp_path, [model_id, "plain"])
    csv_out = tmp_path / "rank.csv"
    code = main(
        [
            "protocol", "rank", "--report", str(reports / "g0.json"), "--report", str(reports / "g1.json"),
            "--grouping", str(grouping), "--out", str(tmp_path / "rank.json"), "--csv", str(csv_out),
        ]
    )
    assert code == 0
    with open(csv_out, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["model", "group", "mean_rank", "std_rank"]
    assert sorted(row[0] for row in rows[1:]) == sorted([model_id, "plain"])
    assert all(len(row) == 4 for row in rows)


def test_readme_command_lines_parse():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## Command line\n.*?^```bash\n(.*?)^```", readme, re.S | re.M).group(1)
    lines = [shlex.split(line, comments=True) for line in block.replace("\\\n", " ").splitlines()]
    commands = [words[1:] for words in lines if words and words[0] == "seriesbench"]
    assert len(commands) == 13
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv)


@pytest.fixture
def rules_file(tmp_path):
    rules = {
        "schema": {
            "attributes": [
                {"name": "trend", "definition": "", "values": ["up", "down", "other"]},
            ]
        },
        "keywords": {"trend": {"up": ["upward"], "down": ["downward"]}},
    }
    path = tmp_path / "rules.json"
    path.write_text(json.dumps(rules))
    return path


def test_schema_discover_assign_label_pipeline(tmp_path, rules_file):
    captions = tmp_path / "captions.txt"
    captions.write_text("\n".join(f"caption {i} with an upward move" for i in range(20)))
    out_dir = tmp_path / "disc"
    code = main(
        [
            "schema", "discover",
            "--captions", str(captions),
            "--proposer", f"mock:{rules_file}",
            "--batch", "5", "--stable", "3", "--max-iter", "50",
            "--out", str(out_dir),
        ]
    )
    assert code == 0
    trace = json.loads((out_dir / "discovery.json").read_text())
    assert trace["converged"] is True
    assert trace["iterations"] == 4

    attrs_out = tmp_path / "attrs.jsonl"
    code = main(
        [
            "schema", "assign",
            "--captions", str(captions),
            "--schema", str(out_dir / "schema.json"),
            "--proposer", f"mock:{rules_file}",
            "--out", str(attrs_out),
        ]
    )
    assert code == 0

    labeled = tmp_path / "labeled.jsonl"
    table = tmp_path / "combos.json"
    code = main(
        [
            "schema", "label",
            "--attrs", str(attrs_out),
            "--schema", str(out_dir / "schema.json"),
            "--out", str(labeled),
            "--combo-table-out", str(table),
        ]
    )
    assert code == 0
    rows = [json.loads(line) for line in labeled.read_text().splitlines()]
    assert all("label" in row for row in rows)
    assert table.exists()


def test_bad_input_exit_code(tmp_path):
    bogus = tmp_path / "bogus.tsb"
    bogus.write_bytes(b"not a tensor\n")
    code = main(
        [
            "metrics", "stat",
            "--train", str(bogus), "--real", str(bogus), "--gen", str(bogus),
            "--out", str(tmp_path / "r.json"),
        ]
    )
    assert code == 2


def test_missing_file_exit_code(tmp_path):
    code = main(
        [
            "validate",
            "--series", str(tmp_path / "nope.tsb"),
            "--conditions", str(tmp_path / "nope.jsonl"),
            "--schema", str(tmp_path / "nope.json"),
        ]
    )
    assert code == 2


def test_console_script_entry_point(tmp_path):
    out = tmp_path / "cli-synth"
    proc = _run_module(["synth", "--variant", "u", "--seed", "1", "--n-per-combo", "8", "--out", str(out)])
    assert proc.returncode == 0, proc.stderr
    assert (out / "series.tsb").exists()


def test_proposer_failure_exit_code(tmp_path):
    captions = tmp_path / "captions.txt"
    captions.write_text("\n".join(f"caption {i}" for i in range(10)))
    code = main(
        [
            "schema", "discover",
            "--captions", str(captions),
            "--proposer", "http://127.0.0.1:1/propose",  # nothing listens here
            "--batch", "5",
            "--out", str(tmp_path / "disc"),
        ]
    )
    assert code == 4


# ---------------------------------------------------------------------------
# CLI contract: every subcommand, its manifest and byte-identical reruns
# ---------------------------------------------------------------------------

MANIFEST_KEYS = {"command", "flags", "inputs", "version", "wall_time_s"}

# name -> (argv with {i} = input dir and {o} = output dir, input files, --out value)
CONTRACT_CASES = {
    "synth": (
        "synth --variant u --seed 3 --n-per-combo 8 --length 54 --out {o}/synth",
        [],
        "{o}/synth",
    ),
    "metrics-stat": (
        "metrics stat --train {i}/series.tsb --real {i}/series.tsb --gen {i}/gen.tsb "
        "--bins 8 --out {o}/stat.json",
        ["series.tsb", "gen.tsb"],
        "{o}/stat.json",
    ),
    "metrics-embed": (
        "metrics embed --real-emb {i}/real.tsb --gen-emb {i}/gen_emb.tsb "
        "--cond-emb {i}/text_emb.tsb --k 3 --out {o}/embed.json",
        ["real.tsb", "gen_emb.tsb", "text_emb.tsb"],
        "{o}/embed.json",
    ),
    "metrics-align": (
        "metrics align --refs {i}/refs.tsb --gen-bundle {i}/bundle.tsb --k-per-sample 3 "
        "--out {o}/align.json",
        ["refs.tsb", "bundle.tsb"],
        "{o}/align.json",
    ),
    "protocol-retrieval": (
        "protocol retrieval --gen-emb {i}/gen_emb.tsb --text-emb {i}/text_emb.tsb "
        "--pool-size 4 --repeats 2 --conditions {i}/test.jsonl --out {o}/ret.json",
        ["gen_emb.tsb", "text_emb.tsb", "test.jsonl"],
        "{o}/ret.json",
    ),
    "protocol-temporal": (
        "protocol temporal --segment-emb {i}/seg.tsb --text-emb {i}/seg_text.tsb "
        "--segments 3 --out {o}/temporal.json",
        ["seg.tsb", "seg_text.tsb"],
        "{o}/temporal.json",
    ),
    "protocol-compgen": (
        "protocol compgen --schema {i}/schema.json --train-conditions {i}/train.jsonl "
        "--test-conditions {i}/test.jsonl --k 2 --gen-emb {i}/gen_emb.tsb "
        "--text-emb {i}/text_emb.tsb --ref-emb {i}/real.tsb --pool-size 4 --out {o}/compgen.json",
        ["schema.json", "train.jsonl", "test.jsonl", "gen_emb.tsb", "text_emb.tsb", "real.tsb"],
        "{o}/compgen.json",
    ),
    "protocol-droprate": (
        "protocol droprate --acc-real 0.9 --acc-gen 0.7 --acc-rand 0.5 --out {o}/dr.json",
        [],
        "{o}/dr.json",
    ),
    "protocol-rank": (
        "protocol rank --reports-dir {i}/reports --grouping {i}/grouping.json "
        "--out {o}/rank.json --csv {o}/rank.csv",
        ["reports/alpha-d1.json", "reports/alpha-d2.json", "reports/beta-d1.json",
         "reports/beta-d2.json", "grouping.json"],
        "{o}/rank.json",
    ),
    "schema-discover": (
        "schema discover --captions {i}/captions.txt --proposer mock:{i}/rules.json "
        "--batch 5 --out {o}/disc",
        ["captions.txt", "rules.json"],
        "{o}/disc",
    ),
    "schema-assign": (
        "schema assign --captions {i}/captions.txt --schema {i}/rules_schema.json "
        "--proposer mock:{i}/rules.json --out {o}/attrs.jsonl",
        ["captions.txt", "rules_schema.json", "rules.json"],
        "{o}/attrs.jsonl",
    ),
    "schema-label": (
        "schema label --attrs {i}/attrs.jsonl --schema {i}/rules_schema.json "
        "--combo-table {i}/combos.json --combo-table-out {o}/combos.json --out {o}/labeled.jsonl",
        ["attrs.jsonl", "rules_schema.json", "combos.json"],
        "{o}/labeled.jsonl",
    ),
    "validate": (
        "validate --series {i}/series.tsb --conditions {i}/conditions.jsonl "
        "--schema {i}/schema.json --out {o}/validate.json",
        ["series.tsb", "conditions.jsonl", "schema.json"],
        "{o}/validate.json",
    ),
}

RULES = {
    "schema": {"attributes": [{"name": "trend", "definition": "", "values": ["up", "down", "other"]}]},
    "keywords": {"trend": {"up": ["upward"], "down": ["downward"]}},
}


@pytest.fixture(scope="module")
def contract_inputs(tmp_path_factory):
    from seriesbench import synthgen
    from seriesbench.core import AttributeSchema

    d = tmp_path_factory.mktemp("inputs")
    rng = np.random.default_rng(7)
    ds = synthgen.build_synth_dataset(variant="u", seed=3, n_per_combo=8, length=54)
    n_test = 64
    tensorfile.write_tensor(ds.series, d / "series.tsb")
    tensorfile.write_tensor(ds.series.data + rng.normal(scale=0.1, size=ds.series.data.shape), d / "gen.tsb")
    tensorfile.write_conditions(ds.conditions, d / "conditions.jsonl")
    records = list(ds.conditions)
    tensorfile.write_conditions(records[:-n_test], d / "train.jsonl")
    tensorfile.write_conditions(records[-n_test:], d / "test.jsonl")
    tensorfile.write_schema(ds.schema, d / "schema.json")
    for name in ("real", "gen_emb", "text_emb"):
        tensorfile.write_tensor(rng.normal(size=(n_test, 6)), d / f"{name}.tsb")
    refs = rng.normal(size=(5, 12, 1))
    tensorfile.write_tensor(refs, d / "refs.tsb")
    tensorfile.write_tensor(np.repeat(refs, 3, axis=0) + rng.normal(size=(15, 12, 1)), d / "bundle.tsb")
    tensorfile.write_tensor(rng.normal(size=(20, 3, 5)), d / "seg.tsb")
    tensorfile.write_tensor(rng.normal(size=(20, 3, 5)), d / "seg_text.tsb")
    (d / "reports").mkdir()
    for model, value in (("alpha", 0.9), ("beta", 0.2)):
        for dataset in ("d1", "d2"):
            report = MetricReport(
                entries=(MetricEntry("score", value, "higher_better"),),
                context=ReportContext(dataset, model, 0),
            )
            tensorfile.emit_report(report, d / "reports" / f"{model}-{dataset}.json")
    (d / "grouping.json").write_text(json.dumps({"score": "fidelity"}))
    (d / "rules.json").write_text(json.dumps(RULES))
    tensorfile.write_schema(AttributeSchema.from_dict(RULES["schema"]), d / "rules_schema.json")
    words = ("upward", "downward", "flat")
    (d / "captions.txt").write_text(
        "\n".join(f"caption {i} with a {words[i % 3]} move" for i in range(12)) + "\n"
    )
    tensorfile.dump_jsonl(
        ({"sample_id": f"s-{i}", "text": f"t{i}", "attrs": {"trend": i % 3}} for i in range(9)),
        d / "attrs.jsonl",
    )
    (d / "combos.json").write_text(json.dumps({"combos": [[0], [1], [2]]}))
    return d


def _argv(template: str, **dirs) -> list[str]:
    return [token.format(**dirs) for token in template.split()]


def _data_outputs(out_dir) -> dict:
    return {
        str(p.relative_to(out_dir)): p.read_bytes()
        for p in sorted(out_dir.rglob("*"))
        if p.is_file() and not p.name.endswith("manifest.json")
    }


@pytest.mark.parametrize("case", sorted(CONTRACT_CASES))
def test_cli_contract(case, contract_inputs, tmp_path, capsys):
    from seriesbench.cli import _manifest_path, _sha256

    template, inputs, out_template = CONTRACT_CASES[case]
    dirs = {"i": contract_inputs, "o": tmp_path / "out"}
    (tmp_path / "out").mkdir()
    argv = _argv(template, **dirs)
    assert main(argv) == 0, capsys.readouterr().err

    manifest_path = _manifest_path(Path(out_template.format(**dirs)))
    manifest = json.loads(manifest_path.read_text())
    assert set(manifest) == MANIFEST_KEYS
    expected = {str(contract_inputs / name): _sha256(contract_inputs / name) for name in inputs}
    assert manifest["inputs"] == expected

    first = _data_outputs(tmp_path / "out")
    assert first
    assert main(argv) == 0
    assert _data_outputs(tmp_path / "out") == first


# ---------------------------------------------------------------------------
# Malformed inputs: exit 2 with one stderr line
# ---------------------------------------------------------------------------

MALFORMED_CASES = {
    "rank-bad-grouping": "protocol rank --reports-dir {i}/reports --grouping {b}/garbled.json --out {o}/r.json",
    "rank-grouping-not-object": "protocol rank --reports-dir {i}/reports --grouping {b}/list.json --out {o}/r.json",
    "label-row-lacks-attribute": "schema label --attrs {b}/attrs_missing.jsonl --schema {i}/rules_schema.json --out {o}/l.jsonl",
    "label-garbled-row": "schema label --attrs {b}/attrs_garbled.jsonl --schema {i}/rules_schema.json --out {o}/l.jsonl",
    "label-bad-combo-table": "schema label --attrs {i}/attrs.jsonl --schema {i}/rules_schema.json --combo-table {b}/garbled.json --out {o}/l.jsonl",
    "proposer-bad-json": "schema discover --captions {i}/captions.txt --proposer mock:{b}/garbled.json --out {o}/d",
    "proposer-no-schema": "schema discover --captions {i}/captions.txt --proposer mock:{b}/empty.json --out {o}/d",
    "out-is-directory": "protocol droprate --acc-real 0.9 --acc-gen 0.7 --acc-rand 0.5 --out {o}",
    "captions-not-utf8": "schema assign --captions {b}/latin1.txt --schema {i}/rules_schema.json --proposer mock:{i}/rules.json --out {o}/a.jsonl",
    "conditions-bad-attrs": "validate --series {i}/series.tsb --conditions {b}/conditions_bad.jsonl --schema {i}/schema.json",
    "tsb1-shape-exceeds-file": "metrics align --refs {b}/huge_shape.tsb --gen-bundle {i}/bundle.tsb --k-per-sample 3 --out {o}/a.json",
    "tsb1-shape-wraps-int64": "protocol retrieval --gen-emb {b}/wrap_shape.tsb --text-emb {i}/text_emb.tsb --pool-size 2 --out {o}/r.json",
    "tsb1-empty-shape-too-large": "protocol retrieval --gen-emb {b}/empty_huge_shape.tsb --text-emb {i}/text_emb.tsb --pool-size 2 --out {o}/r.json",
    "embed-tsb1-header-nested-too-deep": "metrics embed --real-emb {b}/deep_header.tsb --gen-emb {i}/gen_emb.tsb --out {o}/e.json",
    "embed-tsb1-header-not-object": "metrics embed --real-emb {b}/list_header.tsb --gen-emb {i}/gen_emb.tsb --out {o}/e.json",
    # values the JSON shape check rejects: no overflow traceback, no silent coercion
    "validate-attr-index-overflows": "validate --series {i}/series.tsb --conditions {b}/cond_attr_inf.jsonl --schema {i}/schema.json",
    "compgen-attr-index-overflows": "protocol compgen --schema {i}/schema.json --train-conditions {b}/cond_attr_inf.jsonl --test-conditions {i}/test.jsonl --k 2 --out {o}/c.json",
    "validate-attr-index-float": "validate --series {i}/series.tsb --conditions {b}/cond_attr_float.jsonl --schema {i}/schema.json",
    "validate-attr-index-bool": "validate --series {i}/series.tsb --conditions {b}/cond_attr_bool.jsonl --schema {i}/schema.json",
    "validate-attr-index-string": "validate --series {i}/series.tsb --conditions {b}/cond_attr_string.jsonl --schema {i}/schema.json",
    "validate-integer-literal-too-long": "validate --series {i}/series.tsb --conditions {b}/cond_long_int.jsonl --schema {i}/schema.json",
    "rank-seed-overflows": "protocol rank --report {b}/report_seed_inf.json --grouping {i}/grouping.json --out {o}/r.json",
    "rank-seed-float": "protocol rank --report {b}/report_seed_float.json --grouping {i}/grouping.json --out {o}/r.json",
    "rank-seed-string": "protocol rank --report {b}/report_seed_string.json --grouping {i}/grouping.json --out {o}/r.json",
    "rank-value-bool": "protocol rank --report {b}/report_value_bool.json --grouping {i}/grouping.json --out {o}/r.json",
    "rank-value-string": "protocol rank --report {b}/report_value_string.json --grouping {i}/grouping.json --out {o}/r.json",
    "rank-grouping-nested-too-deep": "protocol rank --reports-dir {i}/reports --grouping {b}/deep.json --out {o}/r.json",
    "label-attr-index-overflows": "schema label --attrs {b}/attrs_inf.jsonl --schema {i}/rules_schema.json --out {o}/l.jsonl",
    "label-attr-index-out-of-range": "schema label --attrs {b}/attrs_out_of_range.jsonl --schema {i}/rules_schema.json --out {o}/l.jsonl",
    "label-combo-table-overflows": "schema label --attrs {i}/attrs.jsonl --schema {i}/rules_schema.json --combo-table {b}/combos_inf.json --out {o}/l.jsonl",
    "schema-values-not-strings": "validate --series {i}/series.tsb --conditions {i}/conditions.jsonl --schema {b}/schema_int_values.json",
    "schema-name-null": "validate --series {i}/series.tsb --conditions {i}/conditions.jsonl --schema {b}/schema_null_name.json",
    "rules-keywords-not-a-list": "schema assign --captions {i}/captions.txt --schema {i}/rules_schema.json --proposer mock:{b}/rules_keyword_number.json --out {o}/a.jsonl",
    "label-combo-table-repeats": "schema label --attrs {i}/attrs.jsonl --schema {i}/rules_schema.json --combo-table {b}/combos_repeat.json --combo-table-out {o}/c.json --out {o}/l.jsonl",
    # retrieval flags given in part: refused rather than silently ignored
    "compgen-gen-emb-without-text-emb": "protocol compgen --schema {i}/schema.json --train-conditions {i}/train.jsonl --test-conditions {i}/test.jsonl --k 2 --gen-emb {i}/gen_emb.tsb --out {o}/c.json",
    "compgen-text-emb-without-gen-emb": "protocol compgen --schema {i}/schema.json --train-conditions {i}/train.jsonl --test-conditions {i}/test.jsonl --k 2 --text-emb {i}/text_emb.tsb --out {o}/c.json",
    "compgen-ref-emb-alone": "protocol compgen --schema {i}/schema.json --train-conditions {i}/train.jsonl --test-conditions {i}/test.jsonl --k 2 --ref-emb {i}/real.tsb --out {o}/c.json",
}

_REPORT = '{{"context":{{"dataset_id":"d1","model_id":"alpha","seed":{seed}}},"entries":[{{"direction":"higher_better","metric":"score","value":{value}}}]}}'


@pytest.fixture(scope="module")
def bad_inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("bad")
    (d / "garbled.json").write_text('{"score": ')
    (d / "list.json").write_text('["score"]')
    (d / "empty.json").write_text("{}")
    (d / "attrs_missing.jsonl").write_text(
        '{"attrs": {"trend": 0}, "sample_id": "s-0", "text": "a"}\n'
        '{"attrs": {}, "sample_id": "s-1", "text": "b"}\n'
    )
    (d / "attrs_garbled.jsonl").write_text('{"attrs": {"trend": 0}}\n{"attrs": {"tre\n')
    (d / "latin1.txt").write_bytes("caption with an upward move, caf\xe9\n".encode("latin-1"))
    (d / "conditions_bad.jsonl").write_text(
        '{"attrs": [], "label": 0, "sample_id": "s-0", "text": "a"}\n'
    )
    for name, index in (("inf", "1e400"), ("float", "2.5"), ("bool", "true"), ("string", '"2"')):
        (d / f"cond_attr_{name}.jsonl").write_text(
            f'{{"attrs": {{"trend_type": {index}}}, "label": 0, "sample_id": "s-0", "text": "a"}}\n'
        )
    (d / "cond_long_int.jsonl").write_text(
        f'{{"attrs": {{}}, "label": {"1" * 5000}, "sample_id": "s-0", "text": "a"}}\n'
    )
    reports = {
        "seed_inf": ("1e400", "0.5"), "seed_float": ("1.5", "0.5"), "seed_string": ('"7"', "0.5"),
        "value_bool": ("0", "true"), "value_string": ("0", '"0.5"'),
    }
    for name, (seed, value) in reports.items():
        (d / f"report_{name}.json").write_text(_REPORT.format(seed=seed, value=value))
    (d / "deep.json").write_text("[" * 100_000)
    (d / "attrs_inf.jsonl").write_text('{"attrs": {"trend": 1e400}}\n')
    (d / "attrs_out_of_range.jsonl").write_text('{"attrs": {"trend": 0}}\n{"attrs": {"trend": 3}}\n')
    (d / "combos_inf.json").write_text('{"combos": [[0], [1e400]]}')
    (d / "combos_repeat.json").write_text('{"combos": [[0], [1], [0], [2], [1]]}')
    (d / "schema_int_values.json").write_text('{"attributes": [{"name": "trend", "values": [1, 2]}]}')
    (d / "schema_null_name.json").write_text('{"attributes": [{"name": null, "values": ["a", "b"]}]}')
    (d / "rules_keyword_number.json").write_text(
        json.dumps({"schema": RULES["schema"], "keywords": {"trend": {"up": 5}}})
    )
    # headers whose shapes claim far more payload than the file holds (the
    # second one's element count is 2**64, which wraps to 0 in int64), and a
    # zero-element shape no array can take
    shapes = {"huge_shape": [100_000_000_000, 96, 1], "wrap_shape": [2**32, 2**32], "empty_huge_shape": [0, 2**70]}
    for name, shape in shapes.items():
        header = {"byte_order": "little", "dtype": "f32", "magic": "TSB1", "order": "row_major", "shape": shape}
        (d / f"{name}.tsb").write_bytes(json.dumps(header).encode() + b"\n")
    # headers that parse to no object: nested past the recursion limit while
    # still under the header byte limit, and a plain list
    (d / "deep_header.tsb").write_bytes(b"[" * 3000 + b"\n")
    (d / "list_header.tsb").write_bytes(b"[1]\n")
    return d


@pytest.mark.parametrize("case", sorted(MALFORMED_CASES))
def test_malformed_input_exits_2_with_one_line(case, contract_inputs, bad_inputs, tmp_path, capsys):
    argv = _argv(MALFORMED_CASES[case], i=contract_inputs, b=bad_inputs, o=tmp_path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("input error: "), captured.err


MALFORMED_MESSAGES = {
    "label-combo-table-repeats": "combination table repeats [0] at entries 0 and 2",
    "compgen-gen-emb-without-text-emb": "needs --gen-emb and --text-emb; missing --text-emb",
    "compgen-text-emb-without-gen-emb": "needs --gen-emb and --text-emb; missing --gen-emb",
    "compgen-ref-emb-alone": "needs --gen-emb and --text-emb; missing --gen-emb and --text-emb",
}


@pytest.mark.parametrize("case", sorted(MALFORMED_MESSAGES))
def test_malformed_input_names_its_fault_and_writes_nothing(case, contract_inputs, bad_inputs, tmp_path, capsys):
    argv = _argv(MALFORMED_CASES[case], i=contract_inputs, b=bad_inputs, o=tmp_path)
    assert main(argv) == 2
    assert MALFORMED_MESSAGES[case] in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_malformed_input_via_module_has_no_traceback(contract_inputs, bad_inputs, tmp_path):
    argv = _argv(MALFORMED_CASES["label-row-lacks-attribute"], i=contract_inputs, b=bad_inputs, o=tmp_path)
    proc = _run_module(argv)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert "attrs_missing.jsonl:2" in proc.stderr


@pytest.mark.parametrize(
    "schema, code, message",
    [
        ({"attributes": 5}, 2, None),
        ({"attributes": [{"name": "trend", "values": "up"}]}, 2, None),
        ({"attributes": []}, 2, None),
        # value names must be strings, as in a schema file: refused, not coerced
        ({"attributes": [{"name": "trend", "values": [1, 2]}]}, 2,
         "unusable rules schema: schema document.attributes[0].values[0]: expected a string, got 1"),
    ],
    ids=["attributes-not-a-list", "values-not-a-list", "no-attributes", "numeric-values"],
)
@pytest.mark.parametrize(
    "command",
    [
        "schema discover --captions {i}/captions.txt --proposer mock:{r} --batch 5 --out {o}/d",
        "schema assign --captions {i}/captions.txt --schema {i}/rules_schema.json --proposer mock:{r} --out {o}/a.jsonl",
    ],
    ids=["discover", "assign"],
)
def test_rules_schema_is_checked_when_the_rules_file_loads(command, schema, code, message, contract_inputs, tmp_path,
                                                           capsys):
    # a schema that every discovery round would reject fails at load, not after --max-iter rounds;
    # assign, which takes its schema from --schema, loads the same rules file and checks it too
    rules = tmp_path / "rules.json"
    rules.write_text(json.dumps({"schema": schema}))
    assert main(_argv(command, i=contract_inputs, r=rules, o=tmp_path)) == code
    err = capsys.readouterr().err
    if code:
        assert len(err.splitlines()) == 1 and err.startswith(f"input error: {rules}: "), err
    if message:
        assert err == f"input error: {rules}: {message}\n"


@pytest.mark.parametrize("rows", [10, 70])
def test_retrieval_caption_count_mismatch_exits_3(rows, contract_inputs, tmp_path, capsys):
    # gen_emb.tsb and text_emb.tsb hold 64 rows
    lines = (contract_inputs / "conditions.jsonl").read_text().splitlines()[:rows]
    conditions = tmp_path / "conditions.jsonl"
    conditions.write_text("\n".join(lines) + "\n")
    argv = _argv(
        "protocol retrieval --gen-emb {i}/gen_emb.tsb --text-emb {i}/text_emb.tsb "
        "--conditions {c} --pool-size 2 --out {o}/r.json",
        i=contract_inputs, c=conditions, o=tmp_path,
    )
    assert main(argv) == 3
    err = capsys.readouterr().err.splitlines()
    assert err == [f"contract violation: {rows} captions for 64 embedding rows"]


def _with_negative_label(conditions, out, record=3):
    rows = [json.loads(line) for line in conditions.read_text().splitlines()]
    rows[record]["label"] = -1
    tensorfile.dump_jsonl(rows, out)
    return out


def test_validate_reports_a_negative_label(contract_inputs, tmp_path, capsys):
    conditions = _with_negative_label(contract_inputs / "conditions.jsonl", tmp_path / "conditions.jsonl")
    argv = _argv(
        "validate --series {i}/series.tsb --conditions {c} --schema {i}/schema.json --out {o}/validate.json",
        i=contract_inputs, c=conditions, o=tmp_path,
    )
    assert main(argv) == 0
    doc = json.loads((tmp_path / "validate.json").read_text())
    assert doc["ok"] is False
    assert doc["violations"][0] == "record 3: label -1 is negative"
    assert "  - record 3: label -1 is negative" in capsys.readouterr().out.splitlines()


@pytest.mark.parametrize(
    "field, value, problem",
    [("attrs", 2**63, "value index 9223372036854775808 of attribute 'trend_type' lies outside int64"),
     ("attrs", -(2**63) - 1, "value index -9223372036854775809 of attribute 'trend_type' lies outside int64"),
     ("label", 2**64, "label 18446744073709551616 lies outside int64")],
    ids=["value-above", "value-below", "label"],
)
@pytest.mark.parametrize("command", ["validate", "compgen"])
def test_a_conditions_integer_beyond_int64_exits_2_with_its_line(contract_inputs, tmp_path, command, field, value,
                                                                  problem):
    # a conditions table holds int64 values; record 70 follows a blank line, so it is on line 72
    rows = [json.loads(line) for line in (contract_inputs / "conditions.jsonl").read_text().splitlines()]
    if field == "label":
        rows[70]["label"] = value
    else:
        rows[70]["attrs"]["trend_type"] = value
    conditions = tmp_path / "conditions.jsonl"
    lines = [json.dumps(row, sort_keys=True) for row in rows]
    conditions.write_text("\n".join(lines[:5] + [""] + lines[5:]) + "\n")
    argv = {
        "validate": f"validate --series {contract_inputs}/series.tsb --conditions {conditions} "
                    f"--schema {contract_inputs}/schema.json --out {tmp_path}/validate.json",
        "compgen": f"protocol compgen --schema {contract_inputs}/schema.json --train-conditions {conditions} "
                   f"--test-conditions {contract_inputs}/test.jsonl --k 3 --out {tmp_path}/compgen.json",
    }[command].split()
    proc = _run_module(argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"input error: {conditions}:72: {problem}\n"


def test_retrieval_reads_only_the_captions_of_its_conditions(contract_inputs, tmp_path):
    # a label validate would refuse does not stop retrieval, and changes none of its output
    conditions = _with_negative_label(contract_inputs / "test.jsonl", tmp_path / "test.jsonl")
    template = (
        "protocol retrieval --gen-emb {i}/gen_emb.tsb --text-emb {i}/text_emb.tsb "
        "--pool-size 4 --repeats 2 --conditions {c} --out {o}"
    )
    for c, o in ((conditions, tmp_path / "r.json"), (contract_inputs / "test.jsonl", tmp_path / "ref.json")):
        assert main(_argv(template, i=contract_inputs, c=c, o=o)) == 0
    assert (tmp_path / "r.json").read_bytes() == (tmp_path / "ref.json").read_bytes()


def test_compgen_fraction_over_half_exits_3(contract_inputs, tmp_path, capsys):
    argv = _argv(
        "protocol compgen --schema {i}/schema.json --train-conditions {i}/train.jsonl "
        "--test-conditions {i}/test.jsonl --k 3 --fraction 0.8 --out {o}/compgen.json",
        i=contract_inputs, o=tmp_path,
    )
    assert main(argv) == 3
    err = capsys.readouterr().err.splitlines()
    assert err == ["contract violation: fraction must be in (0, 0.5], got 0.8"]
    assert not (tmp_path / "compgen.json").exists()


def test_schema_label_apply_mode_round_trip(contract_inputs, tmp_path):
    # fit a combination table, then label the same rows through it in apply mode
    fit_argv = _argv(
        "schema label --attrs {i}/attrs.jsonl --schema {i}/rules_schema.json "
        "--combo-table-out {o}/combos.json --out {o}/fit.jsonl",
        i=contract_inputs, o=tmp_path,
    )
    assert main(fit_argv) == 0
    apply_argv = _argv(
        "schema label --attrs {i}/attrs.jsonl --schema {i}/rules_schema.json "
        "--combo-table {o}/combos.json --combo-table-out {o}/combos_again.json --out {o}/apply.jsonl",
        i=contract_inputs, o=tmp_path,
    )
    assert main(apply_argv) == 0
    assert (tmp_path / "apply.jsonl").read_bytes() == (tmp_path / "fit.jsonl").read_bytes()
    assert (tmp_path / "combos_again.json").read_bytes() == (tmp_path / "combos.json").read_bytes()
    labels = [json.loads(line)["label"] for line in (tmp_path / "apply.jsonl").read_text().splitlines()]
    assert labels == [i % 3 for i in range(9)]


def test_cli_import_loads_no_scipy():
    code = "import sys, seriesbench.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# Inputs that are well formed but break a contract: exit 3 with one stderr line
# ---------------------------------------------------------------------------

CONTRACT_VIOLATION_CASES = {
    "stat-empty-train": "metrics stat --train {b}/no_series.tsb --real {i}/series.tsb --gen {i}/gen.tsb --out {o}/s.json",
    "stat-empty-real": "metrics stat --train {i}/series.tsb --real {b}/no_series.tsb --gen {i}/gen.tsb --out {o}/s.json",
    "stat-bins-too-many": "metrics stat --train {i}/series.tsb --real {i}/series.tsb --gen {i}/gen.tsb --bins 1000000000 --out {o}/s.json",
    "embed-zero-dim": "metrics embed --real-emb {b}/zero_dim_emb.tsb --gen-emb {b}/zero_dim_emb.tsb --out {o}/e.json",
    "align-no-refs": "metrics align --refs {b}/no_refs.tsb --gen-bundle {b}/no_refs.tsb --k-per-sample 3 --out {o}/a.json",
    "temporal-no-series": "protocol temporal --segment-emb {b}/no_seg.tsb --text-emb {b}/no_seg.tsb --out {o}/t.json",
    "droprate-nan": "protocol droprate --acc-real nan --acc-gen 0.7 --acc-rand 0.5 --out {o}/d.json",
    "droprate-inf": "protocol droprate --acc-real inf --acc-gen 0.7 --acc-rand 0.5 --out {o}/d.json",
    "rank-seed-mean-overflow": "protocol rank --reports-dir {b}/overflow_reports --grouping {i}/grouping.json --out {o}/r.json",
    "compgen-attr-index-negative": "protocol compgen --schema {i}/schema.json --train-conditions {i}/train.jsonl --test-conditions {b}/test_index_-1.jsonl --k 2 --out {o}/c.json",
    "compgen-attr-index-too-large": "protocol compgen --schema {i}/schema.json --train-conditions {b}/test_index_99.jsonl --test-conditions {i}/test.jsonl --k 2 --out {o}/c.json",
    "synth-seed-negative": "synth --variant u --seed -1 --n-per-combo 8 --length 54 --out {o}/synth",
    "retrieval-seed-negative": "protocol retrieval --gen-emb {i}/gen_emb.tsb --text-emb {i}/text_emb.tsb --pool-size 4 --seed -3 --out {o}/r.json",
    "compgen-seed-negative": "protocol compgen --schema {i}/schema.json --train-conditions {i}/train.jsonl --test-conditions {i}/test.jsonl --k 2 --gen-emb {i}/gen_emb.tsb --text-emb {i}/text_emb.tsb --pool-size 4 --seed -1 --out {o}/c.json",
    "discover-seed-negative": "schema discover --captions {i}/captions.txt --proposer mock:{i}/rules.json --batch 5 --seed -2 --out {o}/disc",
    # 0 is a segment count to compare, not an absent flag
    "temporal-segments-zero": "protocol temporal --segment-emb {i}/seg.tsb --text-emb {i}/seg_text.tsb --segments 0 --out {o}/t.json",
}


@pytest.fixture(scope="module")
def violating_inputs(tmp_path_factory, contract_inputs):
    d = tmp_path_factory.mktemp("violating")
    rows = [json.loads(line) for line in (contract_inputs / "test.jsonl").read_text().splitlines()]
    for index in (-1, 99):
        rows[5]["attrs"]["season_cycles"] = index
        tensorfile.dump_jsonl(rows, d / f"test_index_{index}.jsonl")
    tensorfile.write_tensor(np.zeros((0, 54, 1)), d / "no_series.tsb")
    tensorfile.write_tensor(np.zeros((10, 0)), d / "zero_dim_emb.tsb")
    tensorfile.write_tensor(np.zeros((0, 12, 1)), d / "no_refs.tsb")
    tensorfile.write_tensor(np.zeros((0, 3, 5)), d / "no_seg.tsb")
    # 16 finite seeds whose float64 mean overflows (inf + -inf)
    (d / "overflow_reports").mkdir()
    for seed in range(16):
        report = MetricReport(
            entries=(MetricEntry("score", 1.7e308 if seed % 2 else -1.7e308, "higher_better"),),
            context=ReportContext("d1", "alpha", seed),
        )
        tensorfile.emit_report(report, d / "overflow_reports" / f"alpha-{seed}.json")
    report = MetricReport(entries=(MetricEntry("score", 0.5, "higher_better"),), context=ReportContext("d1", "beta", 0))
    tensorfile.emit_report(report, d / "overflow_reports" / "beta.json")
    return d


@pytest.mark.parametrize("case", sorted(CONTRACT_VIOLATION_CASES))
def test_contract_violation_exits_3_with_one_line(case, contract_inputs, violating_inputs, tmp_path, capsys):
    # pytest turns warnings into errors, so a NumPy RuntimeWarning fails here too
    argv = _argv(CONTRACT_VIOLATION_CASES[case], i=contract_inputs, b=violating_inputs, o=tmp_path)
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("contract violation: "), captured.err
    assert not list(tmp_path.iterdir())


def test_rank_overflow_via_module_prints_no_warning(contract_inputs, violating_inputs, tmp_path):
    argv = _argv(CONTRACT_VIOLATION_CASES["rank-seed-mean-overflow"], i=contract_inputs, b=violating_inputs, o=tmp_path)
    proc = _run_module(argv)
    assert proc.returncode == 3
    assert proc.stderr == (
        "contract violation: seed mean is not finite: model='alpha' dataset='d1' metric='score'\n"
    )


# ---------------------------------------------------------------------------
# HTTP proposer against a loopback server
# ---------------------------------------------------------------------------


@pytest.fixture
def http_proposer():
    """A loopback proposer endpoint; set ``state["reply"]`` to "mock", "500", "not-json", "too-deep" or "not-object"."""
    import threading
    from http.server import BaseHTTPRequestHandler, HTTPServer

    from seriesbench.schema_discovery import MockProposer

    mock = MockProposer(RULES["schema"], RULES["keywords"])
    state = {"reply": "mock", "requests": 0}

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            request = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
            state["requests"] += 1
            status, body = 200, json.dumps(mock(request)).encode()
            if state["reply"] == "500":
                status, body = 500, b"server error"
            elif state["reply"] == "not-json":
                body = b"<html>not json</html>"
            elif state["reply"] == "too-deep":  # nested past the interpreter's recursion limit
                body = b"[" * 100_000
            elif state["reply"] == "not-object":  # valid JSON that is no response document
                body = b"[1]"
            self.send_response(status)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):
            pass

    server = HTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}/", state
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()


def test_schema_discover_http_proposer_matches_mock(http_proposer, contract_inputs, tmp_path, capsys):
    url, state = http_proposer
    template = "schema discover --captions {i}/captions.txt --proposer {p} --batch 5 --out {o}"
    assert main(_argv(template, i=contract_inputs, p=f"mock:{contract_inputs}/rules.json", o=tmp_path / "mock")) == 0
    assert main(_argv(template, i=contract_inputs, p=url, o=tmp_path / "http")) == 0, capsys.readouterr().err
    assert state["requests"] == 4  # one per round: three stable rounds after the first
    for name in ("schema.json", "discovery.json"):
        assert (tmp_path / "http" / name).read_bytes() == (tmp_path / "mock" / name).read_bytes()


@pytest.mark.parametrize("reply", ["500", "not-json", "too-deep"])
def test_schema_discover_http_proposer_failure_exits_4(reply, http_proposer, contract_inputs, tmp_path, capsys):
    url, state = http_proposer
    state["reply"] = reply
    argv = _argv("schema discover --captions {i}/captions.txt --proposer {p} --batch 5 --out {o}/d",
                 i=contract_inputs, p=url, o=tmp_path)
    assert main(argv) == 4
    assert state["requests"] == 1  # a proposer failure is not retried
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"proposer failure: proposer at {url} failed: "), lines


def test_schema_discover_repairs_a_reply_that_is_no_object(http_proposer, contract_inputs, tmp_path, capsys):
    url, state = http_proposer
    state["reply"] = "not-object"
    argv = _argv("schema discover --captions {i}/captions.txt --proposer {p} --batch 5 --max-iter 3 --out {o}/d",
                 i=contract_inputs, p=url, o=tmp_path)
    # a parse failure, like a callable's: each round sends its request and one repair request, then is skipped
    assert main(argv) == 4
    assert state["requests"] == 6
    assert capsys.readouterr().err == "proposer failure: proposer never returned a parseable schema\n"


def test_schema_discover_malformed_proposer_url_exits_4(contract_inputs, tmp_path, capsys):
    argv = _argv("schema discover --captions {i}/captions.txt --proposer http://[bad --batch 5 --out {o}/d",
                 i=contract_inputs, o=tmp_path)
    assert main(argv) == 4
    assert capsys.readouterr().err.splitlines() == ["proposer failure: proposer at http://[bad failed: Invalid IPv6 URL"]


# ---------------------------------------------------------------------------
# TSB1 inputs with bool dimensions, and inputs that are not regular files
# ---------------------------------------------------------------------------


def test_a_bool_dimension_is_refused_without_a_traceback(tmp_path):
    good = tmp_path / "real.tsb"
    tensorfile.write_tensor(np.zeros((1, 4, 1)), good)
    bad = tmp_path / "gen.tsb"
    header = {"byte_order": "little", "dtype": "f32", "magic": "TSB1", "order": "row_major", "shape": [True, 4, 1]}
    bad.write_bytes(json.dumps(header).encode() + b"\n" + bytes(16))
    out = tmp_path / "stat.json"
    proc = _run_module(["metrics", "stat", "--train", str(good), "--real", str(good), "--gen", str(bad),
                        "--out", str(out)])
    assert proc.returncode == 2
    assert proc.stderr == f"input error: {bad}: bad shape [True, 4, 1]\n"
    assert not out.exists()


def test_validate_reads_its_series_from_a_fifo_and_records_no_digest_for_it(tmp_path, synth_dir):
    if not hasattr(os, "mkfifo"):
        pytest.skip("no FIFOs on this platform")
    fifo = tmp_path / "series.fifo"
    os.mkfifo(fifo)
    payload = (synth_dir / "series.tsb").read_bytes()

    def feed():
        try:
            with open(fifo, "wb") as fh:  # blocks until the child opens the FIFO
                fh.write(payload)
        except BrokenPipeError:  # the child stopped reading early; its exit code tells why
            pass

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    out = tmp_path / "v.json"
    argv = ["validate", "--series", str(fifo), "--conditions", str(synth_dir / "conditions.jsonl"),
            "--schema", str(synth_dir / "schema.json"), "--out", str(out)]
    proc = _run_module(argv, timeout=60)  # a second open of the drained FIFO would block until the timeout
    writer.join(timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text()) == {"ok": True, "violations": []}
    inputs = json.loads((tmp_path / "v.manifest.json").read_text())["inputs"]
    assert inputs[str(fifo)] is None
    assert len(inputs[str(synth_dir / "schema.json")]) == 64


def test_a_fifo_input_gets_a_null_digest_without_being_reopened(tmp_path):
    # the command has already drained the FIFO; opening it again would wait for a writer
    if not hasattr(os, "mkfifo"):
        pytest.skip("no FIFOs on this platform")
    from seriesbench import cli

    fifo = tmp_path / "in.fifo"
    os.mkfifo(fifo)
    digests = []
    reader = threading.Thread(target=lambda: digests.append(cli._sha256(fifo)), daemon=True)
    reader.start()
    reader.join(timeout=10)
    assert digests == [None]


def test_a_file_given_twice_is_hashed_once(tmp_path, synth_dir, monkeypatch):
    from seriesbench import cli

    hashed = []
    real_sha256 = cli._sha256
    monkeypatch.setattr(cli, "_sha256", lambda path: hashed.append(str(path)) or real_sha256(path))
    series, out = synth_dir / "series.tsb", tmp_path / "stat.json"
    argv = ["metrics", "stat", "--train", str(series), "--real", str(series), "--gen", str(series), "--out", str(out)]
    assert main(argv) == 0
    assert hashed == [str(series)]
    manifest = json.loads((tmp_path / "stat.manifest.json").read_text())
    assert manifest["inputs"] == {str(series): real_sha256(series)}


def test_an_out_path_without_a_suffix_gets_its_manifest_beside_it(tmp_path):
    out = tmp_path / "droprate"
    argv = ["protocol", "droprate", "--acc-real", "0.9", "--acc-gen", "0.7", "--acc-rand", "0.5", "--out", str(out)]
    assert main(argv) == 0
    assert json.loads(out.read_text())["drop_rate"] == 0.5
    assert sorted(p.name for p in tmp_path.iterdir()) == ["droprate", "droprate.manifest.json"]
    assert json.loads((tmp_path / "droprate.manifest.json").read_text())["inputs"] == {}


def test_protocol_rank_with_no_reports_exits_2(tmp_path, capsys):
    grouping = tmp_path / "grouping.json"
    grouping.write_text(json.dumps({"score": "fidelity"}))
    reports = tmp_path / "reports"
    reports.mkdir()
    out = tmp_path / "rank.json"
    for extra in ([], ["--reports-dir", str(reports)]):
        assert main(["protocol", "rank", *extra, "--grouping", str(grouping), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "input error: no reports given\n"
    assert not out.exists()


def test_schema_discover_with_no_captions_exits_2(tmp_path, rules_file, capsys):
    captions = tmp_path / "captions.txt"
    captions.write_text("\n   \n\n")
    out = tmp_path / "disc"
    argv = ["schema", "discover", "--captions", str(captions), "--proposer", f"mock:{rules_file}", "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"input error: {captions}: no captions found\n"
    assert not out.exists()


def test_schema_discover_with_an_unknown_proposer_scheme_exits_3(tmp_path, capsys):
    captions = tmp_path / "captions.txt"
    captions.write_text("an upward series\n")
    out = tmp_path / "disc"
    argv = ["schema", "discover", "--captions", str(captions), "--proposer", "ftp://127.0.0.1/propose", "--out", str(out)]
    assert main(argv) == 3
    assert capsys.readouterr().err == "contract violation: unknown proposer spec 'ftp://127.0.0.1/propose'\n"
    assert not out.exists()
