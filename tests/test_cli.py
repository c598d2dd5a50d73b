import json
from pathlib import Path

import numpy as np
import pytest

from seriesbench import tensorfile
from seriesbench.cli import main
from seriesbench.core import MetricEntry, MetricReport, ReportContext


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
    report = tensorfile.read_report(report_path)
    assert report.value("mdd") == 0.0
    assert report.value("acd") == 0.0
    assert (tmp_path / "stat.manifest.json").exists()


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
    report = tensorfile.read_report(out)
    assert report.value("dtw_score") == pytest.approx(0.0, abs=1e-6)
    assert report.value("crps_score") == pytest.approx(0.0, abs=1e-6)


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
    assert tensorfile.read_report(out).value("retrieval_acc1") == 1.0


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
    import subprocess
    import sys

    out = tmp_path / "cli-synth"
    proc = subprocess.run(
        [sys.executable, "-m", "seriesbench", "synth", "--variant", "u",
         "--seed", "1", "--n-per-combo", "8", "--out", str(out)],
        capture_output=True, text=True,
    )
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
    tensorfile.write_conditions(ds.conditions[:-n_test], d / "train.jsonl")
    tensorfile.write_conditions(ds.conditions[-n_test:], d / "test.jsonl")
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


def test_malformed_input_via_module_has_no_traceback(contract_inputs, bad_inputs, tmp_path):
    import subprocess
    import sys

    argv = _argv(MALFORMED_CASES["label-row-lacks-attribute"], i=contract_inputs, b=bad_inputs, o=tmp_path)
    proc = subprocess.run([sys.executable, "-m", "seriesbench", *argv], capture_output=True, text=True)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert "attrs_missing.jsonl:2" in proc.stderr


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
    import os
    import subprocess
    import sys

    src = Path(__file__).resolve().parent.parent / "src"
    code = "import sys, seriesbench.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True
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
    import subprocess
    import sys

    argv = _argv(CONTRACT_VIOLATION_CASES["rank-seed-mean-overflow"], i=contract_inputs, b=violating_inputs, o=tmp_path)
    proc = subprocess.run([sys.executable, "-m", "seriesbench", *argv], capture_output=True, text=True)
    assert proc.returncode == 3
    assert proc.stderr == (
        "contract violation: seed mean is not finite: model='alpha' dataset='d1' metric='score'\n"
    )


# ---------------------------------------------------------------------------
# HTTP proposer against a loopback server
# ---------------------------------------------------------------------------


@pytest.fixture
def http_proposer():
    """A loopback proposer endpoint; set ``state["reply"]`` to "mock", "500" or "not-json"."""
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


@pytest.mark.parametrize("reply", ["500", "not-json"])
def test_schema_discover_http_proposer_failure_exits_4(reply, http_proposer, contract_inputs, tmp_path, capsys):
    url, state = http_proposer
    state["reply"] = reply
    argv = _argv("schema discover --captions {i}/captions.txt --proposer {p} --batch 5 --out {o}/d",
                 i=contract_inputs, p=url, o=tmp_path)
    assert main(argv) == 4
    assert state["requests"] == 1  # a proposer failure is not retried
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"proposer failure: proposer at {url} failed: "), lines


def test_schema_discover_malformed_proposer_url_exits_4(contract_inputs, tmp_path, capsys):
    argv = _argv("schema discover --captions {i}/captions.txt --proposer http://[bad --batch 5 --out {o}/d",
                 i=contract_inputs, o=tmp_path)
    assert main(argv) == 4
    assert capsys.readouterr().err.splitlines() == ["proposer failure: proposer at http://[bad failed: Invalid IPv6 URL"]
