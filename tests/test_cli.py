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
}


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
