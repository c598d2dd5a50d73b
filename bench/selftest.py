#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes, run from the root of a checkout:

    python3 bench/selftest.py

Runs every workload once untraced and once traced on tiny inputs and checks
that each run passes its correctness checks, ends with a result line that
holds exactly the metrics BENCHMARK.json names, reports every per-command
time, and gets the exact counts its inputs imply.  Then
checks that in a directory holding only BENCHMARK.json and the benchmark, the
benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
SEED = 5
L = 96  # series length of every synthetic dataset

COMMANDS = {
    "synth-m": {"synth_s", "validate_s", "metrics_stat_s"},
    "align-embed-retrieval": {"metrics_align_s", "metrics_embed_s", "protocol_retrieval_s"},
}


def expected_counts() -> dict[str, dict[str, int]]:
    sys.path.insert(0, str(BENCH))
    from workloads import SIZES

    synth = 32 * SIZES["synth_m"]["tiny"]["n_per_combo"]
    refs, k = SIZES["align_u"]["tiny"]["refs"], SIZES["align_u"]["tiny"]["k"]
    emb = SIZES["embed_retrieval"]["tiny"]
    n, d, queries = emb["n"], emb["d"], 32 * emb["captions_per_combo"]
    # precision and recall on (n, d), then on the joint (n, 2d) space: four
    # builds over n points and four containment passes of n queries
    flops = 2 * (2 * n * n * d + 2 * n * n * 2 * d) * 2
    return {
        "synth-m": {"synthgen.samples": synth, "synthgen.rng_streams": 7 * synth + 32,
                    "core.records_checked": synth, "align_metrics.dtw_pairs": 0,
                    "embed_metrics.manifold_builds": 0, "protocols.pool_draws": 0},
        "align-embed-retrieval": {
            "align_metrics.dtw_pairs": refs * k, "align_metrics.dtw_cells": refs * k * L * L,
            "embed_metrics.manifold_builds": 4, "embed_metrics.distance_flops": flops,
            "protocols.retrieval_queries": queries, "protocols.pool_draws": 5 * queries,
            "synthgen.rng_streams": 0, "core.records_checked": 0,
        },
    }


def run(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def check(condition: bool, message: str, failures: list[str]) -> None:
    if not condition:
        failures.append(message)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    counts = expected_counts()
    failures: list[str] = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            tag = f"{workload} trace {trace}"
            proc = run(["--workload", workload, "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
                        "--tiny"], ROOT)
            check(proc.returncode == 0, f"{tag}: exit {proc.returncode}: {proc.stderr[-400:]}", failures)
            try:
                line = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                failures.append(f"{tag}: last line of stdout is not JSON")
                continue
            check(set(line) == {"correct", "attempted", "failed", "metrics"}, f"{tag}: keys {sorted(line)}", failures)
            check(line.get("correct") is True and line.get("failed") == 0 and line.get("attempted", 0) >= 1,
                  f"{tag}: correct={line.get('correct')} failed={line.get('failed')}", failures)
            metrics = line.get("metrics", {})
            check(set(metrics) == set(declared[trace]),
                  f"{tag}: metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(declared[trace]))}",
                  failures)
            for name, unit in declared[trace].items():
                got = metrics.get(name, {})
                check(got.get("unit") == unit, f"{tag}: {name} unit {got.get('unit')} != {unit}", failures)
                check(trace == 1 or got.get("value", 0) > 0, f"{tag}: {name} is not positive", failures)
            result = json.loads((ROOT / ".bench_results" / f"{workload}-seed{SEED}-trace{trace}.json").read_text())
            if trace == 0:
                check(set(result["commands"]) == COMMANDS[workload],
                      f"{tag}: per-command times {sorted(result['commands'])}", failures)
            else:
                for name, want in counts[workload].items():
                    got = metrics.get(name, {}).get("value")
                    check(got == want, f"{tag}: {name} = {got}, expected {want}", failures)

    bare = ROOT / ".bench_work" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(["--workload", "synth-m", "--seed", "0", "--seconds", "1", "--trace", "0"], bare)
        check(proc.returncode != 0, "bare directory: benchmark exited 0", failures)
        check(not any(l.startswith("{") for l in proc.stdout.splitlines()), "bare directory: printed a result",
              failures)
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest: " + ("ok" if not failures else f"{len(failures)} failure(s)"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
