"""The span hooks of ``bench/tracing.py`` still fit the library.

The benchmark traces a run by patching library functions by name and counts
``synthgen.sample_rng`` spans as the number of RNG streams a build opens, and
``ManifoldIndex.build``/``contains`` spans as manifold builds and distance
flops.  A renamed function or a change in those counts would otherwise show
only in a traced benchmark run; here it fails the test suite.  The module is
imported from ``bench/`` as the benchmark imports it, and left unchanged.
"""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def tracing():
    sys.path.insert(0, str(BENCH))
    try:
        yield importlib.import_module("tracing")
    finally:
        sys.path.remove(str(BENCH))


def test_traced_synth_m_build_opens_seven_streams_per_sample_and_one_per_combination(tracing):
    from seriesbench import synthgen

    original = synthgen.sample_rng
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        synthgen.build_synth_dataset("m", 0, 8)
    finally:
        uninstall()
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["synthgen.samples"] == 32 * 8
    assert metrics["synthgen.rng_streams"] == 7 * 32 * 8 + 32
    assert synthgen.sample_rng is original


def test_traced_metrics_embed_builds_four_manifolds_and_counts_their_distance_flops(tracing, tmp_path):
    from seriesbench import cli, tensorfile

    n, d = 60, 5
    rng = np.random.default_rng(3)
    for name in ("real", "gen", "cond"):
        tensorfile.write_tensor(rng.normal(size=(n, d)), tmp_path / f"{name}.tsb")
    argv = ["metrics", "embed", "--real-emb", str(tmp_path / "real.tsb"), "--gen-emb", str(tmp_path / "gen.tsb"),
            "--cond-emb", str(tmp_path / "cond.tsb"), "--k", "5", "--out", str(tmp_path / "embed.json")]
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        assert cli.main(argv) == 0
    finally:
        uninstall()
    metrics = tracing.layer_metrics(tracer.spans)
    # precision and recall on (n, d), then on the joint (n, 2d) space: four
    # builds over n points and four containment passes of n queries
    assert metrics["embed_metrics.manifold_builds"] == 4
    assert metrics["embed_metrics.distance_flops"] == 2 * (2 * n * n * d + 2 * n * n * 2 * d) * 2


def test_traced_metrics_stat_keeps_one_top_span_per_metric_with_both_sides_on_two_threads(tracing, tmp_path):
    # acd runs the generated profile on a worker thread, so a profile span may
    # nest under either side; each metric must still be one layer-top span
    from seriesbench import cli, tensorfile

    rng = np.random.default_rng(4)
    for name in ("train", "real", "gen"):
        tensorfile.write_tensor(rng.normal(size=(200, 48, 2)), tmp_path / f"{name}.tsb")
    argv = ["metrics", "stat", "--train", str(tmp_path / "train.tsb"), "--real", str(tmp_path / "real.tsb"),
            "--gen", str(tmp_path / "gen.tsb"), "--out", str(tmp_path / "stat.json")]
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        assert cli.main(argv) == 0
    finally:
        uninstall()
    by_id = {s.id: s for s in tracer.spans}
    assert len(by_id) == len(tracer.spans)

    def layer_top(span):
        parent = span.parent
        while parent is not None:
            if by_id[parent].name.startswith("stat_metrics."):
                return False
            parent = by_id[parent].parent
        return True

    for metric in ("acd", "sd", "kd", "mdd"):
        tops = [s for s in tracer.spans if s.name == f"stat_metrics.{metric}" and layer_top(s)]
        assert len(tops) == 1, metric
    assert len([s for s in tracer.spans if s.name == "stat_metrics.autocorrelation_profile"]) == 2
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["stat_metrics.acd_s"] > 0.0
    assert metrics["stat_metrics.moments_s"] > 0.0
    assert tracer._stack == []
