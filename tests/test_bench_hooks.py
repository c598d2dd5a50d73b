"""The span hooks of ``bench/tracing.py`` still fit the library.

The benchmark traces a run by patching library functions by name and counts
``synthgen.sample_rng`` spans as the number of RNG streams a build opens.  A
renamed function or a change in the number of streams would otherwise show
only in a traced benchmark run; here it fails the test suite.  The module is
imported from ``bench/`` as the benchmark imports it, and left unchanged.
"""

import importlib
import sys
from pathlib import Path

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
