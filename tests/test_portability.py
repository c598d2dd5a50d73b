"""The outputs that are portable today keep their bytes under other BLAS kernels and SIMD levels.

Every CLI call runs in a child process, and only the child's environment
changes.  Byte-equal: the synth outputs, ``validate.json``, ``align.json`` and
``retrieval.json``.  Equal entries: precision, recall, the joint pair and
``cttp_score`` of ``embed.json``.  Left out as machine-specific (see the
README): ``stat.json``, whose ``sd`` uses NumPy's SIMD ``pow``, and ``fid`` and
``j_ftsd``, which follow the BLAS kernel's rounding of their products.
"""

import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from seriesbench import synthgen, tensorfile

SRC = Path(__file__).resolve().parent.parent / "src"
X86_64 = platform.machine().lower() in ("x86_64", "amd64")
EMBED_PORTABLE = ("precision", "recall", "joint_precision", "joint_recall", "cttp_score")
BYTE_OUTPUTS = ("synth/series.tsb", "synth/conditions.jsonl", "synth/schema.json", "synth/splits.json",
                "validate.json", "align.json", "retrieval.json")


def _avx512_dispatch_features() -> str:
    """The AVX-512 targets NumPy dispatches to on this CPU; disabling them leaves NumPy on AVX2."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # NumPy 1.x
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    return " ".join(f for f in __cpu_dispatch__ if __cpu_features__.get(f) and ("AVX512" in f or f == "X86_V4"))


ENVIRONMENTS = {
    "haswell": {"OPENBLAS_CORETYPE": "Haswell"},
    "prescott": {"OPENBLAS_CORETYPE": "Prescott"},
    "one-blas-thread": {"OPENBLAS_NUM_THREADS": "1"},
    "no-avx512": {"NPY_DISABLE_CPU_FEATURES": _avx512_dispatch_features()},
}


def _run_all(inputs: Path, out: Path, env: dict[str, str]) -> None:
    """Run every covered command on ``inputs`` into ``out``, each in a child with ``env`` added."""
    synth = out / "synth"
    commands = [
        ["synth", "--variant", "m", "--seed", "3", "--n-per-combo", "8", "--out", synth],
        ["validate", "--series", synth / "series.tsb", "--conditions", synth / "conditions.jsonl",
         "--schema", synth / "schema.json", "--out", out / "validate.json"],
        ["metrics", "align", "--refs", inputs / "refs.tsb", "--gen-bundle", inputs / "bundle.tsb",
         "--k-per-sample", "3", "--out", out / "align.json"],
        ["metrics", "embed", "--real-emb", inputs / "real.tsb", "--gen-emb", inputs / "gen.tsb",
         "--cond-emb", inputs / "cond.tsb", "--k", "5", "--out", out / "embed.json"],
        ["protocol", "retrieval", "--gen-emb", inputs / "series_emb.tsb", "--text-emb", inputs / "text_emb.tsb",
         "--conditions", inputs / "conditions.jsonl", "--pool-size", "10", "--repeats", "3", "--seed", "5",
         "--out", out / "retrieval.json"],
    ]
    child_env = dict(os.environ, PYTHONPATH=str(SRC), **env)
    for argv in commands:
        proc = subprocess.run([sys.executable, "-m", "seriesbench", *map(str, argv)], env=child_env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, (argv, proc.stderr)


@pytest.fixture(scope="module")
def default_run(tmp_path_factory):
    """Tiny seeded inputs, and every command's outputs on them in the default environment."""
    inputs = tmp_path_factory.mktemp("inputs")
    rng = np.random.default_rng(17)
    dataset = synthgen.build_synth_dataset("u", 2, 8)
    refs = dataset.series.data[:12]
    bundle = np.repeat(refs, 3, axis=0) + 0.2 * rng.normal(size=(36, *refs.shape[1:]))
    centers = rng.normal(size=(8, 16))
    label = rng.integers(0, 8, size=300)
    text = rng.normal(size=(len(dataset.conditions), 8))
    arrays = {
        "refs": refs, "bundle": bundle,
        "real": centers[label] + 0.5 * rng.normal(size=(300, 16)),
        "gen": centers[label] + 0.1 + 0.55 * rng.normal(size=(300, 16)),
        "cond": centers[label] @ rng.normal(size=(16, 16)) / 4.0 + 0.3 * rng.normal(size=(300, 16)),
        "text_emb": text, "series_emb": text + 0.8 * rng.normal(size=text.shape),
    }
    for name, arr in arrays.items():
        tensorfile.write_tensor(arr, inputs / f"{name}.tsb")
    tensorfile.write_conditions(dataset.conditions, inputs / "conditions.jsonl")
    out = tmp_path_factory.mktemp("default")
    _run_all(inputs, out, {})
    return inputs, out


def _embed_entries(path: Path) -> dict[str, float]:
    return {e.metric_name: e.value for e in tensorfile.read_report(path).entries}


@pytest.mark.parametrize("name", ENVIRONMENTS)
def test_portable_outputs_match_the_default_environment(name, default_run, tmp_path):
    env = ENVIRONMENTS[name]
    if "OPENBLAS_CORETYPE" in env and not X86_64:
        pytest.skip("OpenBLAS core types named here are x86-64 kernels")
    if "NPY_DISABLE_CPU_FEATURES" in env and not env["NPY_DISABLE_CPU_FEATURES"]:
        pytest.skip("NumPy dispatches to no AVX-512 target on this CPU")
    inputs, want = default_run
    _run_all(inputs, tmp_path, env)
    for output in BYTE_OUTPUTS:
        assert (tmp_path / output).read_bytes() == (want / output).read_bytes(), output
    got, expected = _embed_entries(tmp_path / "embed.json"), _embed_entries(want / "embed.json")
    assert [got[m] for m in EMBED_PORTABLE] == [expected[m] for m in EMBED_PORTABLE]
