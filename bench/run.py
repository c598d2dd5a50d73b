#!/usr/bin/env python3
"""Benchmark of the seriesbench command line, run from the root of a checkout.

    python3 bench/run.py --workload synth-m --seed 0 --seconds 45 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 45

``--trace 0`` runs the workload's CLI calls as sequential ``python -m
seriesbench`` subprocesses, repeated until ``--seconds`` have passed, and
reports the end-to-end metrics as medians over the repetitions.  A fresh
``python -m seriesbench --version`` runs before every CLI call, so the set-up
samples are spread over the whole run like the calls they stand for.  ``--trace 1``
runs one untraced repetition, then repeats the same argv in-process through
``seriesbench.cli.main`` with each layer's public functions wrapped in spans
(see ``tracing.py``), and reports the per-layer metrics.  ``--workload all``
runs every workload both ways.

Each CLI call is one operation.  It fails on a non-zero exit, a ``Traceback``
on stderr, or a data output whose sha256 differs from the expected one: the
digest pinned in ``expected.json`` for seed 0 (applied on the machine recorded
there), the digest ``build_synth_dataset`` produces through the tensorfile
writers for the synth outputs, and otherwise the first repetition's.  In a
traced run the untraced repetition comes first, so traced outputs must match
its bytes.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is 1 when
any operation failed.
"""

from __future__ import annotations

import argparse
import compileall
import ctypes
import hashlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import tracing
import workloads

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
RESULTS = ROOT / ".bench_results"
END_TO_END_UNITS = {"wall_s": "s", "peak_rss_mb": "MiB", "setup_s": "s"}
# the import figures are medians over this many fresh processes
IMPORT_REPEATS = 3
# a CLI call still running after this long is killed and counts as failed
OP_TIMEOUT_S = 150


@dataclass
class Iteration:
    walls: dict[str, float] = field(default_factory=dict)
    rss_mib: float = 0.0
    digests: dict[str, str] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)
    setups: list[float] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(self.walls.values())


def cli_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def call_subprocess(op, env: dict[str, str], logs: Path) -> tuple[float, float, str | None]:
    """Run one CLI call as a child process; returns (wall s, peak RSS MiB, error or None)."""
    out_path, err_path = logs / "stdout.txt", logs / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "seriesbench", *op.argv], stdout=out, stderr=err, env=env, cwd=ROOT
        )
        watchdog = threading.Timer(OP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = err_path.read_text(encoding="utf-8", errors="replace")
    error = None
    if proc.returncode != 0 or "Traceback" in stderr:
        error = f"{op.metric[:-2]}: exit {proc.returncode}: {stderr.strip()[-400:]}"
    return wall, usage.ru_maxrss / 1024.0, error


def call_inprocess(op, cli) -> tuple[float, float, str | None]:
    """Run one CLI call through ``cli.main`` in this process; returns (wall s, 0, error or None)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(op.argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:  # a crash is one failed operation, not the end of the run
        code = None
        err.write(traceback.format_exc())
    wall = time.perf_counter() - start
    stderr = err.getvalue()
    error = None
    if code != 0 or "Traceback" in stderr:
        error = f"{op.metric[:-2]}: exit {code}: {stderr.strip()[-400:]}"
    return wall, 0.0, error


def run_iteration(ops, work: Path, expected: dict[str, str], call, setup=None) -> Iteration:
    """Run every op once in order, check its outputs, and adopt new digests as expected.

    ``setup``, if given, is timed before each op and its times kept in ``setups``.
    """
    it = Iteration()
    for op in ops:
        if setup is not None:
            it.setups.append(setup())
        for path in op.outputs:
            path.unlink(missing_ok=True)
        wall, rss, error = call(op)
        it.walls[op.metric] = wall
        it.rss_mib = max(it.rss_mib, rss)
        problems = [error] if error else []
        for path in op.outputs:
            key = path.relative_to(work).as_posix()
            if not path.is_file():
                problems.append(f"{key}: missing")
                continue
            digest = it.digests[key] = workloads.sha256(path)
            want = expected.setdefault(key, digest)
            if digest != want:
                problems.append(f"{key}: sha256 {digest[:16]} differs from expected {want[:16]}")
        if problems:
            it.errors.append("; ".join(problems))
    return it


def repeat(run_once, start: float, seconds: float) -> list:
    """Call ``run_once`` until ``seconds`` after ``start``, stopping where that is nearest to a call's end."""
    results, durations = [], []
    while True:
        began = time.perf_counter()
        results.append(run_once())
        durations.append(time.perf_counter() - began)
        if time.perf_counter() - start + statistics.median(durations) / 2 > seconds:
            return results


def time_version(env: dict[str, str], importtime: bool = False) -> tuple[float, str]:
    """Wall time and stderr of a fresh ``python -m seriesbench --version``."""
    flags = ["-X", "importtime"] if importtime else []
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "seriesbench", "--version"],
        env=env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=120,
    )
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"seriesbench --version failed: {proc.stderr.strip()[-400:]}")
    return wall, proc.stderr


def import_times(stderr: str) -> dict[str, float]:
    """cli.import_s (the package plus seriesbench.cli) and protocols.import_s from -X importtime."""
    cumulative: dict[str, int] = {}
    for line in stderr.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
            cumulative.setdefault(parts[2].strip(), int(parts[1]))
    return {
        "cli.import_s": (cumulative.get("seriesbench", 0) + cumulative.get("seriesbench.cli", 0)) / 1e6,
        "protocols.import_s": cumulative.get("seriesbench.protocols", 0) / 1e6,
    }


def _openblas():
    """NumPy's own OpenBLAS (SciPy loads another copy, which NumPy's matmul does not use)."""
    paths = [line.split()[-1] for line in open("/proc/self/maps") if "openblas" in line]
    path = next((p for p in paths if "numpy" in p), paths[0] if paths else None)
    return ctypes.CDLL(path) if path else None


def _blas_call(lib, names: tuple[str, ...], restype):
    for name in names:
        fn = getattr(lib, name, None) if lib else None
        if fn is not None:
            fn.restype = restype
            value = fn()
            return value.decode() if isinstance(value, bytes) else value
    return None


def machine_info() -> dict:
    from importlib.metadata import version

    import numpy

    import seriesbench

    cpu = platform.processor()
    ram_mib = None
    try:
        cpu = next(l.split(":", 1)[1].strip() for l in open("/proc/cpuinfo") if l.startswith("model name"))
        kib = next(int(l.split()[1]) for l in open("/proc/meminfo") if l.startswith("MemTotal"))
        ram_mib = kib // 1024
    except (OSError, StopIteration):
        pass
    blas = _openblas()
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    source = hashlib.sha256()
    for path in sorted((SRC / "seriesbench").rglob("*.py")):
        source.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "ram_mib": ram_mib,
        "blas_threads": _blas_call(
            blas, ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads", "openblas_get_num_threads"),
            ctypes.c_int,
        ),
        "blas_core": _blas_call(
            blas, ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename", "openblas_get_corename"),
            ctypes.c_char_p,
        ),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": version("scipy"),
        "seriesbench": seriesbench.__version__,
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
    }


def pinned_digests(name: str, seed: int, tiny: bool, machine: dict) -> tuple[dict[str, str], str]:
    """Digests pinned for seed 0 at full size, if the running machine matches the one they were taken on."""
    doc = json.loads((BENCH / "expected.json").read_text(encoding="utf-8"))
    if tiny or seed != doc["seed"]:
        return {}, "first repetition"
    differs = [k for k, v in doc["machine"].items() if machine.get(k) != v]
    if differs:
        return {}, f"first repetition (pinned digests skipped: machine differs in {', '.join(differs)})"
    return dict(doc["digests"][name]), "pinned seed-0 digests"


def run_workload(name: str, seed: int, seconds: float, trace: int, tiny: bool, machine: dict) -> dict:
    work = WORK / f"{name}-seed{seed}-trace{trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        prepared = workloads.prepare(name, work, seed, tiny)
        pinned, expected_from = pinned_digests(name, seed, tiny, machine)
        expected = {**pinned, **prepared.reference}
        env = cli_env()

        def untraced(op):
            return call_subprocess(op, env, work)

        def setup() -> float:
            return time_version(env)[0]

        result: dict = {"workload": name, "seed": seed, "trace": trace, "expected_from": expected_from}
        start = time.perf_counter()
        if trace == 0:
            iterations = repeat(lambda: run_iteration(prepared.ops, work, expected, untraced, setup), start, seconds)
            setups = [s for it in iterations for s in it.setups]
            result["metrics"] = {
                "wall_s": statistics.median(it.wall for it in iterations),
                "peak_rss_mb": statistics.median(it.rss_mib for it in iterations),
                "setup_s": statistics.median(setups),
            }
            result["setup_samples"] = setups
            result["commands"] = {
                op.metric: statistics.median(it.walls[op.metric] for it in iterations) for op in prepared.ops
            }
        else:
            baseline = run_iteration(prepared.ops, work, expected, untraced, setup)
            setup_s = statistics.median(baseline.setups)
            from seriesbench import cli

            tracer = tracing.Tracer()
            uninstall = tracing.install(tracer)
            spans: list[list] = []

            def traced() -> Iteration:
                it = run_iteration(prepared.ops, work, expected, lambda op: call_inprocess(op, cli))
                spans.append(tracer.spans)
                tracer.spans = []
                return it

            try:
                iterations = repeat(traced, start, seconds)
            finally:
                uninstall()
            per_iteration = [tracing.layer_metrics(s) for s in spans]
            imports = [import_times(time_version(env, importtime=True)[1]) for _ in range(IMPORT_REPEATS)]
            metrics = {
                key: statistics.median(m[key] for m in per_iteration) for key in per_iteration[0]
            }
            for key in ("cli.import_s", "protocols.import_s"):
                metrics[key] = statistics.median(m[key] for m in imports)
            # traced runs are in-process, so take the per-call start-up out of the untraced wall
            metrics["trace.overhead_s"] = statistics.median(it.wall for it in iterations) - (
                baseline.wall - len(prepared.ops) * setup_s
            )
            result["metrics"] = {key: metrics[key] for key in tracing.PER_LAYER_UNITS}
            result["untraced"] = {"wall_s": baseline.wall, "peak_rss_mb": baseline.rss_mib, "setup_s": setup_s,
                                  **baseline.walls}
            result["spans"] = spans
            iterations = [baseline, *iterations]
        result["repetitions"] = len(iterations)
        result["iteration_walls"] = [it.wall for it in iterations]
        result["attempted"] = len(iterations) * len(prepared.ops)
        result["errors"] = [e for it in iterations for e in it.errors]
        result["digests"] = iterations[0].digests
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def unit_of(metric: str) -> str:
    return END_TO_END_UNITS.get(metric) or tracing.PER_LAYER_UNITS.get(metric) or "s"


def report(result: dict) -> None:
    """Print every metric of one workload run by name with its unit, then write its result file."""
    print(f"workload {result['workload']} seed {result['seed']} trace {result['trace']}: "
          f"{result['repetitions']} repetitions, {result['attempted']} operations, "
          f"{len(result['errors'])} failed; outputs checked against {result['expected_from']}")
    for section in ("metrics", "commands", "untraced"):
        for key, value in result.get(section, {}).items():
            note = f"  (computed: {tracing.COMPUTED[key]})" if key in tracing.COMPUTED else ""
            label = "untraced " if section == "untraced" else ""
            print(f"  {label}{key} = {value:.9g} {unit_of(key)}{note}")
    for error in result["errors"]:
        print(f"  FAILED {error}")
    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{result['workload']}-seed{result['seed']}-trace{result['trace']}"
    spans = result.pop("spans", None)
    if spans is not None:
        doc = {"fields": tracing.Span._fields, "iterations": spans}
        stem.with_name(stem.name + "-spans.json").write_text(json.dumps(doc) + "\n", encoding="utf-8")
    stem.with_name(stem.name + ".json").write_text(json.dumps(result) + "\n", encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the self-test only")
    args = parser.parse_args(argv)

    if not (SRC / "seriesbench" / "__init__.py").is_file():
        print(f"error: no seriesbench sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # a terminated run still kills its child process and removes its work directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # byte-compile once, so no timed process pays for it
    compileall.compile_dir(SRC / "seriesbench", quiet=1)

    machine = machine_info()
    print("machine: " + json.dumps(machine, sort_keys=True))
    if args.workload == "all":
        runs = [(name, trace) for name in workloads.WORKLOADS for trace in (0, 1)]
    else:
        runs = [(args.workload, args.trace)]
    results = []
    for name, trace in runs:
        result = run_workload(name, args.seed, args.seconds, trace, args.tiny, machine)
        result["machine"] = machine
        report(result)
        results.append(result)

    def entries(result: dict, prefix: str) -> dict:
        return {prefix + k: {"value": v, "unit": unit_of(k)} for k, v in result["metrics"].items()}

    failed = sum(len(r["errors"]) for r in results)
    metrics: dict = {}
    for r in results:
        metrics.update(entries(r, "" if len(results) == 1 else f"{r['workload']}/trace{r['trace']}/"))
    line = {"correct": failed == 0, "attempted": sum(r["attempted"] for r in results), "failed": failed,
            "metrics": metrics}
    print(json.dumps(line))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
