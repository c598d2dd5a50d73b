"""In-process span tracing of seriesbench's layers, applied from outside the package.

``install`` replaces the public functions of each layer with wrappers that
record a span (name, start, end, parent) plus the counts that can be read off
the call's arguments and result.  Spans stay in memory; ``layer_metrics``
turns one iteration's spans into the per-layer metrics, and the caller writes
the raw spans out when the run ends.  Nothing here changes what a wrapped
function computes: the wrappers call the original with the same arguments and
return its result unchanged.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
import tracemalloc
from typing import NamedTuple

# Counts marked computed are derived from shapes (a model of the work), not
# observed by instrumentation; they are labelled as such in every report.
COMPUTED = {
    "align_metrics.dtw_cells": "pairs x L_ref x L_gen",
    "embed_metrics.distance_flops": "2*n*m*d per distance pass",
    "protocols.pool_draws": "repeats x queries",
}

# name -> unit, in report order
PER_LAYER_UNITS = {
    "tensorfile.read_s": "s",
    "tensorfile.read_bytes": "bytes",
    "tensorfile.write_s": "s",
    "tensorfile.write_bytes": "bytes",
    "tensorfile.conditions_read_s": "s",
    "tensorfile.conditions_write_s": "s",
    "tensorfile.report_write_s": "s",
    "core.validate_s": "s",
    "core.records_checked": "count",
    "synthgen.build_s": "s",
    "synthgen.samples": "count",
    "synthgen.rng_streams": "count",
    "synthgen.us_per_sample": "us",
    "stat_metrics.spec_s": "s",
    "stat_metrics.mdd_s": "s",
    "stat_metrics.acd_s": "s",
    "stat_metrics.moments_s": "s",
    "align_metrics.dtw_score_s": "s",
    "align_metrics.dtw_pairs": "count",
    "align_metrics.dtw_cells": "cells",
    "align_metrics.dtw_ns_per_cell": "ns",
    "align_metrics.crps_score_s": "s",
    "embed_metrics.fid_s": "s",
    "embed_metrics.precision_s": "s",
    "embed_metrics.recall_s": "s",
    "embed_metrics.joint_pr_s": "s",
    "embed_metrics.adherence_s": "s",
    "embed_metrics.manifold_build_s": "s",
    "embed_metrics.manifold_contains_s": "s",
    "embed_metrics.manifold_builds": "count",
    "embed_metrics.distance_flops": "flop",
    "embed_metrics.peak_alloc_mb": "MiB",
    "protocols.retrieval_s": "s",
    "protocols.retrieval_queries": "count",
    "protocols.pool_draws": "count",
    "protocols.us_per_draw": "us",
    "cli.self_s": "s",
    "cli.import_s": "s",
    "protocols.import_s": "s",
    "trace.overhead_s": "s",
}


class Span(NamedTuple):
    # a tuple of atomic fields, so the garbage collector stops tracking it;
    # tens of thousands of tracked spans would slow every collection
    id: int
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    counts: dict | None


class Tracer:
    """Records spans of the calls made through the installed wrappers."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._next_id = 0

    def wrap(self, name: str, fn, count=None):
        """Return ``fn`` wrapped so that each call records a span called ``name``.

        ``count(args, kwargs, result)`` returns the span's counts; it runs
        after the span's end time is taken.
        """
        layer = name.split(".", 1)[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            alloc = layer == "embed_metrics" and not tracemalloc.is_tracing()
            self._stack.append(span_id)
            start = time.perf_counter_ns()
            if alloc:
                tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
            finally:
                if alloc:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                end = time.perf_counter_ns()
                self._stack.pop()
            counts = count(args, kwargs, result) if count else None
            if alloc:
                counts = {**(counts or {}), "peak_alloc_bytes": peak}
            self.spans.append(Span(span_id, name, start, end, parent, counts))
            return result

        return traced


def _file_bytes(path) -> dict:
    return {"bytes": os.path.getsize(path)}


def _read_count(args, kwargs, result):
    return _file_bytes(args[0])


def _write_count(args, kwargs, result):
    return _file_bytes(args[1])


def _conditions_read_count(args, kwargs, result):
    return {"records": len(result), **_file_bytes(args[0])}


def _validate_count(args, kwargs, result):
    return {"records": len(args[1])}


def _synth_count(args, kwargs, result):
    return {"samples": int(result.series.n_samples)}


def _dtw_count(args, kwargs, result):
    refs, bundle = args[0], args[1]
    ref_len = refs.data.shape[1] if hasattr(refs, "data") else refs.shape[1]
    n, k, gen_len = bundle.data.shape[:3]
    return {"pairs": n * k, "cells": n * k * ref_len * gen_len}


def _build_count(args, kwargs, result):
    n, d = result.points.shape
    return {"flops": 2 * n * n * d}


def _contains_count(args, kwargs, result):
    n, d = args[0].points.shape
    return {"flops": 2 * len(result) * n * d}


def _retrieval_count(args, kwargs, result):
    cfg = args[2]
    query_indices = kwargs.get("query_indices", args[4] if len(args) > 4 else None)
    n = len(args[0].data if hasattr(args[0], "data") else args[0])
    queries = n if query_indices is None else len(query_indices)
    return {"queries": queries, "draws": cfg.repeats * queries}


def _public_functions(module) -> list[str]:
    return [
        name
        for name, obj in vars(module).items()
        if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_")
    ]


def install(tracer: Tracer):
    """Wrap every traced seriesbench function; returns a callable that restores them."""
    from seriesbench import (
        align_metrics, cli, core, embed_metrics, protocols, stat_metrics, synthgen, tensorfile,
    )

    modules = [m for n, m in list(sys.modules.items()) if n == "seriesbench" or n.startswith("seriesbench.")]
    saved: list[tuple[object, str, object]] = []

    def patch(owner, attr: str, name: str, count=None) -> None:
        original = owner.__dict__[attr]
        if isinstance(original, classmethod):
            replacement = classmethod(tracer.wrap(name, original.__func__, count))
        else:
            replacement = tracer.wrap(name, original, count)
        # also every other module-level name bound to the function, so calls
        # through a from-import (cli's validate_dataset) are traced too
        bindings = [(owner, attr)] + [
            (m, a) for m in modules if m is not owner for a, v in vars(m).items() if v is original
        ]
        for target, a in bindings:
            saved.append((target, a, original))
            setattr(target, a, replacement)

    for attr in _public_functions(tensorfile):
        if attr.startswith("read_"):
            patch(tensorfile, attr, f"tensorfile.{attr}",
                  _conditions_read_count if attr == "read_conditions" else _read_count)
        elif attr.startswith("write_"):
            patch(tensorfile, attr, f"tensorfile.{attr}", _write_count)
    patch(tensorfile, "emit_report", "tensorfile.emit_report", _write_count)
    patch(core, "validate_dataset", "core.validate_dataset", _validate_count)
    patch(synthgen, "build_synth_dataset", "synthgen.build_synth_dataset", _synth_count)
    patch(synthgen, "sample_rng", "synthgen.sample_rng")
    for attr in _public_functions(stat_metrics):
        patch(stat_metrics, attr, f"stat_metrics.{attr}")
    patch(stat_metrics.HistogramSpec, "from_training", "stat_metrics.HistogramSpec.from_training")
    patch(align_metrics, "dtw_score", "align_metrics.dtw_score", _dtw_count)
    patch(align_metrics, "crps_score", "align_metrics.crps_score")
    for attr in _public_functions(embed_metrics):
        patch(embed_metrics, attr, f"embed_metrics.{attr}")
    patch(embed_metrics.ManifoldIndex, "build", "embed_metrics.ManifoldIndex.build", _build_count)
    patch(embed_metrics.ManifoldIndex, "contains", "embed_metrics.ManifoldIndex.contains", _contains_count)
    patch(protocols, "retrieval_acc1", "protocols.retrieval_acc1", _retrieval_count)
    patch(cli, "main", "cli.main")

    def uninstall() -> None:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return uninstall


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced iteration (all but the import and overhead figures).

    A span is layer-top when no span of the same layer encloses it, so a
    metric that sums layer-top spans counts nested calls (``precision``
    inside ``joint_precision_recall``) once, under the outer call.
    """
    by_id = {s.id: s for s in spans}

    def layer(s: Span) -> str:
        return s.name.split(".", 1)[0]

    def layer_top(s: Span) -> bool:
        parent = s.parent
        while parent is not None:
            if layer(by_id[parent]) == layer(s):
                return False
            parent = by_id[parent].parent
        return True

    def select(names, top: bool = False) -> list[Span]:
        return [s for s in spans if s.name in names and (not top or layer_top(s))]

    def secs(*names: str, top: bool = False) -> float:
        return sum(s.end_ns - s.start_ns for s in select(names, top)) / 1e9

    def total(key: str, *names: str) -> int:
        return sum((s.counts or {}).get(key, 0) for s in select(names))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    tf, em = "tensorfile.", "embed_metrics."
    names = {s.name for s in spans}
    reads = {n for n in names if n.startswith(tf + "read_") and n != tf + "read_conditions"}
    writes = {n for n in names if n.startswith(tf + "write_") and n != tf + "write_conditions"}
    # cli self time: each main span minus its direct children
    cli_self_ns = sum(s.end_ns - s.start_ns for s in select({"cli.main"}))
    cli_self_ns -= sum(
        s.end_ns - s.start_ns for s in spans if s.parent is not None and by_id[s.parent].name == "cli.main"
    )

    out = {
        "tensorfile.read_s": secs(*reads),
        "tensorfile.read_bytes": total("bytes", *reads),
        "tensorfile.write_s": secs(*writes),
        "tensorfile.write_bytes": total("bytes", *writes),
        "tensorfile.conditions_read_s": secs(tf + "read_conditions"),
        "tensorfile.conditions_write_s": secs(tf + "write_conditions"),
        "tensorfile.report_write_s": secs(tf + "emit_report"),
        "core.validate_s": secs("core.validate_dataset"),
        "core.records_checked": total("records", "core.validate_dataset"),
        "synthgen.build_s": secs("synthgen.build_synth_dataset"),
        "synthgen.samples": total("samples", "synthgen.build_synth_dataset"),
        "synthgen.rng_streams": len(select({"synthgen.sample_rng"})),
        "stat_metrics.spec_s": secs("stat_metrics.HistogramSpec.from_training"),
        "stat_metrics.mdd_s": secs("stat_metrics.mdd", top=True),
        "stat_metrics.acd_s": secs("stat_metrics.acd", top=True),
        "stat_metrics.moments_s": secs("stat_metrics.sd", "stat_metrics.kd", top=True),
        "align_metrics.dtw_score_s": secs("align_metrics.dtw_score"),
        "align_metrics.dtw_pairs": total("pairs", "align_metrics.dtw_score"),
        "align_metrics.dtw_cells": total("cells", "align_metrics.dtw_score"),
        "align_metrics.crps_score_s": secs("align_metrics.crps_score"),
        "embed_metrics.fid_s": secs(em + "fid", top=True),
        "embed_metrics.precision_s": secs(em + "precision", top=True),
        "embed_metrics.recall_s": secs(em + "recall", top=True),
        "embed_metrics.joint_pr_s": secs(em + "joint_precision_recall", top=True),
        "embed_metrics.adherence_s": secs(em + "cttp_score", em + "j_ftsd", top=True),
        "embed_metrics.manifold_build_s": secs(em + "ManifoldIndex.build"),
        "embed_metrics.manifold_contains_s": secs(em + "ManifoldIndex.contains"),
        "embed_metrics.manifold_builds": len(select({em + "ManifoldIndex.build"})),
        "embed_metrics.distance_flops": total("flops", em + "ManifoldIndex.build", em + "ManifoldIndex.contains"),
        "embed_metrics.peak_alloc_mb": max((s.counts or {}).get("peak_alloc_bytes", 0) for s in spans) / 2**20
        if spans else 0.0,
        "protocols.retrieval_s": secs("protocols.retrieval_acc1"),
        "protocols.retrieval_queries": total("queries", "protocols.retrieval_acc1"),
        "protocols.pool_draws": total("draws", "protocols.retrieval_acc1"),
        "cli.self_s": cli_self_ns / 1e9,
    }
    out["synthgen.us_per_sample"] = ratio(out["synthgen.build_s"] * 1e6, out["synthgen.samples"])
    out["align_metrics.dtw_ns_per_cell"] = ratio(out["align_metrics.dtw_score_s"] * 1e9, out["align_metrics.dtw_cells"])
    out["protocols.us_per_draw"] = ratio(out["protocols.retrieval_s"] * 1e6, out["protocols.pool_draws"])
    return out
