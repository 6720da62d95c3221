"""Spans around the calls into each thermalbell layer, recorded from outside.

The tracer replaces module attributes (functions, one method, the CLI's
command table) with timing wrappers for the duration of a ``with`` block and
restores them afterwards; the program itself is not changed.  Spans stay in
memory and are written out once, at the end of the run.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import statistics
import time
import tracemalloc


class Tracer:
    """Span recorder: name, start, end, parent span, operation id, attrs."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []
        self.op = 0

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        record = {"name": name, "start": time.perf_counter(), "end": None,
                  "parent": self._open[-1] if self._open else None,
                  "op": self.op, **attrs}
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            self._open.pop()
            record["end"] = time.perf_counter()

    def wrap(self, fn, name: str, attrs=None):
        """Function wrapper; ``attrs(args, kwargs)`` adds span attributes."""
        def wrapper(*args, **kwargs):
            with self.span(name, **(attrs(args, kwargs) if attrs else {})):
                return fn(*args, **kwargs)
        return wrapper

    def wrap_generator(self, fn, name: str):
        """A generator's work happens in ``next``: one span per item, with
        the item's leading dimension recorded as ``items``."""
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                with self.span(name) as record:
                    try:
                        item = next(inner)
                    except StopIteration:
                        record["items"] = 0
                        return
                    record["items"] = int(item.shape[0])
                yield item
        return wrapper

    def wrap_peak_alloc(self, fn, name: str):
        """Also record the peak traced allocation of the call (numpy reports
        its buffers to tracemalloc)."""
        def wrapper(*args, **kwargs):
            with self.span(name) as record:
                tracemalloc.start()
                try:
                    return fn(*args, **kwargs)
                finally:
                    record["peak_alloc_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
        return wrapper

    def write(self, fh, **extra) -> None:
        """One JSON line per span, with ``extra`` fields added."""
        for record in self.spans:
            fh.write(json.dumps({**record, **extra}) + "\n")


def _matrix_size(args, kwargs):
    return {"n": int(args[0].shape[0])}


def _write_bytes(args, kwargs):
    frames = args[1]
    return {"bytes": int(frames.size) * 4}


def _file_bytes(args, kwargs):
    return {"bytes": os.path.getsize(args[0])}


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Wrap the public layer functions the per-layer metrics are built from."""
    from thermalbell import analytic, bell, cli, correlate, fock, permanents, speckle, spkl

    patches = [
        (speckle, "iter_intensity_chunks",
         tracer.wrap_generator(speckle.iter_intensity_chunks, "speckle.iter_intensity_chunks")),
        (spkl.SpklWriter, "write",
         tracer.wrap(spkl.SpklWriter.write, "spkl.SpklWriter.write", _write_bytes)),
        (spkl, "load_frameset",
         tracer.wrap(spkl.load_frameset, "spkl.load_frameset", _file_bytes)),
        (bell, "angle_scan", tracer.wrap_peak_alloc(bell.angle_scan, "bell.angle_scan")),
        (permanents, "permanent",
         tracer.wrap(permanents.permanent, "permanents.permanent", _matrix_size)),
        (permanents, "gm1_from_permanent",
         tracer.wrap(permanents.gm1_from_permanent, "permanents.gm1_from_permanent")),
    ]
    for name in ("collect_cells", "estimate_gm1", "bell_from_frames", "fit_visibility"):
        patches.append((correlate, name,
                        tracer.wrap(getattr(correlate, name), f"correlate.{name}")))
    for name in ("thermal_state", "project_m", "cross_corr", "expect_gm1", "cm_coefficient"):
        patches.append((fock, name, tracer.wrap(getattr(fock, name), f"fock.{name}")))
    for name in ("visibility_tls", "visibility_tls_exact", "gm1_tls_set", "gm1_tls_normalized"):
        patches.append((analytic, name, tracer.wrap(getattr(analytic, name), f"analytic.{name}")))
    # cli.main dispatches through this table, not through module attributes
    commands = {name: (cls, tracer.wrap(runner, f"cli.{runner.__name__}"))
                for name, (cls, runner) in cli._COMMANDS.items()}
    patches.append((cli, "_COMMANDS", commands))

    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    try:
        for owner, attr, replacement in patches:
            setattr(owner, attr, replacement)
        yield
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


# ------------------------------------------------------------- analysis

def _duration(record: dict) -> float:
    return record["end"] - record["start"]


def _has_ancestor(spans: list[dict], record: dict, prefix: str) -> bool:
    parent = record["parent"]
    while parent is not None:
        if spans[parent]["name"].startswith(prefix):
            return True
        parent = spans[parent]["parent"]
    return False


def total_s(spans: list[dict], prefix: str) -> float:
    """Time in spans whose name starts with ``prefix``, counting nested
    spans of the same prefix once."""
    return math.fsum(_duration(r) for r in spans
                     if r["name"].startswith(prefix) and not _has_ancestor(spans, r, prefix))


def self_s(spans: list[dict], name: str) -> float:
    """Duration of ``name`` spans minus the time their child spans cover."""
    child_time = [0.0] * len(spans)
    for record in spans:
        if record["parent"] is not None:
            child_time[record["parent"]] += _duration(record)
    return math.fsum(_duration(r) - child_time[i] for i, r in enumerate(spans)
                     if r["name"] == name)


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer figures from one traced round.  A layer the workload never
    calls reads 0."""
    def named(name):
        return [r for r in spans if r["name"] == name]

    chunks = named("speckle.iter_intensity_chunks")
    frames = sum(r["items"] for r in chunks)
    chunk_s = total_s(spans, "speckle.iter_intensity_chunks")
    perms = named("permanents.permanent")
    n16 = [_duration(r) for r in perms if r["n"] == 16]
    scans = named("bell.angle_scan")
    cm_calls = len(named("fock.cm_coefficient"))
    cm_attempts = sum(1 for r in named("fock.project_m")
                      if r["parent"] is not None
                      and spans[r["parent"]]["name"] == "fock.cm_coefficient")
    return {
        "speckle.iter_intensity_chunks.s": chunk_s,
        "speckle.us_per_frame": chunk_s / frames * 1e6 if frames else 0.0,
        "spkl.SpklWriter.write.s": total_s(spans, "spkl.SpklWriter.write"),
        "spkl.bytes_written": sum(r["bytes"] for r in named("spkl.SpklWriter.write")),
        "spkl.load_frameset.s": total_s(spans, "spkl.load_frameset"),
        "spkl.bytes_read": sum(r["bytes"] for r in named("spkl.load_frameset")),
        "cli.cmd_simulate.self_s": self_s(spans, "cli.cmd_simulate"),
        "cli.cmd_correlate.self_s": self_s(spans, "cli.cmd_correlate"),
        "correlate.collect_cells.s": total_s(spans, "correlate.collect_cells"),
        "correlate.collect_cells.calls": len(named("correlate.collect_cells")),
        "correlate.estimate_gm1.self_s": self_s(spans, "correlate.estimate_gm1"),
        "correlate.bell_from_frames.self_s": self_s(spans, "correlate.bell_from_frames"),
        "correlate.fit_visibility.s": total_s(spans, "correlate.fit_visibility"),
        "bell.angle_scan.s": total_s(spans, "bell.angle_scan"),
        "bell.angle_scan.peak_alloc_mb":
            max((r["peak_alloc_bytes"] for r in scans), default=0) / 1e6,
        "permanents.permanent.s": total_s(spans, "permanents.permanent"),
        "permanents.permanent.calls": len(perms),
        "permanents.permanent.n16_ms": statistics.median(n16) * 1e3 if n16 else 0.0,
        "fock.thermal_state.s": total_s(spans, "fock.thermal_state"),
        "fock.project_m.s": total_s(spans, "fock.project_m"),
        "fock.cross_corr.s": total_s(spans, "fock.cross_corr"),
        "fock.expect_gm1.s": total_s(spans, "fock.expect_gm1"),
        "fock.cm_coefficient.attempts_per_call": cm_attempts / cm_calls if cm_calls else 0.0,
        "analytic.s": total_s(spans, "analytic."),
    }


def root_s(spans: list[dict]) -> float:
    """Time covered by top-level spans (one per operation)."""
    return math.fsum(_duration(r) for r in spans if r["parent"] is None)
