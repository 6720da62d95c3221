"""Benchmark of the thermalbell pipeline: one workload per invocation.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace {0,1}

with W one of generate, analyze, exact.

Run from the root of a source checkout; the package is imported from
``src/``.  A run sets up its inputs, then repeats whole rounds of the
workload's operations for about ``--seconds`` (at least one round, and no
round that would end much later), checking the outputs of every round.
With ``--trace 0`` every operation is a separate process (CLI command or
oracle sweep) and the end-to-end metrics are printed; with ``--trace 1`` the
rounds run in this process, each command first without and then with spans
around the layer calls, and the per-layer metrics (medians over the rounds)
are printed.  The last line of standard output is the result as one JSON
object; the line before it is the run record (environment, inputs,
per-round figures).
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

COMMAND_TIMEOUT_S = 150.0
IMPORT_PROBES = 5


@dataclass
class OpResult:
    name: str
    ok: bool
    wall_s: float
    peak_rss_mb: float | None
    detail: str = ""


class CommandError(RuntimeError):
    """A set-up command or an operation's process could not complete."""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_process(argv: list[str], log: Path) -> tuple[int, float, float, str]:
    """Run one process to completion; return exit code, wall seconds, peak
    RSS in MB (from its own rusage) and its standard output."""
    with open(log, "w+") as out:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT,
                                env=_child_env(), cwd=ROOT)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        text = out.read()
    return proc.returncode, wall, usage.ru_maxrss * 1024 / 1e6, text


class ProcessRunner:
    """Operations as separate processes, one after another."""

    def __init__(self, work: Path):
        self.work = work
        self.count = 0

    def _run(self, argv: list[str]) -> tuple[int, float, float, str]:
        self.count += 1
        return run_process(argv, self.work / f"op{self.count % 8}.log")

    def setup_cli(self, argv: list[str]) -> None:
        code, _, _, text = self._run([sys.executable, "-m", "thermalbell.cli", *argv])
        if code != 0:
            raise CommandError(f"set-up command {argv[0]} exited {code}: {text[-2000:]}")

    def cli(self, name: str, argv: list[str]) -> list[OpResult]:
        code, wall, rss, text = self._run([sys.executable, "-m", "thermalbell.cli", *argv])
        return [OpResult(name, code == 0, wall, rss, "" if code == 0 else text[-2000:])]

    def sweep(self) -> list[OpResult]:
        code, wall, rss, text = self._run([sys.executable, str(HERE / "oracle_sweep.py")])
        if code != 0:
            raise CommandError(f"oracle sweep exited {code}: {text[-2000:]}")
        calls = [json.loads(line) for line in text.splitlines() if line.startswith("{")]
        # the process wall (start-up included) is spread over its calls
        return [OpResult(f"oracle-m{c['m']}", c["status"] == "ok", wall / len(calls), rss,
                         c["detail"]) for c in calls]


class InProcessRunner:
    """Operations as calls in this process, optionally traced."""

    def __init__(self, tracer=None):
        self.tracer = tracer

    def _root(self, name: str):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def cli(self, name: str, argv: list[str]) -> list[OpResult]:
        from thermalbell import cli
        started = time.perf_counter()
        with self._root("cli.main"), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        return [OpResult(name, code == 0, time.perf_counter() - started, None)]

    def sweep(self) -> list[OpResult]:
        from oracle_sweep import run_call, sweep_calls
        results = []
        for m, delta in sweep_calls():
            if self.tracer:
                self.tracer.op += 1
            with self._root("sweep.call"):
                call = run_call(m, delta)
            results.append(OpResult(f"oracle-m{m}", call["status"] == "ok", call["seconds"],
                                    None, call["detail"]))
        return results


def run_command(command, runner, tracer=None) -> tuple[list[OpResult], float]:
    """One command (or the oracle sweep); returns its results and wall."""
    started = time.perf_counter()
    if command.argv is None:
        results = runner.sweep()
    else:
        if tracer:
            tracer.op += 1
        results = runner.cli(command.name, command.argv)
    return results, time.perf_counter() - started


def clear_outputs(workload) -> None:
    """Remove the last round's outputs, so no check can pass on them."""
    for path in workload.outputs():
        path.unlink(missing_ok=True)


def run_round(workload, runner) -> tuple[list[OpResult], float]:
    """One round of the workload's operations; returns results and wall."""
    clear_outputs(workload)
    results = []
    wall = 0.0
    for command in workload.commands():
        done, seconds = run_command(command, runner)
        results += done
        wall += seconds
    return results, wall


def another_round(started: float, seconds: float, done: int) -> bool:
    """Always one round; then another while the mean round so far says it
    will end within ``seconds`` of ``started``."""
    if done == 0:
        return True
    elapsed = time.perf_counter() - started
    return elapsed + elapsed / done <= seconds


def setup(workload, runner) -> list[float]:
    durations = []
    for _ in range(workload.setup_repeats):
        started = time.perf_counter()
        workload.setup_once(runner)
        durations.append(time.perf_counter() - started)
    return durations


def blas_threads() -> int | str:
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    import ctypes

    import numpy
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__) + ".libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def environment() -> dict:
    def version(name):
        try:
            return metadata.version(name)
        except metadata.PackageNotFoundError:
            return None
    return {"python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "blas_threads": blas_threads(),
            "machine": platform.machine(), "system": platform.system()}


def import_seconds(work: Path) -> float:
    """Median time a fresh interpreter needs to import the CLI and every
    module its commands load (numpy and scipy included)."""
    code = ("import time; t = time.perf_counter(); import thermalbell.cli; "
            "from thermalbell import analytic, bell, correlate, fock, permanents, speckle, spkl; "
            "print(time.perf_counter() - t)")
    samples = []
    for _ in range(IMPORT_PROBES):
        status, _, _, text = run_process([sys.executable, "-c", code], work / "import.log")
        if status != 0:
            raise CommandError(f"import probe exited {status}: {text[-2000:]}")
        samples.append(float(text.split()[-1]))
    return statistics.median(samples)


def measure(workload, seconds: float) -> tuple[dict, dict, int, int]:
    runner = ProcessRunner(workload.work)
    setups = setup(workload, runner)
    rounds = []
    attempted = failed = 0
    peak = 0.0
    started = time.perf_counter()
    while another_round(started, seconds, len(rounds)):
        results, wall = run_round(workload, runner)
        workload.check()
        attempted += len(results)
        failed += sum(not r.ok for r in results)
        peak = max([peak] + [r.peak_rss_mb for r in results])
        op_walls: dict[str, float] = {}
        for r in results:
            op_walls[r.name] = op_walls.get(r.name, 0.0) + r.wall_s
        rounds.append({"wall_s": wall, "op_wall_s": op_walls,
                       "work_per_s": workload.work_per_round() / wall,
                       "output_bytes": sum(p.stat().st_size for p in workload.outputs()),
                       "failed": [f"{r.name}: {r.detail}" for r in results if not r.ok]})
    workload.finish()
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(r["wall_s"] for r in rounds),
        "peak_rss_mb": peak,
        "work_per_s": statistics.median(r["work_per_s"] for r in rounds),
        "output_bytes": statistics.median(r["output_bytes"] for r in rounds),
    }
    record = {"setup_s": setups, "rounds": rounds}
    return metrics, record, attempted, failed


def measure_traced(workload, seconds: float) -> tuple[dict, dict, int, int]:
    from spans import Tracer, instrumented, layer_metrics, root_s
    # import every layer first, so that no command pays for it
    from thermalbell import (analytic, bell, cli, correlate, fock,  # noqa: F401
                             permanents, speckle, spkl)

    setups = setup(workload, ProcessRunner(workload.work))
    rounds = []
    results = []
    started = time.perf_counter()
    while another_round(started, seconds, len(rounds)):
        clear_outputs(workload)
        tracer = Tracer()
        plain_runner, traced_runner = InProcessRunner(), InProcessRunner(tracer)
        plain_wall = traced_wall = 0.0
        # each command runs untraced and then traced, so that both of a
        # pair see the same machine load
        for command in workload.commands():
            plain, seconds_taken = run_command(command, plain_runner)
            plain_wall += seconds_taken
            with instrumented(tracer):
                traced, seconds_taken = run_command(command, traced_runner, tracer)
            traced_wall += seconds_taken
            results += plain + traced
        workload.check()
        layers = layer_metrics(tracer.spans)
        layers["trace.overhead_s"] = traced_wall - plain_wall
        layers["trace.uncovered_s"] = traced_wall - root_s(tracer.spans)
        rounds.append({"tracer": tracer, "layers": layers, "untraced_wall_s": plain_wall,
                       "traced_wall_s": traced_wall})
    workload.finish()
    with open(workload.work.parent / f"spans-{workload.name}-seed{workload.seed}.jsonl", "w") as fh:
        for index, r in enumerate(rounds):
            r["tracer"].write(fh, round=index)

    layers = {name: statistics.median(r["layers"][name] for r in rounds)
              for name in rounds[0]["layers"]}
    layers["cli.import_s"] = import_seconds(workload.work)
    record = {"setup_s": setups,
              "rounds": [{"untraced_wall_s": r["untraced_wall_s"],
                          "traced_wall_s": r["traced_wall_s"],
                          "spans": len(r["tracer"].spans)} for r in rounds],
              "failed": [f"{r.name}: {r.detail}" for r in results if not r.ok]}
    return layers, record, len(results), sum(not r.ok for r in results)


def with_units(metrics: dict, declared: list[dict]) -> dict:
    """The declared metrics, in BENCHMARK.json's order and with its units."""
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared}


def print_table(metrics: dict) -> None:
    width = max(len(name) for name in metrics)
    for name, entry in metrics.items():
        print(f"{name:<{width}}  {entry['value']:>14.6g} {entry['unit']}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "thermalbell" / "cli.py").is_file():
        print(f"error: no thermalbell sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS
    from checks import CheckError

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = WORKLOADS[args.workload](work, args.seed)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = declared["per_layer" if args.trace else "end_to_end"]
    correct = True
    error = None
    try:
        if args.trace:
            metrics, record, attempted, failed = measure_traced(workload, args.seconds)
        else:
            metrics, record, attempted, failed = measure(workload, args.seconds)
        metrics = with_units(metrics, declared)
    except (CheckError, CommandError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        correct, error = False, str(exc)
        metrics, record, attempted, failed = {}, {}, 1, 1
    finally:
        for path in work.glob("*.spkl"):
            path.unlink()

    record.update({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "inputs": workload.inputs(),
                   "environment": environment(), "error": error,
                   "metrics": {name: entry["value"] for name, entry in metrics.items()}})
    print(json.dumps({"run_record": record}))
    if metrics:
        print_table(metrics)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
