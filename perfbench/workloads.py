"""The three workloads: their inputs, operations, checks and figures.

generate  ``thermalbell simulate`` of the acceptance tau06 config at a
          desk-size frame count; speckle and the SPKL writer do the work.
analyze   the three ``correlate --bell`` commands of acceptance criterion 6
          on a tau06 stack made during set-up; correlate and the SPKL reader
          do the work.
exact     the frame-free routes: the permanent oracle, the Fock engine, the
          CH74 angle scan and a library sweep of the oracle at m = 14, 15.

Each workload maps ``--seed`` to its inputs; the program sees only the
generated inputs.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
from oracle_sweep import sweep_calls

STACK_SEED = 20260811       # acceptance tau06 seed; the stack seed is this + --seed
BOOT_SEED = 0               # bootstrap seed is this + --seed

GEOMETRY = {"pixel_pitch": 8e-6, "width": 128, "height": 8}
TAU06_ARGS = ["--tau-ratio", "0.06", "--substeps", "8", "--subsources", "64",
              "--pixel-pitch", "8e-6", "--grid-width", "128", "--grid-height", "8"]
TAU_RATIO = 0.06
MEAN_INTENSITY = 2.0        # 2 * E0^2 * nbar with the defaults E0 = nbar = 1

GENERATE_FRAMES = 20_000
PREFIX_FRAMES = 3_000
PREFIX_CHUNK = 1_000        # simulate's default chunk is 4096

# The size of the acceptance tau06 stack.  Here V_hat(6) spreads by about
# 0.014 between seeds and stays in the paper's [0.70, 0.78] bracket; at 50k
# frames it spreads by 0.023 and left the bracket at 1 seed in 10.
ANALYZE_FRAMES = 200_000

SWEEP = "oracle-sweep"      # the library calls of ``exact``


@dataclass
class Command:
    """One operation: a CLI command, or the oracle library sweep
    (``argv is None``), which counts one operation per call."""

    name: str
    argv: list[str] | None


def phase_map() -> np.ndarray:
    """Relative two-slit phase per pixel column of the desk geometry (the
    program's defaults for wavelength, slit separation and distance)."""
    wavelength, separation, distance = 532e-9, 200e-6, 0.3
    cols = np.arange(GEOMETRY["width"], dtype=float)
    x = (cols - (GEOMETRY["width"] - 1) / 2.0) * GEOMETRY["pixel_pitch"]
    return 2.0 * math.pi / wavelength * separation * x / distance


def _csv_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class Workload:
    name = ""
    setup_repeats = 1

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed

    def inputs(self) -> dict:
        """What the inputs are made of, for the run record."""
        return {}

    def setup_once(self, runner) -> None:
        """One untimed preparation; repeated ``setup_repeats`` times."""

    def commands(self) -> list[Command]:
        raise NotImplementedError

    def work_per_round(self) -> int:
        """Units of work in one round: frames, or operations for ``exact``."""
        raise NotImplementedError

    def outputs(self) -> list[Path]:
        """Primary outputs of one round (their bytes are ``output_bytes``)."""
        raise NotImplementedError

    def check(self) -> None:
        """Check the outputs of the round just run."""
        raise NotImplementedError

    def finish(self) -> None:
        """Checks made once per run, after the last round."""


class Generate(Workload):
    name = "generate"
    setup_repeats = 5

    def __init__(self, work: Path, seed: int):
        super().__init__(work, seed)
        self.stack_seed = STACK_SEED + seed
        self.stack = work / "generate.spkl"
        self.prefix = work / "prefix.spkl"

    def inputs(self) -> dict:
        return {"config": "tau06", "frames": GENERATE_FRAMES, "stack_seed": self.stack_seed,
                "prefix_frames": PREFIX_FRAMES, "prefix_chunk": PREFIX_CHUNK}

    def setup_once(self, runner) -> None:
        # the reference prefix, made with another processing chunk
        config = self.work / "prefix.json"
        config.write_text(json.dumps({"chunk": PREFIX_CHUNK}))
        runner.setup_cli(["simulate", "--config", str(config), "--frames", str(PREFIX_FRAMES),
                          *TAU06_ARGS, "--seed", str(self.stack_seed),
                          "--out", str(self.prefix)])

    def commands(self) -> list[Command]:
        return [Command("simulate", ["simulate", "--frames", str(GENERATE_FRAMES), *TAU06_ARGS,
                                     "--seed", str(self.stack_seed), "--out", str(self.stack)])]

    def work_per_round(self) -> int:
        return GENERATE_FRAMES

    def outputs(self) -> list[Path]:
        return [self.stack]

    def check(self) -> None:
        raw = self.stack.read_bytes()
        checks.check_spkl_header(raw, len(raw), n_frames=GENERATE_FRAMES,
                                 height=GEOMETRY["height"], width=GEOMETRY["width"],
                                 tau_ratio=TAU_RATIO, seed=self.stack_seed)
        frames = np.frombuffer(raw, dtype="<f4", offset=checks.SPKL_HEADER.size).reshape(
            GENERATE_FRAMES, GEOMETRY["height"], GEOMETRY["width"])
        checks.check_rows_identical(frames)
        rows = frames[:, 0, :]
        checks.check_mean_intensity(rows, MEAN_INTENSITY)
        checks.check_no_first_order_fringe(rows, phase_map())

    def finish(self) -> None:
        size = checks.SPKL_HEADER.size
        prefix = self.prefix.read_bytes()
        checks.check_spkl_header(prefix, len(prefix), n_frames=PREFIX_FRAMES,
                                 height=GEOMETRY["height"], width=GEOMETRY["width"],
                                 tau_ratio=TAU_RATIO, seed=self.stack_seed)
        with open(self.stack, "rb") as fh:
            fh.seek(size)
            stack = fh.read(len(prefix) - size)
        checks.check_prefix(stack, prefix[size:])


class Analyze(Workload):
    name = "analyze"
    # One set-up: it is a 20-25 s simulate, and a second would add half
    # again to the run
    setup_repeats = 1

    def __init__(self, work: Path, seed: int):
        super().__init__(work, seed)
        self.stack_seed = STACK_SEED + seed
        self.boot_seed = BOOT_SEED + seed
        self.stack = work / "analyze.spkl"

    def inputs(self) -> dict:
        return {"config": "tau06", "frames": ANALYZE_FRAMES, "stack_seed": self.stack_seed,
                "boot_seed": self.boot_seed,
                "stack_bytes": checks.SPKL_HEADER.size
                + ANALYZE_FRAMES * GEOMETRY["height"] * GEOMETRY["width"] * 4}

    def setup_once(self, runner) -> None:
        runner.setup_cli(["simulate", "--frames", str(ANALYZE_FRAMES), *TAU06_ARGS,
                          "--seed", str(self.stack_seed), "--out", str(self.stack)])

    def _correlate(self, stem: str, *args: str) -> list[str]:
        return ["correlate", "--frames", str(self.stack), *args, "--realizations", "6",
                "--boot-seed", str(self.boot_seed), "--out", str(self.work / stem)]

    def commands(self) -> list[Command]:
        return [Command("correlate-m1..6-bell", self._correlate("all", "--m", "1..6", "--bell")),
                Command("correlate-m4-bell", self._correlate("m4", "--m", "4", "--bell")),
                Command("correlate-m6-bell-shuffle",
                        self._correlate("shuf", "--m", "6", "--bell", "--shuffle"))]

    def work_per_round(self) -> int:
        return ANALYZE_FRAMES * len(self.commands())

    def outputs(self) -> list[Path]:
        stems = {"all": range(1, 7), "m4": [4], "shuf": [6]}
        paths = []
        for stem, ms in stems.items():
            paths += [self.work / f"{stem}_curve_m{m}.csv" for m in ms]
            paths += [self.work / f"{stem}_visibility.csv", self.work / f"{stem}_report.json"]
        return paths

    def _report(self, stem: str) -> dict:
        return json.loads((self.work / f"{stem}_report.json").read_text())

    def check(self) -> None:
        for path in self.outputs():
            if "_curve_" in path.name:
                checks.check_stderr([r["stderr_dimensionless"] for r in _csv_rows(path)],
                                    path.name)
        table = _csv_rows(self.work / "all_visibility.csv")
        checks.check_stderr([r["stderr_dimensionless"] for r in table], "V_hat")
        stderr6 = next(float(r["stderr_dimensionless"]) for r in table if r["m"] == "6")
        checks.check_visibility_table(
            {int(r["m"]): float(r["v_hat_dimensionless"]) for r in table}, stderr6)
        checks.check_bell(self._report("all")["bell"], 6)
        checks.check_bell(self._report("m4")["bell"], 4)
        checks.check_shuffled(self._report("shuf")["bell"])


class Exact(Workload):
    name = "exact"
    setup_repeats = 5
    SCAN_STEP = 0.02
    SCAN_M = 5
    # 16 phases instead of the CLI's default 64 keep a round near 10 s, so
    # a run takes the median of two rounds
    ORACLE_PHASES = 16

    def inputs(self) -> dict:
        calls = sweep_calls()
        return {"oracle_m": "1..13", "oracle_phases": self.ORACLE_PHASES,
                "quantum_m": "1..4", "nbar": [0.05, 0.2, 0.5], "delta1": [0.0, 1.3],
                "scan_step": self.SCAN_STEP,
                "sweep_calls": len(calls), "sweep_m": sorted({m for m, _ in calls}),
                "seed_used": False}

    def setup_once(self, runner) -> None:
        # loads the interpreter, numpy and the package into the page cache
        runner.setup_cli(["bell", "--four-term", "--m", "5", "--bound", "upper"])

    def commands(self) -> list[Command]:
        return [
            Command("analytic-oracle", ["analytic", "--m", "1..13", "--curve", "correlation",
                                        "--oracle", "--delta-points", str(self.ORACLE_PHASES),
                                        "--out", str(self.work / "oracle.csv")]),
            Command("quantum", ["quantum", "--m", "1..4", "--nbar", "0.05,0.2,0.5",
                                "--delta1", "0.0,1.3", "--out", str(self.work / "quantum.json")]),
            Command("bell-scan", ["bell", "--four-term", "--m", str(self.SCAN_M), "--scan-step",
                                  str(self.SCAN_STEP), "--out", str(self.work / "scan.json")]),
            Command(SWEEP, None),
        ]

    def work_per_round(self) -> int:
        return len(self.commands()) - 1 + len(sweep_calls())

    def outputs(self) -> list[Path]:
        return [self.work / name for name in ("oracle.csv", "quantum.json", "scan.json")]

    def check(self) -> None:
        checks.check_oracle_rows(_csv_rows(self.work / "oracle.csv"))
        quantum = json.loads((self.work / "quantum.json").read_text())
        checks.check_cross_correlation(quantum["cross_correlation"])
        checks.check_fock_gm1(quantum["gm1_check"])
        scan = json.loads((self.work / "scan.json").read_text())
        checks.check_angle_scan(scan["angle_scan"], self.SCAN_M / (self.SCAN_M + 2),
                                self.SCAN_STEP)


WORKLOADS = {cls.name: cls for cls in (Generate, Analyze, Exact)}
