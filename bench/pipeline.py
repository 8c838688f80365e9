"""Run the four guiseq stages the way a user does, through ``guiseq.cli.main``.

Importing this module puts the checkout's ``src/`` first on ``sys.path`` and
refuses a ``guiseq`` imported from anywhere else, so the benchmark always
measures the source tree it ships with.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import guiseq  # noqa: E402
from guiseq.cli import main as cli_main  # noqa: E402

if Path(guiseq.__file__).resolve().parent != SRC / "guiseq":
    raise ImportError(f"guiseq was imported from {guiseq.__file__}, not from {SRC}")

STAGES = ("rip", "edg", "gen", "replay")
# replay exits 1 because every benchmark model has reachable crashes.
EXPECTED_EXIT = {"rip": 0, "edg": 0, "gen": 0, "replay": 1}
ARTIFACTS = ("efg.json", "edg.json", "seqs.jsonl", "report.json")


@dataclass
class PipelineRun:
    """Wall time and exit code of each stage, and what went wrong."""

    seconds: dict[str, float] = field(default_factory=dict)
    exit_codes: dict[str, int] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)

    @property
    def total(self) -> float:
        return sum(self.seconds.values())


def stage_argv(stage: str, app: Path, ir: Path, config: str, out: Path) -> list[str]:
    """Command line of one stage; every file it writes lands in ``out``."""
    efg, edg, seqs, report = (str(out / name) for name in ARTIFACTS)
    return {
        "rip": ["rip", "--model", str(app), "--out", efg],
        "edg": ["edg", "--ir", str(ir), "--efg", efg, "--out", edg],
        "gen": ["gen", "--config", config, "--efg", efg, "--edg", edg, "--out", seqs],
        "replay": ["replay", "--model", str(app), "--sequences", seqs, "--report", report],
    }[stage]


def run_pipeline(
    app: Path, ir: Path, config: str, out: Path, before_stage=None
) -> PipelineRun:
    """Run rip, edg, gen and replay serially, timing each ``main`` call.

    Console output is captured so the benchmark's own report stays readable;
    it is kept in the error text of any stage that misbehaves.
    ``before_stage(stage)`` is called outside the timed region.
    """
    out.mkdir(parents=True, exist_ok=True)
    run = PipelineRun()
    for stage in STAGES:
        argv = stage_argv(stage, app, ir, config, out)
        if before_stage is not None:
            before_stage(stage)
        sink = io.StringIO()
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = cli_main(argv)
        except SystemExit as exc:  # argparse rejected the command line
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crash in a stage is a failed operation
            code = None
            run.errors.append(f"{stage}: {type(exc).__name__}: {exc}")
        run.seconds[stage] = perf_counter() - start
        if code is not None:
            run.exit_codes[stage] = code
            if code != EXPECTED_EXIT[stage]:
                run.errors.append(
                    f"{stage}: exit {code}, expected {EXPECTED_EXIT[stage]}: "
                    + sink.getvalue().strip()[-500:]
                )
    return run


def artifact_hashes(out: Path) -> dict[str, str]:
    """SHA-256 of each pipeline artifact; a missing file hashes as ``missing``."""
    hashes = {}
    for name in ARTIFACTS:
        path = out / name
        hashes[name] = hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else "missing"
    return hashes
