"""Print the lines of ``src/`` that the tier-1 tests do not run.

Run from the repository root::

    python tests/line_coverage.py [pytest args...]

It runs pytest in this process under a ``sys.settrace`` line tracer (and
``threading.settrace`` for any thread), standard library only. Python
subprocesses the tests start are traced too: a ``sitecustomize`` module in a
temporary directory on ``PYTHONPATH`` starts the same tracer in each child and
writes its lines to that directory at exit.

For each file under ``src/`` it prints the executable lines that did not
run, minus :data:`ALLOWED`, and then pytest's exit status. It exits 1 if any
line is left, else with pytest's status. The tracer slows the suite about
twofold, and a test that bounds what ``tracemalloc`` sees may fail under it,
because the tracer's own allocations count; the untraced run is the gate.
"""

from __future__ import annotations

import atexit
import dis
import os
import sys
import tempfile
import threading
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: (path under src/, stripped source line) -> why that line never runs.
ALLOWED = {
    (
        "guiseq/graphs.py",
        "raise  # unreached while _name_wrong_typed_edge raises; else `violations` is unbound",
    ): "kept so that a _name_wrong_typed_edge that returns cannot fall through unbound",
}


def executable_lines(path: Path) -> set[int]:
    """The lines that start a bytecode instruction in the file's code objects."""
    lines: set[int] = set()
    stack = [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, line in dis.findlinestarts(code) if line)
        stack.extend(c for c in code.co_consts if isinstance(c, CodeType))
    return lines


class Tracer:
    """Line events of the frames whose code lives under one directory."""

    def __init__(self, src: str) -> None:
        self.prefix = src + os.sep
        self.seen: set[tuple[str, int]] = set()
        self.local: dict[str, object] = {}  # co_filename -> its line tracer, or None

    def __call__(self, frame, event, arg):
        name = frame.f_code.co_filename
        if name not in self.local:
            path = os.path.realpath(name)
            self.local[name] = self._lines_of(path) if path.startswith(self.prefix) else None
        return self.local[name]

    def _lines_of(self, path: str):
        seen = self.seen

        def tracer(frame, event, arg):
            if event == "line":
                seen.add((path, frame.f_lineno))
            return tracer

        return tracer

    def start(self) -> None:
        threading.settrace(self)
        sys.settrace(self)


def trace_child() -> None:
    """Trace this process and write its lines to the parent's directory at exit."""
    tracer = Tracer(os.environ["GUISEQ_LINE_TRACE_SRC"])
    out = Path(os.environ["GUISEQ_LINE_TRACE_DIR"], f"lines-{os.getpid()}.txt")
    atexit.register(
        lambda: out.write_text("".join(f"{name}\t{line}\n" for name, line in tracer.seen))
    )
    tracer.start()


def main(argv: list[str]) -> int:
    os.chdir(ROOT)
    src = str(SRC.resolve())
    with tempfile.TemporaryDirectory(prefix="line-coverage-") as tmp:
        Path(tmp, "sitecustomize.py").write_text(
            "import importlib.util\n"
            f"spec = importlib.util.spec_from_file_location('line_coverage', {__file__!r})\n"
            "module = importlib.util.module_from_spec(spec)\n"
            "spec.loader.exec_module(module)\n"
            "module.trace_child()\n"
        )
        os.environ["GUISEQ_LINE_TRACE_DIR"] = tmp
        os.environ["GUISEQ_LINE_TRACE_SRC"] = src
        os.environ["PYTHONPATH"] = os.pathsep.join(
            p for p in (tmp, os.environ.get("PYTHONPATH")) if p
        )
        sys.path.insert(0, src)
        tracer = Tracer(src)
        tracer.start()
        try:
            import pytest

            status = int(pytest.main(["-q", "--continue-on-collection-errors", *argv]))
        finally:
            sys.settrace(None)
            threading.settrace(None)
        seen = set(tracer.seen)
        for dump in Path(tmp).glob("lines-*.txt"):
            for row in dump.read_text().splitlines():
                name, line = row.split("\t")
                seen.add((name, int(line)))

    left = 0
    for path in sorted(Path(src).rglob("*.py")):
        rel = path.relative_to(src).as_posix()
        text = path.read_text().splitlines()
        ran = {line for name, line in seen if name == str(path)}
        missed = [
            n for n in sorted(executable_lines(path) - ran)
            if (rel, text[n - 1].strip()) not in ALLOWED
        ]
        for n in missed:
            print(f"src/{rel}:{n}: {text[n - 1].strip()}")
        left += len(missed)
    print(f"{left} unexecuted line(s) outside the allowlist; pytest exit status {status}")
    return 1 if left else status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
