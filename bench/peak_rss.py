"""Run the four stages once in this fresh process; print its peak memory.

Usage: ``python3 bench/peak_rss.py APP IR CONFIG OUT_DIR``.  Prints one JSON
object with ``peak_rss_mb`` and the stage errors, if any.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path

import pipeline


def peak_kib() -> int:
    """High-water resident memory of this process's own address space.

    ``ru_maxrss`` is not used where ``VmHWM`` exists: on Linux it also
    counts the parent's memory at the moment the parent started this
    process.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(argv: list[str]) -> int:
    app, ir, config, out = argv
    run = pipeline.run_pipeline(Path(app), Path(ir), config, Path(out))
    print(json.dumps({"peak_rss_mb": peak_kib() / 1024, "errors": run.errors}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
