"""The toricstab command line under the benchmark's tracer.

Used in place of ``python3 -m toricstab.cli`` by the traced run of the ``cli``
workload: same arguments, same stdout, stderr and exit code.  The counters of
this process and of its pool workers are merged into
``$BENCH_TRACE_DIR/trace.json``.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import tracer as tracing


def main() -> int:
    trace_dir = Path(os.environ["BENCH_TRACE_DIR"])
    tracer = tracing.install(child_dir=str(trace_dir))
    from toricstab.cli import main as cli_main

    try:
        code = cli_main(sys.argv[1:])
    except SystemExit as exc:  # --version and argument errors exit from argparse
        code = exc.code
    finally:
        parts = [tracer.snapshot()]
        for child in sorted(trace_dir.glob("child-*.json")):
            parts.append(json.loads(child.read_text(encoding="utf-8")))
        (trace_dir / "trace.json").write_text(json.dumps(tracing.merge(parts)), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
