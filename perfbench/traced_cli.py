"""Run ``pdwave.cli.main`` once with the tracer installed, then write its spans.

Usage: python traced_cli.py SPANS_PATH RUN_INDEX -- <pdwave arguments>
"""

from __future__ import annotations

import sys
from pathlib import Path

import tracer as tracing

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str]) -> int:
    spans_path, run_index, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit(__doc__)
    sys.path.insert(0, str(ROOT / "src"))
    import pdwave
    import pdwave.cli

    tracer = tracing.Tracer()
    tracer.install(pdwave)
    tracer.run = int(run_index)
    try:
        return tracer.call("run", pdwave.cli.main, (cli_args,))
    finally:
        tracing.dump(spans_path, tracer.records())


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
