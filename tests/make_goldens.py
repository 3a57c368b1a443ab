"""Regenerate golden outputs from the current code.

    PYTHONPATH=src python tests/make_goldens.py NAME [NAME ...]

Each NAME is a key of ``GOLDEN_RUNS`` in test_cli.py.  Its run (seed 42,
``--check``) replaces the contents of tests/golden/NAME/.  A run that does
not exit 0 leaves its golden directory as it was and stops the script.
Regenerate a golden only when a change means to alter its bytes, and say
which columns moved and why.
"""

import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from test_cli import GOLDEN, GOLDEN_RUNS, run_golden  # noqa: E402


def main(names: list[str]) -> int:
    unknown = [name for name in names if name not in GOLDEN_RUNS]
    if not names or unknown:
        print(f"usage: make_goldens.py NAME...; NAME one of {', '.join(GOLDEN_RUNS)}",
              file=sys.stderr)
        return 1
    for name in names:
        with tempfile.TemporaryDirectory() as scratch:
            out = Path(scratch) / "out"
            code = run_golden(name, out, scratch)
            if code != 0:
                print(f"{name}: the run exited {code}; its golden is unchanged", file=sys.stderr)
                return code
            shutil.rmtree(GOLDEN / name)
            shutil.copytree(out, GOLDEN / name)
        print(f"wrote {GOLDEN / name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
