"""Warm worker: imports pdwave once, then runs a deck of configs in a closed loop.

Run by ``run.py``; prints one JSON line with the set-up time, the timed
windows and, when tracing, the per-layer metrics.  Each run goes through
``pdwave.cli.main`` exactly as the command line would, minus the import.
"""

from __future__ import annotations

import argparse
import gc
import json
import shutil
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent


def closed_loop(deck, seconds, run_one, workdir: Path) -> dict:
    """Run deck items in order, one at a time, until ``seconds`` have passed."""
    samples, labels, busy, bytes_out = [], [], 0.0, 0
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        item = deck[attempted % len(deck)]
        out = workdir / f"run{attempted}"
        exit_code, elapsed = run_one(item, out, attempted)
        attempted += 1
        busy += elapsed
        problem = workloads.verify(item, out, exit_code)
        if problem is None:
            samples.append(elapsed)
            labels.append(item["label"])
            bytes_out += workloads.bytes_written(out)
        else:
            failed += 1
            print(f"perfbench: {item['label']} failed: {problem}", file=sys.stderr)
        shutil.rmtree(out, ignore_errors=True)
    return {"samples": samples, "labels": labels, "attempted": attempted, "failed": failed,
            "busy_s": busy, "bytes_written": bytes_out}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--deck", required=True, help="JSON list of deck items")
    parser.add_argument("--warmup", required=True, help="JSON deck item run before timing")
    parser.add_argument("--workdir", required=True, type=Path)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", default=None,
                        help="trace a second window and write its spans here")
    args = parser.parse_args(argv)
    deck = json.loads(Path(args.deck).read_text(encoding="utf-8"))
    warm = json.loads(Path(args.warmup).read_text(encoding="utf-8"))

    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import pdwave
    import pdwave.cli

    if not Path(pdwave.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: imported pdwave from {pdwave.__file__}", file=sys.stderr)
        return 2
    tracer = None

    def run_one(item, out, index):
        argv = ["--scenario", item["scenario"], "--config", item["config"],
                "--out", str(out), "--check"]
        gc.collect()
        t0 = time.perf_counter()
        try:
            if tracer is None:
                exit_code = pdwave.cli.main(argv)
            else:
                tracer.run = index
                exit_code = tracer.call("run", pdwave.cli.main, (argv,))
        except Exception as exc:  # a crash in pdwave is a failed run; keep going
            print(f"perfbench: {item['label']} raised {exc!r}", file=sys.stderr)
            exit_code = None
        return exit_code, time.perf_counter() - t0

    out = args.workdir / "warmup"
    exit_code, _ = run_one(warm, out, -1)
    warm_problem = workloads.verify(warm, out, exit_code)
    shutil.rmtree(out, ignore_errors=True)
    result = {"setup_s": time.perf_counter() - start, "warmup_problem": warm_problem,
              "windows": []}
    if not args.setup_only:
        half = args.seconds / 2 if args.spans else args.seconds
        result["windows"].append(closed_loop(deck, half, run_one, args.workdir))
        if args.spans:
            import tracer as tracing

            tracer = tracing.Tracer()
            tracer.install(pdwave)
            window = closed_loop(deck, half, run_one, args.workdir)
            spans = tracer.records()
            tracing.dump(args.spans, spans)
            window["layers"] = tracing.layer_metrics(spans, window["attempted"])
            result["windows"].append(window)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
