"""Run one workload in this (fresh) interpreter and print a JSON report.

Usage: python3 perfbench/child.py --workload W --seed N --seconds S --trace 0|1 [--spans-out FILE]

One closed-loop caller: each operation starts only after the previous one
returned.  The untimed oracle runs first, then timed passes over the
workload's operation list repeat while the next one should still end
within --seconds (at least one pass).  With --trace 1 the spans are installed after the oracle, so
only the timed passes are traced, and they are written to --spans-out as JSON
lines when the run ends.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import qmm  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

if Path(qmm.__file__).resolve().parent != ROOT / "src" / "qmm":
    sys.exit(f"error: imported qmm from {qmm.__file__}, not from {ROOT / 'src'}")

MAX_REASONS = 20


def environment() -> dict:
    import mpmath
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = {k: os.environ.get(k, "unset (library default)")
               for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    return {"numpy": np.__version__, "scipy": scipy.__version__, "mpmath": mpmath.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": threads}


def run(args) -> dict:
    wl = workloads.build(args.workload, args.seed)
    reasons: list[str] = []
    attempted = failed = 0
    for name, fn in wl.oracle:
        attempted += 1
        try:
            reason = fn()
        except Exception as exc:  # an oracle op that raises is a failed operation
            reason = f"raised {exc!r}"
        if reason:
            failed += 1
            reasons.append(f"{name}: {reason}")

    recorder = spans.Recorder() if args.trace else None
    missing = spans.install(recorder) if recorder else []
    walls: list[float] = []
    op_times: dict[str, list[float]] = {name: [] for name, _ in wl.ops}
    span_passes = []
    first: dict[str, str] = {}
    start = perf_counter()
    # another pass only if it should still end within --seconds
    while not walls or perf_counter() - start + walls[-1] <= args.seconds:
        run_id = f"pass{len(walls)}"
        if recorder:
            recorder.run_id = run_id
        out, bad = {}, {}
        t_pass = perf_counter()
        for name, fn in wl.ops:
            t_op = perf_counter()
            try:
                out[name] = fn()
            except Exception as exc:  # counted as a failed operation, the loop goes on
                bad[name] = f"raised {exc!r}"
            op_times[name].append(perf_counter() - t_op)
        walls.append(perf_counter() - t_pass)
        if recorder:
            recorder.run_id = f"{run_id}-check"  # oracle calls stay out of the pass's spans
        if not bad:
            try:
                bad = wl.check(out)
            except Exception as exc:
                bad = {name: f"check raised {exc!r}" for name, _ in wl.ops}
        for name, value in out.items():
            text = repr(value)
            if first.setdefault(name, text) != text and name not in bad:
                bad[name] = f"output differs from pass 0: {text}"
        attempted += len(wl.ops)
        failed += len(bad)
        reasons.extend(f"{run_id} {name}: {why}" for name, why in bad.items())
        if recorder:
            span_passes.append(recorder.summarize(run_id))
    if recorder and args.spans_out:
        recorder.write_jsonl(args.spans_out)
    return {
        "walls": walls,
        "op_times": op_times,
        "attempted": attempted,
        "failed": failed,
        "reasons": reasons[:MAX_REASONS],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "span_passes": span_passes,
        "missing_spans": missing,
        "qmm_file": qmm.__file__,
        "environment": environment(),
    }


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out")
    print(json.dumps(run(parser.parse_args())))


if __name__ == "__main__":
    main()
