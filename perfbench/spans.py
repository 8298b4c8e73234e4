"""Spans around the public functions of qmm, recorded from outside the package.

`install` wraps each function named in SPANS and rebinds the wrapper
everywhere a loaded qmm module holds the original: the defining module,
the package re-exports, `from ... import` copies such as
`partition.quartic_r_sequence` and `cli.quartic_r_sequence`, and
module-level dicts such as `acceptance.CRITERIA`.  Spans stay in memory
until `write_jsonl` is called at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from time import perf_counter

SPANS = {
    "acceptance": tuple(f"check_{i}" for i in range(1, 14)),
    "cli": ("main",),
    "counting": ("count_row_sums",),
    "asymcount": ("asymptotic_count",),
    "polytope": ("mc_volume", "mc_volume_peel", "exact_volume_n4"),
    "partition": ("z_mc_matrix", "z_mc_eigen", "hciz_haar_mc2", "z_free"),
    "orthopoly": ("quartic_r_sequence", "u_coefficients", "gamma_quarter_det"),
    "detkit": ("exp_det_factorization", "beta_det", "shifted_factorial_det"),
    "quadrature": ("pearcey_direct", "pearcey_saddle"),
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in SPANS.items() for fn in fns)

# Samplers whose `samples` argument gives a throughput.
SAMPLERS = (
    "polytope.mc_volume",
    "polytope.mc_volume_peel",
    "partition.z_mc_matrix",
    "partition.z_mc_eigen",
    "partition.hciz_haar_mc2",
)


class Recorder:
    """In-memory span list: [name, start, end, parent index, run id, samples]."""

    def __init__(self):
        self.spans: list[list] = []
        self.run_id: str | None = None
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        bind = inspect.signature(fn).bind if name in SAMPLERS else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            samples = bind(*args, **kwargs).arguments.get("samples") if bind else None
            idx = len(spans)
            rec = [name, perf_counter(), None, stack[-1] if stack else None, self.run_id, samples]
            spans.append(rec)
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()

        return traced

    def summarize(self, run_id: str) -> dict[str, dict]:
        """Per span name: calls, busy_s (inclusive), self_s and samples for one run."""
        child_time: dict[int, float] = {}
        for rec in self.spans:
            if rec[4] == run_id and rec[3] is not None:
                child_time[rec[3]] = child_time.get(rec[3], 0.0) + rec[2] - rec[1]
        out = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "samples": 0} for name in SPAN_NAMES}
        for idx, (name, start, end, _parent, rid, samples) in enumerate(self.spans):
            if rid != run_id:
                continue
            row = out[name]
            row["calls"] += 1
            row["busy_s"] += end - start
            row["self_s"] += end - start - child_time.get(idx, 0.0)
            row["samples"] += samples or 0
        return out

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as fh:
            for idx, (name, start, end, parent, rid, samples) in enumerate(self.spans):
                row = {"id": idx, "name": name, "start": start, "end": end,
                       "parent": parent, "run": rid}
                if samples is not None:
                    row["samples"] = samples
                fh.write(json.dumps(row) + "\n")


def install(recorder: Recorder) -> list[str]:
    """Wrap every span function at every binding; return the span names not found."""
    for mod in SPANS:
        importlib.import_module(f"qmm.{mod}")
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "qmm" or name.startswith("qmm."))]
    missing = []
    for mod, fns in SPANS.items():
        home = sys.modules[f"qmm.{mod}"]
        for fn in fns:
            orig = getattr(home, fn, None)
            if orig is None:
                missing.append(f"{mod}.{fn}")
                continue
            traced = recorder.wrap(f"{mod}.{fn}", orig)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, traced)
                    elif isinstance(val, dict):
                        for dkey, dval in list(val.items()):
                            if dval is orig:
                                val[dkey] = traced
    return missing
