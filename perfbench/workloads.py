"""The four workloads: inputs made from the benchmark seed, the timed
operation list, and the oracle checks on the outputs.

A workload is built by `build(name, seed)` after `import qmm`.  It holds
  ops     -- (name, thunk) pairs, run in order once per timed pass;
  check   -- outputs of one pass -> {op name: reason} for each wrong output;
  oracle  -- (name, thunk) pairs run once, untimed; a thunk returns None
             when its check holds and a reason otherwise.
qmm only ever sees the generated inputs; the seed stays here.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import math
import random
import re
from dataclasses import dataclass, field
from typing import Any, Callable

from qmm import asymcount, cli, counting, partition, polytope

# Published tables, copied here so that the oracle does not move with the code.
N5_COUNTS = [
    ((6, 6, 6, 7, 7), 795), ((5, 6, 6, 7, 8), 679), ((5, 5, 6, 8, 8), 580),
    ((5, 5, 5, 7, 10), 381), ((5, 5, 5, 6, 11), 252), ((4, 5, 5, 5, 13), 56),
    ((3, 3, 3, 3, 4), 72), ((2, 3, 3, 4, 4), 58), ((2, 3, 3, 3, 5), 46),
    ((2, 2, 4, 4, 4), 46), ((2, 2, 3, 4, 5), 37), ((2, 2, 3, 3, 6), 21),
    ((2, 2, 2, 5, 5), 29), ((12, 13, 13, 13, 13), 13818),
]
UNIFORM_COUNTS_3SF = {6: 3.69e4, 7: 5.42e7, 8: 1.10e11}
UNIFORM_RATIOS = {6: 0.906, 7: 0.928}  # asymptotic/exact, printed to 3 decimals
UNIFORM_TABLE = ((6, 6), (7, 8), (8, 9), (9, 10))  # (N, t)

# Small (n, x) at which the sum over all row-sum vectors is checked.
IDENTITY_SIZES = ((5, 16), (6, 12), (5, 20), (5, 18), (6, 10), (4, 24))

# Verdicts `qmm verify` must give: every clause passes except these three
# documented ones (criterion, word in the clause), each "FAIL (documented)".
KNOWN_ISSUES = ((7, "band"), (9, "n=7"), (10, "ratio"))
# One text line per clause: "[ n] clause  STATUS  reference: ... | detail".
VERDICT = re.compile(r"^\[\s*(\d+)\] (.+?)\s+(PASS|FAIL \(documented\)|FAIL)\s+reference: ",
                     re.MULTILINE)

# The N=9, t=10 uniform instance needs about 2.4e9 a-priori states.
STATE_CAP = 10**10

# count-skewed: row-sum deviations from mean 8 at N=7, one tuple per
# instance: every fourth (in sorted order) zero-sum tuple in [-3, 3] with
# max |d| = 3 and at least five distinct values.  All lie inside the
# asymptotic validity window.  The counter's work depends on the multiset
# only, so the seed permutes rows and instance order, and the cost stays
# fixed.  N=8 instances (about 1 s each) are left out: too few
# repetitions fit in a run for their timing to settle on a shared host.
SKEW_MEAN = 8
SKEW_DEVIATIONS = tuple(
    c for c in itertools.combinations_with_replacement(range(-3, 4), 7)
    if sum(c) == 0 and max(map(abs, c)) == 3 and len(set(c)) >= 5
)[::4]
# Exact counts from the independent counter in reference_counts.py.
SKEW_COUNTS = {
    (-3, -3, -2, 0, 2, 3, 3): 13153053,
    (-3, -3, -1, 1, 1, 2, 3): 17487355,
    (-3, -2, -2, 0, 2, 2, 3): 17993150,
    (-3, -2, -1, 0, 0, 3, 3): 19468727,
    (-3, -2, -1, 1, 1, 2, 2): 24174018,
    (-3, -2, 0, 1, 1, 1, 2): 27222605,
    (-3, -1, -1, 0, 1, 2, 2): 27608841,
    (-2, -2, -1, -1, 1, 2, 3): 25230926,
    (-2, -1, -1, 0, 0, 1, 3): 32411933,
}

# Short operations, so that a run repeats each one many times (see the
# wall_s note in NOTES.md).  The peel N=9 size matches ROADMAP's 40k.
MC_SAMPLES = {
    "mc_volume N=4": 1_000_000,
    "mc_volume N=5": 1_000_000,
    "mc_volume_peel N=5": 20_000,
    "mc_volume_peel N=9": 40_000,
    "z_mc_matrix N=3": 131_072,
    "z_mc_eigen N=3": 131_072,
    "z_mc_matrix N=4": 131_072,
    "z_mc_eigen N=4": 131_072,
    "hciz_haar_mc2": 1_000_000,
}
COUPLING = 0.1
MC_SIGMAS = 4.0


@dataclass
class Workload:
    ops: list[tuple[str, Callable[[], Any]]]
    check: Callable[[dict[str, Any]], dict[str, str]]
    oracle: list[tuple[str, Callable[[], str | None]]] = field(default_factory=list)


def build(name: str, seed: int) -> Workload:
    return BUILDERS[name](random.Random(seed))


# ---------------------------------------------------------------------------
# verify


def _verify(rng: random.Random) -> Workload:
    # `qmm verify` as users run it: text output at the default seed.  JSON
    # output raises at this commit, and at other seeds the statistical
    # clauses have a false-alarm rate (NOTES.md has both findings).
    argv = ["verify"]

    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        text = buf.getvalue()
        total = re.search(r"^\d+/(\d+) clauses passed$", text, re.MULTILINE)
        return code, VERDICT.findall(text), int(total.group(1)) if total else None

    def check(out):
        code, clauses, total = out["cli.verify"]
        failing = [(int(crit), clause, status) for crit, clause, status in clauses if status != "PASS"]
        expected = all(
            sum(crit == c and word in clause and status == "FAIL (documented)"
                for crit, clause, status in failing) == 1
            for c, word in KNOWN_ISSUES
        )
        if code != 1 or len(failing) != len(KNOWN_ISSUES) or not expected:
            return {"cli.verify": f"exit {code}, failing clauses {failing}"}
        if total != len(clauses) or {int(c[0]) for c in clauses} != set(range(1, 14)):
            return {"cli.verify": f"{len(clauses)} clause lines of {total}; not every criterion ran"}
        return {}

    return Workload(ops=[("cli.verify", run)], check=check)


# ---------------------------------------------------------------------------
# count-uniform and count-skewed


def _label(n: int, t) -> str:
    return f"N={n} t={','.join(map(str, t))}"


def _count_ops(instances):
    ops = []
    for n, t in instances:
        spec = counting.RowSumSpec(n, t)
        label = _label(n, t)
        ops.append((f"count {label}", lambda s=spec: counting.count_row_sums(s, state_cap=STATE_CAP)))
        ops.append((f"asym {label}", lambda s=spec: asymcount.asymptotic_count(s)))
    return ops


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


def _count_oracle(rng: random.Random):
    def tables():
        bad = [t for t, want in N5_COUNTS
               if counting.count_row_sums(counting.RowSumSpec(5, t)) != want]
        return f"N=5 table rows differ: {bad}" if bad else None

    n, x = rng.choice(IDENTITY_SIZES)

    def identity():
        got = sum(counting.count_row_sums(counting.RowSumSpec(n, t))
                  for t in _compositions(x, n))
        want = counting.count_total(n, x)
        return None if got == want else f"sum over row sums at ({n},{x}) = {got} != {want}"

    return [("N=5 tables", tables), (f"sum identity n={n} x={x}", identity)]


def _window_ok(res, n: int, t) -> str | None:
    lam = sum(t) / (n * (n - 1))
    inside = max(abs(tj - lam * (n - 1)) for tj in t) <= lam * n ** (0.5 + asymcount.DEFAULT_OMEGA)
    if res.flagged == inside:
        return f"validity flag {res.flagged} but inside={inside}"
    if not math.isfinite(res.value.log_abs):
        return "non-finite asymptotic count"
    return None


def _count_uniform(rng: random.Random) -> Workload:
    table = list(UNIFORM_TABLE)
    rng.shuffle(table)
    ops = _count_ops([(n, (t,) * n) for n, t in table])

    def check(out):
        bad = {}
        ratios = {}
        for n, t in UNIFORM_TABLE:
            label = _label(n, (t,) * n)
            exact, res = out[f"count {label}"], out[f"asym {label}"]
            ratios[n] = math.exp(res.value.log_abs - math.log(exact))
            if n in UNIFORM_COUNTS_3SF and float(f"{exact:.2e}") != UNIFORM_COUNTS_3SF[n]:
                bad[f"count {label}"] = f"{exact} is not {UNIFORM_COUNTS_3SF[n]:.3g}"
            if n in UNIFORM_RATIOS and abs(ratios[n] - UNIFORM_RATIOS[n]) > 0.010:
                bad[f"asym {label}"] = f"ratio {ratios[n]:.4f} vs {UNIFORM_RATIOS[n]}"
            reason = _window_ok(res, n, (t,) * n)
            if reason:
                bad[f"asym {label}"] = reason
        ordered = [ratios[n] for n, _ in UNIFORM_TABLE]
        if not all(a < b for a, b in zip(ordered, ordered[1:])) or ordered[-1] >= 1.0:
            n, t = UNIFORM_TABLE[-1]
            bad[f"asym {_label(n, (t,) * n)}"] = f"ratios not rising to 1: {ordered}"
        return bad

    return Workload(ops=ops, check=check, oracle=_count_oracle(rng))


def _count_skewed(rng: random.Random) -> Workload:
    rows = [(dev, tuple(SKEW_MEAN + d for d in rng.sample(dev, len(dev))))
            for dev in SKEW_DEVIATIONS]
    rng.shuffle(rows)
    ops = _count_ops([(len(t), t) for _, t in rows])

    def check(out):
        bad = {}
        for dev, t in rows:
            label = _label(len(t), t)
            reason = _window_ok(out[f"asym {label}"], len(t), t)
            if reason:
                bad[f"asym {label}"] = reason
            if out[f"count {label}"] != SKEW_COUNTS[dev]:
                bad[f"count {label}"] = f"{out[f'count {label}']} != {SKEW_COUNTS[dev]}"
        return bad

    return Workload(ops=ops, check=check, oracle=_count_oracle(rng))


# ---------------------------------------------------------------------------
# mc


def _near(rng: random.Random, centre: float, spread: float, k: int) -> tuple[float, ...]:
    return tuple(round(centre + rng.uniform(-spread, spread), 4) for _ in range(k))


def _mc(rng: random.Random) -> Workload:
    h4 = polytope.DiagonalSpec(4, _near(rng, 0.5, 0.1, 4))
    h5 = polytope.DiagonalSpec(5, _near(rng, 0.5, 0.05, 5))
    h9 = polytope.DiagonalSpec(9, _near(rng, 0.5, 0.03, 9))
    e3 = partition.KineticSpectrum(3, tuple(1.0 + 0.1 * j + rng.uniform(-0.03, 0.03)
                                            for j in range(3)), COUPLING)
    e4 = partition.KineticSpectrum(4, tuple(1.0 + 0.1 * j + rng.uniform(-0.03, 0.03)
                                            for j in range(4)), COUPLING)
    hx = (0.0, rng.uniform(0.5, 1.5))
    hy = (0.0, rng.uniform(0.5, 1.5))
    ht = rng.uniform(0.5, 1.5)
    seeds = {op: rng.randrange(2**31) for op in MC_SAMPLES}

    def sampler(op, module, fn, *args):
        # looked up at call time, so that a traced run sees the wrapped function
        return op, lambda: getattr(module, fn)(*args, MC_SAMPLES[op], seeds[op])

    ops = [
        sampler("mc_volume N=4", polytope, "mc_volume", h4),
        sampler("mc_volume N=5", polytope, "mc_volume", h5),
        sampler("mc_volume_peel N=5", polytope, "mc_volume_peel", h5),
        sampler("mc_volume_peel N=9", polytope, "mc_volume_peel", h9),
        sampler("z_mc_matrix N=3", partition, "z_mc_matrix", e3),
        sampler("z_mc_eigen N=3", partition, "z_mc_eigen", e3),
        sampler("z_mc_matrix N=4", partition, "z_mc_matrix", e4),
        sampler("z_mc_eigen N=4", partition, "z_mc_eigen", e4),
        sampler("hciz_haar_mc2", partition, "hciz_haar_mc2", hx, hy, ht),
    ]

    def agree(a, b):
        (ma, sa), (mb, sb) = a, b
        return abs(ma - mb) <= MC_SIGMAS * math.hypot(sa, sb)

    def check(out):
        exact4 = polytope.exact_volume_n4(h4)
        pairs = {
            "mc_volume N=4": (out["mc_volume N=4"], (exact4, 0.0)),
            "mc_volume_peel N=5": (out["mc_volume_peel N=5"], out["mc_volume N=5"]),
            "z_mc_matrix N=3": (out["z_mc_matrix N=3"], out["z_mc_eigen N=3"]),
            "z_mc_matrix N=4": (out["z_mc_matrix N=4"], out["z_mc_eigen N=4"]),
            "hciz_haar_mc2": (out["hciz_haar_mc2"], (partition.hciz_value(hx, hy, ht), 0.0)),
        }
        bad = {op: f"{a[0]:.6g} +- {a[1]:.2g} vs {b[0]:.6g} +- {b[1]:.2g}"
               for op, (a, b) in pairs.items() if not agree(a, b)}
        est9, se9 = out["mc_volume_peel N=9"]
        if not (est9 > 0.0 and se9 > 0.0):
            bad["mc_volume_peel N=9"] = f"estimate {est9} +- {se9}"
        return bad

    return Workload(ops=ops, check=check)


BUILDERS = {
    "verify": _verify,
    "count-uniform": _count_uniform,
    "count-skewed": _count_skewed,
    "mc": _mc,
}
