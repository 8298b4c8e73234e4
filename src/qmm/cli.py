"""Command-line surface: every module reachable with reproducible output.

Output formats: text (default), json (sorted keys, deterministic byte
stream for identical argv+config), csv (header row).  Exit codes: 0 ok /
all checks pass, 1 numerical failure, 2 usage error or rejected input.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys

import mpmath as mp

from . import asymcount, counting, detkit, partition, polytope, quadrature
from .acceptance import SUITES, run_acceptance
from .config import OUTPUT_FORMATS, RunConfig, load_config
from .orthopoly import quartic_r_sequence, u_coefficients


def _emit(payload: dict | list[dict], fmt: str) -> str:
    """payload as JSON, CSV or (a dict only) text; a list of dicts with the
    same keys is one JSON array or one CSV row per dict."""
    rows = payload if isinstance(payload, list) else [payload]
    if fmt == "json":
        # JSON has no inf or nan: an overflowed value becomes null
        rows = [{k: None if isinstance(v, float) and not math.isfinite(v) else v
                 for k, v in row.items()} for row in rows]
        out = rows if isinstance(payload, list) else rows[0]
        return json.dumps(out, sort_keys=True, separators=(",", ":"))
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        keys = sorted(rows[0])
        writer.writerow(keys)
        writer.writerows([row[k] for k in keys] for row in rows)
        return buf.getvalue().rstrip("\n")
    return "\n".join(f"{k} = {payload[k]}" for k in sorted(payload))


def _parse_list(raw: str, kind):
    try:
        return tuple(kind(v) for v in raw.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated {kind.__name__}s, got {raw!r}")


def _parse_floats(raw: str) -> tuple[float, ...]:
    return _parse_list(raw, float)


def _parse_ints(raw: str) -> tuple[int, ...]:
    return _parse_list(raw, int)


def cmd_count(args, cfg: RunConfig) -> tuple[int, str]:
    spec = counting.RowSumSpec(args.n, args.t)
    if args.total:
        value = counting.count_total(args.n, spec.x)
    else:
        value = counting.count_row_sums(spec, state_cap=cfg.state_cap)
    if cfg.output_format == "text":
        return 0, str(value)
    t = ",".join(map(str, args.t))
    return 0, _emit({"n": args.n, "t": t, "count": str(value)}, cfg.output_format)


def cmd_asym(args, cfg: RunConfig) -> tuple[int, str]:
    spec = counting.RowSumSpec(args.n, args.t)
    res = asymcount.asymptotic_count(spec, lam=args.lam, omega=args.omega)
    payload = {
        "log_value": res.value.log_abs,
        "value": res.value.value,
        "lambda": res.lam,
        "flagged": res.flagged,
    }
    if args.exact:
        exact = counting.count_row_sums(spec, state_cap=cfg.state_cap)
        payload["exact"] = str(exact)
        # a zero count (odd total) makes the ratio inf, which JSON writes as null
        payload["ratio"] = math.exp(res.value.log_abs - math.log(exact)) if exact else math.inf
    return 0, _emit(payload, cfg.output_format)


def cmd_volume(args, cfg: RunConfig) -> tuple[int, str]:
    spec = polytope.DiagonalSpec(len(args.h), args.h)
    payload: dict = {"n": spec.n, "chi": spec.chi}
    if spec.n == 3:
        payload["exact"] = polytope.exact_volume_n3(spec)
    elif spec.n == 4:
        payload["exact"] = polytope.exact_volume_n4(spec)
    if spec.chi < spec.n:
        payload["asymptotic"] = polytope.asymptotic_volume(spec).value
        payload["applicability_margin"] = polytope.applicability_margin(spec)
    if args.mc and spec.n >= 4:
        est, se = polytope.mc_volume(spec, cfg.mc_samples, cfg.seed)
        payload["mc"] = est
        payload["mc_std_error"] = se
    return 0, _emit(payload, cfg.output_format)


def cmd_orthopoly(args, cfg: RunConfig) -> tuple[int, str]:
    table = quartic_r_sequence(args.n)
    payload = {f"R_{m}": table.r[m] for m in range(1, args.n + 1)}
    payload.update({f"h_{m}": table.h[m] for m in range(0, min(args.n, 6) + 1)})
    if args.u:
        umat = u_coefficients(args.n)
        for m in range(args.n + 1):
            for k in range(m + 1):
                payload[f"U_{m}_{k}"] = umat[m, k]
    return 0, _emit(payload, cfg.output_format)


def cmd_det(args, cfg: RunConfig) -> tuple[int, str]:
    if args.kind == "beta":
        val = detkit.beta_det(args.n)
        return 0, _emit({"n": args.n, "det": str(val)}, cfg.output_format)
    if args.kind == "shifted-factorial":
        val = detkit.shifted_factorial_det(args.n)
        return 0, _emit({"n": args.n, "det": str(val)}, cfg.output_format)
    if args.kind == "exp-kernel":
        nodes = [(k + 1) * args.n**-1.75 for k in range(args.n)]
        exact, fact, window = detkit.exp_det_factorization(nodes, nodes, 1.0)
        return 0, _emit(
            {"n": args.n, "exact": mp.nstr(exact, 15), "factored": mp.nstr(fact, 15),
             "ratio": float(exact / fact), "in_window": window},
            cfg.output_format,
        )
    return 2, "unknown determinant kind"


def cmd_pearcey(args, cfg: RunConfig) -> tuple[int, str]:
    direct = quadrature.pearcey_direct(args.a, args.b, args.k)
    saddle = quadrature.pearcey_saddle(args.a, args.b, args.k)
    region = quadrature.pearcey_region(args.a, args.b)
    payload = {
        "direct": abs(direct),
        "saddle": abs(saddle) if saddle is not None else None,
        "ratio": (abs(saddle) / abs(direct)) if saddle is not None else None,
        "region": region.region,
    }
    return 0, _emit(payload, cfg.output_format)


def cmd_partition(args, cfg: RunConfig) -> tuple[int, str]:
    spec = partition.KineticSpectrum(len(args.e), args.e, args.g)
    payload = {
        "log_z_free": partition.z_free(spec).log_abs,
        "z_free": partition.z_free(spec).value,
    }
    if spec.n >= 2:
        payload["log_z_weak"] = partition.z_weak(spec).log_abs
    if args.zero_kinetic and spec.g > 0:
        payload["log_z_zero_kinetic"] = partition.z_zero_kinetic(spec.n, spec.g).log_abs
    if args.mc:
        est, se = partition.z_mc_matrix(spec, cfg.mc_samples, cfg.seed)
        payload["mc"] = est
        payload["mc_std_error"] = se
    return 0, _emit(payload, cfg.output_format)


def cmd_verify(args, cfg: RunConfig) -> tuple[int, str]:
    results = run_acceptance(cfg, suite=args.suite)
    n_pass = sum(r.passed for r in results)
    code = 0 if n_pass == len(results) else 1
    if cfg.output_format != "text":
        return code, _emit([r.__dict__ for r in results], cfg.output_format)
    width = max(len(r.clause) for r in results)
    lines = [f"[{r.criterion:>2}] {r.clause:<{width}}  {r.status:<17} "
             f"reference: {r.reference} | {r.detail}" for r in results]
    lines.append(f"{n_pass}/{len(results)} clauses passed")
    return code, "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmm",
        description="exact/asymptotic enumeration, polytope volumes, orthogonal "
        "polynomials, saddle quadrature and matrix-model partition functions",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key=value config file")
    common.add_argument("--seed", type=int, help="override RNG seed (default 42)")
    common.add_argument("--samples", type=int, help="override MC sample count")
    common.add_argument("--format", choices=OUTPUT_FORMATS, help="output format")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kwargs):
        return sub.add_parser(name, parents=[common], **kwargs)

    p = add_parser("count", help="exact matrix count for given row sums")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=_parse_ints, required=True, help="comma-separated row sums")
    p.add_argument("--total", action="store_true", help="total count at this entry sum")

    p = add_parser("asym", help="asymptotic count and validity diagnostics")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=_parse_ints, required=True)
    p.add_argument("--lam", type=float, default=None)
    p.add_argument("--omega", type=float, default=asymcount.DEFAULT_OMEGA)
    p.add_argument("--exact", action="store_true", help="also run the exact oracle")

    p = add_parser("volume", help="diagonal subpolytope volumes")
    p.add_argument("--h", type=_parse_floats, required=True,
                   help="comma-separated diagonal entries")
    p.add_argument("--mc", action="store_true")

    p = add_parser("orthopoly", help="quartic-weight recursion tables")
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--u", action="store_true", help="include coefficient table")

    p = add_parser("det", help="determinant identities")
    p.add_argument("--kind", choices=("beta", "shifted-factorial", "exp-kernel"),
                   required=True)
    p.add_argument("--n", type=int, required=True)

    p = add_parser("pearcey", help="quartic-phase integral, direct vs saddle")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--k", type=int, default=0)

    p = add_parser("partition", help="matrix-model partition functions")
    p.add_argument("--e", type=_parse_floats, required=True,
                   help="comma-separated kinetic eigenvalues")
    p.add_argument("--g", type=float, default=0.0)
    p.add_argument("--mc", action="store_true")
    p.add_argument("--zero-kinetic", action="store_true")

    p = add_parser("verify", help="run the acceptance suite")
    p.add_argument("--suite", choices=sorted(SUITES), default=None)

    return parser


COMMANDS = {
    "count": cmd_count,
    "asym": cmd_asym,
    "volume": cmd_volume,
    "orthopoly": cmd_orthopoly,
    "det": cmd_det,
    "pearcey": cmd_pearcey,
    "partition": cmd_partition,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        cfg = load_config(args.config)
    except (OSError, ValueError) as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 2
    cfg = cfg.override(seed=args.seed, mc_samples=args.samples, output_format=args.format)
    if cfg.mc_samples < 1:
        print(f"error: sample count (--samples, mc_samples) must be >= 1, got {cfg.mc_samples}",
              file=sys.stderr)
        return 2
    try:
        code, text = COMMANDS[args.command](args, cfg)
    except ValueError as exc:  # the library rejected its input
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, counting.InstanceTooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone; stdout now points at devnull, so the flush at
        # interpreter shutdown has nowhere to fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
