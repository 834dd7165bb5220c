"""Command-line front end.

Subcommands: overlap, epr-gap, ladder, entropy, verify. Outputs are written
atomically (temp file + rename), carry a header comment echoing the full
configuration and the log base, and use 17 significant digits so figure
regressions diff numerically rather than textually. Identical configurations
(including seeds) produce byte-identical bodies.

Exit codes: 0 success; 1 solver failure (a result not converged, or a
verify report that fails); 2 validation error (every ValueError raised
while checking arguments or input files).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from . import discretize, entropy as entropy_mod, gaussian, minmax, overlap as overlap_mod, verify
from .serialize import atomic_write, load_state
from .qstate import CQState, DensityMatrix, GridWaveFunction

# each point of an overlap sweep is one Nystrom solve
MAX_SWEEP_POINTS = 1000


def _header(args: argparse.Namespace, base: str) -> str:
    echo = " ".join(f"{k}={v}" for k, v in sorted(vars(args).items())
                    if k not in ("func", "csv", "json") and v is not None)
    return (f"# quncert {__version__}\n"
            f"# config: {echo}\n"
            f"# base: {base}\n")


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _emit(args, header: str, lines) -> None:
    text = header + "\n".join(lines) + "\n"
    path = getattr(args, "csv", None) or getattr(args, "json", None)
    if path:
        atomic_write(path, text)
        print(f"wrote {path}")
    else:
        sys.stdout.write(text)


def _emit_json(args, base: str, obj) -> None:
    """obj as one line of sorted JSON: after the header in the --json file,
    alone on stdout."""
    _emit(args, _header(args, base) if args.json else "", [json.dumps(obj, sort_keys=True)])


def _parse_sweep(spec: str):
    """The deltas of a log:lo:hi:n or lin:lo:hi:n sweep, once checked that
    both ends are positive and finite and that 1 <= n <= MAX_SWEEP_POINTS."""
    try:
        kind, lo, hi, n = spec.split(":")
        lo, hi, n = float(lo), float(hi), int(n)
    except ValueError as exc:
        raise ValueError(f"bad sweep spec {spec!r}: expected log:lo:hi:n") from exc
    if n < 1:
        raise ValueError(f"sweep count n must be at least 1, got {n}")
    if n > MAX_SWEEP_POINTS:
        raise ValueError(f"sweep count n must be at most {MAX_SWEEP_POINTS}, got {n}")
    if not (0.0 < lo < math.inf and 0.0 < hi < math.inf):
        raise ValueError(f"sweep ends must be positive and finite, got {lo} and {hi} "
                         f"in {spec!r}")
    if kind == "log":
        return np.geomspace(lo, hi, n)
    if kind == "lin":
        return np.linspace(lo, hi, n)
    raise ValueError(f"unknown sweep kind {kind!r}")


def cmd_overlap(args) -> int:
    if args.sweep:
        if args.delta_q is not None or args.delta_p is not None:
            raise ValueError("--sweep sets both spacings and takes no --delta-q or --delta-p")
        points = [(d, d, d) for d in _parse_sweep(args.sweep)]
    else:
        if args.delta_q is None or args.delta_p is None:
            raise ValueError("need --delta-q and --delta-p (or --sweep)")
        points = [(math.sqrt(args.delta_q * args.delta_p), args.delta_q, args.delta_p)]
    rows = [(d, overlap_mod.prolate_overlap(dq, dp)) for d, dq, dp in points]
    lines = ["delta,c,neg_log2_c"]
    for d, res in rows:
        # 0.0 - keeps -log2(c) at +0.0 when c is 1
        lines.append(f"{_fmt(d)},{_fmt(res.c)},{_fmt(0.0 - math.log2(res.c))}")
    _emit(args, _header(args, "bits"), lines)
    failed = [(d, res.nystrom_order) for d, res in rows if not res.converged]
    for d, order in failed:
        print(f"error: overlap at delta={_fmt(d)} not converged at Nystrom order {order}",
              file=sys.stderr)
    return 1 if failed else 0


def cmd_epr_gap(args) -> int:
    rows = gaussian.fig2_table(args.r_min, args.r_max, args.n)
    lines = ["r,nu,gap_bits,gap_nats,log10_gap_nats"]
    for row in rows:
        log_gap = math.log10(row.gap_nats) if row.gap_nats > 0 else float("-inf")
        lines.append(",".join(_fmt(v) for v in
                              (row.r, row.nu, row.gap_bits, row.gap_nats, log_gap)))
    _emit(args, _header(args, "bits"), lines)
    return 0


def cmd_ladder(args) -> int:
    if args.input:
        psi = load_state(args.input)
        if not isinstance(psi, GridWaveFunction):
            raise ValueError("ladder input must be a wavefunction file")
    else:
        psi = discretize.gaussian_wavefunction(sigma=args.sigma, n_points=args.n_points)
    table = discretize.convergence_ladder(
        psi, which=args.which, kind=args.kind, n_max=args.n_max,
        alpha0=args.alpha0, base=args.base)
    lines = ["alpha,H_reg,entropy_kind,base"]
    for alpha, val in table.rows:
        lines.append(f"{_fmt(alpha)},{_fmt(val)},{args.kind},{args.base}")
    lines.append(f"# extrapolated_limit_estimate,{_fmt(table.extrapolated)}")
    _emit(args, _header(args, args.base), lines)
    for alpha in table.unconverged:
        print(f"error: {args.kind} rung at alpha={_fmt(alpha)} not converged "
              f"to tol={_fmt(minmax.DEFAULT_TOL)}", file=sys.stderr)
    return 0 if table.converged else 1


def cmd_entropy(args) -> int:
    state = load_state(args.state)
    out = {"base": args.base}
    if args.measure == "vn":
        if isinstance(state, CQState):
            out.update(entropy_mod.cond_vn_cq(state, base=args.base).to_json())
        elif isinstance(state, DensityMatrix):
            out.update(entropy_mod.von_neumann(state.mat, base=args.base).to_json())
        else:
            raise ValueError("vn needs a density or cq state file")
    else:
        if not isinstance(state, CQState):
            raise ValueError(f"{args.measure} needs a cq state file")
        kind = "min" if args.measure == "hmin" else "max"
        res = (minmax.guessing_probability if kind == "min" else minmax.decoupling_fidelity)(
            state, args.tol)
        out.update(minmax._entropy(kind, res, args.base).to_json())
        out.update({"gap": res.gap, "iterations": res.iterations, "converged": res.converged})
        if not res.converged:
            print(json.dumps(out, sort_keys=True), file=sys.stderr)
            return 1
    _emit_json(args, args.base, out)
    return 0


def _dims(args) -> dict:
    """--dims for a checker, or nothing so that it keeps its own default."""
    return {} if args.dims is None else {"dims": tuple(args.dims)}


def _no_dims(args) -> dict:
    """Nothing, once checked that --dims is not given to a checker with fixed
    dimensions."""
    if args.dims is not None:
        raise ValueError(f"{args.relation} runs on fixed qubit pairs and takes no --dims, "
                         f"got {args.dims}")
    return {}


_RELATIONS = {
    "minmax-tripartite": lambda a: verify.check_minmax_tripartite(
        trials=a.trials, seed=a.seed, **_dims(a)),
    "vn-tripartite": lambda a: verify.check_vn_tripartite(
        trials=a.trials, seed=a.seed, **_dims(a)),
    "frank-lieb": lambda a: verify.check_bipartite(
        trials=a.trials, seed=a.seed, variant="frank_lieb", **_dims(a)),
    "dilation": lambda a: verify.check_bipartite(
        trials=a.trials, seed=a.seed, variant="dilation", **_dims(a)),
    "operator-lemmas": lambda a: verify.check_operator_lemmas(a.trials, a.seed, **_no_dims(a)),
}


def cmd_verify(args) -> int:
    if args.relation not in _RELATIONS:
        raise ValueError(f"unknown relation {args.relation!r}; "
                         f"choose from {sorted(_RELATIONS)}")
    report = _RELATIONS[args.relation](args)
    _emit_json(args, "bits", report.to_json())
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="quncert",
                                description="Entropic uncertainty numerics")
    sub = p.add_subparsers(dest="command", required=True)

    ov = sub.add_parser("overlap", help="position-momentum overlap c(dq, dp)")
    ov.add_argument("--delta-q", type=float)
    ov.add_argument("--delta-p", type=float)
    ov.add_argument("--sweep", help="log:lo:hi:n sweep over delta = sqrt(dq dp)")
    ov.add_argument("--csv")
    ov.set_defaults(func=cmd_overlap)

    eg = sub.add_parser("epr-gap", help="uncertainty gap vs squeezing table")
    eg.add_argument("--r-min", type=float, default=0.0)
    eg.add_argument("--r-max", type=float, default=3.0)
    eg.add_argument("--n", type=int, default=61)
    eg.add_argument("--csv")
    eg.set_defaults(func=cmd_epr_gap)

    la = sub.add_parser("ladder", help="regularized discretization ladder")
    la.add_argument("--input", help="wavefunction JSON (default: Gaussian)")
    la.add_argument("--sigma", type=float, default=1.0)
    la.add_argument("--n-points", type=int, default=4096)
    la.add_argument("--which", default="position", choices=["position", "momentum"])
    la.add_argument("--kind", default="vn", choices=["vn", "min", "max"])
    la.add_argument("--n-max", type=int, default=8)
    la.add_argument("--alpha0", type=float, default=1.0)
    la.add_argument("--base", default="bits", choices=["bits", "nats"])
    la.add_argument("--csv")
    la.set_defaults(func=cmd_ladder)

    en = sub.add_parser("entropy", help="entropy of a state file")
    en.add_argument("--state", required=True)
    en.add_argument("--measure", required=True, choices=["vn", "hmin", "hmax"])
    en.add_argument("--base", default="bits", choices=["bits", "nats"])
    en.add_argument("--tol", type=float, default=minmax.DEFAULT_TOL)
    en.add_argument("--json")
    en.set_defaults(func=cmd_entropy)

    ve = sub.add_parser("verify", help="randomized inequality checkers")
    ve.add_argument("--relation", required=True)
    ve.add_argument("--dims", type=int, nargs="+",
                    help="subsystem dimensions (default: the checker's own)")
    ve.add_argument("--trials", type=int, default=50)
    ve.add_argument("--seed", type=int, default=0)
    ve.add_argument("--json")
    ve.set_defaults(func=cmd_verify)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    # StateFormatError and json.JSONDecodeError are ValueErrors
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
