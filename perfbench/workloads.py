"""The benchmark's three workloads.

Each workload builds its inputs from the seed (setup), runs a short warm-up,
runs full passes of its computation through quncert's public functions, and
checks every pass's outputs against reference.py. An operation is one
checked result: a ladder, an overlap, one rung's solve or one tripartite
instance. It fails when it raises or, for an SDP, returns unconverged.

All calls go through the module objects (discretize.convergence_ladder, not
an imported name), so the tracer's patched bindings are the ones called.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

import checks
import reference
from quncert import discretize, gaussian, minmax, overlap, qstate, verify

log = logging.getLogger("perfbench")

NU = 1.5  # cosh(2r), r ~ 0.48: the EPR squeezing the paper's figures use


class Ops:
    """Counts attempted and failed operations of one pass."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except (ValueError, ArithmeticError):
            log.exception("operation %s failed", getattr(fn, "__name__", fn))
            self.failed += 1
            return None


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def rotated_epr(rng: np.random.Generator, **grid) -> qstate.GridWaveFunction:
    """EPR grid wavefunction with a seeded Haar rotation of the memory basis.

    Every quantity the workloads compute is invariant under a unitary on B,
    so the seed changes the inputs without changing what they should give.
    """
    psi = gaussian.epr_grid_wavefunction(NU, **grid)
    u = haar_unitary(psi.memory_dim, rng)
    return qstate.GridWaveFunction(psi.q0, psi.dq, psi.samples @ u.T)


# ---------------------------------------------------------------- epr-vn

POSITION_RUNGS = 6  # alpha = 1 .. 2^-6 on the 4096-point grid
MOMENTUM_RUNGS = 1  # alpha = 1, 1/2 on the 32768-point grid


@dataclass
class EprVnInputs:
    psi_q: qstate.GridWaveFunction
    psi_p: qstate.GridWaveFunction


def epr_vn_setup(seed: int) -> EprVnInputs:
    rng = np.random.default_rng(seed)
    psi_q = rotated_epr(rng, n_points=4096)
    psi_p = rotated_epr(rng, n_points=32768)
    return EprVnInputs(psi_q, psi_p)


def epr_vn_warm_up(inp: EprVnInputs) -> None:
    discretize.convergence_ladder(inp.psi_q, "position", "vn", n_max=1)
    discretize.convergence_ladder(inp.psi_q, "momentum", "vn", n_max=0)
    overlap.prolate_overlap(1.0, 1.0)


def epr_vn_pass(inp: EprVnInputs, ops: Ops) -> dict:
    position = ops.run(discretize.convergence_ladder, inp.psi_q, "position", "vn",
                       POSITION_RUNGS)
    momentum = ops.run(discretize.convergence_ladder, inp.psi_p, "momentum", "vn",
                       MOMENTUM_RUNGS)
    overlaps = {}
    for n in range(POSITION_RUNGS + 1):
        alpha = 2.0 ** -n
        overlaps[alpha] = ops.run(overlap.prolate_overlap, alpha, alpha)
    return {"position": position, "momentum": momentum, "overlaps": overlaps}


def epr_vn_reference(inp: EprVnInputs) -> dict:
    p = inp.psi_p
    alphas = [2.0 ** -n for n in range(POSITION_RUNGS + 1)]
    return {
        "h_q_given_b": reference.epr_h_q_given_b_bits(NU),
        "h_b": reference.eig_entropy_bits(reference.memory_marginal(p.dq, p.samples)),
        "h_p": {a: reference.momentum_cell_entropy_bits(p.q0, p.dq, p.samples, a)
                for a in alphas[:MOMENTUM_RUNGS + 1]},
        "lambda0": {a: reference.prolate_lambda0(a * a / 4.0) for a in alphas},
    }


def epr_vn_check(ref: dict, out: dict) -> list:
    res = []
    pos, mom = out["position"], out["momentum"]
    if pos is not None:
        res += checks.ladder_limit(pos.values, pos.extrapolated, ref["h_q_given_b"])
        res += checks.monotone("position", pos.values)
    if mom is not None:
        res += checks.monotone("momentum", mom.values)
        for alpha, value in mom.rows:
            res += checks.memory_sandwich(f"momentum[{alpha:g}]", value - math.log2(alpha),
                                          ref["h_p"][alpha], ref["h_b"])
    for alpha, result in out["overlaps"].items():
        if result is None:
            continue
        res += checks.overlap_value(f"overlap[{alpha:g}]", result.c, ref["lambda0"][alpha])
        if pos is not None and alpha in ref["h_p"]:
            h_q = dict(pos.rows)[alpha] - math.log2(alpha)
            res += checks.vn_relation(f"epr[{alpha:g}]", h_q, ref["h_p"][alpha], result.c)
    return res


# ---------------------------------------------------------------- epr-hmin

HMIN_MEMORY = 8
HMIN_ALPHAS = (4.0, 2.0)  # 9 and 17 cells
HMIN_WARM_UP_ALPHA = 8.0  # 5 cells, under a second


@dataclass
class EprHminInputs:
    psi: qstate.GridWaveFunction
    partitions: tuple
    warm_up: discretize.Partition


def epr_hmin_setup(seed: int) -> EprHminInputs:
    psi = rotated_epr(np.random.default_rng(seed), n_points=4096, memory_dim=HMIN_MEMORY)
    q = psi.grid
    parts = tuple(discretize.Partition.centered(a, q[0], q[-1]) for a in HMIN_ALPHAS)
    warm = discretize.Partition.centered(HMIN_WARM_UP_ALPHA, q[0], q[-1])
    return EprHminInputs(psi, parts, warm)


def _solve_rung(psi, part):
    cq = discretize.discretize_position(psi, part)
    return cq, minmax.guessing_probability(cq)


def epr_hmin_warm_up(inp: EprHminInputs) -> None:
    _solve_rung(inp.psi, inp.warm_up)


def epr_hmin_pass(inp: EprHminInputs, ops: Ops) -> dict:
    out = {}
    for part in inp.partitions:
        solved = ops.run(_solve_rung, inp.psi, part)
        if solved is not None and not solved[1].converged:
            ops.failed += 1
            solved = None
        out[part.alpha] = solved
    return out


def epr_hmin_reference(inp: EprHminInputs) -> dict:
    p = inp.psi
    ref = {}
    for part in inp.partitions:
        ops = reference.binned_position_cq(p.q0, p.dq, p.samples, part.alpha)
        ref[part.alpha] = (ops, reference.cond_vn_bits(list(ops.values())))
    return ref


def epr_hmin_check(ref: dict, out: dict) -> list:
    res = []
    for alpha, solved in out.items():
        if solved is None:
            continue
        cq, sdp = solved
        want, h_vn = ref[alpha]
        name = f"hmin[{alpha:g}]"
        res += checks.same_operators(name, {int(k): op for k, op in cq.outcomes}, want)
        ops = [want[int(k)] for k in cq.labels]
        res += checks.guessing_certificate(name, ops, sdp.value, sdp.dual_certificate,
                                           sdp.primal_povm.elements, sdp.converged)
        res += checks.hmin_below_vn(name, -math.log2(sdp.value), h_vn)
    return res


# ---------------------------------------------------------------- tripartite-minmax

DIMS = (3, 3, 3)
INSTANCES = 60  # per pass; the seed-to-seed spread of pass_s falls as 1/sqrt of this
TRIPARTITE_WARM_UP = 2


@dataclass
class TripartiteInputs:
    psis: list
    rhos: list
    e: object
    f: object


def tripartite_setup(seed: int) -> TripartiteInputs:
    n = int(np.prod(DIMS))
    psis = [verify.haar_state(n, np.random.default_rng(np.random.SeedSequence([seed, t])))
            for t in range(INSTANCES)]
    e, f = verify.mub_pair(DIMS[0])
    return TripartiteInputs(psis, [np.outer(v, v.conj()) for v in psis], e, f)


def _instance(rho, e, f):
    cq_xb = verify.measure_to_cq(rho, list(DIMS), e, keep=1)
    cq_yc = verify.measure_to_cq(rho, list(DIMS), f, keep=2)
    return (cq_xb, cq_yc, minmax.h_max_cq(cq_xb).value, minmax.h_min_cq(cq_yc).value)


def tripartite_warm_up(inp: TripartiteInputs) -> None:
    for rho in inp.rhos[:TRIPARTITE_WARM_UP]:
        _instance(rho, inp.e, inp.f)


def tripartite_pass(inp: TripartiteInputs, ops: Ops) -> list:
    return [ops.run(_instance, rho, inp.e, inp.f) for rho in inp.rhos]


def tripartite_reference(inp: TripartiteInputs) -> list:
    comp, fourier = reference.mub_vectors(DIMS[0])
    ref = []
    for psi in inp.psis:
        xb = reference.measured_cq(psi, DIMS, comp, keep=1)
        yc = reference.measured_cq(psi, DIMS, fourier, keep=2)
        ref.append((xb, yc, reference.cond_vn_bits(xb), reference.cond_vn_bits(yc),
                    np.array([np.real(np.trace(op)) for op in xb])))
    return ref


def tripartite_check(ref: list, out: list) -> list:
    res = []
    c = 1.0 / DIMS[0]  # overlap of mutually unbiased bases
    for t, (want, got) in enumerate(zip(ref, out)):
        if got is None:
            continue
        xb, yc, h_xb, h_yc, probs = want
        cq_xb, cq_yc, h_max, h_min = got
        name = f"instance[{t}]"
        res += checks.same_operators(name + ".xb", dict(enumerate(cq_xb.ops)), dict(enumerate(xb)))
        res += checks.same_operators(name + ".yc", dict(enumerate(cq_yc.ops)), dict(enumerate(yc)))
        res += checks.tripartite(name, h_max, h_min, h_xb, h_yc, probs, c)
    return res


@dataclass(frozen=True)
class Workload:
    name: str
    setup: object
    warm_up: object
    run_pass: object
    reference: object
    check: object


WORKLOADS = {w.name: w for w in (
    Workload("epr-vn", epr_vn_setup, epr_vn_warm_up, epr_vn_pass, epr_vn_reference,
             epr_vn_check),
    Workload("epr-hmin", epr_hmin_setup, epr_hmin_warm_up, epr_hmin_pass,
             epr_hmin_reference, epr_hmin_check),
    Workload("tripartite-minmax", tripartite_setup, tripartite_warm_up, tripartite_pass,
             tripartite_reference, tripartite_check),
)}
