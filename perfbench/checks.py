"""Correctness checks: program outputs against the reference computations
and against properties the methods must have.

Each function takes plain numbers and arrays and returns a list of Check
records, so the tests can feed it perturbed values.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

# bits; the tolerances quoted for the EPR ladder are the differences the
# closed form allows at the finest rung and after extrapolation
LADDER_TOL = 1e-3
LIMIT_TOL = 1e-4
OVERLAP_TOL = 1e-9
ENTROPY_TOL = 1e-9
SDP_TOL = 1e-7  # the solver's default tolerance; also the relation slack floor
PSD_TOL = 1e-9
COMPLETENESS_TOL = 1e-9
OPS_TOL = 1e-12
VALUE_TOL = 1e-10


class Check(NamedTuple):
    name: str
    ok: bool
    detail: str


def _check(name: str, ok, detail: str) -> Check:
    return Check(name, bool(ok), detail)


def ladder_limit(values, extrapolated: float, exact: float) -> list:
    """Finest rung and Aitken limit against the closed-form h(X|B)."""
    err_rung = abs(values[-1] - exact)
    err_limit = abs(extrapolated - exact)
    return [
        _check("ladder.finest_rung", err_rung <= LADDER_TOL,
               f"|{values[-1]:.9f} - {exact:.9f}| = {err_rung:.2e} <= {LADDER_TOL:g}"),
        _check("ladder.aitken_limit", err_limit <= LIMIT_TOL,
               f"|{extrapolated:.9f} - {exact:.9f}| = {err_limit:.2e} <= {LIMIT_TOL:g}"),
    ]


def monotone(name: str, values) -> list:
    steps = np.diff(np.asarray(values, dtype=float))
    worst = float(steps.max()) if steps.size else 0.0
    return [_check(f"{name}.monotone", worst <= 0.0, f"largest step {worst:.3e} <= 0")]


def memory_sandwich(name: str, h_cond: float, h_plain: float, h_memory: float) -> list:
    """H(X) - H(B) <= H(X|B) <= H(X)."""
    lo = h_plain - h_memory
    return [_check(f"{name}.memory_sandwich",
                   lo - ENTROPY_TOL <= h_cond <= h_plain + ENTROPY_TOL,
                   f"{lo:.9f} <= {h_cond:.9f} <= {h_plain:.9f}")]


def vn_relation(name: str, h_q_given_b: float, h_p: float, c: float) -> list:
    """H(Q_alpha|B) + H(P_alpha) >= -log2 c(alpha, alpha)."""
    lhs, rhs = h_q_given_b + h_p, -math.log2(c)
    return [_check(f"{name}.relation", lhs >= rhs - ENTROPY_TOL, f"{lhs:.6f} >= {rhs:.6f}")]


def overlap_value(name: str, c: float, lam0: float) -> list:
    err = abs(c - lam0)
    return [_check(f"{name}.prolate", err <= OVERLAP_TOL,
                   f"|c - lambda0| = {err:.2e} <= {OVERLAP_TOL:g}")]


def same_operators(name: str, got: dict, want: dict) -> list:
    """The program's conditional operators equal the reference ones, label
    by label."""
    if set(got) != set(want):
        return [_check(f"{name}.cq_operators", False,
                       f"labels {sorted(got)} != {sorted(want)}")]
    err = max(float(np.abs(got[k] - want[k]).max()) for k in want)
    return [_check(f"{name}.cq_operators", err <= OPS_TOL, f"max error {err:.2e} <= {OPS_TOL:g}")]


def guessing_certificate(name: str, ops, value: float, sigma: np.ndarray, povm,
                         converged: bool) -> list:
    """Verifies a guessing-probability certificate with numpy alone:
    sigma >= omega_x, the POVM is PSD and complete, its value is the
    reported one, and the dual bound tr sigma is within tolerance of it."""
    d = sigma.shape[0]
    sig = 0.5 * (sigma + sigma.conj().T)
    dual_slack = min(float(np.linalg.eigvalsh(sig - op).min()) for op in ops)
    povm_min = min(float(np.linalg.eigvalsh(0.5 * (e + e.conj().T)).min()) for e in povm)
    completeness = float(np.abs(sum(povm) - np.eye(d)).max())
    primal = float(sum(np.real(np.trace(op @ e)) for op, e in zip(ops, povm)))
    gap = float(np.real(np.trace(sig))) - value
    return [
        _check(f"{name}.dual_feasible", dual_slack >= -PSD_TOL,
               f"min eig(sigma - omega_x) = {dual_slack:.2e} >= {-PSD_TOL:g}"),
        _check(f"{name}.povm_psd", povm_min >= -PSD_TOL,
               f"min eig(E_x) = {povm_min:.2e} >= {-PSD_TOL:g}"),
        _check(f"{name}.povm_complete", completeness <= COMPLETENESS_TOL,
               f"|sum E_x - 1| = {completeness:.2e} <= {COMPLETENESS_TOL:g}"),
        _check(f"{name}.primal_value", abs(primal - value) <= VALUE_TOL,
               f"sum tr omega_x E_x = {primal:.15f}, value {value:.15f}"),
        _check(f"{name}.gap", -PSD_TOL <= gap <= SDP_TOL and converged,
               f"tr sigma - value = {gap:.2e} in [{-PSD_TOL:g}, {SDP_TOL:g}], converged={converged}"),
    ]


def hmin_below_vn(name: str, h_min: float, h_vn: float) -> list:
    return [_check(f"{name}.hmin_le_h", h_min <= h_vn + SDP_TOL,
                   f"H_min {h_min:.9f} <= H {h_vn:.9f}")]


def tripartite(name: str, h_max_xb: float, h_min_yc: float, h_xb: float, h_yc: float,
               probs_x, c: float) -> list:
    """H_max(X|B) + H_min(Y|C) >= -log2 c, H_min <= H <= H_max, and
    H_max(X|B) <= 2 log2 sum_x sqrt(p_x)."""
    slack = h_max_xb + h_min_yc + math.log2(c)
    classical = 2.0 * math.log2(float(np.sum(np.sqrt(np.clip(probs_x, 0.0, None)))))
    return [
        _check(f"{name}.relation", slack >= -SDP_TOL, f"slack {slack:.3e} >= {-SDP_TOL:g}"),
        _check(f"{name}.hmin_le_h", h_min_yc <= h_yc + SDP_TOL,
               f"H_min(Y|C) {h_min_yc:.9f} <= H(Y|C) {h_yc:.9f}"),
        _check(f"{name}.h_le_hmax", h_xb <= h_max_xb + SDP_TOL,
               f"H(X|B) {h_xb:.9f} <= H_max(X|B) {h_max_xb:.9f}"),
        _check(f"{name}.hmax_le_classical", h_max_xb <= classical + SDP_TOL,
               f"H_max(X|B) {h_max_xb:.9f} <= {classical:.9f}"),
    ]
