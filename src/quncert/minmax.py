"""Conditional min-entropy via the guessing-probability SDP and conditional
max-entropy via purification duality.

The guessing probability P_guess(X|B) = sup { sum_x tr[omega_B^x E_x] } over
POVMs equals, by strong duality, min { tr sigma : sigma >= omega_B^x for all
x }. Two outcomes use the Helstrom closed form directly (with the exact
optimal projective measurement and dual certificate); more outcomes are
solved by consensus ADMM on the dual with PSD-cone projections, followed by
pretty-good-measurement extraction and a fixed-point refinement of the primal
until the duality gap certifies the value.

The max-entropy H_max(X|B) = log F_dec(X|B) is computed through the duality
H_max(X|B) = -H_min(X|C), where C is the purifying system of the cq state;
H_min(X|C) for the (generally non-cq) marginal is the SDP
min { tr Y : 1_X (x) Y >= rho_XC }.

Both SDPs have the form min { tr Y : embed(Y) >= rho_j for every block j }
over a stack of blocks rho, with adjoint(embed(Y)) = k*Y: sigma against each
of the m outcome blocks, or 1_X (x) Y against the one block rho_XC. They
share one ADMM core that projects the whole stack onto the PSD cone with one
batched eigendecomposition per iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .entropy import EntropyValue, _as_base
from .qstate import CQState, POVM, clipped_eigh, herm, partial_trace, psd_funcm, purify_cq, trace_norm

DEFAULT_TOL = 1e-7
ADMM_MAX_ITER = 50_000
REFINE_MAX_ITER = 20_000

__all__ = [
    "SDPResult",
    "guessing_probability",
    "h_min_cq",
    "decoupling_fidelity",
    "h_max_cq",
    "cond_min_entropy_value",
]


@dataclass(frozen=True)
class SDPResult:
    value: float
    primal_povm: POVM
    dual_certificate: np.ndarray
    gap: float
    iterations: int
    converged: bool = True


class _Embedding(NamedTuple):
    """The map Y -> embed(Y) onto a stack of (s, n, n) blocks and its adjoint,
    with adjoint(embed(Y)) = k*Y."""

    embed: Callable
    adjoint: Callable
    k: int


def _cq_embedding(m: int) -> _Embedding:
    """sigma against each of m outcome blocks."""
    return _Embedding(lambda y: y[None], lambda s: s.sum(0), m)


def _tensor_embedding(dim_a: int, dim_c: int) -> _Embedding:
    """Y -> 1_A (x) Y as one block; the adjoint is the partial trace over A."""
    n = dim_a * dim_c
    eye = np.eye(dim_a)[:, None, :, None]
    shape = (dim_a, dim_c, dim_a, dim_c)
    return _Embedding(lambda y: (eye * y[:, None, :]).reshape(1, n, n),
                      lambda s: np.einsum("iaib->ab", s.reshape(shape)), dim_a)


def _check_tol(tol: float) -> None:
    if not 0.0 < tol <= 1e-3:
        raise ValueError("tol must be in (0, 1e-3]")


def _positive(vals: np.ndarray) -> np.ndarray:
    return np.clip(vals, 0.0, None)


def _inv_sqrt_on_support(mat: np.ndarray, rtol: float = 1e-12):
    """Returns (M^{-1/2} on supp M, projector onto the kernel)."""
    vals, vecs = clipped_eigh(mat)
    vals = np.clip(vals, 0.0, None)
    top = vals.max() if vals.size else 0.0
    on = vals > rtol * max(top, 1.0)
    inv = np.zeros_like(vals)
    inv[on] = 1.0 / np.sqrt(vals[on])
    inv_sqrt = (vecs * inv) @ vecs.conj().T
    kern = (vecs * (~on).astype(float)) @ vecs.conj().T
    return inv_sqrt, kern


def _feasible_shift(ops: np.ndarray, sigma: np.ndarray) -> float:
    """Smallest mu >= 0 with sigma + mu*I >= op for every op of the stack."""
    return max(0.0, float(np.linalg.eigvalsh(herm(ops - sigma)).max()))


def _primal_value(ops: np.ndarray, elements: np.ndarray) -> float:
    """sum_j tr[op_j E_j] over two stacks."""
    return float(np.einsum("xij,xji->", ops, elements).real)


def _pgm(ops: np.ndarray, emb: _Embedding) -> np.ndarray:
    """Pretty-good measurement of a stack of PSD blocks: each block is
    sandwiched by embed(T^{-1/2}), T = adjoint(ops), and the kernel of T is
    shared out, so that adjoint(result) = 1."""
    inv_sqrt, kern = _inv_sqrt_on_support(emb.adjoint(ops))
    w = emb.embed(inv_sqrt)
    return herm(w @ ops @ w) + emb.embed(kern) / emb.k


def _admm_dual(rho: np.ndarray, emb: _Embedding, tol: float, max_iter: int | None = None):
    """Consensus ADMM for min { tr Y : embed(Y) >= rho_j for every block j }
    with slack S = embed(Y) - rho projected onto the PSD cone, one batched
    eigendecomposition of the stack per iteration, and the penalty
    rebalanced on the residuals (Boyd et al. 2011, section 3.4.1).

    The cap defaults to ADMM_MAX_ITER as it stands at call time. Returns
    (certificate, scaled multipliers, iterations); the certificate is the
    last iterate shifted by a multiple of the identity until it is feasible.
    """
    max_iter = ADMM_MAX_ITER if max_iter is None else max_iter
    k = emb.k
    y = herm(emb.adjoint(rho))
    eye = np.eye(y.shape[0])
    t = 1.0  # penalty, residual-balanced below
    u = np.zeros_like(rho)
    it = 0
    for it in range(1, max_iter + 1):
        slack = psd_funcm(emb.embed(y) - rho - u, _positive)
        y_new = herm(emb.adjoint(slack + rho + u) / k - eye / (t * k))
        big_y = emb.embed(y_new)
        r = float(np.linalg.norm(slack - big_y + rho))
        s_res = t * math.sqrt(k) * float(np.linalg.norm(y_new - y))
        y = y_new
        u = u + slack - big_y + rho
        if r < tol * 0.1 and s_res < tol * 0.1:
            break
        if it % 50 == 0:
            if r > 10.0 * s_res:
                t *= 2.0
                u = u / 2.0
            elif s_res > 10.0 * r:
                t /= 2.0
                u = u * 2.0
    cert = y + _feasible_shift(rho, emb.embed(y)) * eye
    return cert, t * u, it


def helstrom_value(op0: np.ndarray, op1: np.ndarray) -> float:
    """Closed form P_guess = (tr op0 + tr op1 + ||op0 - op1||_1) / 2."""
    t0 = float(np.real(np.trace(op0)))
    t1 = float(np.real(np.trace(op1)))
    return 0.5 * (t0 + t1 + trace_norm(herm(op0 - op1)))


def _helstrom_solve(ops: np.ndarray) -> SDPResult:
    op0, op1 = ops
    delta = herm(op0 - op1)
    vals, vecs = np.linalg.eigh(delta)
    pos = (vecs * (vals > 0).astype(float)) @ vecs.conj().T
    e0 = herm(pos)
    elements = np.stack([e0, np.eye(op0.shape[0]) - e0])
    # dual optimum: sigma = op1 + (op0 - op1)_+
    sigma = herm(op1 + (vecs * np.clip(vals, 0.0, None)) @ vecs.conj().T)
    sigma = sigma + _feasible_shift(ops, sigma) * np.eye(op0.shape[0])
    primal = _primal_value(ops, elements)
    gap = float(np.real(np.trace(sigma))) - primal
    return SDPResult(primal, POVM(elements), sigma, gap, iterations=0)


def guessing_probability(omega: CQState, tol: float = DEFAULT_TOL,
                         method: str = "auto") -> SDPResult:
    """Optimal probability of guessing the label from the quantum memory.

    method: "auto" uses the Helstrom closed form for two outcomes and ADMM
    otherwise; "admm" forces the iterative solver (used to cross-check the
    closed form); "helstrom" forces the closed form (two outcomes only).
    """
    _check_tol(tol)
    ops = omega.ops
    m, d = ops.shape[:2]
    if m == 1:
        sigma = ops[0].copy()
        povm = POVM(np.eye(d)[None])
        return SDPResult(float(np.real(np.trace(sigma))), povm, sigma, 0.0, 0)
    if method == "helstrom" or (method == "auto" and m == 2):
        if m != 2:
            raise ValueError("Helstrom closed form needs exactly two outcomes")
        return _helstrom_solve(ops)

    emb = _cq_embedding(m)
    cert, mults, iters = _admm_dual(ops, emb, tol)
    dual_val = float(np.real(np.trace(cert)))

    candidates = [_pgm(psd_funcm(mults, _positive), emb), _pgm(ops, emb)]
    best = max(candidates, key=lambda els: _primal_value(ops, els))
    best_val = _primal_value(ops, best)
    gap = dual_val - best_val
    refine_it = 0
    # fixed-point iteration on the PGM family; never decreases the value
    while gap > tol and refine_it < REFINE_MAX_ITER:
        best = _pgm(ops @ best @ ops, emb)
        refine_it += 1
        if refine_it % 10 == 0 or gap <= tol:
            best_val = _primal_value(ops, best)
            lam = herm((ops @ best).sum(0))
            cand_cert = lam + _feasible_shift(ops, lam) * np.eye(d)
            cand_val = float(np.real(np.trace(cand_cert)))
            if cand_val < dual_val:
                dual_val, cert = cand_val, cand_cert
            gap = dual_val - best_val
    best_val = _primal_value(ops, best)
    gap = dual_val - best_val
    return SDPResult(best_val, POVM(best), cert, gap,
                     iters + refine_it, converged=gap <= tol)


def h_min_cq(omega: CQState, tol: float = DEFAULT_TOL, base: str = "bits") -> EntropyValue:
    """H_min(X|B) = -log P_guess(X|B)."""
    res = guessing_probability(omega, tol)
    return _as_base(-math.log(res.value), base)


def cond_min_entropy_value(rho: np.ndarray, dim_a: int, dim_c: int,
                           tol: float = DEFAULT_TOL, max_iter: int | None = None):
    """2^{-H_min(A|C)} = min { tr Y : 1_A (x) Y >= rho_AC } for arbitrary rho.

    The shared ADMM core on the single block rho with embed(Y) = 1_A (x) Y.
    Returns (value, gap, iterations); the value is the certified dual (upper)
    bound, the gap is measured against a feasibility-repaired primal
    candidate built from the running multiplier. The cap defaults to
    ADMM_MAX_ITER.
    """
    _check_tol(tol)
    rho = herm(np.asarray(rho, dtype=complex))
    if rho.shape[0] != dim_a * dim_c:
        raise ValueError("dims do not match rho")
    rho = rho[None]
    emb = _tensor_embedding(dim_a, dim_c)
    cert, mults, it = _admm_dual(rho, emb, tol, max_iter)
    dual_val = float(np.real(np.trace(cert)))
    # primal candidate from the scaled multiplier: X >= 0, tr_A X = 1_C
    x = _pgm(psd_funcm(mults, _positive), emb)
    gap = dual_val - _primal_value(rho, x)
    return dual_val, gap, it


def _decoupling_sdp(omega: CQState, tol: float):
    """(F_dec, gap, iterations) of the purification SDP behind
    decoupling_fidelity; the value is certified when gap <= tol."""
    m, d = omega.ops.shape[:2]
    vec, dims = purify_cq(omega)
    rho = np.outer(vec, vec.conj())
    # factor order (X, X', B, B'); trace out B, keep X and C = X' (x) B'
    rho_xc = partial_trace(rho, list(dims), keep=[0, 1, 3])
    return cond_min_entropy_value(rho_xc, dim_a=m, dim_c=m * d, tol=tol)


def decoupling_fidelity(omega: CQState, tol: float = DEFAULT_TOL) -> float:
    """F_dec(X|B) = sup_sigma (sum_x sqrt(F(omega_B^x, sigma)))^2.

    Computed through purification duality: F_dec = 2^{H_max(X|B)} =
    2^{-H_min(X|C)} = min { tr Y : 1_X (x) Y >= rho_XC } with C = X'B' the
    purifying factors.
    """
    return float(_decoupling_sdp(omega, tol)[0])


def h_max_cq(omega: CQState, tol: float = DEFAULT_TOL, base: str = "bits") -> EntropyValue:
    """H_max(X|B) = log F_dec(X|B)."""
    return _as_base(math.log(decoupling_fidelity(omega, tol)), base)
