"""Conditional min-entropy via the guessing-probability SDP and conditional
max-entropy via the decoupling-fidelity SDP.

The guessing probability P_guess(X|B) = sup { sum_x tr[omega_B^x E_x] } over
POVMs equals, by strong duality, min { tr sigma : sigma >= omega_B^x for all
x }. Two outcomes use the Helstrom closed form (exact measurement and dual
certificate). The max-entropy H_max(X|B) = log F_dec(X|B) comes from the SDP

    F_dec = min { sum_x tr Y_x : Y_0 (+) ... (+) Y_{m-1} >= R },
    R_xy = sqrt(omega_x) sqrt(omega_y),

of size md. It is the purification SDP min { tr Y : 1_X (x) Y >= rho_XC }
(C = X'B' purifying the cq state) reduced by symmetry: rho_XC is invariant
under D (x) conj(D) for every diagonal unitary D on X, so an optimal Y is
block-diagonal in X', and its constraint splits into this block and
Y_x >= 0, which the block implies.

All three SDPs read min { tr Y : embed(Y) >= rho_j for every block j } over
a (q, c, c) stack Y and a stack of blocks rho, with primal max { sum_j
tr[rho_j X_j] : X >= 0, adjoint(X) = 1 }: sigma against each of the m
outcome blocks, 1_A (x) Y against one block rho_AC, or the block-diagonal
(+)_x Y_x against R. One primal-dual interior-point core solves them: HKM
direction (Helmberg, Rendl, Vanderbei and Wolkowicz, SIAM J. Optim. 6,
1996) with Mehrotra's predictor-corrector (SIAM J. Optim. 2, 1992), one
Schur system in the entries of Y per iteration. Its result is a
certificate: Y shifted until feasible, X scaled until adjoint(X) = 1 to
rounding, and the gap between their values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .entropy import EntropyValue, _as_base
from .qstate import CQState, POVM, herm, kept_cells, psd_funcm, psd_sqrt
# unused here; perfbench/spans.py traces these two bindings of this module by name
from .qstate import partial_trace, purify_cq  # noqa: F401

DEFAULT_TOL = 1e-7
IPM_MAX_ITER = 200

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
    """One SDP solve and its certificate. The optimum lies in
    [value - gap, value] for decoupling_fidelity and cond_min_entropy_value,
    whose value is the dual upper bound, and in [value, value + gap] for
    guessing_probability, whose value is that of primal_povm. converged says
    whether the gap is at most the solve's tol. Only guessing_probability
    sets primal_povm and dual_certificate."""

    value: float
    gap: float
    iterations: int
    converged: bool
    primal_povm: POVM | None = None
    dual_certificate: np.ndarray | None = None


def _certified(value: float, gap: float, iterations: int, tol: float,
               povm: POVM | None = None, sigma: np.ndarray | None = None) -> SDPResult:
    return SDPResult(value, gap, iterations, gap <= tol, povm, sigma)


class _Embedding(NamedTuple):
    """The map Y -> embed(Y) from a (q, c, c) stack onto a stack of (s, n, n)
    blocks and its adjoint, with adjoint(embed(Y)) = k*Y. pairs(X, W) returns
    the (p, q, q, c, c) stacks A, B with adjoint(X embed(D) W)_x =
    sum_{p, y} A_pxy D_y B_pxy for every (q, c, c) stack D."""

    embed: Callable
    adjoint: Callable
    pairs: Callable
    k: int


def _cq_embedding(m: int) -> _Embedding:
    """sigma (q = 1) against each of m outcome blocks."""
    return _Embedding(lambda y: y, lambda s: s.sum(0, keepdims=True),
                      lambda x, w: (x[:, None, None], w[:, None, None]), m)


def _cross_blocks(x: np.ndarray, w: np.ndarray, dim_a: int, dim_c: int):
    """The (a, a', c, c) stacks of the c-blocks X_aa' and W_a'a of two
    (1, ac, ac) stacks."""
    shape = (dim_a, dim_c, dim_a, dim_c)
    return (x.reshape(shape).transpose(0, 2, 1, 3),
            w.reshape(shape).transpose(2, 0, 1, 3))


def _tensor_embedding(dim_a: int, dim_c: int) -> _Embedding:
    """Y (q = 1) -> 1_A (x) Y as one block; the adjoint is the partial trace
    over A, and the pairs are the (a, a') c-blocks of X with the (a', a)
    c-blocks of W."""
    n = dim_a * dim_c
    eye = np.eye(dim_a)[:, None, :, None]
    shape = (dim_a, dim_c, dim_a, dim_c)
    blocks = (dim_a * dim_a, 1, 1, dim_c, dim_c)
    return _Embedding(lambda y: (eye * y[0, :, None, :]).reshape(1, n, n),
                      lambda s: np.einsum("iaib->ab", s.reshape(shape))[None],
                      lambda x, w: tuple(b.reshape(blocks)
                                         for b in _cross_blocks(x, w, dim_a, dim_c)),
                      dim_a)


def _block_embedding(m: int, d: int) -> _Embedding:
    """Y (q = m) -> Y_0 (+) ... (+) Y_{m-1} as one block; the adjoint takes the
    diagonal d-blocks, and the pair of (x, y) is X_xy with W_yx."""
    def embed(y):
        out = np.zeros((m, d, m, d), dtype=y.dtype)
        out[np.arange(m), :, np.arange(m)] = y
        return out.reshape(1, m * d, m * d)

    return _Embedding(embed,
                      lambda s: np.einsum("xixj->xij", s.reshape(m, d, m, d)),
                      lambda x, w: tuple(b[None] for b in _cross_blocks(x, w, m, d)),
                      1)


def _check_tol(tol: float) -> None:
    if not 0.0 < tol <= 1e-3:
        raise ValueError("tol must be in (0, 1e-3]")


def _feasible_shift(ops: np.ndarray, sigma: np.ndarray) -> float:
    """Smallest mu >= 0 with sigma + mu*I >= op for every op of the stack."""
    return max(0.0, float(np.linalg.eigvalsh(herm(ops - sigma)).max()))


def _primal_value(ops: np.ndarray, elements: np.ndarray) -> float:
    """sum_j tr[op_j E_j] over two stacks."""
    return float(np.einsum("xij,xji->", ops, elements).real)


def _pgm(ops: np.ndarray, emb: _Embedding) -> np.ndarray:
    """Pretty-good-measurement form embed(T^{-1/2}) op_j embed(T^{-1/2}) of a
    stack of PSD blocks with T = adjoint(ops) positive definite, so that
    adjoint(result) = 1."""
    w = emb.embed(psd_funcm(emb.adjoint(ops), lambda vals: 1.0 / np.sqrt(vals)))
    return herm(w @ ops @ w)


def _schur(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix, on row-major vec(D) of a (q, c, c) stack, of the map whose block
    x is sum_{p, y} (A_pxy D_y B_pxy + B_pxy^H D_y A_pxy^H) / 2: entry
    (x, i, j), (y, k, l) is sum_p A_pxy[i, k] B_pxy[l, j] plus its twin."""
    p, q, _, c, _ = a.shape
    g = (a.transpose(1, 2, 3, 4, 0).reshape(q, q, c * c, p)
         @ b.transpose(1, 2, 0, 4, 3).reshape(q, q, p, c * c))
    m = g.reshape(q, q, c, c, c, c).transpose(0, 2, 4, 1, 3, 5)
    n = q * c * c
    return 0.5 * (m + m.transpose(0, 2, 1, 3, 5, 4).conj()).reshape(n, n)


def _step(inv_chol: np.ndarray, direction: np.ndarray, fraction: float = 1.0) -> float:
    """min(1, fraction * the largest t with P + t*direction >= 0) for the PD
    stack P = L L^H, given L^{-1}; the bound is -1/lambda_min(L^{-1} dP L^{-H})."""
    scaled = inv_chol @ direction @ inv_chol.conj().transpose(0, 2, 1)
    low = float(np.linalg.eigvalsh(herm(scaled)).min())
    return min(1.0, -fraction / low) if low < 0.0 else 1.0


def _ipm(rho: np.ndarray, emb: _Embedding, tol: float):
    """Interior-point solve of min { tr Y : Z = embed(Y) - rho >= 0 } and its
    primal. The Schur matrix from emb.pairs(X, Z^{-1}) serves predictor and
    corrector; steps go 0.98 of the way to the cone's boundary. Stops when
    <X, Z> < tol/100 and |1 - adjoint(X)| < 1e-8, after IPM_MAX_ITER steps
    (read at call time), or when rounding breaks a Cholesky factorization.
    Returns (Y shifted until feasible, X repaired by _pgm, iterations); Y is a
    (q, c, c) stack.
    """
    shape = emb.adjoint(rho).shape
    eye = np.broadcast_to(np.eye(shape[-1]), shape)
    y = (1.0 + max(0.0, float(np.linalg.eigvalsh(rho).max()))) * eye
    x = np.broadcast_to(emb.embed(eye) / emb.k, rho.shape).astype(complex)
    size = rho.shape[0] * rho.shape[1]
    it = 0
    while True:
        z = herm(emb.embed(y) - rho)
        gap = _primal_value(x, z)
        if it == IPM_MAX_ITER or (gap < 1e-2 * tol
                                  and np.abs(eye - emb.adjoint(x)).max() < 1e-8):
            break
        try:
            lx = np.linalg.inv(np.linalg.cholesky(x))
            lz = np.linalg.inv(np.linalg.cholesky(z))
        except np.linalg.LinAlgError:
            break
        it += 1
        zinv = lz.conj().transpose(0, 2, 1) @ lz
        schur = _schur(*emb.pairs(x, zinv))

        def direction(rhs, x_term):
            dy = herm(np.linalg.solve(schur, rhs.reshape(-1)).reshape(shape))
            dz = emb.embed(dy)
            return dy, dz, herm(x_term - x @ dz @ zinv)

        # predictor: the affine-scaling direction, towards <X, Z> = 0
        _, dz_a, dx_a = direction(-eye, -x)
        shrink = _primal_value(x + _step(lx, dx_a) * dx_a, z + _step(lz, dz_a) * dz_a) / gap
        mu = shrink ** 3 * gap / size
        # corrector: towards the central point at mu, with the second-order term
        second = dx_a @ dz_a @ zinv
        dy, dz, dx = direction(mu * emb.adjoint(zinv) - eye - emb.adjoint(herm(second)),
                               mu * zinv - x - second)
        x = x + _step(lx, dx, 0.98) * dx
        y = y + _step(lz, dz, 0.98) * dy
    cert = y + _feasible_shift(rho, emb.embed(y)) * eye
    return cert, _pgm(x, emb), it


def _ipm_value(rho: np.ndarray, emb: _Embedding, tol: float) -> SDPResult:
    """_ipm as a result whose value is the certified upper bound sum_q tr Y_q
    and whose gap is its distance to the value of the repaired primal X."""
    cert, x, it = _ipm(rho, emb, tol)
    dual_val = float(np.trace(cert, axis1=1, axis2=2).real.sum())
    return _certified(dual_val, dual_val - _primal_value(rho, x), it, tol)


def _helstrom(ops: np.ndarray):
    """Optimal POVM elements and dual sigma of two outcomes in closed form."""
    op0, op1 = ops
    delta = herm(op0 - op1)
    vals, vecs = np.linalg.eigh(delta)
    pos = (vecs * (vals > 0).astype(float)) @ vecs.conj().T
    e0 = herm(pos)
    elements = np.stack([e0, np.eye(op0.shape[0]) - e0])
    # dual optimum: sigma = op1 + (op0 - op1)_+
    sigma = herm(op1 + (vecs * np.clip(vals, 0.0, None)) @ vecs.conj().T)
    return elements, sigma + _feasible_shift(ops, sigma) * np.eye(op0.shape[0])


def _guess(ops: np.ndarray, tol: float) -> SDPResult:
    """guessing_probability on an (m, d, d) stack."""
    m, d = ops.shape[:2]
    if m == 1:
        sigma = ops[0].copy()
        return _certified(float(np.real(np.trace(sigma))), 0.0, 0, tol,
                          POVM(np.eye(d)[None]), sigma)
    iters = 0
    if m == 2:
        elements, sigma = _helstrom(ops)
    else:
        (sigma,), elements, iters = _ipm(ops, _cq_embedding(m), tol)
    value = _primal_value(ops, elements)
    gap = float(np.real(np.trace(sigma))) - value
    return _certified(value, gap, iters, tol, POVM(elements), sigma)


def guessing_probability(omega: CQState, tol: float = DEFAULT_TOL) -> SDPResult:
    """Optimal probability of guessing the label from the quantum memory.

    Two outcomes take the Helstrom closed form (0 iterations), three or more
    the interior-point core. The value is that of the returned POVM,
    complete to rounding, so it is a lower bound; the dual certificate
    sigma >= omega_x has tr sigma = value + gap, an upper bound.

    Outcomes of negligible trace are skipped (qstate.kept_cells, bound t_y
    per cell, qstate.NEGLIGIBLE = 1e-15 in all) and solved for as if absent;
    the outcome count that picks the solver is that of the outcomes kept. A
    skipped outcome gets E_y = 0, so the POVM keeps one element per label
    and the value is still sum_x tr[omega_x E_x]. The certificate is
    sigma + sum_y omega_y over the skipped y, which dominates every omega_x,
    and the gap grows by their total trace.
    """
    _check_tol(tol)
    ops = omega.ops
    keep = kept_cells(ops, lambda t: t)
    if keep.all():
        return _guess(ops, tol)
    res = _guess(ops[keep], tol)
    skipped = ops[~keep].sum(0)
    elements = np.zeros(ops.shape, dtype=complex)
    elements[keep] = res.primal_povm.elements
    return _certified(res.value, res.gap + float(np.real(np.trace(skipped))), res.iterations,
                      tol, POVM(elements), res.dual_certificate + skipped)


def h_min_cq(omega: CQState, tol: float = DEFAULT_TOL, base: str = "bits") -> EntropyValue:
    """H_min(X|B) = -log P_guess(X|B)."""
    res = guessing_probability(omega, tol)
    return _as_base(-math.log(res.value), base)


def cond_min_entropy_value(rho: np.ndarray, dim_a: int, dim_c: int,
                           tol: float = DEFAULT_TOL) -> SDPResult:
    """2^{-H_min(A|C)} = min { tr Y : 1_A (x) Y >= rho_AC } for arbitrary rho.

    The interior-point core on the single block rho with embed(Y) = 1_A (x) Y.
    The value is the certified upper bound tr Y; the gap is its distance to
    the value of the primal X >= 0 with tr_A X = 1_C, a lower bound.
    """
    _check_tol(tol)
    rho = herm(np.asarray(rho, dtype=complex))
    if rho.shape[0] != dim_a * dim_c:
        raise ValueError("dims do not match rho")
    return _ipm_value(rho[None], _tensor_embedding(dim_a, dim_c), tol)


def decoupling_fidelity(omega: CQState, tol: float = DEFAULT_TOL) -> SDPResult:
    """F_dec(X|B) = sup_sigma (sum_x sqrt(F(omega_B^x, sigma)))^2.

    Computed as the SDP min { sum_x tr Y_x : (+)_x Y_x >= R } with
    R_xy = sqrt(omega_x) sqrt(omega_y), of size md: the purification dual
    F_dec = 2^{H_max(X|B)} = 2^{-H_min(X|C)} reduced by the phase symmetry
    of the purified cq state (see the module docstring). Its dual is
    max { tr[R X] : X >= 0, X_xx = 1 for every x }. The value is the dual
    upper bound and value - gap the primal lower bound.

    Cells of negligible trace are skipped (qstate.kept_cells, bound
    sqrt(t_y) per cell, qstate.NEGLIGIBLE = 1e-15 in all) and accounted with
    T = sum_y sqrt(t_y) and S = sum_y t_y over them. The kept solve's upper
    bound U gives sqrt(F_dec) <= sqrt(U) + T, from the dual Y_y proportional
    to omega_y / sqrt(t_y); its primal value L, with 1_d blocks padded in
    for the skipped cells, gives F_dec >= L + S. The value is then the
    upper bound (sqrt(U) + T)^2 and the gap its distance to L + S.
    """
    _check_tol(tol)
    ops = omega.ops
    keep = kept_cells(ops, np.sqrt)
    if not keep.all():
        ops = ops[keep]
    m, d = ops.shape[:2]
    roots = psd_sqrt(ops).reshape(m * d, d)
    # R_xy = sqrt(omega_x) sqrt(omega_y)
    r = herm(roots @ roots.conj().T)[None]
    res = _ipm_value(r, _block_embedding(m, d), tol)
    if keep.all():
        return res
    t = omega.probs[~keep]
    upper = (math.sqrt(res.value) + float(np.sqrt(t).sum())) ** 2
    return _certified(upper, upper - (res.value - res.gap + float(t.sum())),
                      res.iterations, tol)


def h_max_cq(omega: CQState, tol: float = DEFAULT_TOL, base: str = "bits") -> EntropyValue:
    """H_max(X|B) = log F_dec(X|B), with F_dec from the md-dimensional block
    SDP of decoupling_fidelity."""
    return _as_base(math.log(decoupling_fidelity(omega, tol).value), base)
