"""Conditional min-entropy via the guessing-probability SDP and conditional
max-entropy via the decoupling fidelity.

The guessing probability P_guess(X|B) = sup { sum_x tr[omega_B^x E_x] } over
POVMs equals, by strong duality, min { tr sigma : sigma >= omega_B^x for all
x }. The solver goes by the number of outcomes kept after the skip rule
(guessing_probability): two take the Helstrom closed form (exact
measurement and dual certificate), three or more the interior-point core.
The max-entropy H_max(X|B) = log F_dec(X|B) is the value of the SDP

    F_dec = min { sum_x tr Y_x : Y_0 (+) ... (+) Y_{m-1} >= R },
    R_xy = sqrt(omega_x) sqrt(omega_y),

of size md: the purification SDP min { tr Y : 1_X (x) Y >= rho_XC } (C = X'B'
purifying the cq state) reduced by the phase symmetry of rho_XC under
D (x) conj(D), D diagonal unitary on X. Its primal max { tr[R X] : X >= 0,
X_xx = 1 } has an optimum of rank at most d, from the fidelity form
F_dec = max_sigma (sum_x ||sqrt(omega_x) sqrt(sigma)||_1)^2 (Koenig, Renner
and Schaffner, IEEE TIT 55, 2009), so the factorization X_xy = U_x^H U_y
over unitaries (Burer and Monteiro, Math. Program. 95, 2003) is exact:

    F_dec = max { ||sum_x U_x sqrt(omega_x)||_F^2 : every U_x unitary }.

decoupling_fidelity climbs it by block-coordinate ascent, one d x d SVD per
block step, and certifies the result with the dual that complementary
slackness reads off the unitaries (_ascent_bound).

Every cq min or max solve is one _solve call. It skips the smallest cells
within tol/10 of the gap and hands the stack of the kept ones, with the
skipped traces, to _guess or _fdec_ascent; these build and charge their
whole bracket, so converged means a charged gap of at most tol.

The guessing SDP and 2^{-H_min(A|C)} read min { tr Y : embed(Y) >= rho_j
for every block j } over a (q, c, c) stack Y and a stack of blocks rho,
with primal max { sum_j tr[rho_j X_j] : X >= 0, adjoint(X) = 1 }: sigma
against each of the m outcome blocks, or 1_A (x) Y against one block
rho_AC. One primal-dual interior-point core solves both: HKM direction
(Helmberg, Rendl, Vanderbei and Wolkowicz, SIAM J. Optim. 6, 1996) with
Mehrotra's predictor-corrector (SIAM J. Optim. 2, 1992). An iteration makes
one Cholesky factorization of X and Z as one stack and one real symmetric
Schur system in the q*c^2 real coordinates Re Y + Im Y of the Hermitian Y,
and takes the steps of both cones by one rule, from one eigvalsh per
direction. rho is exactly Hermitian, so Z = embed(Y) - rho is too. Its
result is a certificate: Y shifted until feasible, X scaled until
adjoint(X) = 1 to rounding, and the gap between their values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from .entropy import EntropyValue, _as_base, _finite
from .qstate import CQState, POVM, herm, kept_cells, psd_eigh, psd_funcm
# unused here; perfbench/spans.py traces these two bindings of this module by name
from .qstate import partial_trace, purify_cq  # noqa: F401

DEFAULT_TOL = 1e-7
IPM_MAX_ITER = 200
ASCENT_MAX_SWEEPS = 5000

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
    guessing_probability, whose value is that of primal_povm. For
    decoupling_fidelity value - gap is ||sum_x U_x sqrt(omega_x)||_F^2 of the
    ascent's unitaries. converged says whether the gap is at most the
    solve's tol. iterations counts interior-point steps, or the ascent's
    sweeps over all cells for decoupling_fidelity. Only
    guessing_probability sets primal_povm and dual_certificate."""

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


def _entropy(kind: str, result: SDPResult, base: str) -> EntropyValue:
    """H_min = -log P_guess (kind "min") or H_max = log F_dec (kind "max")
    of a solve, in base "bits" or "nats": the one map from a certified
    result to the entropy it gives. 0.0 - keeps a certain guess at +0.0."""
    nats = math.log(result.value)
    return _as_base(0.0 - nats if kind == "min" else nats, base)


def _check_tol(tol: float) -> None:
    if not 0.0 < tol <= 1e-3:
        raise ValueError("tol must be in (0, 1e-3]")


def _feasible_shift(ops: np.ndarray, sigma: np.ndarray) -> float:
    """Smallest mu >= 0 with sigma + mu*I >= op for every op of the stack,
    all exactly Hermitian."""
    return max(0.0, float(np.linalg.eigvalsh(ops - sigma).max()))


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
    """Real symmetric matrix R of the map D -> herm(sum_{p, y} A_pxy D_y B_pxy)
    on Hermitian (q, c, c) stacks D, in the row-major real coordinates
    K = Re D + Im D: an isometry onto real stacks, D = ((1+i)K + (1-i)K^T)/2.
    The complex matrix S of the map on vec(D) has entry (x, i, j), (y, k, l)
    (G[x, i, j, y, k, l] + conj(G[x, j, i, y, l, k])) / 2, with
    G = sum_p A_pxy[i, k] B_pxy[l, j], and R = Re S + Im S', S' being S with
    the column indices k and l swapped."""
    p, q, _, c, _ = a.shape
    g = (a.transpose(1, 2, 3, 4, 0).reshape(q, q, c * c, p)
         @ b.transpose(1, 2, 0, 4, 3).reshape(q, q, p, c * c))
    m = g.reshape(q, q, c, c, c, c).transpose(0, 2, 4, 1, 3, 5)
    re, im = m.real, m.imag.swapaxes(4, 5)
    r = re + im
    r += (re - im).transpose(0, 2, 1, 3, 5, 4)
    n = q * c * c
    return 0.5 * r.reshape(n, n)


def _ipm(rho: np.ndarray, emb: _Embedding, tol: float):
    """Interior-point solve of min { tr Y : Z = embed(Y) - rho >= 0 } and its
    primal; rho is exactly Hermitian and Y moves by Hermitian steps, so Z is
    too. Each iteration factors [X; Z] = L L^H as one stack, and one real
    Schur matrix from emb.pairs(X, Z^{-1}) (_schur) serves predictor and
    corrector: each solves it for the real coordinates K of dY against
    Re r + Im r of its Hermitian right-hand side r, and dY =
    ((1+i)K + (1-i)K^T)/2 is exactly Hermitian. Each direction comes with
    both cones' steps min(1, -f / lambda_min), f = 1 (predictor) or 0.98
    (corrector), lambda_min over the cone's blocks of one eigvalsh of
    L^{-1} [dX; dZ] L^{-H}, which reads one triangle. Stops when
    <X, Z> < tol/100 and |1 - adjoint(X)| < 1e-8, after IPM_MAX_ITER steps
    (read at call time), or when rounding breaks the factorization. Returns
    (Y shifted until feasible, X repaired by _pgm, iterations); Y is a
    (q, c, c) stack.
    """
    shape = emb.adjoint(rho).shape
    eye = np.broadcast_to(np.eye(shape[-1]), shape)
    y = (1.0 + max(0.0, float(np.linalg.eigvalsh(rho).max()))) * eye
    x = np.broadcast_to(emb.embed(eye) / emb.k, rho.shape).astype(complex)
    size = rho.shape[0] * rho.shape[1]
    it = 0
    while True:
        z = emb.embed(y) - rho
        gap = _primal_value(x, z)
        if it == IPM_MAX_ITER or (gap < 1e-2 * tol
                                  and np.abs(eye - emb.adjoint(x)).max() < 1e-8):
            break
        try:
            inv_chol = np.linalg.inv(np.linalg.cholesky(np.concatenate([x, z])))
        except np.linalg.LinAlgError:
            break
        it += 1
        inv_h = inv_chol.conj().mT
        zinv = inv_h[len(x):] @ inv_chol[len(x):]
        schur = _schur(*emb.pairs(x, zinv))

        def direction(rhs, x_term, fraction):
            k = np.linalg.solve(schur, (rhs.real + rhs.imag).reshape(-1)).reshape(shape)
            dy = ((1 + 1j) * k + (1 - 1j) * k.mT) / 2
            dz = emb.embed(dy)
            dx = herm(x_term - x @ dz @ zinv)
            scaled = inv_chol @ np.concatenate([dx, np.broadcast_to(dz, dx.shape)]) @ inv_h
            low = np.linalg.eigvalsh(scaled).reshape(2, -1).min(1)
            return dy, dz, dx, -fraction / np.minimum(low, -fraction)

        # predictor: the affine-scaling direction, towards <X, Z> = 0
        _, dz_a, dx_a, (step_x, step_z) = direction(-eye, -x, 1.0)
        shrink = _primal_value(x + step_x * dx_a, z + step_z * dz_a) / gap
        mu = shrink ** 3 * gap / size
        # corrector: towards the central point at mu, with the second-order term
        target = mu * zinv - dx_a @ dz_a @ zinv
        dy, _, dx, (step_x, step_z) = direction(emb.adjoint(herm(target)) - eye, target - x, 0.98)
        x = x + step_x * dx
        y = y + step_z * dy
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
    vals, vecs = psd_eigh(op0 - op1)
    pos = (vecs * (vals > 0).astype(float)) @ vecs.conj().T
    e0 = herm(pos)
    elements = np.stack([e0, np.eye(op0.shape[0]) - e0])
    # dual optimum: sigma = op1 + (op0 - op1)_+
    sigma = herm(op1 + (vecs * vals) @ vecs.conj().T)
    return elements, sigma + _feasible_shift(ops, sigma) * np.eye(op0.shape[0])


def _guess(ops: np.ndarray, skipped: np.ndarray, tol: float) -> SDPResult:
    """P_guess of the kept cells' stack ops, its gap grown by S = sum_y t_y
    over the skipped traces, since sigma + sum_y omega_y dominates every
    omega_x; POVM and sigma are the kept cells'. One cell gives tr omega."""
    m, d = ops.shape[:2]
    iters = 0
    if m == 1:
        elements, sigma = np.eye(d)[None], ops[0].copy()
    elif m == 2:
        elements, sigma = _helstrom(ops)
    else:
        (sigma,), elements, iters = _ipm(ops, _cq_embedding(m), tol)
    dual = float(np.real(np.trace(sigma)))
    value = dual if m == 1 else _primal_value(ops, elements)
    return _certified(value, dual - value + float(skipped.sum()), iters, tol,
                      POVM(elements), sigma)


def guessing_probability(omega: CQState, tol: float = DEFAULT_TOL) -> SDPResult:
    """Optimal probability of guessing the label from the quantum memory.

    Two outcomes take the Helstrom closed form (0 iterations), three or more
    the interior-point core. The value is that of the returned POVM,
    complete to rounding, so it is a lower bound; the dual certificate
    sigma >= omega_x has tr sigma = value + gap, an upper bound.

    The smallest outcomes are skipped while their traces sum to at most
    tol/10 (_solve, bound t_y per cell) and charged by _guess; the outcome
    count that picks the solver is that of the outcomes kept. A skipped
    outcome gets E_y = 0, so the POVM keeps one element per label and the
    value is still sum_x tr[omega_x E_x]. The certificate is
    sigma + sum_y omega_y over the skipped y.
    """
    ops = omega.ops
    keep, res = _solve("min", omega.probs, lambda keep: ops[keep], tol)
    elements = np.zeros(ops.shape, dtype=complex)
    elements[keep] = res.primal_povm.elements
    return replace(res, primal_povm=POVM(elements),
                   dual_certificate=res.dual_certificate + ops[~keep].sum(0))


def h_min_cq(omega: CQState, tol: float = DEFAULT_TOL, base: str = "bits") -> EntropyValue:
    """H_min(X|B) = -log P_guess(X|B)."""
    return _entropy("min", guessing_probability(omega, tol), base)


def cond_min_entropy_value(rho: np.ndarray, dim_a: int, dim_c: int,
                           tol: float = DEFAULT_TOL) -> SDPResult:
    """2^{-H_min(A|C)} = min { tr Y : 1_A (x) Y >= rho_AC } for arbitrary rho.

    The interior-point core on the single block rho with embed(Y) = 1_A (x) Y.
    The value is the certified upper bound tr Y; the gap is its distance to
    the value of the primal X >= 0 with tr_A X = 1_C, a lower bound.
    """
    _check_tol(tol)
    rho = _finite("rho", rho)
    if rho.shape[0] != dim_a * dim_c:
        raise ValueError("dims do not match rho")
    return _ipm_value(herm(rho)[None], _tensor_embedding(dim_a, dim_c), tol)


def _polar(b: np.ndarray) -> np.ndarray:
    """Unitary polar factor W V^H of b = W S V^H."""
    w, _, vh = np.linalg.svd(b)
    return w @ vh


def _kept_directions(vals: np.ndarray, budget: float):
    """Keep-mask of an (m, d) stack of spectra: in each cell the smallest
    eigenvalues are left out while their sum s_x is at most budget >= 0, so
    zeros always are. Returns the mask and the charge sum_x sqrt(s_x)."""
    order = np.argsort(vals, axis=1)
    left_out = np.cumsum(np.take_along_axis(vals, order, axis=1), axis=1) <= budget
    keep = np.empty_like(left_out)
    np.put_along_axis(keep, order, ~left_out, axis=1)
    return keep, float(np.sqrt(np.where(keep, 0.0, vals).sum(1)).sum())


def _schur_shift(theta: np.ndarray, g: np.ndarray, scale: float) -> float:
    """The root of lambda_max(K(mu)) = 1 above the pole -min(theta), to
    rounding and from below, for K(mu) = g diag(1/(theta + mu)) g^H.

    lambda_max(K(mu)) is convex and decreasing there, so Newton steps taken
    from below the root stay below it and increase to it; a step from above
    that lands past the pole is replaced by the midpoint to the pole. scale
    is the size of theta.
    """
    pole = -float(theta.min())
    mu = max(0.0, pole + max(abs(pole), 1e-12 * scale))
    for _ in range(100):
        w = 1.0 / (theta + mu)
        lam, vecs = np.linalg.eigh(herm((g * w) @ g.conj().T))
        slope = float(np.sum(np.abs(g.conj().T @ vecs[:, -1]) ** 2 * w * w))
        if slope == 0.0:
            return mu
        new = mu + (lam[-1] - 1.0) / slope
        if new <= pole:
            new = 0.5 * (pole + mu)
        if abs(new - mu) <= 1e-15 * (scale + abs(mu)):
            return max(mu, new)
        mu = new
    return mu


def _ascent_bound(vals: np.ndarray, vecs: np.ndarray, keep: np.ndarray,
                  u: np.ndarray, a: np.ndarray) -> float | None:
    """Upper bound on F_dec of the kept eigen-directions of the cells, from
    the unitaries u and a = sum_x U_x sqrt(omega_x); None if no shift
    passes the check.

    At an optimum complementary slackness asks Y_x U_x^H = sqrt(omega_x)
    A^H, so the dual is built from Y_x = herm(sqrt(omega_x) A^H U_x),
    compressed to the kept directions V_x of omega_x and shifted by mu there
    until (+)_x Y_x >= R. With R = W^H W, W_x = V_x D_x and D_x the square
    roots of the kept eigenvalues, that holds iff every Y_x + mu > 0 and
    lambda_max(K) <= 1 for K = sum_x W_x (Y_x + mu)^{-1} W_x^H, a d x d
    Schur complement. _schur_shift finds mu over one batched eigh of the
    Y_x; Cholesky factorizations of the Y_x + mu and of 1 - K then confirm
    it, the margin above mu growing fourfold until they do. The bound is
    sum_x tr Y_x + mu times the number of kept directions.
    """
    m, d = vals.shape
    roots = np.sqrt(np.where(keep, vals, 0.0))
    vh = vecs.conj().transpose(0, 2, 1)
    y = herm(roots[:, :, None] * (vh @ (a.conj().T @ u) @ vecs))
    y = np.where(keep[:, :, None] & keep[:, None, :], y, 0.0)
    trace, kept = float(np.trace(y, axis1=1, axis2=2).real.sum()), int(keep.sum())
    # a unit diagonal on the left-out directions, which W does not reach
    diag = np.arange(d)
    y[:, diag, diag] += ~keep
    theta, q = np.linalg.eigh(y)
    w = vecs * roots[:, None, :]
    scale = float(np.abs(theta).max())
    mu = _schur_shift(theta.reshape(-1), (w @ q).transpose(1, 0, 2).reshape(d, m * d), scale)
    wh = w.conj().transpose(0, 2, 1)
    margin = 1e-15 * (scale + abs(mu))
    for _ in range(20):
        shift = mu + margin
        try:
            t = np.linalg.solve(np.linalg.cholesky(y + shift * np.eye(d)), wh).reshape(m * d, d)
            np.linalg.cholesky(np.eye(d) - herm(t.conj().T @ t))
        except np.linalg.LinAlgError:
            margin *= 4.0
            continue
        return trace + shift * kept
    return None


def _root_share(r: float, share: float) -> float:
    """The root T >= 0 of 2rT + T^2 = share: a charge (sqrt(U) + T)^2 then
    lies at most share above U <= r^2."""
    return share / (r + math.sqrt(r * r + share))


def _fdec_ascent(ops: np.ndarray, skipped: np.ndarray, tol: float) -> SDPResult:
    """F_dec of the kept cells' stack ops and the skipped traces t_y, by
    block-coordinate ascent over the unitaries of ||A||_F^2,
    A = sum_x U_x sqrt(omega_x) over the kept cells.

    Each block step sets U_x to the polar factor of (A - U_x sqrt(omega_x))
    sqrt(omega_x), which maximizes ||A||_F^2 over U_x alone, and updates A.
    The residual is the norm of the skew-Hermitian parts of the
    sqrt(omega_x) A^H U_x, zero at a fixed point. The dual bound
    (_ascent_bound) costs about a sweep or more, so it is formed only when
    the residual falls below a trigger: first 0.1 sqrt(tol), since at a
    nondegenerate optimum the gap falls like the square of the residual;
    after a miss, where the gap, taken proportional to the residual, would
    meet tol, and no sooner than a quarter of the sweeps so far. The ascent
    stops when the charged bracket below is within tol, after
    ASCENT_MAX_SWEEPS sweeps (read at call time), or when the residual has
    stalled (no 10% drop in the last best_at + 64 sweeps, best_at being the
    sweep of the last one); the last two form a final bound and come back
    with it, converged or not.

    What the dual leaves out is charged once: skipped cells whole, and in
    each kept cell the smallest eigenvalues while their sum s_x is within
    a per-cell budget. With T = sum_y sqrt(t_y) + sum_x sqrt(s_x), a bound
    U on the rest gives sqrt(F_dec) <= sqrt(U) + T (the dual Y_y is
    proportional to omega_y / sqrt(t_y)), and the unitaries, padded with
    1_d blocks, give F_dec >= ||A||_F^2 + sum_y t_y. Both are clamped to
    R^2, R = sum_x sqrt(t_x) over all cells, since H_max(X|B) <= H_max(X),
    so one outcome gives tr omega exactly. All that is left out may cost
    2RT + T^2 <= tol/5 (_root_share): the cells take their tol/10 first
    (_solve), and the directions split the rest of that root evenly.
    """
    cap = ASCENT_MAX_SWEEPS
    m, d = ops.shape[:2]
    vals, vecs = psd_eigh(ops)
    roots = (vecs * np.sqrt(vals)[:, None, :]) @ vecs.conj().transpose(0, 2, 1)
    cells = float(np.sqrt(skipped).sum())
    r = float(np.sqrt(np.clip(np.trace(ops, axis1=1, axis2=2).real, 0.0, None)).sum()) + cells
    room = max(0.0, _root_share(r, 0.2 * tol) - cells)
    keep, charge = _kept_directions(vals, (room / m) ** 2)
    charge += cells
    ceiling, mass = r * r, float(skipped.sum())
    u = np.broadcast_to(np.eye(d, dtype=complex), (m, d, d)).copy()
    terms = roots.astype(complex)  # the U_x sqrt(omega_x)
    a = terms.sum(0)
    upper, lower = ceiling, 0.0
    trigger, best, best_at, next_check = 0.1 * math.sqrt(tol), math.inf, 0, 1
    sweeps = 0
    while sweeps < cap:
        sweeps += 1
        for x in range(m):
            rest = a - terms[x]
            u[x] = _polar(rest @ roots[x])
            terms[x] = u[x] @ roots[x]
            a = rest + terms[x]
        # summed afresh, so that rounding does not build up over the sweeps
        a = terms.sum(0)
        lower = min(ceiling, float(np.vdot(a, a).real) + mass)
        y = roots @ (a.conj().T @ u)
        residual = float(np.linalg.norm(y - y.conj().transpose(0, 2, 1)))
        if residual < 0.9 * best:
            best, best_at = residual, sweeps
        last = sweeps == cap or sweeps >= 2 * best_at + 64
        if not (last or (residual <= trigger and sweeps >= next_check)):
            continue
        bound = _ascent_bound(vals, vecs, keep, u, a)
        if bound is not None:
            upper = min(upper, (math.sqrt(max(bound, 0.0)) + charge) ** 2)
        if upper - lower <= tol or last:
            break
        trigger = 0.5 * residual * tol / (upper - lower)
        next_check = sweeps + max(1, sweeps // 4)
    # a bound below the lower bound is rounding
    upper = max(upper, lower)
    return _certified(upper, upper - lower, sweeps, tol)


def _solve(kind: str, traces: np.ndarray, form: Callable, tol: float):
    """(keep-mask, result) of the P_guess (kind "min") or F_dec ("max")
    solve at tol, checked here for every such solve (_check_tol), of a cq
    state given by its cell traces and form(keep), the Hermitian stack of
    the cells a mask keeps.

    qstate.kept_cells skips the smallest cells whose charge fits in tol/10
    of the gap: S = sum_y t_y <= tol/10 for P_guess (_guess), and for
    sqrt(F_dec) (_fdec_ascent) T = sum_y sqrt(t_y) up to the root of
    2RT + T^2 = tol/10 (_root_share), R = sum_x sqrt(t_x) over all cells.
    """
    _check_tol(tol)
    budget = 0.1 * tol
    if kind == "max":
        budget = _root_share(float(np.sqrt(np.clip(traces, 0.0, None)).sum()), budget)
    keep = kept_cells(traces, kind, budget)
    solver = _guess if kind == "min" else _fdec_ascent
    return keep, solver(form(keep), traces[~keep], tol)


def decoupling_fidelity(omega: CQState, tol: float = DEFAULT_TOL) -> SDPResult:
    """F_dec(X|B) = sup_sigma (sum_x sqrt(F(omega_B^x, sigma)))^2.

    Computed as max { ||sum_x U_x sqrt(omega_x)||_F^2 : U_x unitary } by
    certified block-coordinate ascent (_fdec_ascent; see the module
    docstring for why this is the SDP min { sum_x tr Y_x : (+)_x Y_x >= R },
    R_xy = sqrt(omega_x) sqrt(omega_y), that is F_dec = 2^{H_max(X|B)} =
    2^{-H_min(X|C)}). The value is the dual upper bound, value - gap the
    ascent's lower bound, and iterations the number of sweeps.

    The smallest cells are skipped while T = sum_y sqrt(t_y) keeps
    2RT + T^2, R = sum_x sqrt(t_x), at most tol/10 (_solve, bound
    sqrt(t_y) per cell) and charged by _fdec_ascent.
    """
    return _solve("max", omega.probs, lambda keep: omega.ops[keep], tol)[1]


def h_max_cq(omega: CQState, tol: float = DEFAULT_TOL, base: str = "bits") -> EntropyValue:
    """H_max(X|B) = log F_dec(X|B), with F_dec the certified upper bound of
    decoupling_fidelity's unitary block ascent."""
    return _entropy("max", decoupling_fidelity(omega, tol), base)
