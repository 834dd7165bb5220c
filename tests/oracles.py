"""Independent reference computations used by the tests.

Everything here is deliberately dumb and slow: brute-force grids, closed
forms, and textbook formulas, kept separate from the package so the two
routes never share code.
"""

import math

import numpy as np

PAULI = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)


def eig_entropy_bits(rho):
    """Spectral von Neumann entropy, no support tricks."""
    vals = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))
    vals = vals[vals > 1e-14]
    return float(-np.sum(vals * np.log2(vals)))


def relative_entropy_nats(rho, sigma, rtol=1e-10):
    """Umegaki D(rho||sigma) in nats from numpy's eigendecompositions of rho
    and sigma: sum_i r_i log r_i - sum_ij r_i |<r_i|s_j>|^2 log s_j over the
    eigenpairs (r_i, |r_i>) of rho and (s_j, |s_j>) of sigma. sigma's
    support is its eigenvalues above rtol times the largest; +inf when rho
    puts weight above rtol * max(1, tr rho) outside it."""
    r, u = np.linalg.eigh(0.5 * (rho + rho.conj().T))
    s, v = np.linalg.eigh(0.5 * (sigma + sigma.conj().T))
    r = np.clip(r, 0.0, None)
    weight = r @ np.abs(u.conj().T @ v) ** 2  # rho's weight on each |s_j>
    support = s > rtol * s.max()
    if weight[~support].sum() > rtol * max(1.0, r.sum()):
        return math.inf
    r = r[r > 0.0]
    return float(np.sum(r * np.log(r)) - weight[support] @ np.log(s[support]))


def psd_sqrt(mat):
    """Square root of the PSD part of a Hermitian matrix, or of each matrix
    of a (..., d, d) stack, from numpy's eigh with the spectrum clipped at
    0. (scipy's sqrtm warns on the rank-deficient matrices this serves.)"""
    vals, vecs = np.linalg.eigh(0.5 * (mat + np.swapaxes(mat.conj(), -1, -2)))
    roots = vecs * np.sqrt(np.clip(vals, 0.0, None))[..., None, :]
    return roots @ np.swapaxes(vecs.conj(), -1, -2)


def sqrt_overlap_norm(e, f):
    """||sqrt(E) sqrt(F)||^2 for one pair of PSD matrices, as the squared
    largest singular value of the product of their square roots."""
    return float(np.linalg.norm(psd_sqrt(e) @ psd_sqrt(f), 2) ** 2)


def cond_vn_block_nats(ops):
    """H(XB) - H(B) in nats for the cq stack ops, from the spectra of the
    block-diagonal embedding sum_x |x><x| (x) omega_x and of the marginal
    sum_x omega_x."""
    ops = np.asarray(ops, dtype=complex)
    m, d = ops.shape[:2]
    block = np.zeros((m * d, m * d), dtype=complex)
    for x in range(m):
        block[x * d:(x + 1) * d, x * d:(x + 1) * d] = ops[x]
    return (eig_entropy_bits(block) - eig_entropy_bits(ops.sum(0))) * math.log(2.0)


def dilated_cond_entropy_bits(rho_ab, d_a, d_b, elements):
    """H(A|XB) after the Stinespring dilation V = sum_x sqrt(E_x) (x) |x>_X |x>_X'
    of a measurement on A: V (x) 1_B applied to rho_AB as one dense matrix,
    X' traced out by index contraction, H(AXB) - H(XB) from spectra."""
    m = len(elements)
    v = np.zeros((d_a, m, m, d_a), dtype=complex)
    for x, e in enumerate(elements):
        v[:, x, x, :] = psd_sqrt(e)
    big = np.kron(v.reshape(d_a * m * m, d_a), np.eye(d_b))
    full = (big @ rho_ab @ big.conj().T).reshape((d_a, m, m, d_b) * 2)
    rho_axb = np.einsum("axkbcykd->axbcyd", full)
    rho_xb = np.einsum("axbayd->xbyd", rho_axb)
    n = d_a * m * d_b
    return eig_entropy_bits(rho_axb.reshape(n, n)) - eig_entropy_bits(rho_xb.reshape(n // d_a, -1))


def fidelity_sqrtm(rho, sigma):
    """Uhlmann fidelity via scipy's general matrix square root."""
    import scipy.linalg

    s = scipy.linalg.sqrtm(rho)
    inner = scipy.linalg.sqrtm(s @ sigma @ s)
    return float(np.real(np.trace(inner)) ** 2)


def helstrom_textbook(om0, om1):
    """(tr om0 + tr om1 + ||om0 - om1||_1) / 2 with the trace norm by SVD."""
    tn = float(np.sum(np.linalg.svd(om0 - om1, compute_uv=False)))
    return 0.5 * (np.real(np.trace(om0) + np.trace(om1)) + tn)


def pguess_qubit_projective_grid(cq, n_theta=400, n_phi=400):
    """Brute-force two-outcome projective guessing probability on a qubit.

    For two hypotheses the optimal POVM is projective, so a dense angle grid
    over qubit projectors lower-bounds (and at this resolution pins down)
    the optimum. Each grid point v gives <v|om0|v> + tr om1 - <v|om1|v> and
    the same with the outcomes swapped; the whole grid is one broadcast.
    """
    (_, om0), (_, om1) = cq.outcomes
    th = np.linspace(0.0, math.pi, n_theta)[:, None]
    ph = np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False)[None, :]
    v = np.stack(np.broadcast_arrays(np.cos(th / 2.0) + 0j,
                                     np.sin(th / 2.0) * np.exp(1j * ph)), axis=-1)
    t0, t1 = float(np.real(np.trace(om0))), float(np.real(np.trace(om1)))
    q0 = np.einsum("tpi,ij,tpj->tp", v.conj(), om0, v).real
    q1 = np.einsum("tpi,ij,tpj->tp", v.conj(), om1, v).real
    # rank-0 and rank-2 guessing operators (always bet on one hypothesis)
    return max(t0, t1, float(np.max(q0 + t1 - q1)), float(np.max(q1 + t0 - q0)))


def fdec_bloch_grid(cq, levels=4, n=41):
    """Decoupling fidelity by brute force over qubit memory states.

    Uses the qubit closed form F(rho, sigma) = tr(rho sigma)
    + 2 sqrt(det rho det sigma) on a Bloch-ball grid, then refines the box
    around the best point a few times.
    """
    ts, us, dets = [], [], []
    for _, om in cq.outcomes:
        ts.append(float(np.real(np.trace(om))))
        us.append(np.array([float(np.real(np.trace(om @ s))) for s in PAULI]))
        dets.append(max(float(np.real(np.linalg.det(om))), 0.0))
    center = np.zeros(3)
    halfw = 1.0
    best = -1.0
    for _ in range(levels):
        ax = np.linspace(-halfw, halfw, n)
        xx, yy, zz = np.meshgrid(ax + center[0], ax + center[1], ax + center[2],
                                 indexing="ij")
        v = np.stack([xx.ravel(), yy.ravel(), zz.ravel()], axis=1)
        v = v[np.sum(v * v, axis=1) <= 1.0]
        det_sigma = (1.0 - np.sum(v * v, axis=1)) / 4.0
        s = np.zeros(len(v))
        for t, u, d in zip(ts, us, dets):
            f = 0.5 * (t + v @ u) + 2.0 * np.sqrt(d * det_sigma)
            s += np.sqrt(np.clip(f, 0.0, None))
        i = int(np.argmax(s))
        if s[i] ** 2 > best:
            best = float(s[i] ** 2)
            center = v[i]
        halfw *= 4.4 / (n - 1)
    return best


def fdec_direct(cq, sigma):
    """(sum_x sqrt(F(omega_x, sigma)))^2 for one fixed memory state sigma.

    The objective of the decoupling-fidelity supremum, so a lower bound on
    F_dec for every sigma; fidelities by scipy's matrix square root.
    """
    total = sum(math.sqrt(max(fidelity_sqrtm(om, sigma), 0.0)) for _, om in cq.outcomes)
    return float(total ** 2)


def gaussian_h_bits(sigma):
    """Differential entropy of N(0, sigma^2) in bits."""
    return 0.5 * math.log2(2.0 * math.pi * math.e * sigma ** 2)


def gaussian_hmin_bits(sigma):
    """-log2 of the N(0, sigma^2) density peak."""
    return 0.5 * math.log2(2.0 * math.pi * sigma ** 2)


def gaussian_hmax_bits(sigma):
    """2 log2 integral sqrt of the N(0, sigma^2) density."""
    return math.log2(2.0 * sigma * math.sqrt(2.0 * math.pi))


def prolate_lambda0(c):
    """Top eigenvalue of the bandwidth-c time-frequency limiting operator.

    lambda_0(c) = (2c/pi) R_00(c, 1)^2 with scipy's radial prolate function
    of the first kind. pro_rad1 needs x > 1, so the value is linearly
    extrapolated to x = 1 from x = 1 + 1e-7 and x = 1 + 2e-7.
    """
    from scipy.special import pro_rad1

    def lam(x):
        r, _ = pro_rad1(0, 0, c, x)
        return (2.0 * c / math.pi) * r * r

    return 2.0 * lam(1.0 + 1e-7) - lam(1.0 + 2e-7)


def nystrom_lambda0(delta_q, delta_p, order):
    """Top eigenvalue of the full Nystrom matrix sqrt(w_i w_j) K(x_i, x_j)
    of the sinc kernel K(x, y) = sin(dp (x - y) / 2) / (pi (x - y)) on all
    `order` Gauss-Legendre nodes of [-dq/2, dq/2], by one dense eigvalsh."""
    xi, w = np.polynomial.legendre.leggauss(order)
    x, w = 0.5 * delta_q * xi, 0.5 * delta_q * w
    diff = x[:, None] - x[None, :]
    k = delta_p / (2.0 * math.pi) * np.sinc(delta_p * diff / (2.0 * math.pi))
    sw = np.sqrt(w)
    return float(np.linalg.eigvalsh(sw[:, None] * k * sw[None, :])[-1])


def normal_cells(mean, sd, alpha, k):
    """Probabilities of N(mean, sd^2) in the cells ((k - 1/2) alpha,
    (k + 1/2) alpha], by scipy's normal CDF. Each is a difference of the
    tail beyond the cell on the far side from the mean, so cells far out
    keep their relative precision. mean and k broadcast."""
    from scipy.special import ndtr

    lo = ((k - 0.5) * alpha - mean) / sd
    hi = ((k + 0.5) * alpha - mean) / sd
    return np.where(lo > 0.0, ndtr(-lo) - ndtr(-hi), ndtr(hi) - ndtr(lo))


def epr_rung_brackets_bits(nu, alpha):
    """SDP-free brackets {"min": (lower, upper), "max": (lower, upper)} on
    H_min(Q_alpha|B) + log2 alpha and H_max(Q_alpha|B) + log2 alpha of the
    EPR state of parameter nu, in bits, for the centered cells of width
    alpha (edges at (k +- 1/2) alpha).

    Lower bounds, the uncertainty relation with a trivial third party:
    H_min(Q|B) >= -log2 c - H_max(P) and H_max(Q|B) >= -log2 c - H_min(P),
    with c = prolate_lambda0(alpha^2 / 4) and P_alpha the cells of the
    momentum marginal N(0, nu/2). Upper bounds, data processing by homodyne
    of B: H_min(Q|B) <= H_min(Q|X_B) and H_max(Q|B) <= H_max(Q|X_B), where
    x_B ~ N(0, nu/2) and x_A | x_B ~ N(t x_B, 1/(2 nu)), t = sqrt(nu^2 - 1)/nu.
    Those are integrals over x_B of max_k P(k|x_B) and of
    (sum_k sqrt P(k|x_B))^2 against the density of x_B, taken over
    |x_B| <= 14 sd by 16-point Gauss-Legendre rules on pieces between the
    kinks of the max, where t x_B crosses a cell edge (and on a uniform
    subdivision, so no piece is wide). Gauss-Hermite over the whole line
    converges slowly across the kinks: at nu = 1.5 and alpha = 1, 100 and
    200 nodes give H_min upper bounds 3e-3 apart, the 200-node one still
    4.4e-3 above this rule's (which a 2e6-point trapezoid rule confirms to
    1e-9), and numpy's 400-node rule overflows.
    """
    nodes, reach = 16, 14.0
    sd = math.sqrt(nu / 2.0)
    t, s = math.sqrt(nu * nu - 1.0) / nu, 1.0 / math.sqrt(2.0 * nu)
    span = reach * sd

    def cells_over(lo, hi):
        return np.arange(math.floor(lo / alpha) - 1, math.ceil(hi / alpha) + 2)

    p = normal_cells(0.0, sd, alpha, cells_over(-span, span))
    neg_log_c = -math.log2(prolate_lambda0(alpha * alpha / 4.0))
    kinks = (cells_over(-t * span, t * span) + 0.5) * alpha / t
    edges = np.union1d(kinks[np.abs(kinks) < span], np.linspace(-span, span, 65))
    x, w = np.polynomial.legendre.leggauss(nodes)
    half = 0.5 * np.diff(edges)
    y = ((edges[:-1] + half)[:, None] + half[:, None] * x).ravel()
    density = np.exp(-0.5 * (y / sd) ** 2) / (sd * math.sqrt(2.0 * math.pi))
    weight = (half[:, None] * w).ravel() * density
    reach_q = t * span + reach * s
    cond = normal_cells(t * y[:, None], s, alpha, cells_over(-reach_q, reach_q))
    log_alpha = math.log2(alpha)
    return {
        "min": (neg_log_c - 2.0 * math.log2(np.sqrt(p).sum()) + log_alpha,
                -math.log2(weight @ cond.max(1)) + log_alpha),
        "max": (neg_log_c + math.log2(p.max()) + log_alpha,
                math.log2(weight @ np.sqrt(cond).sum(1) ** 2) + log_alpha),
    }


def hermite_functions(levels, q):
    """(levels, len(q)) array of the oscillator eigenfunctions
    h_n(q) = (2^n n! sqrt(pi))^(-1/2) H_n(q) e^(-q^2/2), vacuum variance 1/2,
    from scipy's physicists' Hermite polynomials, with the normalization
    taken in logs (gammaln) so that n! never overflows."""
    from scipy.special import eval_hermite, gammaln

    n = np.arange(levels)[:, None]
    log_norm = -0.5 * (n * math.log(2.0) + gammaln(n + 1.0) + 0.5 * math.log(math.pi))
    return eval_hermite(n, q) * np.exp(log_norm - 0.5 * q * q)


def epr_samples(nu, q, levels):
    """The EPR state's samples sech(r) tanh(r)^n h_n(q_i), n < levels, on the
    uniform grid q, normalized so that dq sum_i ||psi(q_i)||^2 = 1."""
    r = 0.5 * math.acosh(nu)
    coeffs = math.tanh(r) ** np.arange(levels) / math.cosh(r)
    samples = (coeffs[:, None] * hermite_functions(levels, q)).T
    return samples / math.sqrt((q[1] - q[0]) * np.sum(samples ** 2))


FOCK_TERMS_MAX = 1e7


def epr_memory_entropy_nats(nu):
    """H(B) of the EPR state in nats, by Fock sums: the Shannon entropy of
    the thermal photon distribution (1 - t) t^n with t = tanh(r)^2 =
    (nu - 1)/(nu + 1), summed until t^n < e^-80. The term count grows like
    nu, so past FOCK_TERMS_MAX terms it raises ValueError; epr_gap_decimal
    serves there.
    """
    t = (nu - 1.0) / (nu + 1.0)
    if t <= 0.0:
        return 0.0
    terms = 80.0 / -math.log(t) + 1.0 if t < 1.0 else math.inf
    if terms > FOCK_TERMS_MAX:
        raise ValueError(f"nu = {nu:g} needs {terms:.3g} Fock terms, above "
                         f"{FOCK_TERMS_MAX:g}; use epr_gap_decimal")
    n = np.arange(int(terms))
    logp = math.log1p(-t) + n * math.log(t)
    return -math.fsum(np.exp(logp) * logp)


def epr_gap_nats(nu):
    """EPR uncertainty gap 2 h(Q) - H(B) - log(2 pi) in nats, by Fock sums.

    h(Q) = log(pi e nu) / 2 is the Gaussian marginal entropy and H(B) is
    epr_memory_entropy_nats(nu), which refuses large nu.
    """
    h_b = epr_memory_entropy_nats(nu)
    return math.log(math.pi * math.e * nu) - h_b - math.log(2.0 * math.pi)


def epr_gap_decimal(nu, digits=60):
    """EPR uncertainty gap log(pi e nu) - H(B) - log(2 pi) in nats, evaluated
    in `digits`-digit decimal arithmetic.

    The pi terms cancel exactly, leaving 1 + log(nu/2) - H(B) with the
    thermal memory entropy H(B) = t log t - (t - 1) log(t - 1), t =
    (nu + 1)/2. The float nu is taken exactly; the cancellation at large nu
    costs about log10(nu^2) + 1 digits, so 60 digits leave the float result
    exact for every nu below 1e20.
    """
    from decimal import Decimal, localcontext

    with localcontext() as ctx:
        ctx.prec = digits
        nu = Decimal(nu)
        t = (nu + 1) / 2
        h_b = t * t.ln()
        if t > 1:
            h_b -= (t - 1) * (t - 1).ln()
        return float(1 + (nu / 2).ln() - h_b)


def momentum_fftshift(q0, dq, samples):
    """Unitary momentum samples dq/sqrt(2 pi) e^{-i q0 p_k} fftshift(fft(psi))_k
    on p_k = -pi/dq + 2 pi k/(N dq): the FFT of the samples, its zero
    frequency rolled to the middle, then the grid phase and scale."""
    samples = np.asarray(samples, dtype=complex).reshape(len(samples), -1)
    n = len(samples)
    p = -math.pi / dq + 2.0 * math.pi / (n * dq) * np.arange(n)
    shifted = np.fft.fftshift(np.fft.fft(samples, axis=0), axes=0)
    return dq / math.sqrt(2.0 * math.pi) * np.exp(-1j * q0 * p)[:, None] * shifted


def binned_cq_loop(q0, dq, samples, alpha, offset, k_min, k_max):
    """{str(k): dq sum over cell k of psi psi^dagger} for the cells
    (offset + k alpha, offset + (k+1) alpha], k_min <= k <= k_max, of
    positive trace, in increasing k; one cell and one sample at a time."""
    samples = np.asarray(samples, dtype=complex).reshape(len(samples), -1)
    q = q0 + dq * np.arange(len(samples))
    out = {}
    for k in range(k_min, k_max + 1):
        lo, hi = offset + k * alpha, offset + (k + 1) * alpha
        op = np.zeros((samples.shape[1],) * 2, dtype=complex)
        for qi, v in zip(q, samples):
            if lo < qi <= hi:
                op += dq * np.outer(v, v.conj())
        if np.real(np.trace(op)) > 0.0:
            out[str(k)] = op
    return out


def binned_cq(q0, dq, samples, alpha, offset, k_min, k_max):
    """As binned_cq_loop, one product per cell instead of one outer product
    per sample, so that grids of many thousand samples and cells stay cheap:
    for each k, dq S^T conj(S) over the rows S of samples whose grid point
    lies in (offset + k alpha, offset + (k+1) alpha]."""
    samples = np.asarray(samples, dtype=complex).reshape(len(samples), -1)
    q = q0 + dq * np.arange(len(samples))
    out = {}
    for k in range(k_min, k_max + 1):
        lo, hi = offset + k * alpha, offset + (k + 1) * alpha
        rows = samples[(q > lo) & (q <= hi)]
        op = dq * (rows.T @ rows.conj())
        if np.real(np.trace(op)) > 0.0:
            out[str(k)] = op
    return out


def binned_cond_vn_nats(q0, dq, samples, alpha, offset, k_min, k_max):
    """H(XB) - H(B) in nats of binned_cq's state, one block at a time: the
    spectrum of the block-diagonal embedding is the union of the blocks'
    spectra, so H(XB) is the sum of the blocks' entropies, and H(B) is the
    entropy of their sum. Eigenvalues at or below 0 count as 0."""
    def entropy_nats(mat):
        vals = np.linalg.eigvalsh(0.5 * (mat + mat.conj().T))
        vals = vals[vals > 0.0]
        return float(-np.sum(vals * np.log(vals)))

    blocks = list(binned_cq(q0, dq, samples, alpha, offset, k_min, k_max).values())
    return sum(entropy_nats(b) for b in blocks) - entropy_nats(sum(blocks))


def with_cells(cq, rng, traces):
    """cq with one random density operator per trace appended as new
    outcomes, labelled after the existing ones."""
    from quncert.qstate import CQState
    from quncert.verify import random_density

    extra = [(f"extra{i}", t * random_density(cq.dim, rng)) for i, t in enumerate(traces)]
    return CQState(cq.outcomes + tuple(extra))


def block_diagonal(ops):
    """The cq operator sum_x |x><x| (x) omega_x of an (m, d, d) stack as one
    dense md x md matrix, filled block by block."""
    m, d = ops.shape[:2]
    out = np.zeros((m * d, m * d), dtype=complex)
    for x in range(m):
        out[x * d:(x + 1) * d, x * d:(x + 1) * d] = ops[x]
    return out


def random_cq(rng, n_outcomes, dim, rank=None):
    from quncert.qstate import CQState
    from quncert.verify import random_density

    p = rng.dirichlet(np.ones(n_outcomes))
    return CQState(tuple((str(i), p[i] * random_density(dim, rng, rank))
                         for i in range(n_outcomes)))


def block_embedding(m, d):
    """The embedding Y (q = m) -> Y_0 (+) ... (+) Y_{m-1} as one block of the
    package's interior-point core; the adjoint takes the diagonal d-blocks,
    and the pair of (x, y) is X_xy with W_yx."""
    from quncert.minmax import _cross_blocks, _Embedding

    def embed(y):
        out = np.zeros((m, d, m, d), dtype=y.dtype)
        out[np.arange(m), :, np.arange(m)] = y
        return out.reshape(1, m * d, m * d)

    return _Embedding(embed,
                      lambda s: np.einsum("xixj->xij", s.reshape(m, d, m, d)),
                      lambda x, w: tuple(b[None] for b in _cross_blocks(x, w, m, d)),
                      1)


def fdec_block_sdp(cq, tol):
    """The SDPResult of F_dec as the block SDP min { sum_x tr Y_x : (+)_x Y_x
    >= R }, R_xy = sqrt(omega_x) sqrt(omega_y), of size md on the package's
    interior-point core: a route that shares no step with the unitary
    ascent of decoupling_fidelity. Its cost grows like (m d^2)^3 per step."""
    from quncert.minmax import _ipm_value

    m, d = cq.ops.shape[:2]
    roots = psd_sqrt(cq.ops).reshape(m * d, d)
    r = roots @ roots.conj().T
    return _ipm_value(0.5 * (r + r.conj().T)[None], block_embedding(m, d), tol)


def fdec_by_purification(cq, tol):
    """The SDPResult of F_dec as 2^{-H_min(X|C)} of the purified cq state,
    C = X'B': the SDP of dimension m^2 d^2 that the block SDP reduces."""
    from quncert.minmax import cond_min_entropy_value
    from quncert.qstate import partial_trace, purify_cq

    m, d = cq.ops.shape[:2]
    vec, dims = purify_cq(cq)
    rho_xc = partial_trace(np.outer(vec, vec.conj()), list(dims), keep=[0, 1, 3])
    return cond_min_entropy_value(rho_xc, m, m * d, tol)
