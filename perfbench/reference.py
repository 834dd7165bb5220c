"""Reference computations for the benchmark's correctness checks.

Nothing here imports quncert: every value is a closed form, a plain numpy
eigendecomposition or FFT, or scipy's prolate functions, so a fault in the
package cannot cancel against the same fault in its reference.
"""

from __future__ import annotations

import math

import numpy as np


def thermal_entropy_bits(nu: float) -> float:
    """Entropy of one EPR mode, summed over the thermal Fock distribution
    (1 - t) t^n with t = (nu - 1)/(nu + 1), until t^n < e^-80."""
    t = (nu - 1.0) / (nu + 1.0)
    if t <= 0.0:
        return 0.0
    n = np.arange(int(80.0 / -math.log(t)) + 1)
    logp = math.log1p(-t) + n * math.log(t)
    return -math.fsum(np.exp(logp) * logp) / math.log(2.0)


def epr_h_q_given_b_bits(nu: float) -> float:
    """h(Q|B) = h(Q) - H(B) for the EPR state: the joint state is pure, so
    H(QB) - H(B) reduces to the Gaussian marginal entropy log2(pi e nu)/2
    minus the memory entropy."""
    return 0.5 * math.log2(math.pi * math.e * nu) - thermal_entropy_bits(nu)


def prolate_lambda0(c: float) -> float:
    """Top eigenvalue of the bandwidth-c time-frequency limiting operator,
    (2c/pi) R_00(c, 1)^2 from scipy's radial prolate function; pro_rad1 needs
    x > 1, so the value is extrapolated linearly from 1 + 1e-7 and 1 + 2e-7."""
    from scipy.special import pro_rad1

    def lam(x):
        r, _ = pro_rad1(0, 0, c, x)
        return (2.0 * c / math.pi) * r * r

    return 2.0 * lam(1.0 + 1e-7) - lam(1.0 + 2e-7)


def eig_entropy_bits(mat: np.ndarray) -> float:
    """-sum lambda log2 lambda over the eigenvalues above 1e-15."""
    vals = np.linalg.eigvalsh(0.5 * (mat + mat.conj().T))
    vals = vals[vals > 1e-15]
    return float(-np.sum(vals * np.log2(vals)))


def cond_vn_bits(ops) -> float:
    """H(X|B) = H(XB) - H(B) of a cq state; H(XB) is the entropy of the
    block-diagonal operator, i.e. the sum of the blocks' spectral entropies."""
    h_xb = sum(eig_entropy_bits(op) for op in ops)
    return h_xb - eig_entropy_bits(sum(ops))


def shannon_bits(p: np.ndarray) -> float:
    p = p[p > 0.0]
    return float(-np.sum(p * np.log2(p)))


def cell_index(x: np.ndarray, alpha: float) -> np.ndarray:
    """Index k of the cell (-alpha/2 + k alpha, -alpha/2 + (k+1) alpha]."""
    return np.ceil((x + 0.5 * alpha) / alpha).astype(np.int64) - 1


def memory_marginal(dq: float, samples: np.ndarray) -> np.ndarray:
    """omega_B = dq sum_q psi(q) psi(q)^dagger."""
    return dq * samples.T @ samples.conj()


def binned_position_cq(q0: float, dq: float, samples: np.ndarray, alpha: float) -> dict:
    """{cell index: dq sum over the cell of psi psi^dagger} for cells of
    positive trace."""
    q = q0 + dq * np.arange(samples.shape[0])
    k = cell_index(q, alpha)
    out = {}
    for cell in np.unique(k):
        block = samples[k == cell]
        op = dq * block.T @ block.conj()
        if np.real(np.trace(op)) > 0.0:
            out[int(cell)] = op
    return out


def momentum_cell_entropy_bits(q0: float, dq: float, samples: np.ndarray,
                               alpha: float) -> float:
    """H(P_alpha) of the memory-traced momentum density, in bits.

    On the grid p_k = -pi/dq + 2 pi k/(N dq) the phase e^{-i q_n p_k} equals
    e^{-i q0 p_k} (-1)^n e^{-2 pi i nk/N}; the first factor drops out of
    |phi|^2, so the density is dq^2/(2 pi) sum_j |FFT((-1)^n psi_j)_k|^2.
    """
    n = samples.shape[0]
    sign = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)[:, None]
    amp = np.fft.fft(sign * samples, axis=0)
    density = dq * dq / (2.0 * math.pi) * np.sum(np.abs(amp) ** 2, axis=1)
    dp = 2.0 * math.pi / (n * dq)
    p = -math.pi / dq + dp * np.arange(n)
    k = cell_index(p, alpha)
    probs = np.bincount(k - k.min(), weights=density * dp)
    return shannon_bits(probs / probs.sum())


def mub_vectors(d: int):
    """Columns of the identity and of the unitary DFT matrix."""
    j, k = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    return np.eye(d, dtype=complex), np.exp(2j * math.pi * j * k / d) / math.sqrt(d)


def measured_cq(psi: np.ndarray, dims, basis: np.ndarray, keep: int) -> list:
    """Conditional operators of the memory `keep` (1 or 2) after measuring
    factor 0 of the pure state psi in the orthonormal columns of `basis`."""
    t = np.einsum("ay,abc->ybc", basis.conj(), psi.reshape(dims))
    if keep == 1:
        return [m @ m.conj().T for m in t]
    return [m.T @ m.conj() for m in t]
