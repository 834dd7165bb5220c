"""Entropy functionals: von Neumann, Umegaki relative, max-relative,
conditional von Neumann for cq states, and classical discrete/differential
entropies.

All computation is done in nats, on one conditional von Neumann core
(_cond_vn_nats; the relative entropy is its one-cell case) and one classical
core (_classical_nats); results carry an explicit base tag (_as_base) and
are reported in bits by default. Support conditions (whether supp rho lies inside
supp sigma) are decided at a relative eigenvalue threshold of 1e-10, giving
deterministic +inf behavior under round-off. 0*log(0) = 0 throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qstate import CQState, herm, kept_cells, psd_eigh

SUPPORT_RTOL = 1e-10

__all__ = [
    "EntropyValue",
    "von_neumann",
    "relative_entropy",
    "max_relative_entropy",
    "cond_vn_cq",
    "shannon",
    "differential_entropy",
    "classical_hmin_hmax",
]


@dataclass(frozen=True)
class EntropyValue:
    value: float  # may be +/- inf
    base: str = "bits"  # "bits" or "nats"

    def to_json(self) -> dict:
        v = self.value
        if math.isinf(v):
            v = "inf" if v > 0 else "-inf"
        return {"value": v, "base": self.base}


def _as_base(nats: float, base: str) -> EntropyValue:
    """The value nats as an EntropyValue in base "bits" or "nats"."""
    if base == "nats":
        return EntropyValue(nats, "nats")
    if base == "bits":
        return EntropyValue(nats / math.log(2), "bits")
    raise ValueError(f"unknown base {base!r}")


def _xlogx(p: np.ndarray) -> np.ndarray:
    out = np.zeros_like(p, dtype=float)
    mask = p > 0
    out[mask] = p[mask] * np.log(p[mask])
    return out


def _classical_nats(p: np.ndarray, kind: str) -> float:
    """Entropy in nats of nonnegative weights p: Shannon -sum p log p (kind
    "vn"), min -log max p, or max 2 log sum sqrt(p). 0.0 - keeps an exact 0
    at +0.0."""
    if kind == "vn":
        return 0.0 - float(_xlogx(p).sum())
    if kind == "min":
        return 0.0 - math.log(float(p.max()))
    return 2.0 * math.log(float(np.sum(np.sqrt(p))))


def _finite(name: str, a) -> np.ndarray:
    """a as a complex array, once checked to have finite entries."""
    a = np.asarray(a, dtype=complex)
    if not np.isfinite(a).all():
        raise ValueError(f"{name} must have finite entries")
    return a


def von_neumann(rho: np.ndarray, base: str = "bits") -> EntropyValue:
    """H(rho) = -tr[rho log rho] for a normalized density matrix."""
    rho = _finite("rho", rho)
    tr = float(np.real(np.trace(rho)))
    if abs(tr - 1.0) > 1e-8:
        raise ValueError(f"state not normalized: trace = {tr}")
    vals, _ = psd_eigh(rho)
    return _as_base(_classical_nats(vals, "vn"), base)


def _spectrum(sigma: np.ndarray):
    """sigma's spectrum clipped at 0, its eigenvectors, and the mask of
    eigenvalues above SUPPORT_RTOL times the largest (its support)."""
    vals, vecs = psd_eigh(sigma)
    return vals, vecs, vals > SUPPORT_RTOL * vals.max()


def _leaks(diag: np.ndarray, on_support: np.ndarray, tr) -> bool:
    """The support test: True when sigma has no positive eigenvalue, or when
    some rho, of trace tr and with diagonal diag in sigma's eigenbasis, puts
    weight above SUPPORT_RTOL * max(1, tr) in the kernel of sigma."""
    if not on_support.any():
        return True
    leak = diag[..., ~on_support].sum(-1)
    return bool(np.any(leak > SUPPORT_RTOL * np.maximum(1.0, tr)))


def _support(sigma: np.ndarray, rho: np.ndarray):
    """(vals, vecs, on_support) of sigma as _spectrum gives them, and diag,
    the real diagonal of vecs^dagger rho vecs for rho one matrix or each of
    an (m, d, d) stack: what _leaks and the cross term of _cond_vn_nats read."""
    vals, vecs, on_support = _spectrum(sigma)
    return vals, vecs, on_support, np.einsum("...ij,ij->...j", rho @ vecs, vecs.conj()).real


def relative_entropy(rho: np.ndarray, sigma: np.ndarray, base: str = "bits") -> EntropyValue:
    """Umegaki relative entropy D(rho||sigma) = tr[rho log rho - rho log sigma].

    rho may be subnormalized. Evaluated as -_cond_vn_nats of the one cell
    rho against sigma: +inf when supp(rho) is not contained in supp(sigma)
    (the support test of _leaks); once it is, the cross term runs over
    every positive eigenvalue of sigma.
    """
    rho, sigma = _finite("rho", rho), _finite("sigma", sigma)
    if rho.shape != sigma.shape:
        raise ValueError("dimension mismatch")
    svals, _, on_support, diag = _support(sigma, rho[None])
    # 0.0 - keeps an exact 0 at +0.0
    return _as_base(0.0 - _cond_vn_nats(svals, on_support, diag, np.trace(rho).real,
                                        rho[None]), base)


def max_relative_entropy(rho: np.ndarray, sigma: np.ndarray, base: str = "bits") -> EntropyValue:
    """D_max(rho||sigma): smallest iota with rho <= 2^iota sigma.

    Evaluated as log of the largest eigenvalue of sigma^{-1/2} rho sigma^{-1/2}
    restricted to supp(sigma); +inf on support violation.
    """
    rho, sigma = _finite("rho", rho), _finite("sigma", sigma)
    if rho.shape != sigma.shape:
        raise ValueError("dimension mismatch")
    svals, svecs, on_support, diag = _support(sigma, rho)
    if _leaks(diag, on_support, np.trace(rho).real):
        return _as_base(math.inf, base)
    inv_sqrt = svecs[:, on_support] * (1.0 / np.sqrt(svals[on_support]))
    core = inv_sqrt.conj().T @ rho @ inv_sqrt
    lam = float(np.linalg.eigvalsh(herm(core)).max())
    if lam <= 0.0:
        return _as_base(-math.inf, base)
    return _as_base(math.log(lam), base)


def _cond_vn_nats(svals: np.ndarray, on_support: np.ndarray, diag: np.ndarray,
                  traces: np.ndarray, cells: np.ndarray) -> float:
    """H(X|B) in nats = -sum_x tr[omega_x log omega_x] + sum_x tr[omega_x log omega_B].

    svals and on_support are omega_B's clipped spectrum and support mask
    (_spectrum); diag[x] is omega_x's diagonal in omega_B's eigenbasis and
    traces[x] its trace. cells is a Hermitian stack whose x-th matrix has
    the nonzero spectrum of omega_x: omega_x itself, or its Gram matrix.
    Only the lower triangles are read. -inf when some omega_x fails the
    support test (_leaks). Once it passes, the cross term runs over every
    positive eigenvalue of omega_B, the small ones below the support mask
    included, so the value is H(XB) - H(B) to rounding. On one cell rho
    against omega_B = sigma it is -D(rho||sigma) (relative_entropy).
    """
    if _leaks(diag, on_support, traces):
        return -math.inf
    self_term = _classical_nats(np.clip(np.linalg.eigvalsh(cells), 0.0, None), "vn")
    positive = svals > 0.0
    diag = np.clip(diag[:, positive], 0.0, None)
    return float(np.sum(diag @ np.log(svals[positive]))) + self_term


def cond_vn_cq(omega: CQState, base: str = "bits") -> EntropyValue:
    """Conditional von Neumann entropy H(X|B) = -sum_x D(omega_B^x || omega_B).

    Evaluated for all outcomes at once as -sum_x tr[omega_B^x log omega_B^x]
    + sum_x tr[omega_B^x log omega_B]: one eigendecomposition of omega_B, one
    eigvalsh of the state's symmetrized (m, d, d) stack omega.ops, and each
    outcome's diagonal in omega_B's eigenbasis, clipped at 0. Returns -inf
    when some outcome fails the support test of relative_entropy. Agrees
    with H(XB) - H(B) on the block-diagonal embedding.

    Cells of negligible trace are skipped (qstate.kept_cells): each term
    lies in [0, -t_x log t_x], since omega_B^x <= omega_B, so the value is a
    lower bound within qstate.NEGLIGIBLE = 1e-15 nats of the sum over all
    cells. omega_B stays the marginal of all cells; a skipped cell's kernel
    leak is at most its trace, below 3e-17, so it cannot fail the support
    test.
    """
    keep = kept_cells(omega.probs, "vn")
    ops = omega.ops[keep]
    svals, _, on_support, diag = _support(omega.marginal(), ops)
    return _as_base(_cond_vn_nats(svals, on_support, diag, omega.probs[keep], ops), base)


def shannon(p: np.ndarray, base: str = "bits") -> EntropyValue:
    """Discrete Shannon entropy of a probability vector."""
    p = np.asarray(p, dtype=float)
    if p.min() < -1e-12:
        raise ValueError(f"negative probability {p.min()}")
    p = np.clip(p, 0.0, None)
    if abs(p.sum() - 1.0) > 1e-9:
        raise ValueError(f"probabilities sum to {p.sum()}, not 1")
    return _as_base(_classical_nats(p, "vn"), base)


def _density(density: np.ndarray, dq: float) -> np.ndarray:
    """density clipped at 0, once checked to be a normalized density on a
    grid of spacing dq: no entry below -1e-12, integral within 1e-6 of 1."""
    p = np.asarray(density, dtype=float)
    if p.min() < -1e-12:
        raise ValueError(f"negative density {p.min()}")
    p = np.clip(p, 0.0, None)
    if abs(p.sum() * dq - 1.0) > 1e-6:
        raise ValueError(f"density integrates to {p.sum() * dq}, not 1")
    return p


def differential_entropy(density: np.ndarray, dq: float, base: str = "bits") -> EntropyValue:
    """h = -int P log P, midpoint rule on a uniform grid with spacing dq."""
    return _as_base(_classical_nats(_density(density, dq), "vn") * dq, base)


def classical_hmin_hmax(density: np.ndarray, dq: float, base: str = "bits"):
    """Differential Renyi entropies of order infinity and 1/2.

    h_min = -log ||P||_inf, h_max = 2 log int sqrt(P); h_min <= h <= h_max.
    The density is checked as differential_entropy checks it. On the grid
    h_max is the discrete max-entropy of the samples plus 2 log dq.
    """
    p = _density(density, dq)
    h_max = _classical_nats(p, "max") + 2.0 * math.log(dq)
    return _as_base(_classical_nats(p, "min"), base), _as_base(h_max, base)
