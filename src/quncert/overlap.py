"""Position-momentum measurement overlap c(dq, dp) and finite-dimensional
POVM overlaps.

c(dq, dp) is the operator norm of Q[I] P[J] Q[I] with I, J intervals of
width dq, dp: the top eigenvalue of the time-frequency limiting integral
operator on L^2([-dq/2, dq/2]) with the sinc kernel
K(x, y) = sin(dp (x - y) / 2) / (pi (x - y)), K(x, x) = dp / (2 pi).
The eigenproblem is solved by Nystrom discretization on Gauss-Legendre
nodes with the symmetric weighting A_ij = sqrt(w_i w_j) K(x_i, x_j),
doubling the quadrature order until the top eigenvalue is stable to 1e-10.
The top eigenfunction is the (truncated) 0th prolate spheroidal wave
function, which is even, so only A's even block over the positive nodes is
decomposed; the special function itself is never evaluated.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .qstate import POVM, PSD_TOL, herm, psd_funcm

NYSTROM_START = 64
NYSTROM_CAP = 2048
NYSTROM_TOL = 1e-10

__all__ = [
    "OverlapResult",
    "ProlateEigenfunction",
    "prolate_overlap",
    "prolate_top_eigenfunction",
    "povm_overlap",
    "frank_lieb_overlap",
]


@dataclass(frozen=True)
class OverlapResult:
    """c(dq, dp), the Nystrom order the doubling loop stopped at, and whether
    the top eigenvalue was stable to NYSTROM_TOL there (not at the cap)."""

    c: float
    nystrom_order: int
    converged: bool


@dataclass(frozen=True)
class ProlateEigenfunction:
    """Top eigenpair of the limiting operator, with Nystrom interpolation."""

    delta_q: float
    delta_p: float
    eigenvalue: float
    nodes: np.ndarray
    weights: np.ndarray
    values: np.ndarray  # eigenfunction at the nodes, unit L2 norm on the interval

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """Nystrom interpolation psi(x) = (1/lambda) sum_j w_j K(x, x_j) psi(x_j).

        Valid for x inside [-delta_q/2, delta_q/2]; the eigenfunction is zero
        outside by construction."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        k = _sinc_kernel(x[:, None], self.nodes[None, :], self.delta_p)
        out = (k * self.weights[None, :]) @ self.values / self.eigenvalue
        out[np.abs(x) > self.delta_q / 2.0] = 0.0
        return out

    def fourier(self, p: np.ndarray) -> np.ndarray:
        """phi(p) = (2 pi)^{-1/2} integral over the support of psi(x) e^{-ipx}.

        The support is the quadrature interval, so the Gauss-Legendre nodes
        already carried by the object integrate this exactly (the integrand
        is smooth and bandlimited in x)."""
        p = np.atleast_1d(np.asarray(p, dtype=float))
        phase = np.exp(-1j * np.outer(p, self.nodes))
        return phase @ (self.weights * self.values) / math.sqrt(2.0 * math.pi)

    def momentum_cell_probabilities(self, n_cells: int = 64,
                                    nodes_per_cell: int = 64) -> np.ndarray:
        """Probabilities of momentum cells of width delta_p centered on 0.

        Each cell integral of |phi(p)|^2 is done by per-cell Gauss-Legendre;
        the spectrum decays only like 1/p^2 (the eigenfunction is truncated
        sharply at the interval edge), so direct quadrature per cell beats
        any uniform-grid binning of an FFT. Cells run over
        [-(n_cells/2) delta_p, (n_cells/2) delta_p]; the omitted tail only
        lowers the far cells, never the peak one."""
        dp = self.delta_p
        xi, w = _gauss_legendre(nodes_per_cell)
        n_cells += 1 - n_cells % 2  # odd count so one cell is centered on 0
        lo = -(n_cells / 2.0) * dp
        probs = np.empty(n_cells)
        for k in range(n_cells):
            a, b = lo + k * dp, lo + (k + 1) * dp
            pk = 0.5 * (b - a) * xi + 0.5 * (a + b)
            dens = np.abs(self.fourier(pk)) ** 2
            probs[k] = 0.5 * (b - a) * float(np.dot(w, dens))
        return probs


def _sinc_kernel(x, y, delta_p: float) -> np.ndarray:
    # sin(dp (x-y)/2) / (pi (x-y)) with the analytic diagonal dp/(2 pi)
    diff = np.asarray(x - y, dtype=float)
    out = np.full(diff.shape, delta_p / (2.0 * math.pi))
    mask = diff != 0.0
    out[mask] = np.sin(delta_p * diff[mask] / 2.0) / (math.pi * diff[mask])
    return out


@functools.lru_cache(maxsize=16)
def _gauss_legendre(order: int):
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per order.
    Every caller shares the two arrays, so they are read-only."""
    xi, w = np.polynomial.legendre.leggauss(order)
    xi.flags.writeable = False
    w.flags.writeable = False
    return xi, w


def _nodes(delta_q: float, order: int):
    """Gauss-Legendre nodes and weights of one order on the interval."""
    xi, w = _gauss_legendre(order)
    half = delta_q / 2.0
    return half * xi, half * w


def _even_block(delta_q: float, delta_p: float, order: int) -> np.ndarray:
    """The Nystrom matrix A_ij = sqrt(w_i w_j) K(x_i, x_j) of one even order
    restricted to even vectors: B_ij = sqrt(w_i w_j) [K(x_i, x_j) +
    K(x_i, -x_j)] over the order/2 positive nodes. The rule is symmetric
    (x_{n-1-i} = -x_i, equal weights), so A maps mirror-symmetric vectors
    to mirror-symmetric vectors as B maps their positive halves."""
    nodes, weights = _nodes(delta_q, order)
    x, sw = nodes[order // 2:], np.sqrt(weights[order // 2:])
    k = (_sinc_kernel(x[:, None], x[None, :], delta_p)
         + _sinc_kernel(x[:, None], -x[None, :], delta_p))
    return sw[:, None] * k * sw[None, :]


def _nystrom_top(delta_q: float, order: int, block: np.ndarray):
    """Top eigenvalue of the even block and the eigenfunction at all nodes
    of the order: its eigenvector mirrored onto the negative nodes, unit L2
    norm on the interval, positive at the center."""
    vals, vecs = np.linalg.eigh(block)
    lam = float(vals[-1])
    nodes, weights = _nodes(delta_q, order)
    # mirror, undo the symmetric weighting, normalize and fix the sign
    psi = np.concatenate([vecs[::-1, -1], vecs[:, -1]]) / np.sqrt(weights)
    psi /= math.sqrt(float(np.sum(weights * psi ** 2)))
    if psi[len(psi) // 2] < 0:
        psi = -psi
    return lam, nodes, weights, psi


def _doubling(delta_q: float, delta_p: float):
    """The doubling loop of prolate_overlap: (top eigenvalue, final order,
    its even block, converged) from eigenvalues alone (eigvalsh)."""
    if not (0.0 < delta_q < math.inf and 0.0 < delta_p < math.inf):
        raise ValueError(f"spacings must be positive and finite, got {delta_q} and {delta_p}")
    if not math.isfinite(delta_q * delta_p):
        raise ValueError(f"spacings {delta_q} and {delta_p} too large: their product overflows")
    if delta_q * delta_p / (2.0 * math.pi) < np.finfo(float).tiny:
        raise ValueError(f"spacings {delta_q} and {delta_p} too small: "
                         f"the overlap, about their product / (2 pi), underflows")
    order = NYSTROM_START
    block = _even_block(delta_q, delta_p, order)
    lam = float(np.linalg.eigvalsh(block)[-1])
    converged = False
    while order < NYSTROM_CAP:
        order *= 2
        block = _even_block(delta_q, delta_p, order)
        lam2 = float(np.linalg.eigvalsh(block)[-1])
        converged = abs(lam2 - lam) < NYSTROM_TOL
        lam = lam2
        if converged:
            break
    return lam, order, block, converged


def prolate_overlap(delta_q: float, delta_p: float) -> OverlapResult:
    """Largest eigenvalue of the time-frequency limiting operator.

    Quadrature order (the full Gauss-Legendre order, even) doubles from
    NYSTROM_START = 64 until |lambda(n) - lambda(2n)| is below 1e-10 or the
    cap of 2048 is hit (converged flag reports which). Spacings must be
    positive and finite, and delta_q * delta_p / (2 pi), the overlap at
    small spacings, a normal double. The top eigenfunction is even, so each
    order takes the top eigenvalue of the half-size even block (_even_block)
    rather than of the full Nystrom matrix; that also keeps it apart from
    the odd lambda_1, which nears it as c -> 1. The loop takes eigenvalues
    only (eigvalsh); prolate_top_eigenfunction gives the eigenfunction.
    """
    lam, order, _, converged = _doubling(delta_q, delta_p)
    return OverlapResult(float(min(lam, 1.0)), order, converged)


def prolate_top_eigenfunction(delta_q: float, delta_p: float) -> ProlateEigenfunction:
    """Unit-norm top eigenfunction on [-delta_q/2, delta_q/2] (even, positive
    at the center), from the eigenvector (eigh) of the even block at the
    order where prolate_overlap's loop stops; its eigenvalue, the Rayleigh
    quotient, matches the overlap to rounding."""
    _, order, block, _ = _doubling(delta_q, delta_p)
    return ProlateEigenfunction(delta_q, delta_p, *_nystrom_top(delta_q, order, block))


def povm_overlap(e: POVM, f: POVM) -> float:
    """c(E, F) = max_{x,y} lambda_max(sqrt(E_x) F_y sqrt(E_x)), from one
    batched square root of E and one batched eigvalsh over all pairs."""
    if e.dim != f.dim:
        raise ValueError("dimension mismatch")
    for name, els in (("E", e.elements), ("F", f.elements)):
        if np.linalg.eigvalsh(herm(els)).min() < -PSD_TOL:
            raise ValueError(f"{name} is not positive semidefinite")
    se = psd_funcm(e.elements, np.sqrt)[:, None]
    vals = np.linalg.eigvalsh(herm(se @ f.elements @ se))
    return float(max(vals[..., -1].max(), 0.0))


def frank_lieb_overlap(e: POVM, f: POVM) -> float:
    """c_1(E, F) = max_{x,y} tr[E_x F_y]; equals c when one measurement is
    rank-one projective, otherwise an upper bound."""
    if e.dim != f.dim:
        raise ValueError("dimension mismatch")
    return max(float(np.real(np.trace(herm(ex) @ herm(fy))))
               for ex in e.elements for fy in f.elements)
