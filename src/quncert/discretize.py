"""Interval partitions of the line, discretization of grid wavefunctions into
cq states, the FFT momentum transform, and the regularized convergence
ladders H(X_alpha|B) + log(alpha) -> h(X|B).

A partition covers the line with cells I_k = (offset + k*alpha,
offset + (k+1)*alpha]; the default offset centers a cell at zero. Ladders
halve alpha, so discretizing at alpha and merging neighboring cells pairwise
reproduces the 2*alpha discretization exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import entropy
from . import minmax
from .qstate import CQState, GridWaveFunction

__all__ = [
    "Partition",
    "ConvergenceTable",
    "momentum_transform",
    "discretize_position",
    "convergence_ladder",
    "gaussian_wavefunction",
]


@dataclass(frozen=True)
class Partition:
    """Balanced partition of the line into cells of width alpha."""

    alpha: float
    offset: float
    k_min: int
    k_max: int

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.k_max < self.k_min:
            raise ValueError("empty index range")

    @classmethod
    def centered(cls, alpha: float, lo: float, hi: float) -> "Partition":
        """Partition with one cell centered at 0, covering [lo, hi]."""
        offset = -alpha / 2.0
        k_min = math.floor((lo - offset) / alpha)
        k_max = math.ceil((hi - offset) / alpha)
        return cls(alpha, offset, k_min, k_max)

    def cell_index(self, q: np.ndarray) -> np.ndarray:
        """Index k with q in (offset + k*alpha, offset + (k+1)*alpha]."""
        return np.ceil((np.asarray(q) - self.offset) / self.alpha).astype(int) - 1

    def cell_edges(self, k: int):
        return self.offset + k * self.alpha, self.offset + (k + 1) * self.alpha

    @property
    def n_cells(self) -> int:
        return self.k_max - self.k_min + 1


@dataclass(frozen=True)
class ConvergenceTable:
    """Rows (alpha, H_regularized) in decreasing alpha, plus an extrapolated
    limit estimate (Aitken delta-squared on the last three rungs).
    unconverged lists the alphas of rungs whose SDP gap exceeded tol."""

    entropy_kind: str
    which: str
    base: str
    rows: tuple = field(default_factory=tuple)
    unconverged: tuple = ()

    @property
    def converged(self) -> bool:
        """True when every rung's SDP gap is at most tol."""
        return not self.unconverged

    @property
    def alphas(self) -> np.ndarray:
        return np.array([a for a, _ in self.rows])

    @property
    def values(self) -> np.ndarray:
        return np.array([v for _, v in self.rows])

    @property
    def extrapolated(self) -> float:
        v = self.values
        if len(v) < 3:
            return float(v[-1])
        e1, e2, e3 = v[-3:]
        denom = (e3 - e2) - (e2 - e1)
        if abs(denom) < 1e-15:
            return float(e3)
        return float(e3 - (e3 - e2) ** 2 / denom)

    @property
    def monotone(self) -> bool:
        v = self.values
        return bool(np.all(np.diff(v) <= 1e-9))


def momentum_transform(psi: GridWaveFunction) -> GridWaveFunction:
    """Unitary Fourier transform F[psi](p) = (2pi)^{-1/2} int psi(q) e^{-iqp} dq.

    Each memory column is transformed independently. The output grid spans
    p in [-pi/dq, pi/dq) with spacing 2pi/(N dq); Parseval holds to grid
    accuracy. Sample counts that are not powers of two are rejected.
    """
    n = psi.n_points
    if n & (n - 1):
        raise ValueError(f"sample count {n} is not a power of two")
    dq = psi.dq
    dp = 2.0 * math.pi / (n * dq)
    p0 = -math.pi / dq
    k = np.arange(n)
    p = p0 + dp * k
    # phi(p_k) = dq/sqrt(2pi) * e^{-i q0 p_k} * sum_j psi_j e^{-2pi i jk/N} (shifted)
    shifted = np.fft.fftshift(np.fft.fft(psi.samples, axis=0), axes=0)
    phase = np.exp(-1j * psi.q0 * p)[:, None]
    samples = dq / math.sqrt(2.0 * math.pi) * phase * shifted
    return GridWaveFunction(p0, dp, samples)


def discretize_position(psi: GridWaveFunction, part: Partition) -> CQState:
    """Bin a grid wavefunction into the cq state of a partitioned measurement.

    omega_B^k = dq * sum_{q_i in I_k} psi(q_i) psi(q_i)^dagger; for trivial
    memory this reduces to binned |psi|^2 probabilities. Cell indices never
    decrease along the grid, so each cell is one run of consecutive samples:
    the runs are scattered into a zero-padded (cells, max run, d) array S and
    every omega_B^k comes from one batched product dq * S^T conj(S). Cells of
    zero trace are dropped, and the state adopts the stack of products
    without a copy: the outcome operators are views of that one stack.
    """
    if part.alpha < 2.0 * psi.dq:
        raise ValueError(
            f"cell width {part.alpha} undersampled by grid spacing {psi.dq}")
    idx = part.cell_index(psi.grid)
    if idx[0] < part.k_min or idx[-1] > part.k_max:
        raise ValueError("partition does not cover the grid support")
    starts = np.flatnonzero(np.diff(idx, prepend=idx[0] - 1))
    counts = np.diff(starts, append=len(idx))
    run = np.repeat(np.arange(len(starts)), counts)
    padded = np.zeros((len(starts), counts.max(), psi.memory_dim), dtype=complex)
    padded[run, np.arange(len(idx)) - starts[run]] = psi.samples
    ops = np.swapaxes(padded, 1, 2) @ padded.conj()
    del padded  # freed before the stack is filtered and symmetrized
    ops *= psi.dq
    keep = np.trace(ops, axis1=1, axis2=2).real > 0.0
    if not keep.all():
        ops, starts = ops[keep], starts[keep]
    return CQState.from_stack([str(k) for k in idx[starts]], ops)


def _classical_regularized(probs: np.ndarray, alpha: float, kind: str) -> float:
    """H(X_alpha) + log(alpha) in nats for trivial memory."""
    p = probs[probs > 0]
    if kind == "vn":
        h = -float(np.sum(p * np.log(p)))
    elif kind == "min":
        h = -math.log(float(p.max()))
    elif kind == "max":
        h = 2.0 * math.log(float(np.sum(np.sqrt(p))))
    else:
        raise ValueError(f"unknown entropy kind {kind!r}")
    return h + math.log(alpha)


def _memory_regularized(cq: CQState, alpha: float, kind: str, tol: float):
    """(H(X_alpha|B) + log(alpha) in nats, whether its SDP converged)."""
    if kind == "vn":
        h, converged = entropy.cond_vn_cq(cq, base="nats").value, True
    elif kind in ("min", "max"):
        # H_min = -log P_guess and H_max = log F_dec
        sign, solve = ((-1.0, minmax.guessing_probability) if kind == "min"
                       else (1.0, minmax.decoupling_fidelity))
        res = solve(cq, tol)
        h, converged = sign * math.log(res.value), res.converged
    else:
        raise ValueError(f"unknown entropy kind {kind!r}")
    return h + math.log(alpha), converged


def convergence_ladder(psi: GridWaveFunction, which: str = "position",
                       kind: str = "vn", n_max: int = 8, alpha0: float = 1.0,
                       base: str = "bits", tol: float = minmax.DEFAULT_TOL) -> ConvergenceTable:
    """Regularized entropies H(X_alpha|B) + log(alpha) for alpha = alpha0*2^-n.

    which selects the position or momentum statistics of psi; kind is one of
    vn / min / max; n_max >= 0. The finest rung must keep alpha >= 2*dq.
    With a memory, min and max rungs are SDP solves at tol; the table's
    converged flag is False when some rung's gap exceeds tol.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be at least 0, got {n_max}")
    if which == "momentum":
        psi = momentum_transform(psi)
    elif which != "position":
        raise ValueError(f"unknown observable {which!r}")
    finest = alpha0 * 2.0 ** (-n_max)
    if finest < 2.0 * psi.dq:
        raise ValueError(
            f"finest cell {finest} below twice the grid spacing {psi.dq}")
    q = psi.grid
    ln2 = math.log(2.0)
    rows, unconverged = [], []
    for n in range(n_max + 1):
        alpha = alpha0 * 2.0 ** (-n)
        part = Partition.centered(alpha, q[0], q[-1])
        cq = discretize_position(psi, part)
        if psi.memory_dim == 1:
            val, converged = _classical_regularized(cq.probs, alpha, kind), True
        else:
            val, converged = _memory_regularized(cq, alpha, kind, tol)
        if base == "bits":
            val /= ln2
        rows.append((alpha, val))
        if not converged:
            unconverged.append(alpha)
    return ConvergenceTable(kind, which, base, tuple(rows), tuple(unconverged))


def gaussian_wavefunction(sigma: float = 1.0, n_points: int = 4096,
                          width_sigmas: float = 16.0, center: float = 0.0) -> GridWaveFunction:
    """Normalized Gaussian test state with position variance sigma^2.

    Grid defaults: 4096 points over [-16 sigma, 16 sigma); tail mass is far
    below any tolerance in use, and the dyadic length keeps dq commensurate
    with the dyadic cell ladder (cells hold equal point counts, so ladder
    rungs converge smoothly instead of oscillating with bin alignment).
    """
    if n_points < 1:
        raise ValueError(f"n_points must be at least 1, got {n_points}")
    if not (sigma > 0 and width_sigmas > 0):
        raise ValueError(f"sigma and width_sigmas must be positive, got {sigma} and {width_sigmas}")
    half = width_sigmas * sigma
    dq = 2.0 * half / n_points
    q = -half + dq * np.arange(n_points) + center
    amp = (2.0 * math.pi * sigma ** 2) ** (-0.25) * np.exp(-((q - center) ** 2) / (4.0 * sigma ** 2))
    psi = GridWaveFunction(q[0], dq, amp.astype(complex))
    return psi.normalized()
