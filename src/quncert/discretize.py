"""Interval partitions of the line, discretization of grid wavefunctions into
cq states, the FFT momentum transform, and the regularized convergence
ladders H(X_alpha|B) + log(alpha) -> h(X|B).

A partition covers the line with cells I_k = (offset + k*alpha,
offset + (k+1)*alpha]; the default offset centers a cell at zero. Ladders
halve alpha and re-bin the grid at each rung: a centered partition puts its
edges at (k - 1/2)*alpha, so the edges of the 2*alpha rung fall on cell
centers of the alpha rung, and the partitions do not nest (those of one
fixed offset do).

Every rung and discretize_position bin into one cell class (_Cells),
whose cells carry their own weighted sample rows: cells are found trace
first, and only the operators of the cells an entropy keeps are formed; a
von Neumann rung forms none.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import entropy
from . import minmax
from .qstate import MAX_POINTS, CQState, GridWaveFunction, herm, kept_cells, sample_outer_sum

log = logging.getLogger("quncert")

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
    """Cells of width alpha, k_min <= k <= k_max; cell_index decides membership."""

    alpha: float
    offset: float
    k_min: int
    k_max: int

    def __post_init__(self):
        if not 0.0 < self.alpha < math.inf:
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")
        if not math.isfinite(self.offset):
            raise ValueError(f"offset must be finite, got {self.offset}")
        if self.k_max < self.k_min:
            raise ValueError("empty index range")

    @classmethod
    def centered(cls, alpha: float, lo: float, hi: float) -> "Partition":
        """Partition with one cell centered at 0, from lo's cell to hi's (cell_index)."""
        offset = -alpha / 2.0
        k_min, k_max = cls(alpha, offset, 0, 0).cell_index([lo, hi]).tolist()
        return cls(alpha, offset, k_min, k_max)

    def cell_index(self, q: np.ndarray) -> np.ndarray:
        """Index k with q in (offset + k*alpha, offset + (k+1)*alpha]."""
        return np.ceil((np.asarray(q) - self.offset) / self.alpha).astype(int) - 1


@dataclass(frozen=True)
class ConvergenceTable:
    """Rows (alpha, H_regularized) in decreasing alpha, in the base the
    ladder was asked for, plus an extrapolated limit estimate (Aitken
    delta-squared on the last three rungs). unconverged lists the alphas of
    rungs whose SDP gap exceeded minmax.DEFAULT_TOL."""

    rows: tuple
    unconverged: tuple

    @property
    def converged(self) -> bool:
        """True when every rung's SDP gap is at most minmax.DEFAULT_TOL."""
        return not self.unconverged

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


def momentum_transform(psi: GridWaveFunction) -> GridWaveFunction:
    """Unitary Fourier transform F[psi](p) = (2pi)^{-1/2} int psi(q) e^{-iqp} dq.

    Each memory column is transformed independently. The output grid spans
    p in [-pi/dq, pi/dq) with spacing 2pi/(N dq); Parseval holds to grid
    accuracy. Sample counts that are not powers of two are rejected.

    The output is the one (N, d) array written: a copy of the samples with
    every odd row negated, which shifts the spectrum by N/2 so that the FFT
    lands in fftshift order, transformed in place and then scaled by
    dq/sqrt(2pi) e^{-i q0 p_k} in place. Its peak traced memory is the
    output plus O(N); it agrees with the fftshift form to rounding.
    """
    n = psi.n_points
    if n & (n - 1):
        raise ValueError(f"sample count {n} is not a power of two")
    dq = psi.dq
    dp = 2.0 * math.pi / (n * dq)
    p0 = -math.pi / dq
    # phi(p_k) = dq/sqrt(2pi) * e^{-i q0 p_k} * sum_j (-1)^j psi_j e^{-2pi i jk/N}
    factor = np.exp(-1j * psi.q0 * (p0 + dp * np.arange(n)))
    factor *= dq / math.sqrt(2.0 * math.pi)
    buf = psi.samples.copy()
    buf[1::2] *= -1.0
    np.fft.fft(buf, axis=0, out=buf)
    buf *= factor[:, None]
    return GridWaveFunction(p0, dp, buf)


class _Cells(NamedTuple):
    """Cells as runs of consecutive rows of one (rows, d) sample array, with
    omega_x = weight * sum_{i in run x} rows_i rows_i^dagger: the start of
    each run (cell indices never decrease along the rows), its cell index k
    and its trace, the rows the runs index, and the one weight. A grid's
    rows are its samples psi(q_i) and its weight dq (_cells); a source with
    a weight per sample folds sqrt(w_i) into its rows and takes weight 1.

    stack and vn read a mask of the cells an entropy keeps. stack forms the
    kept cells' operators by one batched product weight * S^T conj(S) over
    their zero-padded runs S (padded). vn is their H(X|B) in nats from S,
    forming no cell operator, against memory, the spectrum of omega_B
    (entropy._spectrum) that its caller forms once. The cross term and the
    support test take each cell's diagonal in omega_B's eigenbasis V,
    weight * sum_i |(S_x conj(V))_ij|^2, and the self term the spectrum of
    the Gram matrix weight * conj(S_x) S_x^T when the longest kept run has
    fewer rows than the memory has levels (else of the d x d operator): the
    two share their nonzero eigenvalues. This is the rule cond_vn_cq
    applies to the cq state of all cells.
    """

    starts: np.ndarray
    labels: np.ndarray
    traces: np.ndarray
    rows: np.ndarray
    weight: float

    def padded(self, keep: np.ndarray) -> np.ndarray:
        """The rows of the kept runs in a zero-padded (runs, longest run, d)
        array S: S[r, i] is the i-th row of the r-th kept run."""
        runs = np.flatnonzero(keep)
        first, counts = self.starts[runs], np.diff(self.starts, append=len(self.rows))[runs]
        pos = np.arange(counts.max(initial=0))
        filled = pos < counts[:, None]
        padded = np.zeros(filled.shape + self.rows.shape[1:], dtype=complex)
        padded[filled] = np.take(self.rows, (first[:, None] + pos)[filled], axis=0)
        return padded

    def stack(self, keep: np.ndarray) -> np.ndarray:
        s = self.padded(keep)
        ops = np.swapaxes(s, 1, 2) @ s.conj()
        ops *= self.weight
        return ops

    def vn(self, keep: np.ndarray, memory: tuple) -> float:
        svals, vecs, on_support = memory
        s = self.padded(keep)
        d = s.shape[2]
        proj = (s.reshape(-1, d) @ vecs.conj()).reshape(s.shape)
        diag = self.weight * (proj.real ** 2 + proj.imag ** 2).sum(1)
        if s.shape[1] < d:
            grams = s.conj() @ np.swapaxes(s, 1, 2)
        else:
            grams = np.swapaxes(s, 1, 2) @ s.conj()
        grams *= self.weight
        return entropy._cond_vn_nats(svals, on_support, diag, self.traces[keep], grams)


def _cells(psi: GridWaveFunction, part: Partition, norms: np.ndarray) -> _Cells:
    """The cells of psi's grid under part: its samples, binned by
    part.cell_index, with weight dq. norms holds the ||psi(q_i)||^2, so
    that a ladder computes them once."""
    idx = part.cell_index(psi.grid)
    if idx[0] < part.k_min or idx[-1] > part.k_max:
        raise ValueError("partition does not cover the grid support")
    starts = np.flatnonzero(np.diff(idx, prepend=idx[0] - 1))
    return _Cells(starts, idx[starts], psi.dq * np.add.reduceat(norms, starts),
                  psi.samples, psi.dq)


def _check_width(alpha: float, dq: float) -> None:
    """The one width rule: a cell spans at least two grid spacings."""
    if alpha < 2.0 * dq:
        raise ValueError(f"cell width {alpha} below twice the grid spacing {dq}")


def discretize_position(psi: GridWaveFunction, part: Partition) -> CQState:
    """Bin a grid wavefunction into the cq state of a partitioned measurement.

    omega_B^k = dq * sum_{q_i in I_k} psi(q_i) psi(q_i)^dagger; for trivial
    memory this reduces to binned |psi|^2 probabilities. Cells of zero trace
    are dropped before any operator is formed; the others are formed by one
    batched product (_Cells.stack), and the state adopts that stack without
    a copy: the outcome operators are views of it.
    """
    _check_width(part.alpha, psi.dq)
    cells = _cells(psi, part, psi.density())
    live = cells.traces > 0.0
    return CQState.from_stack([str(k) for k in cells.labels[live]], cells.stack(live))


def convergence_ladder(psi: GridWaveFunction, which: str = "position",
                       kind: str = "vn", n_max: int = 8, alpha0: float = 1.0,
                       base: str = "bits") -> ConvergenceTable:
    """Regularized entropies H(X_alpha|B) + log(alpha) for alpha = alpha0*2^-n.

    which selects the position or momentum statistics of psi; kind is one of
    vn / min / max; base is bits or nats; n_max >= 0. The finest rung must
    keep alpha >= 2*dq (_check_width). With a memory, min and max rungs are
    SDP solves at minmax.DEFAULT_TOL; the table's converged flag is False
    when some rung's gap exceeds it.

    Every rung bins psi's grid by Partition.centered from its first sample
    to its last, which covers it, into _Cells (_cells), from sample norms
    formed once per ladder. Trivial memory takes the entropy of the cell
    traces. With a memory, a vn rung is the _Cells.vn of the cells
    qstate.kept_cells keeps under its 1e-15 nats budget, against omega_B's
    spectrum formed once per ladder, equal to rounding to cond_vn_cq of
    discretize_position's state (within 1e-14 nats on the 19-level EPR
    state). A min or max rung is the solve of minmax._solve, which keeps
    the cells within tol/10 of the certificate's gap, forms their stack
    (_Cells.stack), symmetrized, and charges the skipped cells in its one
    certificate: the rung is guessing_probability or decoupling_fidelity
    of discretize_position's state, bit for bit on the 19-level EPR state,
    read through minmax._entropy. Each rung logs one DEBUG record to the
    "quncert" logger: alpha, cells, cells kept, the total trace of the
    cells not formed ("skipped trace") and seconds.

    On the 19-level EPR memory (one BLAS thread, 2-core x86-64 host,
    medians of 15 runs) the position vn ladder alpha = 1 .. 2^-6 on 4096
    points takes about 15 ms, and the momentum ladder alpha = 1, 1/2 on
    32768 points about 18 ms, of which the in-place FFT (momentum_transform)
    is about 11 ms and omega_B (qstate.sample_outer_sum) about 2.2 ms; the
    momentum ladder's traced peak is below 1.25 times one (N, d) complex
    array. The max ladder on the same grid keeps 15 of 6,435 and 31 of
    12,869 cells and takes about 0.09 s.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be at least 0, got {n_max}")
    if kind not in ("vn", "min", "max"):
        raise ValueError(f"unknown entropy kind {kind!r}")
    if base not in ("bits", "nats"):
        raise ValueError(f"unknown base {base!r}")
    if not 0.0 < alpha0 < math.inf:
        raise ValueError(f"alpha0 must be positive and finite, got {alpha0}")
    if which == "momentum":
        psi = momentum_transform(psi)
    elif which != "position":
        raise ValueError(f"unknown observable {which!r}")
    _check_width(alpha0 * 2.0 ** (-n_max), psi.dq)
    q, norms = psi.grid, psi.density()
    memory = (entropy._spectrum(sample_outer_sum(psi.samples, psi.dq))
              if kind == "vn" and psi.memory_dim > 1 else None)
    rows, unconverged = [], []
    for n in range(n_max + 1):
        began = time.perf_counter()
        alpha = alpha0 * 2.0 ** (-n)
        cells = _cells(psi, Partition.centered(alpha, q[0], q[-1]), norms)
        traces = cells.traces
        converged = True
        if psi.memory_dim == 1:
            keep = traces > 0.0
            val = entropy._classical_nats(traces[keep], kind)
        elif kind == "vn":
            keep = kept_cells(traces, kind)
            val = cells.vn(keep, memory)
        else:
            keep, res = minmax._solve(kind, traces, lambda keep: herm(cells.stack(keep)),
                                       minmax.DEFAULT_TOL)
            val, converged = minmax._entropy(kind, res, "nats").value, res.converged
        val = entropy._as_base(val + math.log(alpha), base).value
        rows.append((alpha, val))
        if not converged:
            unconverged.append(alpha)
        log.debug("%s %s rung alpha=%g: %d cells, %d kept, skipped trace %.3g, %.4f s",
                  which, kind, alpha, len(traces), int(keep.sum()),
                  float(traces[~keep].sum()), time.perf_counter() - began)
    return ConvergenceTable(tuple(rows), tuple(unconverged))


def gaussian_wavefunction(sigma: float = 1.0, n_points: int = 4096) -> GridWaveFunction:
    """Normalized Gaussian test state centered at 0, variance sigma^2, on
    n_points points over [-16 sigma, 16 sigma); the tail mass is far below
    any tolerance in use. Only when dq = 32 sigma / n_points is a power of
    two (as at the default sigma = 1) do dyadic cells hold equal point
    counts, so ladder rungs converge smoothly instead of oscillating with
    bin alignment: at sigma = 0.3 a cell of width 1 holds 426.67 points.
    n_points is at most MAX_POINTS.
    """
    if n_points < 1:
        raise ValueError(f"n_points must be at least 1, got {n_points}")
    if n_points > MAX_POINTS:
        raise ValueError(f"n_points must be at most {MAX_POINTS}, got {n_points}")
    if not 0.0 < sigma < math.inf:
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    half = 16.0 * sigma
    dq = 2.0 * half / n_points
    q = -half + dq * np.arange(n_points)
    # normalized() sets the scale, so the amplitude needs no (2 pi sigma^2)^(-1/4),
    # which underflows for a tiny sigma
    z = q / sigma
    return GridWaveFunction(q[0], dq, np.exp(-0.25 * z * z).astype(complex)).normalized()
