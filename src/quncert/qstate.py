"""States, measurements and the dense linear-algebra primitives they need.

Everything here is a plain numpy array wrapped in a small frozen dataclass;
cq states and POVMs hold one (m, d, d) stack, and a cq stack is symmetrized
once, when the state is made. Every function of a PSD operator (entropies,
square roots, positive parts) goes through psd_eigh, which symmetrizes and
clips the whole spectrum at 0. The validity checks (diagnostics) read the
raw spectrum instead and allow PSD_TOL = 1e-10 below 0, so quadrature and
FFT round-off cannot flip them while a genuinely indefinite input still
fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

HERM_TOL = 1e-12
PSD_TOL = 1e-10
TRACE_TOL = 1e-9
NORM_TOL = 1e-8
# total accounted contribution of the cells a cq functional may skip
NEGLIGIBLE = 1e-15
# the most grid points a wavefunction constructor samples
MAX_POINTS = 1 << 20

__all__ = [
    "DensityMatrix",
    "CQState",
    "POVM",
    "GridWaveFunction",
    "herm",
    "psd_eigh",
    "psd_funcm",
    "kept_cells",
    "validate",
    "partial_trace",
    "purify_cq",
    "sample_outer_sum",
]


def herm(mat: np.ndarray) -> np.ndarray:
    """Symmetrized copy (M + M†)/2 of a matrix or of each of a (..., d, d) stack."""
    return 0.5 * (mat + mat.conj().mT)


def psd_eigh(mat: np.ndarray):
    """Eigendecomposition of herm(mat), of a matrix or of each matrix of a
    (..., d, d) stack in one batched call, with the spectrum clipped at 0:
    the eigen-data of the PSD part of herm(mat)."""
    vals, vecs = np.linalg.eigh(herm(mat))
    return np.clip(vals, 0.0, None), vecs


def psd_funcm(mat: np.ndarray, fn) -> np.ndarray:
    """fn applied to the spectrum of psd_eigh(mat): V fn(vals) V^dagger, for
    a matrix or for each matrix of a (..., d, d) stack."""
    vals, vecs = psd_eigh(mat)
    return (vecs * fn(vals)[..., None, :]) @ vecs.conj().mT


# the most a small cell of trace t can contribute to each cq functional, on
# its own scale: nats of H(X|B), P_guess and sqrt(F_dec)
_CELL_BOUNDS = {
    "vn": lambda t: -t * np.log(np.where(t > 0.0, t, 1.0)),
    "min": lambda t: t,
    "max": np.sqrt,
}


def kept_cells(traces: np.ndarray, kind: str, budget: float | None = None) -> np.ndarray:
    """Keep-mask of a cq state's cells: False on those a functional may skip.

    traces are the cell traces t_x; kind is the functional, "vn", "min" or
    "max", whose bound on what one cell of trace t can contribute is
    -t ln t, t or sqrt(t). With the cells in increasing order of trace, the
    skipped cells are the longest leading run whose bounds sum to at most
    budget, NEGLIGIBLE = 1e-15 when None (minmax._solve sets the budget of
    a min or max solve). Only cells with 0 <= t <= budget are candidates,
    so a cell of negative trace is never skipped, and the largest cell is
    always kept. The caller accounts for the skipped cells.
    """
    tr = np.asarray(traces, dtype=float)
    bound = _CELL_BOUNDS[kind]
    if budget is None:
        budget = NEGLIGIBLE
    cand = np.flatnonzero((tr >= 0.0) & (tr <= budget))
    cand = cand[np.argsort(tr[cand], kind="stable")]
    n = int(np.searchsorted(np.cumsum(bound(tr[cand])), budget, side="right"))
    keep = np.ones(len(tr), dtype=bool)
    keep[cand[:min(n, len(tr) - 1)]] = False
    return keep


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian PSD operator with trace in (0, 1]; may be subnormalized."""

    mat: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.mat, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        if not np.isfinite(m).all():
            raise ValueError("a density matrix must have finite entries")
        object.__setattr__(self, "mat", m)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @property
    def trace(self) -> float:
        return float(np.real(np.trace(self.mat)))

    def diagnostics(self) -> dict:
        m = self.mat
        herm_err = float(np.abs(m - m.conj().T).max())
        vals = np.linalg.eigvalsh(herm(m))
        tr = self.trace
        return {
            "hermitian": (herm_err <= HERM_TOL, herm_err),
            "psd": (bool(vals.min() >= -PSD_TOL), float(vals.min())),
            "trace": (bool(0.0 < tr <= 1.0 + PSD_TOL), tr),
        }


@dataclass(frozen=True, init=False, eq=False)
class CQState:
    """Labeled family of subnormalized conditional operators, traces sum to 1.

    One read-only Hermitian (m, d, d) stack `ops`, symmetrized once, and its
    m labels: opaque strings (partitions label outcomes by interval index,
    not by value). CQState(outcomes) copies (label, operator) pairs into it;
    CQState.from_stack adopts a stack without copying.
    """

    labels: list
    ops: np.ndarray

    def __init__(self, outcomes):
        pairs = tuple(outcomes)
        mats = [np.asarray(op, dtype=complex) for _, op in pairs]
        if len({op.shape for op in mats}) > 1:
            raise ValueError("all conditional operators must share one dimension")
        self._adopt([lbl for lbl, _ in pairs], np.array(mats, dtype=complex))

    @classmethod
    def from_stack(cls, labels, ops: np.ndarray) -> "CQState":
        """cq state on a stack it takes over, symmetrized in place."""
        obj = cls.__new__(cls)
        obj._adopt(labels, np.asarray(ops, dtype=complex))
        return obj

    def _adopt(self, labels, ops: np.ndarray) -> None:
        """The one validation and symmetrization step of both constructors;
        a NaN or infinite entry fails before the stack is symmetrized."""
        labels = [str(lbl) for lbl in labels]
        if ops.ndim != 3 or not len(ops) or ops.shape[1] != ops.shape[2]:
            raise ValueError("a cq state needs at least one outcome and square "
                             f"operators, got a stack of shape {ops.shape}")
        if len(labels) != len(ops):
            raise ValueError(f"{len(labels)} labels for {len(ops)} conditional operators")
        if not np.isfinite(ops).all():
            raise ValueError("conditional operators must have finite entries")
        ops += np.swapaxes(ops.conj(), 1, 2)
        ops *= 0.5
        ops.flags.writeable = False
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "ops", ops)

    @property
    def outcomes(self) -> tuple:
        """(label, operator) pairs; the operators are views of the stack."""
        return tuple(zip(self.labels, self.ops))

    @property
    def dim(self) -> int:
        return self.ops.shape[1]

    @property
    def probs(self) -> np.ndarray:
        return np.trace(self.ops, axis1=1, axis2=2).real

    def marginal(self) -> np.ndarray:
        """Memory marginal omega_B = sum_x omega_B^x."""
        return self.ops.sum(0)

    def diagnostics(self) -> dict:
        tr = self.probs.sum()
        min_eig = np.linalg.eigvalsh(self.ops).min()
        return {
            "normalization": (bool(abs(tr - 1.0) <= TRACE_TOL), float(tr)),
            "psd": (bool(min_eig >= -PSD_TOL), float(min_eig)),
        }


@dataclass(frozen=True)
class POVM:
    """PSD elements summing to the identity, held as one (m, d, d) stack."""

    elements: np.ndarray

    def __post_init__(self):
        els = np.asarray(self.elements, dtype=complex)
        if els.ndim != 3 or not len(els) or els.shape[1] != els.shape[2]:
            raise ValueError(f"a POVM needs square elements, got a stack of shape {els.shape}")
        object.__setattr__(self, "elements", els)

    @property
    def dim(self) -> int:
        return self.elements.shape[1]

    def diagnostics(self) -> dict:
        min_eig = np.linalg.eigvalsh(herm(self.elements)).min()
        comp_err = float(np.abs(self.elements.sum(0) - np.eye(self.dim)).max())
        return {
            "psd": (bool(min_eig >= -PSD_TOL), float(min_eig)),
            "completeness": (comp_err <= TRACE_TOL, comp_err),
        }


@dataclass(frozen=True)
class GridWaveFunction:
    """Uniformly sampled memory-valued wavefunction psi: grid -> C^d.

    samples[i, j] is the j-th memory component at q_i = q0 + i*dq, held
    C-contiguous (copied only when the input is not), so that its real
    (N, 2d) view samples.view(float) always exists.
    Normalization: dq * sum_i ||psi(q_i)||^2 = 1 (diagnostics, to NORM_TOL).
    """

    q0: float
    dq: float
    samples: np.ndarray

    def __post_init__(self):
        s = np.ascontiguousarray(self.samples, dtype=complex)
        if s.ndim == 1:
            s = s[:, None]
        if not 0.0 < self.dq < math.inf:
            raise ValueError(f"dq must be positive and finite, got {self.dq}")
        if not math.isfinite(self.q0):
            raise ValueError(f"q0 must be finite, got {self.q0}")
        object.__setattr__(self, "samples", s)

    @property
    def n_points(self) -> int:
        return self.samples.shape[0]

    @property
    def memory_dim(self) -> int:
        return self.samples.shape[1]

    @property
    def grid(self) -> np.ndarray:
        return self.q0 + self.dq * np.arange(self.n_points)

    def norm_sq(self) -> float:
        return float(self.dq * self.density().sum())

    def density(self) -> np.ndarray:
        """Position probability density ||psi(q_i)||^2 on the grid: the row
        sums of squares of the real view, without an (N, d) temporary."""
        v = self.samples.view(float)
        return np.einsum("ij,ij->i", v, v)

    def normalized(self) -> "GridWaveFunction":
        return GridWaveFunction(self.q0, self.dq, self.samples / np.sqrt(self.norm_sq()))

    def diagnostics(self) -> dict:
        norm_sq = self.norm_sq()
        return {"normalization": (abs(norm_sq - 1.0) <= NORM_TOL, norm_sq)}


def sample_outer_sum(samples: np.ndarray, dq: float) -> np.ndarray:
    """dq * S^T conj(S) = dq * sum_i s_i s_i^dagger over the rows s_i of a
    C-contiguous complex (N, d) array S.

    Formed from the real (N, 2d) view v = [Re s_i1, Im s_i1, ...] by one
    symmetric product v^T v (numpy runs it as a rank-k update, with no
    conjugate copy of S): with G = v^T v viewed as (d, 2, d, 2), the real
    part is G[:, 0, :, 0] + G[:, 1, :, 1] and the imaginary part
    G[:, 1, :, 0] - G[:, 0, :, 1]. The result is exactly Hermitian.
    """
    v = samples.view(float)
    d = samples.shape[1]
    g = (v.T @ v).reshape(d, 2, d, 2)
    out = np.empty((d, d), dtype=complex)
    out.real = g[:, 0, :, 0] + g[:, 1, :, 1]
    out.imag = g[:, 1, :, 0] - g[:, 0, :, 1]
    out *= dq
    return out


def validate(obj) -> dict:
    """Diagnostics report for a state, measurement or wavefunction. Reporting only."""
    report = dict(obj.diagnostics())
    report["pass"] = all(ok for ok, _ in report.values())
    return report


def partial_trace(rho: np.ndarray, dims, keep) -> np.ndarray:
    """Trace out all tensor factors not listed in `keep`, of one n x n matrix
    or of each matrix of a (..., n, n) stack.

    dims lists the factor dimensions in order (their product is n); keep is
    an iterable of factor indices to retain (result ordered as in keep,
    ascending order expected).
    """
    rho = np.asarray(rho, dtype=complex)
    dims = list(dims)
    if math.prod(dims) != rho.shape[-1]:
        raise ValueError(f"product of dims {dims} != matrix dim {rho.shape[-1]}")
    keep = sorted(set(keep))
    lead = rho.shape[:-2]
    t = rho.reshape(lead + tuple(dims + dims))
    # contract traced factors pairwise, highest index first to keep axes stable
    for i in sorted(set(range(len(dims))) - set(keep), reverse=True):
        t = np.trace(t, axis1=len(lead) + i, axis2=(len(lead) + t.ndim) // 2 + i)
    d_keep = math.prod(dims[i] for i in keep)
    return t.reshape(lead + (d_keep, d_keep))


def purify_cq(omega: CQState):
    """Purification |Psi> = sum_x |x>_X |x>_X' (x) |phi_x>_BB' of a cq state.

    |phi_x> purifies the subnormalized conditional operator, so tracing out
    X'B' recovers the block-diagonal cq operator exactly.

    Returns (vector, dims) with factor order (X, X', B, B').
    """
    m, d = omega.ops.shape[:2]
    vals, vecs = psd_eigh(omega.ops)
    # |phi_x> = sum_j sqrt(lambda_j) |v_j>_B |j>_B', index (b, b')
    phi = vecs * np.sqrt(vals)[:, None, :]
    vec = np.zeros((m, m, d, d), dtype=complex)
    x = np.arange(m)
    vec[x, x] = phi
    return vec.reshape(-1), (m, m, d, d)

