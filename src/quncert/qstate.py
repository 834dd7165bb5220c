"""States, measurements and the dense linear-algebra primitives they need.

Everything here is a plain numpy array wrapped in a small frozen dataclass.
Matrices are symmetrized before any eigendecomposition and eigenvalues in
[-1e-10, 0) are clipped to zero, so quadrature / FFT round-off cannot flip
positivity checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

HERM_TOL = 1e-12
PSD_TOL = 1e-10
TRACE_TOL = 1e-9
NORM_TOL = 1e-8

__all__ = [
    "DensityMatrix",
    "CQState",
    "POVM",
    "GridWaveFunction",
    "herm",
    "psd_sqrt",
    "psd_funcm",
    "trace_norm",
    "validate",
    "partial_trace",
    "fidelity",
    "purify_cq",
    "sqrt_overlap_norm",
]


def herm(mat: np.ndarray) -> np.ndarray:
    """Symmetrized copy (M + M†)/2 of a matrix or of each of a (..., d, d) stack."""
    return 0.5 * (mat + np.swapaxes(mat.conj(), -1, -2))


def clipped_eigh(mat: np.ndarray, clip: float = PSD_TOL):
    """Eigendecomposition of herm(mat) with tiny negative eigenvalues set to 0.

    Accepts a (..., d, d) stack and decomposes it in one batched call.
    Eigenvalues below -clip are left alone: genuinely indefinite input should
    stay visibly indefinite.
    """
    vals, vecs = np.linalg.eigh(herm(mat))
    vals = np.where((vals < 0) & (vals >= -clip), 0.0, vals)
    return vals, vecs


def psd_sqrt(mat: np.ndarray) -> np.ndarray:
    return psd_funcm(mat, lambda vals: np.sqrt(np.clip(vals, 0.0, None)))


def psd_funcm(mat: np.ndarray, fn) -> np.ndarray:
    """Apply a scalar function to the clipped spectrum of a Hermitian matrix,
    or of each matrix of a (..., d, d) stack."""
    vals, vecs = clipped_eigh(mat)
    return (vecs * fn(vals)[..., None, :]) @ np.swapaxes(vecs.conj(), -1, -2)


def trace_norm(mat: np.ndarray) -> float:
    return float(np.linalg.svd(mat, compute_uv=False).sum())


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian PSD operator with trace in (0, 1]; may be subnormalized."""

    mat: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.mat, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
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

    def is_valid(self) -> bool:
        return all(ok for ok, _ in self.diagnostics().values())

    @classmethod
    def pure(cls, vec: np.ndarray) -> "DensityMatrix":
        v = np.asarray(vec, dtype=complex).ravel()
        v = v / np.linalg.norm(v)
        return cls(np.outer(v, v.conj()))

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityMatrix":
        return cls(np.eye(dim) / dim)


@dataclass(frozen=True)
class CQState:
    """Labeled family of subnormalized conditional operators, traces sum to 1.

    Ordering is the list order; labels are opaque strings (partitions label
    outcomes by interval index, not by value).
    """

    outcomes: tuple = field(default_factory=tuple)

    def __post_init__(self):
        out = tuple((str(lbl), np.asarray(op, dtype=complex)) for lbl, op in self.outcomes)
        if not out:
            raise ValueError("cq state needs at least one outcome")
        d = out[0][1].shape[0]
        if any(op.shape != (d, d) for _, op in out):
            raise ValueError("all conditional operators must share one dimension")
        object.__setattr__(self, "outcomes", out)

    @property
    def dim(self) -> int:
        return self.outcomes[0][1].shape[0]

    @property
    def labels(self) -> list:
        return [lbl for lbl, _ in self.outcomes]

    @property
    def ops(self) -> list:
        return [op for _, op in self.outcomes]

    @property
    def probs(self) -> np.ndarray:
        return np.array([float(np.real(np.trace(op))) for op in self.ops])

    def marginal(self) -> np.ndarray:
        """Memory marginal omega_B = sum_x omega_B^x."""
        return herm(sum(self.ops))

    def block_diagonal(self) -> np.ndarray:
        """Embedding sum_x |x><x| (x) omega_B^x as one dense matrix."""
        m, d = len(self.outcomes), self.dim
        out = np.zeros((m * d, m * d), dtype=complex)
        for i, op in enumerate(self.ops):
            out[i * d:(i + 1) * d, i * d:(i + 1) * d] = op
        return out

    def diagnostics(self) -> dict:
        tr = self.probs.sum()
        min_eig = min(np.linalg.eigvalsh(herm(op)).min() for op in self.ops)
        return {
            "normalization": (bool(abs(tr - 1.0) <= TRACE_TOL), float(tr)),
            "psd": (bool(min_eig >= -PSD_TOL), float(min_eig)),
        }

    def is_valid(self) -> bool:
        return all(ok for ok, _ in self.diagnostics().values())


@dataclass(frozen=True)
class POVM:
    """PSD elements summing to the identity."""

    elements: tuple

    def __post_init__(self):
        els = tuple(np.asarray(e, dtype=complex) for e in self.elements)
        if not els:
            raise ValueError("empty POVM")
        object.__setattr__(self, "elements", els)

    @property
    def dim(self) -> int:
        return self.elements[0].shape[0]

    def diagnostics(self) -> dict:
        min_eig = min(np.linalg.eigvalsh(herm(e)).min() for e in self.elements)
        total = sum(self.elements)
        comp_err = float(np.abs(total - np.eye(self.dim)).max())
        return {
            "psd": (bool(min_eig >= -PSD_TOL), float(min_eig)),
            "completeness": (comp_err <= TRACE_TOL, comp_err),
        }

    def is_valid(self) -> bool:
        return all(ok for ok, _ in self.diagnostics().values())


@dataclass(frozen=True)
class GridWaveFunction:
    """Uniformly sampled memory-valued wavefunction psi: grid -> C^d.

    samples[i, j] is the j-th memory component at q_i = q0 + i*dq.
    Normalization: dq * sum_i ||psi(q_i)||^2 = 1.
    """

    q0: float
    dq: float
    samples: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=complex)
        if s.ndim == 1:
            s = s[:, None]
        if self.dq <= 0:
            raise ValueError("dq must be positive")
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
        return float(self.dq * np.sum(np.abs(self.samples) ** 2))

    def density(self) -> np.ndarray:
        """Position probability density ||psi(q_i)||^2 on the grid."""
        return np.sum(np.abs(self.samples) ** 2, axis=1).real

    def normalized(self) -> "GridWaveFunction":
        return GridWaveFunction(self.q0, self.dq, self.samples / np.sqrt(self.norm_sq()))

    def is_valid(self, tol: float = NORM_TOL) -> bool:
        return abs(self.norm_sq() - 1.0) <= tol


def validate(obj) -> dict:
    """Diagnostics report for a state/measurement object. Reporting only."""
    report = dict(obj.diagnostics())
    report["pass"] = all(ok for ok, _ in report.values())
    return report


def partial_trace(rho: np.ndarray, dims, keep) -> np.ndarray:
    """Trace out all tensor factors not listed in `keep`.

    dims lists the factor dimensions in order; keep is an iterable of factor
    indices to retain (result ordered as in keep, ascending order expected).
    """
    rho = np.asarray(rho, dtype=complex)
    dims = list(dims)
    n = len(dims)
    if int(np.prod(dims)) != rho.shape[0]:
        raise ValueError(f"product of dims {dims} != matrix dim {rho.shape[0]}")
    keep = sorted(set(keep))
    t = rho.reshape(dims + dims)
    # contract traced factors pairwise, highest index first to keep axes stable
    traced = [i for i in range(n) if i not in keep]
    for i in sorted(traced, reverse=True):
        t = np.trace(t, axis1=i, axis2=i + (t.ndim // 2))
    d_keep = int(np.prod([dims[i] for i in keep])) if keep else 1
    return t.reshape(d_keep, d_keep)


def fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Uhlmann fidelity F = ||sqrt(rho) sqrt(sigma)||_1^2.

    Accepts subnormalized inputs; F(c*rho, sigma) = c*F(rho, sigma).
    """
    rho = np.asarray(rho, dtype=complex)
    sigma = np.asarray(sigma, dtype=complex)
    if rho.shape != sigma.shape:
        raise ValueError("dimension mismatch")
    val = trace_norm(psd_sqrt(rho) @ psd_sqrt(sigma))
    return float(val ** 2)


def purify_cq(omega: CQState):
    """Purification |Psi> = sum_x |x>_X |x>_X' (x) |phi_x>_BB' of a cq state.

    |phi_x> purifies the subnormalized conditional operator, so tracing out
    X'B' recovers the block-diagonal cq operator exactly.

    Returns (vector, dims) with factor order (X, X', B, B').
    """
    m, d = len(omega.outcomes), omega.dim
    vec = np.zeros(m * m * d * d, dtype=complex)
    for x, op in enumerate(omega.ops):
        vals, vecs = clipped_eigh(op)
        vals = np.clip(vals, 0.0, None)
        # |phi_x> = sum_j sqrt(lambda_j) |v_j>_B |j>_B'
        phi = (vecs * np.sqrt(vals)).reshape(-1)  # index (b, b')
        block = np.zeros(m * d * d, dtype=complex)
        block[x * d * d:(x + 1) * d * d] = phi
        vec[x * m * d * d:(x + 1) * m * d * d] = block
    return vec, (m, m, d, d)


def sqrt_overlap_norm(e: np.ndarray, f: np.ndarray) -> float:
    """||sqrt(E) sqrt(F)||^2 = lambda_max(sqrt(E) F sqrt(E)) for PSD E, F."""
    e = np.asarray(e, dtype=complex)
    f = np.asarray(f, dtype=complex)
    if e.shape != f.shape:
        raise ValueError("dimension mismatch")
    for name, m in (("E", e), ("F", f)):
        if np.linalg.eigvalsh(herm(m)).min() < -PSD_TOL:
            raise ValueError(f"{name} is not positive semidefinite")
    se = psd_sqrt(e)
    vals = np.linalg.eigvalsh(herm(se @ f @ se))
    return float(max(vals[-1], 0.0))
