"""Gaussian continuous-variable analytics: closed-form entropies of the
two-mode squeezed (EPR) state, the saturation gap of the position-momentum
uncertainty relation with quantum memory, and the EPR state as a grid
wavefunction with a finite memory.

Conventions: hbar = 1, vacuum quadrature variance 1/2. The EPR state has
nu = cosh(2r): each mode's marginal is thermal with quadrature variance
nu/2, and the memory's entropy is that of a thermal mode of mean photon
number (nu - 1)/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entropy import _as_base

GAP_SERIES_NU = 2.0
FIG2_MAX_ROWS = 10_000

__all__ = [
    "epr_gap",
    "fig2_table",
    "epr_conditional_entropies",
    "epr_grid_wavefunction",
]


def _check_nu(nu: float) -> None:
    # written so that NaN fails too
    if not 1.0 <= nu < math.inf:
        raise ValueError(f"nu must be finite and >= 1, got {nu}")


def _thermal_entropy_nats(t: float) -> float:
    """t log t - (t-1) log(t-1), the entropy in nats of a thermal mode of
    mean photon number t - 1; 0 for t <= 1."""
    if t <= 1.0:
        return 0.0
    return t * math.log(t) - (t - 1.0) * math.log(t - 1.0)


def epr_gap(nu: float, base: str = "bits") -> float:
    """Distance f(nu) - log(2 pi) above the uncertainty-relation bound.

    Equal to sum_{k>=1} x^k / (2k (2k+1)) with x = 1/nu^2: positive,
    1/(6 nu^2) to leading order, and log(e/2) = 1 - log 2 at nu = 1. For
    nu >= GAP_SERIES_NU the series is summed (its terms fall at least 4x per
    step), since f(nu) - log(2 pi) cancels there: at r = 8 it gives -1.5e-9
    nats instead of 8.4e-15. Below it the closed form f(nu), the sum of
    epr_conditional_entropies, is within 2e-14 relative of the gap."""
    _check_nu(nu)
    if nu < GAP_SERIES_NU:
        gap = epr_conditional_entropies(nu, "nats")[2] - math.log(2.0 * math.pi)
    else:
        x = 1.0 / (nu * nu)
        gap, power, k = 0.0, x, 1
        while True:
            term = power / (2 * k * (2 * k + 1))
            gap += term
            if term <= 1e-17 * gap:
                break
            power *= x
            k += 1
    return _as_base(gap, base).value


def epr_conditional_entropies(nu: float, base: str = "bits"):
    """(h(Q|B), h(P), sum) for the EPR state; the sum is f(nu) >= log(2 pi)."""
    _check_nu(nu)
    h_p = 0.5 + 0.5 * math.log(math.pi * nu)  # = h(Q), marginal variance nu/2
    h_q_given_b = h_p - _thermal_entropy_nats((nu + 1.0) / 2.0)
    return (_as_base(h_q_given_b, base).value, _as_base(h_p, base).value,
            _as_base(h_q_given_b + h_p, base).value)


@dataclass(frozen=True)
class Fig2Row:
    r: float
    nu: float
    gap_bits: float
    gap_nats: float


def fig2_table(r_lo: float = 0.0, r_hi: float = 3.0, n: int = 61):
    """Gap versus squeezing table.

    The per-mode mean energy in vacuum units, 1 + 2 sinh(r)^2, is nu itself,
    so a row carries no separate energy column. cosh(2r) must fit a double
    (|r| up to about 355), and n is at most FIG2_MAX_ROWS."""
    if n < 1:
        raise ValueError(f"row count n must be at least 1, got {n}")
    if n > FIG2_MAX_ROWS:
        raise ValueError(f"row count n must be at most {FIG2_MAX_ROWS}, got {n}")
    if not (math.isfinite(r_lo) and math.isfinite(r_hi)):
        raise ValueError(f"squeezing r must be finite, got r_lo={r_lo}, r_hi={r_hi}")
    rows = []
    for r in np.linspace(r_lo, r_hi, n):
        try:
            nu = math.cosh(2.0 * r)
        except OverflowError:
            raise ValueError(f"squeezing r={r} too large: cosh(2r) overflows") from None
        gap_nats = epr_gap(nu, base="nats")
        rows.append(Fig2Row(float(r), nu, _as_base(gap_nats, "bits").value, gap_nats))
    return rows


def epr_grid_wavefunction(nu: float, n_points: int = 4096, memory_dim: int = None):
    """Finitely squeezed EPR state as a grid wavefunction with finite memory.

    Uses the Schmidt form sum_n sech(r) tanh(r)^n h_n(q_A) |n>_B with h_n the
    harmonic-oscillator eigenfunctions (vacuum variance 1/2). memory_dim
    defaults to the smallest d with truncated weight below 1e-12, about
    14 nu levels at large nu; past nu of about 1.6e16 tanh(r) rounds to 1
    and no d qualifies (ValueError). n_points is at most qstate.MAX_POINTS.
    """
    from .qstate import MAX_POINTS, GridWaveFunction

    _check_nu(nu)
    if n_points < 1:
        raise ValueError(f"n_points must be at least 1, got {n_points}")
    if n_points > MAX_POINTS:
        raise ValueError(f"n_points must be at most {MAX_POINTS}, got {n_points}")
    if memory_dim is not None and memory_dim < 1:
        raise ValueError(f"memory_dim must be at least 1, got {memory_dim}")
    r = 0.5 * math.acosh(nu)
    lam = math.tanh(r)
    if memory_dim is None:
        if lam == 1.0:
            raise ValueError(f"nu = {nu:g} too large: tanh(r) rounds to 1, so no default "
                             f"memory_dim truncates the state below weight 1e-12")
        memory_dim = 1 if lam == 0.0 else max(
            2, int(math.ceil(-12.0 * math.log(10.0) / (2.0 * math.log(lam)))) + 1)
    sigma = math.sqrt(nu / 2.0)
    # 15 sigma rounded up to a power of two, so dq stays commensurate with
    # dyadic coarse-graining cells (no bin-alignment noise in ladders)
    half = 2.0 ** math.ceil(math.log2(15.0 * sigma))
    dq = 2.0 * half / n_points
    q = -half + dq * np.arange(n_points)
    # Hermite functions h_n(q), vacuum variance 1/2: h_0 = pi^{-1/4} e^{-q^2/2},
    # recursed on contiguous rows h[n] and written once, scaled by the Schmidt
    # coefficients, into the real part of the one complex array returned
    h = np.empty((memory_dim, n_points))
    h[0] = math.pi ** (-0.25) * np.exp(-q ** 2 / 2.0)
    if memory_dim > 1:
        h[1] = math.sqrt(2.0) * q * h[0]
    for m in range(2, memory_dim):
        h[m] = math.sqrt(2.0 / m) * q * h[m - 1] - math.sqrt((m - 1.0) / m) * h[m - 2]
    samples = np.zeros((n_points, memory_dim), dtype=complex)
    np.multiply(h.T, (1.0 / math.cosh(r)) * lam ** np.arange(memory_dim), out=samples.real)
    psi = GridWaveFunction(q[0], dq, samples)
    samples /= math.sqrt(psi.norm_sq())
    return psi
