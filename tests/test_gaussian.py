import math
import re
import time

import numpy as np
import pytest

from quncert.discretize import Partition, convergence_ladder, discretize_position
from quncert.entropy import von_neumann
from quncert.qstate import MAX_POINTS
from quncert.gaussian import (
    GAP_SERIES_NU,
    epr_conditional_entropies,
    epr_gap,
    epr_grid_wavefunction,
    fig2_table,
)

from oracles import epr_gap_decimal, epr_gap_nats, epr_memory_entropy_nats, epr_samples


class TestCovariance:
    @pytest.mark.parametrize("fn", [epr_gap, epr_conditional_entropies, epr_grid_wavefunction])
    @pytest.mark.parametrize("nu", [math.nan, 0.5, math.inf])
    def test_rejects_nu_outside_range(self, fn, nu):
        # NaN passes a nu < 1 test; epr_gap's series never met its stop test on it
        with pytest.raises(ValueError, match="nu must be finite and >= 1"):
            fn(nu)


class TestGap:
    def test_value_at_vacuum(self):
        # gap(nu=1) = log(e/2)
        assert math.isclose(epr_gap(1.0, base="nats"), math.log(math.e / 2.0),
                            abs_tol=1e-12)

    def test_positive_and_decreasing(self):
        nus = np.linspace(1.0, 50.0, 40)
        gaps = [epr_gap(nu, base="nats") for nu in nus]
        assert all(g > 0 for g in gaps)
        assert all(np.diff(gaps) < 0)

    @pytest.mark.parametrize("r", [5.0, 8.0, 10.0])
    def test_large_squeezing_matches_decimal_oracle(self, r):
        nu = math.cosh(2.0 * r)
        assert math.isclose(epr_gap(nu, base="nats"), epr_gap_decimal(nu), rel_tol=1e-10)

    @pytest.mark.parametrize("nu", [1.0, 1.3, 1.999, GAP_SERIES_NU, 2.001, 3.0, math.cosh(3.0)])
    def test_both_branches_match_decimal_oracle(self, nu):
        assert math.isclose(epr_gap(nu, base="nats"), epr_gap_decimal(nu), rel_tol=1e-12)

    def test_positive_and_decreasing_at_large_squeezing(self):
        gaps = [epr_gap(math.cosh(2.0 * r), base="nats") for r in np.linspace(1.0, 12.0, 45)]
        assert all(g > 0 for g in gaps)
        assert all(np.diff(gaps) < 0)

    @pytest.mark.parametrize("nu", [math.cosh(20.0), 1e17])
    def test_fock_oracle_refuses_large_squeezing(self, nu):
        # r = 10 would need about 1e10 Fock terms (a 72 GiB array); at 1e17
        # t rounds to 1. Both refuse before allocating anything.
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match="epr_gap_decimal"):
            epr_gap_nats(nu)
        assert time.perf_counter() - t0 < 0.1

    def test_fock_oracle_agrees_with_decimal_oracle(self):
        nu = math.cosh(3.0)
        assert math.isclose(epr_gap_nats(nu), epr_gap_decimal(nu), rel_tol=1e-10)

    def test_conditional_entropies_sum(self):
        hq, hp, tot = epr_conditional_entropies(2.0, base="nats")
        assert math.isclose(hq + hp, tot, abs_tol=1e-12)
        assert math.isclose(tot - math.log(2.0 * math.pi),
                            epr_gap(2.0, base="nats"), abs_tol=1e-12)

    def test_conditional_entropy_formula(self):
        # h(Q|B) = h(Q) - H(B) for the pure two-mode state
        nu = 2.3
        hq = epr_conditional_entropies(nu, base="nats")[0]
        h_marg = 0.5 * math.log(math.pi * math.e * nu)
        t = (nu + 1.0) / 2.0
        hb = t * math.log(t) - (t - 1.0) * math.log(t - 1.0)
        assert math.isclose(hq, h_marg - hb, abs_tol=1e-12)

    def test_fig2_table_shape_and_energy(self):
        rows = fig2_table(0.0, 3.0, 7)
        assert len(rows) == 7
        # nu is also the per-mode mean energy in vacuum units, 1 at r = 0
        assert rows[0].nu == 1.0
        assert math.isclose(rows[-1].nu, math.cosh(6.0))
        assert math.isclose(rows[0].gap_bits, math.log2(math.e / 2.0),
                            abs_tol=1e-12)

    def test_gap_exponential_in_r(self):
        rs = np.linspace(1.0, 3.0, 21)
        lg = np.log([epr_gap(math.cosh(2.0 * r), base="nats") for r in rs])
        coef = np.polyfit(rs, lg, 1)
        resid = lg - np.polyval(coef, rs)
        assert np.max(np.abs(resid / lg)) < 0.01


class TestEPRWavefunction:
    @pytest.mark.parametrize("kwargs, message", [
        ({"n_points": 0}, "n_points must be at least 1, got 0"),
        ({"n_points": -4}, "n_points must be at least 1, got -4"),
        ({"memory_dim": 0}, "memory_dim must be at least 1, got 0"),
    ], ids=["n_points-0", "n_points-negative", "memory_dim-0"])
    def test_rejects_degenerate_grid(self, kwargs, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            epr_grid_wavefunction(1.5, **kwargs)

    def test_rejects_more_points_than_the_cap_before_allocating(self, monkeypatch):
        # the cap is checked before the grid or the samples are made: any
        # array built first would fail the test instead of raising ValueError
        def no_array(*args, **kwargs):
            raise AssertionError("an array was made before the cap was checked")
        for name in ("arange", "zeros", "empty"):
            monkeypatch.setattr(np, name, no_array)
        with pytest.raises(ValueError, match=re.escape(
                f"n_points must be at most {MAX_POINTS}, got {MAX_POINTS + 1}")):
            epr_grid_wavefunction(1.5, n_points=MAX_POINTS + 1)

    def test_normalized(self):
        psi = epr_grid_wavefunction(2.0, n_points=2048)
        assert math.isclose(psi.norm_sq(), 1.0, abs_tol=1e-12)

    @pytest.mark.parametrize("memory_dim", [8, None], ids=["d8", "default"])
    @pytest.mark.parametrize("n_points", [512, 4096, 32768])
    @pytest.mark.parametrize("nu, default_dim", [(1.5, 19), (3.0, 41)])
    def test_samples_match_hermite_oracle(self, nu, default_dim, n_points, memory_dim):
        psi = epr_grid_wavefunction(nu, n_points, memory_dim=memory_dim)
        assert psi.memory_dim == (memory_dim or default_dim)
        want = epr_samples(nu, psi.grid, psi.memory_dim)
        assert np.abs(psi.samples - want).max() <= 1e-13

    def test_vacuum_has_trivial_memory(self):
        psi = epr_grid_wavefunction(1.0, n_points=1024)
        assert psi.memory_dim == 1

    def test_position_variance(self):
        nu = 2.0
        psi = epr_grid_wavefunction(nu, n_points=4096)
        var = float(np.sum(psi.grid ** 2 * psi.density()) * psi.dq)
        assert math.isclose(var, nu / 2.0, rel_tol=1e-6)

    def test_memory_state_is_thermal(self):
        # tracing out position leaves the thermal memory with mean photon
        # number sinh(r)^2: geometric weights tanh(r)^{2n}
        nu = 2.0
        r = 0.5 * math.acosh(nu)
        psi = epr_grid_wavefunction(nu, n_points=2048)
        rho_b = psi.dq * (psi.samples.conj().T @ psi.samples)
        lam2 = math.tanh(r) ** 2
        expected = (1.0 - lam2) * lam2 ** np.arange(psi.samples.shape[1])
        assert np.allclose(np.diag(rho_b).real, expected, atol=1e-10)
        off = rho_b - np.diag(np.diag(rho_b))
        assert np.abs(off).max() < 1e-10

    def test_memory_entropy_matches_symplectic(self):
        # the grid's H(B) against the thermal entropy summed in the Fock basis
        nu = 2.5
        psi = epr_grid_wavefunction(nu, n_points=2048)
        rho_b = psi.dq * (psi.samples.conj().T @ psi.samples)
        hb_fock = epr_memory_entropy_nats(nu) / math.log(2.0)
        assert math.isclose(von_neumann(rho_b.real).value, hb_fock, abs_tol=1e-8)

    @pytest.mark.parametrize("nu", [1e17, 1e20])
    def test_rejects_nu_where_tanh_r_rounds_to_one(self, nu):
        # no default memory_dim exists there; an explicit one still works
        with pytest.raises(ValueError, match=re.escape(f"nu = {nu:g} too large")):
            epr_grid_wavefunction(nu, 64)
        psi = epr_grid_wavefunction(nu, 64, memory_dim=2)
        assert psi.memory_dim == 2

    def test_conditional_ladder_hits_analytic(self):
        # the core EPR cross-check at moderate squeezing
        nu = 1.5
        psi = epr_grid_wavefunction(nu, n_points=4096)
        tab = convergence_ladder(psi, which="position", kind="vn", n_max=5)
        hq = epr_conditional_entropies(nu)[0]
        assert abs(tab.extrapolated - hq) < 2e-3

    def test_conditioning_reduces_entropy(self):
        # H(Q_alpha|B) < H(Q_alpha): the memory is correlated with position
        nu = 2.0
        psi = epr_grid_wavefunction(nu, n_points=2048)
        part = Partition.centered(1.0, psi.grid[0], psi.grid[-1])
        cq = discretize_position(psi, part)
        from quncert.entropy import cond_vn_cq, shannon

        assert cond_vn_cq(cq).value < shannon(cq.probs).value - 0.05
