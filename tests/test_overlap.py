import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quncert import overlap
from quncert.overlap import (
    frank_lieb_overlap,
    povm_overlap,
    prolate_overlap,
    prolate_top_eigenfunction,
)
from quncert.qstate import POVM
from quncert.verify import mub_pair, random_povm

from oracles import nystrom_lambda0, prolate_lambda0, sqrt_overlap_norm


class TestProlateOverlap:
    def test_small_spacing_limit(self):
        # c -> dq dp / (2 pi) as the spacings shrink
        res = prolate_overlap(0.05, 0.05)
        assert math.isclose(res.c, 0.0025 / (2.0 * math.pi), rel_tol=1e-5)

    def test_scipy_prolate_oracle(self):
        # c(d, d) is the top prolate eigenvalue at bandwidth d^2 / 4
        for d in (0.5, 1.0, 2.0, 3.0):
            assert math.isclose(prolate_overlap(d, d).c,
                                prolate_lambda0(d * d / 4.0), abs_tol=1e-9)

    def test_depends_only_on_product(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            a, b = rng.uniform(0.1, 4.0, 2)
            g = math.sqrt(a * b)
            assert math.isclose(prolate_overlap(a, b).c,
                                prolate_overlap(g, g).c, abs_tol=1e-9)

    def test_monotone_in_spacing(self):
        deltas = np.linspace(0.2, 4.0, 15)
        cs = [prolate_overlap(d, d).c for d in deltas]
        assert all(np.diff(cs) > 0)

    def test_bounded_by_one(self):
        assert prolate_overlap(8.0, 8.0).c <= 1.0 + 1e-12

    def test_convergence_reported(self):
        res = prolate_overlap(1.0, 1.0)
        assert res.converged
        assert res.nystrom_order >= 64

    def test_smallest_spacings_follow_the_small_spacing_law(self):
        # c = dq dp / (2 pi) while that product is a normal double
        d = 1e-153
        assert math.isclose(prolate_overlap(d, d).c, d * d / (2.0 * math.pi), rel_tol=1e-12)

    @pytest.mark.parametrize("d", [1e-160, 1e-300])
    def test_rejects_spacings_whose_overlap_underflows(self, d):
        with pytest.raises(ValueError, match=f"spacings {d} and {d} too small"):
            prolate_overlap(d, d)

    @pytest.mark.parametrize("delta_q, delta_p", [(1e200, 1e200), (1e300, 1e10)])
    def test_rejects_spacings_whose_product_overflows(self, delta_q, delta_p):
        with pytest.raises(ValueError, match=re.escape(
                f"spacings {delta_q} and {delta_p} too large: their product overflows")):
            prolate_overlap(delta_q, delta_p)

    def test_rejects_nonpositive_spacing(self):
        with pytest.raises(ValueError):
            prolate_overlap(0.0, 1.0)

    @pytest.mark.parametrize("delta_q, delta_p", [
        (math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (1.0, math.inf), (1.0, -math.inf)])
    def test_rejects_non_finite_spacing(self, delta_q, delta_p):
        with pytest.raises(ValueError, match="positive and finite"):
            prolate_overlap(delta_q, delta_p)

    @pytest.mark.parametrize("delta_q, delta_p", [
        (2.0 ** -6, 2.0 ** -6), (1.0, 1.0), (3.0, 3.0), (5.0, 5.0), (8.0, 8.0), (1.3, 0.7)])
    def test_even_block_matches_full_nystrom_matrix(self, delta_q, delta_p):
        # the half-size even block has the full matrix's top eigenvalue
        res = prolate_overlap(delta_q, delta_p)
        assert res.converged
        assert abs(res.c - nystrom_lambda0(delta_q, delta_p, res.nystrom_order)) <= 1e-14

    def test_cached_quadrature_is_read_only_and_exact(self, monkeypatch):
        xi, w = overlap._gauss_legendre(64)
        assert overlap._gauss_legendre(64)[0] is xi
        assert not (xi.flags.writeable or w.flags.writeable)
        with pytest.raises(ValueError):
            xi[0] = 0.0
        cached = prolate_overlap(1.3, 0.7)
        cached_fn = prolate_top_eigenfunction(1.3, 0.7)
        cached_probs = cached_fn.momentum_cell_probabilities(n_cells=8)
        monkeypatch.setattr(overlap, "_gauss_legendre", np.polynomial.legendre.leggauss)
        fresh = prolate_overlap(1.3, 0.7)
        fresh_fn = prolate_top_eigenfunction(1.3, 0.7)
        assert (cached.c, cached.nystrom_order) == (fresh.c, fresh.nystrom_order)
        for name in ("eigenvalue", "nodes", "weights", "values"):
            assert np.array_equal(getattr(cached_fn, name), getattr(fresh_fn, name))
        assert np.array_equal(cached_probs, fresh_fn.momentum_cell_probabilities(n_cells=8))

    @pytest.mark.parametrize("delta", [2.0 ** -6, 1.0, 3.0, 5.0])
    def test_eigenvalue_only_loop_matches_eigh_path(self, monkeypatch, delta):
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or eigvalsh(a))
        fast = prolate_overlap(delta, delta)
        # one eigvalsh of the even block per order, 64, 128, ... up to the last
        orders = [64 * 2 ** k for k in range(len(calls))]
        assert calls == [(n // 2, n // 2) for n in orders] and orders[-1] == fast.nystrom_order
        fn = prolate_top_eigenfunction(delta, delta)
        # eigh at every order, the eigenvector discarded until the last one
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: np.linalg.eigh(a)[0])
        ref = prolate_overlap(delta, delta)
        ref_fn = prolate_top_eigenfunction(delta, delta)
        assert fast.nystrom_order == ref.nystrom_order == len(fn.nodes)
        assert abs(fast.c - ref.c) <= 1e-15
        assert fn.eigenvalue == ref.c
        for name in ("eigenvalue", "nodes", "weights", "values"):
            assert np.array_equal(getattr(fn, name), getattr(ref_fn, name))


class TestEigenfunction:
    RES = prolate_overlap(1.0, 1.0)
    FN = prolate_top_eigenfunction(1.0, 1.0)

    def test_rayleigh_quotient_matches_eigenvalue(self):
        # eigenpair consistency: <psi, K psi> / <psi, psi> = lambda
        f = self.FN
        x, w, v = f.nodes, f.weights, f.values
        from quncert.overlap import _sinc_kernel

        k = _sinc_kernel(x[:, None], x[None, :], 1.0)
        num = v @ (w[:, None] * k * w[None, :]) @ v
        den = np.sum(w * v * v)
        assert math.isclose(num / den, self.RES.c, abs_tol=1e-9)

    def test_unit_norm_on_interval(self):
        f = self.FN
        n = 20000
        dq = 1.0 / n
        x = -0.5 + dq * (np.arange(n) + 0.5)
        assert math.isclose(np.sum(f(x) ** 2) * dq, 1.0, abs_tol=1e-9)

    def test_values_on_every_node_of_the_order(self):
        # the even block's eigenvector, mirrored onto the negative nodes
        f = self.FN
        xi, w = np.polynomial.legendre.leggauss(self.RES.nystrom_order)
        assert np.array_equal(f.nodes, 0.5 * xi) and np.array_equal(f.weights, 0.5 * w)
        assert np.array_equal(f.values, f.values[::-1])

    def test_zero_outside_interval(self):
        f = self.FN
        assert np.all(f(np.array([-0.6, 0.51, 3.0])) == 0.0)

    def test_even_and_positive_at_center(self):
        f = self.FN
        x = np.linspace(0.0, 0.45, 20)
        assert np.allclose(f(x), f(-x), atol=1e-10)
        assert f(np.array([0.0]))[0] > 0.0

    def test_momentum_mass_in_band_equals_eigenvalue(self):
        # the defining property of the top time-frequency limited function
        probs = self.FN.momentum_cell_probabilities()
        assert math.isclose(probs.max(), self.RES.c, abs_tol=1e-12)

    def test_top_eigenfunction_helper(self):
        for d in (1.0, 3.0):
            f = prolate_top_eigenfunction(d, d)
            assert abs(f.eigenvalue - prolate_lambda0(d * d / 4.0)) <= 1e-9


class TestFiniteOverlaps:
    def test_mub_overlap_is_inverse_dim(self):
        # MUB pair: all squared overlaps equal 1/d
        for d in (2, 3, 5):
            e0, e1 = mub_pair(d)
            assert math.isclose(povm_overlap(e0, e1), 1.0 / d, abs_tol=1e-10)

    def test_same_basis_overlap_one(self):
        e, _ = mub_pair(3)
        assert math.isclose(povm_overlap(e, e), 1.0, abs_tol=1e-10)

    def test_frank_lieb_constant_mub(self):
        # c1 = max tr[E_x F_y] = 1/d for projective MUBs
        e0, e1 = mub_pair(4)
        assert math.isclose(frank_lieb_overlap(e0, e1), 0.25, abs_tol=1e-10)

    @pytest.mark.parametrize("seed, d, m_e, m_f", [(0, 4, 4, 4), (1, 3, 2, 5), (2, 2, 3, 1)])
    def test_batched_overlap_matches_pairwise(self, seed, d, m_e, m_f):
        rng = np.random.default_rng(seed)
        e, f = random_povm(d, m_e, rng), random_povm(d, m_f, rng)
        pairwise = max(sqrt_overlap_norm(ex, fy) for ex in e.elements for fy in f.elements)
        assert abs(povm_overlap(e, f) - pairwise) <= 1e-12
        # one element off the PSD cone in either POVM is still rejected
        bad = POVM(np.concatenate([e.elements, np.diag([-0.2] + [0.0] * (d - 1))[None]]))
        with pytest.raises(ValueError, match="E is not positive semidefinite"):
            povm_overlap(bad, f)
        with pytest.raises(ValueError, match="F is not positive semidefinite"):
            povm_overlap(e, bad)

    @pytest.mark.parametrize("fn", [povm_overlap, frank_lieb_overlap])
    def test_rejects_dimension_mismatch(self, fn):
        with pytest.raises(ValueError, match="dimension mismatch"):
            fn(mub_pair(2)[0], mub_pair(3)[0])

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_overlap_bounds_random_povms(self, seed):
        rng = np.random.default_rng(seed)
        e = random_povm(3, 3, rng)
        f = random_povm(3, 4, rng)
        c = povm_overlap(e, f)
        c1 = frank_lieb_overlap(e, f)
        assert 0.0 <= c <= 1.0 + 1e-10
        # tr[E F] <= ||sqrt(E) sqrt(F)||^2 tr(F) style bound keeps c1 <= d c
        assert c1 <= 3.0 * c + 1e-9
