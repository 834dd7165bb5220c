import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quncert.entropy import (
    EntropyValue,
    classical_hmin_hmax,
    cond_vn_cq,
    differential_entropy,
    max_relative_entropy,
    relative_entropy,
    shannon,
    von_neumann,
)
from quncert import qstate
from quncert.qstate import CQState, NEGLIGIBLE

from oracles import (block_diagonal, cond_vn_block_nats, eig_entropy_bits, gaussian_h_bits,
                     random_cq, relative_entropy_nats, with_cells)


def random_density(dim, rng, rank=None):
    rank = rank or dim
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    m = g @ g.conj().T
    return m / np.real(np.trace(m))


class TestEntropyValue:
    def test_base_conversion_round_trip(self):
        half = np.eye(2) / 2.0
        assert von_neumann(half, base="bits") == EntropyValue(1.0, "bits")
        nats = von_neumann(half, base="nats")
        assert nats.base == "nats" and math.isclose(nats.value, math.log(2.0))

    def test_infinite_serialization(self):
        assert EntropyValue(math.inf, "bits").to_json()["value"] == "inf"

    def test_rejects_unknown_base(self):
        with pytest.raises(ValueError, match="unknown base 'trits'"):
            von_neumann(np.eye(2) / 2.0, base="trits")


class TestVonNeumann:
    def test_pure_state_zero(self):
        assert math.isclose(von_neumann(np.diag([1.0, 0.0])).value, 0.0,
                            abs_tol=1e-12)

    def test_maximally_mixed(self):
        # H(I/d) = log2 d
        assert math.isclose(von_neumann(np.eye(4) / 4.0).value, 2.0, abs_tol=1e-12)

    def test_matches_spectral_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            rho = random_density(5, rng)
            assert math.isclose(von_neumann(rho).value, eig_entropy_bits(rho),
                                abs_tol=1e-10)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            von_neumann(np.eye(2))

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_bounds(self, seed):
        rho = random_density(4, np.random.default_rng(seed))
        h = von_neumann(rho).value
        assert -1e-10 <= h <= 2.0 + 1e-10


class TestRelativeEntropy:
    def test_identical_states_zero(self):
        rng = np.random.default_rng(1)
        rho = random_density(3, rng)
        assert math.isclose(relative_entropy(rho, rho).value, 0.0, abs_tol=1e-9)

    def test_two_qubit_value(self):
        # D(|0><0| || diag(3/4, 1/4)) = -log2(3/4)
        rho = np.diag([1.0, 0.0])
        sig = np.diag([0.75, 0.25])
        assert math.isclose(relative_entropy(rho, sig).value, -math.log2(0.75),
                            abs_tol=1e-12)

    def test_support_violation_infinite(self):
        rho = np.eye(2) / 2.0
        sig = np.diag([1.0, 0.0])
        assert math.isinf(relative_entropy(rho, sig).value)

    def test_nonnegative_on_states(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            rho, sig = random_density(3, rng), random_density(3, rng)
            assert relative_entropy(rho, sig).value >= -1e-9


class TestRelativeEntropyOracle:
    """relative_entropy, the one-cell case of the conditional von Neumann
    core, against numpy's eigendecompositions of rho and sigma."""

    @pytest.mark.parametrize("seed,d", [(41, 2), (42, 3), (43, 4), (44, 6)])
    def test_full_rank_pairs(self, seed, d):
        rng = np.random.default_rng(seed)
        rho, sig = random_density(d, rng), random_density(d, rng)
        for a, b in ((rho, sig), (sig, rho)):
            assert abs(relative_entropy(a, b, base="nats").value
                       - relative_entropy_nats(a, b)) < 1e-12

    @pytest.mark.parametrize("seed", [51, 52, 53])
    def test_rank_deficient_sigma_containing_rho(self, seed):
        # sigma of rank 3 in 5 dimensions; rho of rank 2 inside its support
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        iso, _ = np.linalg.qr(g)
        sig = iso @ random_density(3, rng) @ iso.conj().T
        rho = iso @ random_density(3, rng, rank=2) @ iso.conj().T
        got = relative_entropy(rho, sig, base="nats").value
        assert math.isfinite(got)
        assert abs(got - relative_entropy_nats(rho, sig)) < 1e-12

    @pytest.mark.parametrize("scale", [0.3, 1e-3])
    def test_subnormalized_rho(self, scale):
        rng = np.random.default_rng(61)
        rho, sig = scale * random_density(4, rng), random_density(4, rng)
        assert abs(relative_entropy(rho, sig, base="nats").value
                   - relative_entropy_nats(rho, sig)) < 1e-12

    def test_support_leak_is_infinite(self):
        rng = np.random.default_rng(71)
        rho, sig = random_density(4, rng), random_density(4, rng, rank=2)
        assert relative_entropy_nats(rho, sig) == math.inf
        assert relative_entropy(rho, sig).value == math.inf


class TestMaxRelativeEntropy:
    def test_commuting_case(self):
        # D_max(diag(p) || diag(q)) = log2 max p_i/q_i
        rho = np.diag([0.8, 0.2])
        sig = np.diag([0.5, 0.5])
        assert math.isclose(max_relative_entropy(rho, sig).value,
                            math.log2(1.6), abs_tol=1e-10)

    def test_upper_bounds_relative_entropy(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            rho, sig = random_density(4, rng), random_density(4, rng)
            assert (max_relative_entropy(rho, sig).value
                    >= relative_entropy(rho, sig).value - 1e-8)

    def test_operator_inequality_holds(self):
        # 2^Dmax sigma - rho must be PSD (definition as smallest such power)
        rng = np.random.default_rng(4)
        rho, sig = random_density(3, rng), random_density(3, rng)
        lam = 2.0 ** max_relative_entropy(rho, sig).value
        vals = np.linalg.eigvalsh(lam * sig - rho)
        assert vals.min() >= -1e-8

    def test_support_violation_infinite(self):
        assert max_relative_entropy(np.eye(2) / 2.0, np.diag([1.0, 0.0])).value == math.inf

    def test_zero_rho_is_minus_infinite(self):
        # rho <= 2^iota sigma for every iota
        assert max_relative_entropy(np.zeros((2, 2)), np.eye(2) / 2.0).value == -math.inf


class TestArrayInput:
    """What the array entry points do with arrays outside their domain."""

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("call, name", [
        (lambda bad: von_neumann(bad), "rho"),
        (lambda bad: relative_entropy(bad, np.eye(2) / 2.0), "rho"),
        (lambda bad: max_relative_entropy(np.eye(2) / 2.0, bad), "sigma"),
    ], ids=["von_neumann", "relative_entropy", "max_relative_entropy"])
    def test_rejects_non_finite_entries(self, call, name, value):
        # at [[nan, 0], [0, 1/2]] these returned 0.5 bits, nan and +inf
        bad = np.diag([0.5, 0.5]).astype(complex)
        bad[0, 0] = value
        with pytest.raises(ValueError, match=f"{name} must have finite entries"):
            call(bad)

    @pytest.mark.parametrize("fn", [relative_entropy, max_relative_entropy])
    def test_rejects_dimension_mismatch(self, fn):
        with pytest.raises(ValueError, match="dimension mismatch"):
            fn(np.eye(2) / 2.0, np.eye(3) / 3.0)

    @pytest.mark.parametrize("fn", [relative_entropy, max_relative_entropy])
    def test_sigma_of_zero_rank_is_infinite(self, fn):
        assert fn(np.eye(2) / 2.0, np.zeros((2, 2))).value == math.inf

    @pytest.mark.parametrize("p, message", [
        ([1.5, -0.5], "negative probability -0.5"),
        ([0.5, 0.25], "probabilities sum to 0.75, not 1"),
    ], ids=["negative", "unnormalized"])
    def test_shannon_rejects(self, p, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            shannon(p)


class TestCondVNcq:
    def test_orthogonal_memory_gives_zero(self):
        cq = CQState((("0", 0.5 * np.diag([1.0, 0.0])),
                      ("1", 0.5 * np.diag([0.0, 1.0]))))
        assert math.isclose(cond_vn_cq(cq).value, 0.0, abs_tol=1e-10)

    def test_trivial_memory_gives_shannon(self):
        p = np.array([0.2, 0.5, 0.3])
        cq = CQState(tuple((str(i), p[i] * np.eye(1)) for i in range(3)))
        assert math.isclose(cond_vn_cq(cq).value, shannon(p).value, abs_tol=1e-10)

    def test_matches_block_diagonal_difference(self):
        # H(X|B) = H(XB) - H(B) on the classical-quantum embedding
        rng = np.random.default_rng(5)
        cq = random_cq(rng, 3, 3)
        hxb = eig_entropy_bits(block_diagonal(cq.ops))
        hb = eig_entropy_bits(cq.marginal())
        assert math.isclose(cond_vn_cq(cq).value, hxb - hb, abs_tol=1e-8)

    def test_nonnegative_for_cq(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            cq = random_cq(rng, 2, 3)
            assert cond_vn_cq(cq).value >= -1e-9


class TestCondVNcqBatched:
    """The batched evaluation against the per-outcome relative entropies."""

    @staticmethod
    def _loop_nats(cq):
        omega_b = cq.marginal()
        return -sum(relative_entropy(op, omega_b, base="nats").value for op in cq.ops)

    @pytest.mark.parametrize("seed,m,d,rank", [
        (21, 2, 2, None), (22, 5, 3, None), (23, 12, 4, 1), (24, 30, 6, 2), (25, 7, 8, None)])
    def test_matches_relative_entropy_loop(self, seed, m, d, rank):
        cq = random_cq(np.random.default_rng(seed), m, d, rank)
        got = cond_vn_cq(cq, base="nats").value
        assert abs(got - self._loop_nats(cq)) < 1e-12

    @pytest.mark.parametrize("seed", [31, 32, 33])
    def test_rank_deficient_memory_marginal(self, seed):
        # every outcome lives in one 3-dim subspace of a 6-dim memory
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
        iso, _ = np.linalg.qr(g)
        inner = random_cq(rng, 9, 3)
        cq = CQState(tuple((lbl, iso @ op @ iso.conj().T) for lbl, op in inner.outcomes))
        assert np.linalg.matrix_rank(cq.marginal(), tol=1e-10) == 3
        got = cond_vn_cq(cq, base="nats").value
        assert abs(got - self._loop_nats(cq)) < 1e-12
        assert abs(got - cond_vn_cq(inner, base="nats").value) < 1e-10

    def test_kernel_leak_gives_minus_infinity(self):
        # omega_B = diag(1 - 1.8e-10, 9e-11, 9e-11): both small eigenvalues
        # fall below the support threshold, and outcome "1" puts 1.8e-10 of
        # weight there, above SUPPORT_RTOL * max(1, tr)
        w0 = np.diag([1.0 - 1.8e-10, 0.0, 0.0]).astype(complex)
        w1 = np.diag([0.0, 9e-11, 9e-11]).astype(complex)
        cq = CQState((("0", w0), ("1", w1)))
        assert relative_entropy(w1, cq.marginal()).value == math.inf
        assert cond_vn_cq(cq).value == -math.inf

    def test_leak_below_threshold_is_finite(self):
        w0 = np.diag([1.0 - 9e-11, 0.0]).astype(complex)
        w1 = np.diag([0.0, 9e-11]).astype(complex)
        cq = CQState((("0", w0), ("1", w1)))
        assert math.isfinite(cond_vn_cq(cq).value)
        assert abs(cond_vn_cq(cq, base="nats").value - self._loop_nats(cq)) < 1e-12
        # the 9e-11 eigenvalue enters the cross term too: H(XB) - H(B) = 0
        assert abs(cond_vn_cq(cq, base="nats").value - cond_vn_block_nats(cq.ops)) < 1e-15


class TestCondVNcqTrim:
    """Cells of negligible trace are skipped with their contribution
    -t log t accounted; checked against the block-diagonal oracle."""

    @pytest.mark.parametrize("seed,m,d,rank", [
        (71, 2, 2, None), (72, 5, 3, None), (73, 12, 4, 1), (74, 7, 6, 2)])
    def test_within_bound_of_block_oracle(self, seed, m, d, rank):
        rng = np.random.default_rng(seed)
        cq = with_cells(random_cq(rng, m, d, rank), rng, [1e-40, 1e-20, 1e-40])
        assert qstate.kept_cells(cq.probs, "vn").sum() == m
        got = cond_vn_cq(cq, base="nats").value
        want = cond_vn_block_nats(cq.ops)
        assert want - NEGLIGIBLE - 1e-12 <= got <= want + 1e-12

    def test_cell_of_trace_1e3_is_kept(self):
        rng = np.random.default_rng(75)
        cq = with_cells(random_cq(rng, 4, 3), rng, [1e-3, 1e-40])
        for kind in ("min", "max", "vn"):
            assert qstate.kept_cells(cq.probs, kind).tolist() == [True] * 5 + [False]
        assert abs(cond_vn_cq(cq, base="nats").value - cond_vn_block_nats(cq.ops)) < 1e-12

    @pytest.mark.parametrize("seed,m,d", [(76, 1, 2), (77, 3, 3), (78, 9, 5)])
    def test_no_negligible_cell_is_bit_identical(self, seed, m, d, monkeypatch):
        cq = random_cq(np.random.default_rng(seed), m, d)
        got = cond_vn_cq(cq, base="nats").value
        monkeypatch.setattr(qstate, "NEGLIGIBLE", 0.0)
        assert got == cond_vn_cq(cq, base="nats").value

    def test_non_negligible_leak_gives_minus_infinity(self):
        # as test_kernel_leak_gives_minus_infinity, with negligible cells
        # added so that the leaking cell is tested after the trim
        w0 = np.diag([1.0 - 1.8e-10, 0.0, 0.0]).astype(complex)
        w1 = np.diag([0.0, 9e-11, 9e-11]).astype(complex)
        cq = with_cells(CQState((("0", w0), ("1", w1))), np.random.default_rng(79),
                        [1e-30, 1e-40])
        assert not qstate.kept_cells(cq.probs, "vn").all()
        assert cond_vn_cq(cq).value == -math.inf

    def test_negative_trace_cell_is_never_skipped(self):
        keep = qstate.kept_cells(np.array([1.0, -1e-30, 1e-30]), "min")
        assert keep.tolist() == [True, True, False]

    def test_largest_cell_is_always_kept(self):
        assert qstate.kept_cells(np.array([1e-20, 2e-20]), "min").tolist() == [False, True]

    def test_epr_momentum_cells(self, monkeypatch):
        # the alpha = 1 momentum rung of the EPR state on 32768 points: all
        # but 15 of its 6,435 cells are skipped
        from quncert.discretize import Partition, discretize_position, momentum_transform
        from quncert.gaussian import epr_grid_wavefunction

        psi = momentum_transform(epr_grid_wavefunction(1.5, n_points=32768))
        cq = discretize_position(psi, Partition.centered(1.0, psi.grid[0], psi.grid[-1]))
        keep = qstate.kept_cells(cq.probs, "vn")
        assert (len(keep), int(keep.sum())) == (6435, 15)
        got = cond_vn_cq(cq, base="nats").value
        monkeypatch.setattr(qstate, "NEGLIGIBLE", 0.0)
        full = cond_vn_cq(cq, base="nats").value
        assert full - NEGLIGIBLE - 1e-12 <= got <= full + 1e-12


class TestClassicalAndDifferential:
    def test_shannon_uniform(self):
        assert math.isclose(shannon(np.ones(8) / 8.0).value, 3.0, abs_tol=1e-12)

    def test_differential_entropy_gaussian(self):
        from quncert.discretize import gaussian_wavefunction

        psi = gaussian_wavefunction(sigma=1.3)
        h = differential_entropy(psi.density(), psi.dq)
        assert math.isclose(h.value, gaussian_h_bits(1.3), abs_tol=1e-9)

    def test_hmin_hmax_gaussian(self):
        from quncert.discretize import gaussian_wavefunction
        from oracles import gaussian_hmax_bits, gaussian_hmin_bits

        psi = gaussian_wavefunction(sigma=0.7)
        hmin, hmax = classical_hmin_hmax(psi.density(), psi.dq)
        assert math.isclose(hmin.value, gaussian_hmin_bits(0.7), abs_tol=1e-6)
        assert math.isclose(hmax.value, gaussian_hmax_bits(0.7), abs_tol=1e-6)

    def test_hmin_le_h_le_hmax(self):
        from quncert.discretize import gaussian_wavefunction

        psi = gaussian_wavefunction(sigma=2.0)
        hmin, hmax = classical_hmin_hmax(psi.density(), psi.dq)
        h = differential_entropy(psi.density(), psi.dq)
        assert hmin.value <= h.value + 1e-9 <= hmax.value + 2e-9

    @pytest.mark.parametrize("value", [
        lambda: von_neumann([[1.0]]),
        lambda: von_neumann(np.diag([1.0, 0.0])),
        lambda: shannon([1.0, 0.0]),
        lambda: differential_entropy([1.0], 1.0),
        lambda: classical_hmin_hmax([1.0], 1.0)[0],
    ], ids=["vn-1", "vn-diag", "shannon", "differential", "hmin"])
    def test_exact_zero_is_plus_zero(self, value):
        v = value().value
        assert v == 0.0 and math.copysign(1.0, v) == 1.0

    def test_rejects_unnormalized_density(self):
        with pytest.raises(ValueError):
            differential_entropy(np.ones(10), 1.0)

    @pytest.mark.parametrize("fn", [differential_entropy, classical_hmin_hmax])
    def test_density_checked_alike(self, fn):
        from quncert.discretize import gaussian_wavefunction

        psi = gaussian_wavefunction(sigma=1.0)
        dens = psi.density()
        # a negative tail entry leaves the integral at 1 once clipped
        bad = dens.copy()
        bad[0] = -0.5
        with pytest.raises(ValueError, match=r"negative density -0\.5"):
            fn(bad, psi.dq)
        with pytest.raises(ValueError, match="density integrates to"):
            fn(2.0 * dens, psi.dq)
        # a rounding-level negative entry is clipped, not rejected
        tiny = dens.copy()
        tiny[0] = -1e-13
        fn(tiny, psi.dq)
