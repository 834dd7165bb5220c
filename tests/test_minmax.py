import math

import numpy as np
import pytest

from quncert import discretize, gaussian, minmax, qstate
from quncert.minmax import (
    SDPResult,
    _block_embedding,
    _cq_embedding,
    _schur,
    _tensor_embedding,
    cond_min_entropy_value,
    decoupling_fidelity,
    guessing_probability,
    h_max_cq,
    h_min_cq,
)
from quncert.entropy import cond_vn_cq
from quncert.qstate import CQState, partial_trace, purify_cq
from quncert.verify import _trial_rng, haar_state, measure_to_cq, mub_pair, random_density

from oracles import (
    fdec_bloch_grid,
    fdec_direct,
    helstrom_textbook,
    pguess_qubit_projective_grid,
    random_cq,
    with_cells,
)

BB84 = CQState((("0", 0.5 * np.diag([1.0, 0.0])),
                ("1", 0.5 * np.ones((2, 2)) / 2.0)))


def _helstrom(om0, om1):
    """Two-outcome guessing_probability, which takes the Helstrom closed form."""
    res = guessing_probability(CQState((("0", om0), ("1", om1))))
    assert res.iterations == 0
    return res.value


class TestHelstrom:
    def test_bb84_closed_form(self):
        # 1/2 + sqrt(2)/4 for the |0> vs |+> pair
        val = _helstrom(BB84.outcomes[0][1], BB84.outcomes[1][1])
        assert math.isclose(val, 0.5 + math.sqrt(2.0) / 4.0, abs_tol=1e-12)

    def test_orthogonal_states_perfect(self):
        val = _helstrom(0.5 * np.diag([1.0, 0.0]), 0.5 * np.diag([0.0, 1.0]))
        assert math.isclose(val, 1.0, abs_tol=1e-12)

    def test_identical_states_random_guess(self):
        rho = np.eye(2) / 2.0
        assert math.isclose(_helstrom(0.5 * rho, 0.5 * rho), 0.5,
                            abs_tol=1e-12)

    def test_matches_textbook_trace_norm(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            p = rng.dirichlet([1.0, 1.0])
            om0 = p[0] * random_density(4, rng)
            om1 = p[1] * random_density(4, rng)
            assert math.isclose(_helstrom(om0, om1),
                                helstrom_textbook(om0, om1), abs_tol=1e-10)

    def test_matches_projective_angle_grid(self):
        # independent brute force over qubit projective measurements
        rng = np.random.default_rng(12)
        cq = random_cq(rng, 2, 2)
        grid = pguess_qubit_projective_grid(cq, n_theta=600, n_phi=600)
        exact = _helstrom(cq.outcomes[0][1], cq.outcomes[1][1])
        assert abs(exact - grid) < 5e-5
        assert grid <= exact + 1e-12  # grid is a feasible-point lower bound

    def test_projective_angle_grid_finds_bb84_optimum(self):
        # a pair where neither operator dominates, so the optimum is a
        # projector of the grid and not one of the constant guesses
        a, b = BB84.ops
        assert np.linalg.eigvalsh(a - b).min() < 0.0 < np.linalg.eigvalsh(a - b).max()
        grid = pguess_qubit_projective_grid(BB84, n_theta=600, n_phi=600)
        exact = 0.5 + math.sqrt(2.0) / 4.0
        assert abs(exact - grid) < 5e-5
        assert grid <= exact + 1e-12


class TestGuessingProbability:
    def test_binary_auto_equals_helstrom(self):
        res = guessing_probability(BB84)
        assert math.isclose(res.value, 0.5 + math.sqrt(2.0) / 4.0, abs_tol=1e-9)
        assert res.converged
        assert res.gap < 1e-7

    def test_sdp_agrees_with_helstrom(self):
        for trial in range(10):
            rng = _trial_rng(21, trial)
            d = int(rng.integers(2, 7))
            cq = random_cq(rng, 2, d)
            hel = helstrom_textbook(cq.outcomes[0][1], cq.outcomes[1][1])
            res = cond_min_entropy_value(cq.block_diagonal(), 2, d)
            assert res.converged
            assert abs(res.value - hel) < 1e-6
            assert res.gap < 1e-7

    def test_multi_outcome_certificates(self):
        for trial in range(8):
            rng = _trial_rng(22, trial)
            cq = random_cq(rng, int(rng.integers(3, 5)), 3)
            res = guessing_probability(cq)
            assert res.converged
            assert res.gap < 1e-7
            # dual certificate sigma >= omega_x, value = tr sigma
            sig = res.dual_certificate
            assert math.isclose(np.real(np.trace(sig)), res.value, rel_tol=1e-6)
            for _, om in cq.outcomes:
                assert np.linalg.eigvalsh(sig - om).min() >= -1e-7

    def test_primal_povm_feasible_and_tight(self):
        rng = _trial_rng(23, 0)
        cq = random_cq(rng, 3, 3)
        res = guessing_probability(cq)
        els = res.primal_povm.elements
        total = sum(els)
        assert np.allclose(total, np.eye(3), atol=1e-7)
        primal = sum(np.real(np.trace(e @ om))
                     for e, (_, om) in zip(els, cq.outcomes))
        assert abs(primal - res.value) < 1e-6

    def test_bounds(self):
        # max_x p_x <= P_guess <= 1
        for trial in range(10):
            rng = _trial_rng(24, trial)
            cq = random_cq(rng, 3, 2)
            res = guessing_probability(cq)
            assert cq.probs.max() - 1e-8 <= res.value <= 1.0 + 1e-8

    def test_matches_loop_solver(self):
        # An earlier first-order solver, with one eigh per outcome per
        # iteration, gave this instance the value 0.47012244556963223 with
        # gap 1.373e-09.
        cq = random_cq(_trial_rng(41, 0), 9, 8)
        res = guessing_probability(cq)
        assert res.converged
        assert abs(res.value - 0.47012244556963223) < 1e-9

    def test_tol_below_rounding_still_certified(self):
        # at tol = 1e-14 rounding can break a Cholesky factorization before
        # the stopping rule holds; the result is still a valid certificate
        cq = random_cq(_trial_rng(41, 0), 9, 8)
        res = guessing_probability(cq, tol=1e-14)
        assert res.converged == (res.gap <= 1e-14)
        assert 0.0 <= res.gap < 1e-9
        assert np.linalg.eigvalsh(res.dual_certificate - cq.ops).min() >= -1e-12
        assert np.abs(res.primal_povm.elements.sum(0) - np.eye(8)).max() <= 1e-12

    def test_trivial_memory_classical(self):
        p = np.array([0.6, 0.1, 0.3])
        cq = CQState(tuple((str(i), p[i] * np.eye(1)) for i in range(3)))
        assert math.isclose(guessing_probability(cq).value, 0.6, abs_tol=1e-9)

    def test_single_outcome(self):
        cq = CQState((("0", np.eye(2) / 2.0),))
        assert math.isclose(guessing_probability(cq).value, 1.0, abs_tol=1e-12)


def _trimmed_cq(seed, m, d):
    """A random cq state of m cells with cells of trace 1e-40, 1e-20 and
    1e-40 appended. P_guess (bound t) skips all three; F_dec (bound
    sqrt(t)) keeps the one of 1e-20."""
    rng = _trial_rng(seed, 0)
    cq = with_cells(random_cq(rng, m, d), rng, [1e-40, 1e-20, 1e-40])
    assert qstate.kept_cells(cq.ops, lambda t: t).tolist() == [True] * m + [False] * 3
    assert qstate.kept_cells(cq.ops, np.sqrt).tolist() == [True] * m + [False, True, False]
    return cq


class TestGuessingProbabilityTrim:
    """Outcomes of negligible trace are skipped with their mass accounted."""

    @pytest.mark.parametrize("seed,m,d", [(81, 1, 3), (82, 2, 2), (83, 4, 3), (84, 6, 5)])
    def test_certificate_covers_every_outcome(self, seed, m, d):
        cq = _trimmed_cq(seed, m, d)
        res = guessing_probability(cq)
        assert res.converged and res.gap <= 1e-7
        # sigma >= omega_x for every x, the skipped ones included
        assert np.linalg.eigvalsh(res.dual_certificate - cq.ops).min() >= -1e-12
        els = res.primal_povm.elements
        assert els.shape == (len(cq.labels), d, d)
        assert np.linalg.eigvalsh(els).min() >= -1e-12
        assert np.abs(els.sum(0) - np.eye(d)).max() <= 1e-9
        primal = float(np.einsum("xij,xji->", cq.ops, els).real)
        assert abs(primal - res.value) <= 1e-12
        assert abs(np.trace(res.dual_certificate).real - res.value - res.gap) <= 1e-12

    def test_certificate_covers_skipped_outcome_off_its_support(self):
        # the kept outcomes live on |0>, so the Helstrom sigma = diag(0.6, 0)
        # dominates the skipped diag(0, 1e-30) only once that is added
        cq = CQState((("0", np.diag([0.6, 0.0])), ("1", np.diag([0.4, 0.0])),
                      ("2", np.diag([0.0, 1e-30]))))
        res = guessing_probability(cq)
        assert abs(res.value - 0.6) < 1e-15 and abs(res.gap - 1e-30) < 1e-15
        assert np.linalg.eigvalsh(res.dual_certificate - cq.ops).min() >= 0.0

    @pytest.mark.parametrize("seed,m,d", [(82, 2, 2), (83, 4, 3), (84, 6, 5)])
    def test_agrees_with_untrimmed_solve(self, seed, m, d, monkeypatch):
        cq = _trimmed_cq(seed, m, d)
        res = guessing_probability(cq)
        monkeypatch.setattr(qstate, "NEGLIGIBLE", 0.0)
        full = guessing_probability(cq)
        assert full.converged
        assert res.value <= full.value + full.gap + 1e-12
        assert full.value <= res.value + res.gap + 1e-12

    @pytest.mark.parametrize("seed,m,d", [(85, 1, 2), (86, 2, 3), (87, 5, 4)])
    def test_no_negligible_cell_is_bit_identical(self, seed, m, d, monkeypatch):
        cq = random_cq(_trial_rng(seed, 0), m, d)
        res = guessing_probability(cq)
        monkeypatch.setattr(qstate, "NEGLIGIBLE", 0.0)
        full = guessing_probability(cq)
        assert (res.value, res.gap, res.iterations) == (full.value, full.gap, full.iterations)
        assert np.array_equal(res.dual_certificate, full.dual_certificate)
        assert np.array_equal(res.primal_povm.elements, full.primal_povm.elements)


class TestDecouplingTrim:
    @pytest.mark.parametrize("seed,m,d", [(91, 1, 2), (92, 2, 3), (93, 4, 3), (94, 5, 4)])
    def test_within_gap_of_untrimmed_solve(self, seed, m, d, monkeypatch):
        cq = _trimmed_cq(seed, m, d)
        res = decoupling_fidelity(cq, 1e-9)
        fdec, gap = res.value, res.gap
        assert 0.0 <= gap <= 1e-9
        monkeypatch.setattr(qstate, "NEGLIGIBLE", 0.0)
        full_res = decoupling_fidelity(cq, 1e-9)
        full, full_gap = full_res.value, full_res.gap
        assert full_gap <= 1e-9
        # each solve's [value - gap, value] contains F_dec
        assert fdec - gap <= full + 1e-12
        assert full - full_gap <= fdec + 1e-12

    @pytest.mark.parametrize("seed,m,d", [(95, 1, 2), (96, 3, 3)])
    def test_no_negligible_cell_is_bit_identical(self, seed, m, d, monkeypatch):
        cq = random_cq(_trial_rng(seed, 0), m, d)
        got = decoupling_fidelity(cq, 1e-7)
        monkeypatch.setattr(qstate, "NEGLIGIBLE", 0.0)
        assert got == decoupling_fidelity(cq, 1e-7)


class TestPaperScale:
    def test_epr_memory_at_alpha_2(self):
        # the EPR state at r = 1.5 with its 19-level memory, 17 position cells
        psi = gaussian.epr_grid_wavefunction(1.5)
        part = discretize.Partition.centered(2.0, psi.grid[0], psi.grid[-1])
        cq = discretize.discretize_position(psi, part)
        assert cq.ops.shape == (17, 19, 19)
        res = guessing_probability(cq)
        assert res.converged
        assert res.gap <= 1e-7
        # the certificate, checked with numpy alone
        sig = res.dual_certificate
        assert np.linalg.eigvalsh(sig - cq.ops).min() >= -1e-9
        els = res.primal_povm.elements
        assert np.linalg.eigvalsh(els).min() >= -1e-9
        assert np.abs(els.sum(0) - np.eye(19)).max() <= 1e-9
        assert abs(res.value - 0.82041563) < 1e-8


EMBEDDINGS = pytest.mark.parametrize("emb, shape", [
    (_cq_embedding(4), (4, 3, 3)),
    (_tensor_embedding(3, 2), (1, 6, 6)),
    (_block_embedding(3, 2), (1, 6, 6)),
], ids=["cq", "tensor", "block"])


def _complex_normal(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


class TestEmbeddingPairs:
    @EMBEDDINGS
    def test_pairs_represent_adjoint(self, emb, shape):
        # adjoint(X embed(D) W)_x = sum_{p, y} A_pxy D_y B_pxy for any X, W and D
        rng = np.random.default_rng(51)
        x, w = _complex_normal(rng, (2,) + shape)
        dmat = _complex_normal(rng, emb.adjoint(x).shape)
        a, b = emb.pairs(x, w)
        assert np.allclose(emb.adjoint(x @ emb.embed(dmat) @ w),
                           np.einsum("pxyik,ykl,pxylj->xij", a, dmat, b), atol=1e-12)

    @EMBEDDINGS
    def test_adjoint_of_embed(self, emb, shape):
        rng = np.random.default_rng(52)
        y = _complex_normal(rng, emb.adjoint(np.zeros(shape)).shape)
        assert np.allclose(emb.adjoint(np.broadcast_to(emb.embed(y), shape)), emb.k * y,
                           atol=1e-12)

    @EMBEDDINGS
    def test_schur_matrix_is_the_symmetrized_map(self, emb, shape):
        # _schur(A, B) vec(D) = vec of (L(D) + L(D^H)^H) / 2, L(D) = adjoint(X embed(D) W)
        rng = np.random.default_rng(53)
        x, w = _complex_normal(rng, (2,) + shape)
        dmat = _complex_normal(rng, emb.adjoint(x).shape)

        def lmap(d):
            return emb.adjoint(x @ emb.embed(d) @ w)

        want = 0.5 * (lmap(dmat) + np.swapaxes(lmap(np.swapaxes(dmat.conj(), 1, 2)).conj(), 1, 2))
        got = _schur(*emb.pairs(x, w)) @ dmat.reshape(-1)
        assert np.allclose(got, want.reshape(-1), atol=1e-12)


class TestHmin:
    def test_bb84_value(self):
        assert math.isclose(h_min_cq(BB84).value,
                            -math.log2(0.5 + math.sqrt(2.0) / 4.0), abs_tol=1e-8)

    def test_classical_fast_path(self):
        p = np.array([0.7, 0.3])
        cq = CQState(tuple((str(i), p[i] * np.eye(1)) for i in range(2)))
        assert math.isclose(h_min_cq(cq).value, -math.log2(0.7), abs_tol=1e-10)


class TestCondMinEntropyGeneral:
    def test_product_state(self):
        # rho_AC = rho_A (x) sigma_C: min tr Y with Y >= ||rho_A|| sigma... the
        # optimal value is ||rho_A||_inf... for rho_A = I/2 it is 1/2
        rho = np.kron(np.eye(2) / 2.0, np.diag([0.6, 0.4]))
        res = cond_min_entropy_value(rho, 2, 2)
        val, gap = res.value, res.gap
        assert math.isclose(val, 0.5, abs_tol=1e-7)
        assert gap < 1e-7

    def test_maximally_entangled(self):
        # for the 2-qubit Bell state min tr Y = 2^{-H_min(A|C)} = 2
        v = np.zeros(4)
        v[0] = v[3] = 1.0 / math.sqrt(2.0)
        rho = np.outer(v, v)
        res = cond_min_entropy_value(rho, 2, 2)
        val, gap = res.value, res.gap
        assert math.isclose(val, 2.0, abs_tol=1e-6)
        assert gap < 1e-7

    def test_cq_route_consistency(self):
        # the dedicated cq solver and the general conditional solver agree
        for trial in range(5):
            rng = _trial_rng(31, trial)
            cq = random_cq(rng, 3, 2)
            pg = guessing_probability(cq).value
            res = cond_min_entropy_value(cq.block_diagonal(), 3, 2)
            val, gap = res.value, res.gap
            assert abs(val - pg) < 3e-6
            assert gap < 1e-7


class TestHmax:
    def test_classical_closed_form(self):
        # H_max = 2 log2 sum_x sqrt(p_x) for trivial memory
        p = np.array([0.7, 0.3])
        cq = CQState(tuple((str(i), p[i] * np.eye(1)) for i in range(2)))
        assert math.isclose(h_max_cq(cq).value,
                            2.0 * math.log2(np.sqrt(p).sum()), abs_tol=1e-6)

    def test_orthogonal_memory_decoupled(self):
        # perfectly distinguishable memory states: F_dec = 1, H_max = 0
        cq = CQState((("0", 0.5 * np.diag([1.0, 0.0])),
                      ("1", 0.5 * np.diag([0.0, 1.0]))))
        assert abs(h_max_cq(cq).value) < 1e-6

    def test_duality_matches_bloch_grid(self):
        for trial in range(8):
            rng = _trial_rng(32, trial)
            cq = random_cq(rng, int(rng.integers(2, 4)), 2)
            dual = decoupling_fidelity(cq).value
            grid = fdec_bloch_grid(cq)
            assert abs(dual - grid) < 1e-4

    def test_fdec_direct_lower_bounds_supremum(self):
        rng = _trial_rng(33, 0)
        cq = random_cq(rng, 3, 2)
        sup = decoupling_fidelity(cq).value
        for _ in range(10):
            sig = random_density(2, rng)
            assert fdec_direct(cq, sig) <= sup + 1e-6

    def test_hmin_le_hmax(self):
        for trial in range(5):
            rng = _trial_rng(34, trial)
            cq = random_cq(rng, 2, 3)
            assert h_min_cq(cq).value <= h_max_cq(cq).value + 1e-6


def _fdec_by_purification(cq, tol):
    """The SDPResult of F_dec as 2^{-H_min(X|C)} of the purified cq state,
    C = X'B': the SDP of dimension m^2 d^2 that the block SDP reduces."""
    m, d = cq.ops.shape[:2]
    vec, dims = purify_cq(cq)
    rho_xc = partial_trace(np.outer(vec, vec.conj()), list(dims), keep=[0, 1, 3])
    return cond_min_entropy_value(rho_xc, m, m * d, tol)


def _assert_same_fdec(cq, tol=1e-9):
    # both values are certified upper bounds within their gaps of F_dec
    block = decoupling_fidelity(cq, tol)
    pure = _fdec_by_purification(cq, tol)
    assert block.gap <= tol and pure.gap <= tol
    assert abs(block.value - pure.value) < 1e-8


class TestHmaxBlockSDP:
    def test_matches_purification_on_tripartite_mub(self):
        # X from the computational basis of A on Haar-random (3, 3, 3) states
        e, _ = mub_pair(3)
        for trial in range(60):
            psi = haar_state(27, _trial_rng(61, trial))
            _assert_same_fdec(measure_to_cq(np.outer(psi, psi.conj()), [3, 3, 3], e, keep=1))

    @pytest.mark.parametrize("m", [1, 2, 5])
    @pytest.mark.parametrize("d", [1, 3])
    def test_matches_purification_rank_deficient(self, m, d):
        for trial in range(3):
            _assert_same_fdec(random_cq(_trial_rng(62, trial), m, d, rank=1))

    def test_matches_purification_with_zero_outcome(self):
        cq = random_cq(_trial_rng(63, 0), 4, 3, rank=2)
        ops = cq.ops.copy()
        ops[1] = 0.0
        ops /= np.trace(ops, axis1=1, axis2=2).real.sum()
        _assert_same_fdec(CQState.from_stack(cq.labels, ops))

    def test_epr_memory_at_alpha_8(self):
        # the purification route took about a minute here (dimension 225)
        psi = gaussian.epr_grid_wavefunction(1.5, memory_dim=3)
        part = discretize.Partition.centered(8.0, psi.grid[0], psi.grid[-1])
        cq = discretize.discretize_position(psi, part)
        assert cq.ops.shape == (5, 3, 3)
        res = decoupling_fidelity(cq, 1e-7)
        fdec, gap = res.value, res.gap
        assert gap <= 1e-7
        h_max = math.log2(fdec)
        assert math.isclose(h_max_cq(cq).value, h_max, abs_tol=1e-12)
        assert cond_vn_cq(cq).value <= h_max
        assert h_max <= 2.0 * math.log2(np.sqrt(cq.probs).sum())
        # sigma = omega_B is one point of the supremum that F_dec is
        assert fdec >= fdec_direct(cq, cq.ops.sum(0)) - 1e-9


def _assert_result(res, tol, certificates):
    assert isinstance(res, SDPResult)
    assert res.converged == (res.gap <= tol)
    assert (res.primal_povm is not None) == certificates
    assert (res.dual_certificate is not None) == certificates


class TestSDPResult:
    """Every SDP returns one SDPResult whose converged flag is gap <= tol."""

    @pytest.mark.parametrize("m, iterations", [(1, 0), (2, 0), (4, None)],
                             ids=["one-outcome", "helstrom", "interior-point"])
    @pytest.mark.parametrize("tol", [1e-7, 1e-12])
    def test_guessing_probability(self, m, iterations, tol):
        res = guessing_probability(random_cq(_trial_rng(71, m), m, 3), tol)
        _assert_result(res, tol, certificates=True)
        assert res.converged
        if iterations is not None:
            assert res.iterations == iterations

    def test_guessing_probability_trimmed(self):
        res = guessing_probability(_trimmed_cq(72, 3, 3))
        _assert_result(res, 1e-7, certificates=True)
        assert res.converged and res.iterations > 0

    @pytest.mark.parametrize("trimmed", [False, True])
    def test_decoupling_fidelity(self, trimmed):
        cq = _trimmed_cq(73, 3, 3) if trimmed else random_cq(_trial_rng(73, 0), 3, 3)
        res = decoupling_fidelity(cq)
        _assert_result(res, 1e-7, certificates=False)
        assert res.converged and res.iterations > 0

    def test_cond_min_entropy_value(self):
        cq = random_cq(_trial_rng(74, 0), 3, 2)
        res = cond_min_entropy_value(cq.block_diagonal(), 3, 2)
        _assert_result(res, 1e-7, certificates=False)
        assert res.converged and res.iterations > 0

    @pytest.mark.parametrize("trimmed", [False, True])
    def test_capped_solves_are_not_converged(self, monkeypatch, trimmed):
        cq = _trimmed_cq(75, 3, 3) if trimmed else random_cq(_trial_rng(75, 0), 3, 3)
        monkeypatch.setattr(minmax, "IPM_MAX_ITER", 2)
        for res in (decoupling_fidelity(cq), guessing_probability(cq),
                    cond_min_entropy_value(cq.block_diagonal(), len(cq.labels), 3)):
            assert isinstance(res, SDPResult)
            assert not res.converged
            assert res.iterations == 2
            assert res.gap > 1e-7

    def test_capped_helstrom_is_exact(self, monkeypatch):
        monkeypatch.setattr(minmax, "IPM_MAX_ITER", 2)
        res = guessing_probability(BB84)
        assert res.converged and res.iterations == 0
