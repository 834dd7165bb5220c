import math

import numpy as np
import pytest

from quncert import discretize, gaussian, minmax, qstate
from quncert.minmax import (
    SDPResult,
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
from quncert.qstate import CQState, herm
from quncert.verify import _trial_rng, haar_state, measure_to_cq, mub_pair, random_density

from oracles import (
    block_diagonal,
    block_embedding,
    fdec_block_sdp,
    fdec_bloch_grid,
    fdec_by_purification,
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
            res = cond_min_entropy_value(block_diagonal(cq.ops), 2, d)
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


def _solver(kind, ops, skipped, tol):
    """The solver of kind ("min": _guess, "max": _fdec_ascent) on the kept
    stack ops, charged for the skipped traces."""
    return (minmax._guess if kind == "min" else minmax._fdec_ascent)(ops, skipped, tol)


def _untrimmed(kind, cq, tol=minmax.DEFAULT_TOL):
    """The solver of kind on every cell of cq, none skipped."""
    return _solver(kind, cq.ops, np.empty(0), tol)


def _kept(kind, traces, tol):
    """The keep-mask minmax._solve picks at tol for cells of these traces,
    which it solves here as 1 x 1 cells."""
    return minmax._solve(kind, traces, lambda keep: traces[keep, None, None] + 0j, tol)[0]


def _trimmed_cq(seed, m, d):
    """A random cq state of m cells with cells of trace 1e-40, 1e-20 and
    1e-40 appended. P_guess (bound t) skips all three; F_dec (bound
    sqrt(t)) keeps the one of 1e-20 under the 1e-15 budget and at tol 1e-9,
    and skips it at tol 1e-7."""
    rng = _trial_rng(seed, 0)
    cq = with_cells(random_cq(rng, m, d), rng, [1e-40, 1e-20, 1e-40])
    t = cq.probs
    assert qstate.kept_cells(t, "min").tolist() == [True] * m + [False] * 3
    for tol in (1e-7, 1e-9):
        assert _kept("min", t, tol).tolist() == [True] * m + [False] * 3
    assert qstate.kept_cells(t, "max").tolist() == [True] * m + [False, True, False]
    assert _kept("max", t, 1e-9).tolist() == [True] * m + [False, True, False]
    assert _kept("max", t, 1e-7).tolist() == [True] * m + [False] * 3
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
    def test_agrees_with_untrimmed_solve(self, seed, m, d):
        cq = _trimmed_cq(seed, m, d)
        res = guessing_probability(cq)
        full = _untrimmed("min", cq)
        assert full.converged
        assert res.value <= full.value + full.gap + 1e-12
        assert full.value <= res.value + res.gap + 1e-12

    @pytest.mark.parametrize("seed,m,d", [(85, 1, 2), (86, 2, 3), (87, 5, 4)])
    def test_no_negligible_cell_is_bit_identical(self, seed, m, d):
        cq = random_cq(_trial_rng(seed, 0), m, d)
        res = guessing_probability(cq)
        full = _untrimmed("min", cq)
        assert (res.value, res.gap, res.iterations) == (full.value, full.gap, full.iterations)
        assert np.array_equal(res.dual_certificate, full.dual_certificate)
        assert np.array_equal(res.primal_povm.elements, full.primal_povm.elements)


class TestDecouplingTrim:
    @pytest.mark.parametrize("seed,m,d", [(91, 1, 2), (92, 2, 3), (93, 4, 3), (94, 5, 4)])
    def test_within_gap_of_untrimmed_solve(self, seed, m, d):
        cq = _trimmed_cq(seed, m, d)
        res = decoupling_fidelity(cq, 1e-9)
        fdec, gap = res.value, res.gap
        assert 0.0 <= gap <= 1e-9
        full_res = _untrimmed("max", cq, 1e-9)
        full, full_gap = full_res.value, full_res.gap
        assert full_gap <= 1e-9
        # each solve's [value - gap, value] contains F_dec
        assert fdec - gap <= full + 1e-12
        assert full - full_gap <= fdec + 1e-12

    @pytest.mark.parametrize("seed,m,d", [(95, 1, 2), (96, 3, 3)])
    def test_no_negligible_cell_is_bit_identical(self, seed, m, d):
        cq = random_cq(_trial_rng(seed, 0), m, d)
        assert decoupling_fidelity(cq, 1e-7) == _untrimmed("max", cq, 1e-7)


def _spy_directions(monkeypatch):
    """The list that each _kept_directions call appends its per-cell
    budget, mask and charge to."""
    seen, real = [], minmax._kept_directions

    def spy(vals, budget):
        keep, charge = real(vals, budget)
        seen.append((budget, keep, charge))
        return keep, charge
    monkeypatch.setattr(minmax, "_kept_directions", spy)
    return seen


def _bracket(kind, res):
    """The interval the certificate puts the optimum in."""
    return (res.value, res.value + res.gap) if kind == "min" else (res.value - res.gap, res.value)


def _epr_rung(which, alpha):
    psi = gaussian.epr_grid_wavefunction(1.5, n_points=2048)
    if which == "momentum":
        psi = discretize.momentum_transform(psi)
    return discretize.discretize_position(
        psi, discretize.Partition.centered(alpha, psi.grid[0], psi.grid[-1]))


class TestTolBudget:
    """Min and max solves skip the cells that cost at most tol/10 of the
    certificate's gap and charge them in the one bracket they stop on; the
    max solve's left-out eigen-directions share a tol/5 budget with them."""

    def test_budget_rule(self):
        t = np.array([0.5, 0.3, 0.2 - 1.1e-8, 6e-9, 4e-9, 1e-9, 4e-18, 1e-18])
        # P_guess: the smallest traces while they sum to at most tol/10
        assert _kept("min", t, 1e-7).tolist() == [True] * 4 + [False] * 4
        # sqrt(F_dec): T = sum sqrt(t) with 2RT + T^2 <= tol/10, R = 1.70...
        keep = _kept("max", t, 1e-7)
        assert keep.tolist() == [True] * 7 + [False]
        r, root = float(np.sqrt(t).sum()), float(np.sqrt(t[~keep]).sum())
        assert (2.0 * r + root) * root <= 1e-8
        root += math.sqrt(4e-18)
        assert (2.0 * r + root) * root > 1e-8
        # vn has no tol: its budget is 1e-15
        assert qstate.kept_cells(t, "vn").tolist() == [True] * 6 + [False] * 2
        # a large tol still keeps the largest cell and no cell of negative trace
        assert _kept("min", np.array([1e-4, 2e-4]), 1e-3).tolist() == [False, True]
        assert _kept("min", np.array([1.0, -1e-9]), 1e-3).tolist() == [True, True]

    def test_one_budget_for_skipped_cells_and_left_out_directions(self, monkeypatch):
        # the skipped cells' sqrt-charge stays within the tol/10 root; the
        # directions may take the rest of the tol/5 root, split over the m
        # kept cells, so the whole T keeps 2RT + T^2 within tol/5
        rng = _trial_rng(101, 0)
        cq = with_cells(random_cq(rng, 3, 3), rng, [1e-9, 1e-9, 1e-18])
        t, tol = cq.probs, 1e-7
        res = guessing_probability(cq, tol)
        skipped = t[~_kept("min", t, tol)]
        assert len(skipped) == 3 and skipped.sum() <= 0.1 * tol
        assert res.converged and res.gap >= skipped.sum()
        skipped = t[~_kept("max", t, tol)]
        seen = _spy_directions(monkeypatch)
        res = decoupling_fidelity(cq, tol)
        assert res.converged and 0.0 <= res.gap <= tol
        assert skipped.tolist() == [t[-1]]
        r, cells = float(np.sqrt(t).sum()), float(np.sqrt(skipped).sum())
        assert (2.0 * r + cells) * cells <= 0.1 * tol
        ((budget, keep, directions),) = seen
        most = cells + len(keep) * math.sqrt(budget)
        assert (2.0 * r + most) * most == pytest.approx(0.2 * tol, rel=1e-9)
        whole = cells + directions
        assert whole <= most and (2.0 * r + whole) * whole <= 0.2 * tol * (1.0 + 1e-12)

    def test_skipped_cells_and_rank_deficient_kept_cells(self, monkeypatch):
        # kept cells of rank 3 in d = 4, each with one eigenvalue small
        # enough to leave out (at tol 1e-5 it stands well above rounding),
        # and two cells small enough to skip: the one charged bracket
        # contains the block SDP of every cell
        rng = _trial_rng(104, 0)
        p = rng.dirichlet(np.ones(4))
        ops = []
        for px in p:
            v = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
            ops.append(px * (v * np.array([0.7, 0.3 - 1e-15, 1e-15, 0.0])) @ v.conj().T)
        cq = with_cells(CQState(tuple((str(x), op) for x, op in enumerate(ops))), rng,
                        [1e-14, 1e-40])
        t, tol = cq.probs, 1e-5
        assert _kept("max", t, tol).tolist() == [True] * 4 + [False] * 2
        seen = _spy_directions(monkeypatch)
        res = decoupling_fidelity(cq, tol)
        ((_, keep, directions),) = seen
        # in each kept cell the zero and the 1e-15 eigenvalue are left out
        assert keep.sum(1).tolist() == [2] * 4 and directions > 0.0
        oracle = fdec_block_sdp(cq, 1e-10)
        assert res.converged and oracle.converged and 0.0 <= res.gap <= tol
        assert res.value - res.gap <= oracle.value + 1e-12
        assert oracle.value - oracle.gap <= res.value + 1e-12

    def test_every_min_max_solve_goes_through_solve(self, monkeypatch):
        # the entries and the min and max ladder rungs each make one _solve
        # call per solve, and return what it solved; a vn rung makes none
        calls, real = [], minmax._solve

        def spy(kind, traces, form, tol):
            keep, res = real(kind, traces, form, tol)
            calls.append((kind, res))
            return keep, res
        monkeypatch.setattr(minmax, "_solve", spy)
        cq = _epr_rung("position", 2.0)
        for kind, entry in (("min", guessing_probability), ("max", decoupling_fidelity)):
            calls.clear()
            res = entry(cq)
            ((got, solved),) = calls
            assert got == kind and (res.value, res.gap) == (solved.value, solved.gap)
        psi = gaussian.epr_grid_wavefunction(1.5, n_points=2048)
        for kind in ("min", "max"):
            calls.clear()
            tab = discretize.convergence_ladder(psi, "position", kind, n_max=0, alpha0=2.0,
                                                base="nats")
            ((got, solved),) = calls
            value = minmax._entropy(kind, solved, "nats").value + math.log(2.0)
            assert got == kind and tab.values.tolist() == [value]
        calls.clear()
        discretize.convergence_ladder(psi, "position", "vn", n_max=1)
        assert calls == []

    @pytest.mark.parametrize("kind", ["min", "max"])
    @pytest.mark.parametrize("tol", [1e-7, 1e-9])
    @pytest.mark.parametrize("seed, m, d", [(102, 3, 3), (103, 5, 4)])
    def test_bracket_meets_the_negligible_budget_solve_on_small_cells(self, kind, tol, seed, m, d):
        rng = _trial_rng(seed, 0)
        cq = with_cells(random_cq(rng, m, d), rng, [1e-9, 1e-9, 1e-18])
        self._assert_meets(kind, cq, tol)

    @pytest.mark.parametrize("kind", ["min", "max"])
    @pytest.mark.parametrize("which, alpha", [("position", 2.0), ("momentum", 1.0)])
    def test_bracket_meets_the_negligible_budget_solve_on_epr_rungs(self, kind, which, alpha):
        keep = self._assert_meets(kind, _epr_rung(which, alpha), minmax.DEFAULT_TOL)
        assert keep[0].sum() < keep[1].sum()

    @staticmethod
    def _assert_meets(kind, cq, tol):
        """The charged solve at tol is converged with gap <= tol, and its
        bracket meets that of the same solve under the 1e-15 budget.
        Returns both keep-masks."""
        t = cq.probs
        keep, res = minmax._solve(kind, t, lambda keep: cq.ops[keep], tol)
        entry = (guessing_probability if kind == "min" else decoupling_fidelity)(cq, tol)
        fields = lambda r: (r.value, r.gap, r.iterations, r.converged)
        assert fields(res) == fields(entry)
        ref_keep = qstate.kept_cells(t, kind)
        ref = _solver(kind, cq.ops[ref_keep], t[~ref_keep], tol)
        assert res.converged and 0.0 <= res.gap <= tol
        lo, hi = _bracket(kind, res)
        ref_lo, ref_hi = _bracket(kind, ref)
        assert lo <= ref_hi + 1e-12 and ref_lo <= hi + 1e-12
        return keep, ref_keep


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

    def test_epr_fdec_at_alpha_2(self):
        # 11 of the 17 cells pass the 1e-15 budget and 9 the default tol's;
        # the md block SDP took 165 s to give 1.9565971161 (gap 2.2e-10) here
        psi = gaussian.epr_grid_wavefunction(1.5)
        part = discretize.Partition.centered(2.0, psi.grid[0], psi.grid[-1])
        cq = discretize.discretize_position(psi, part)
        assert int(qstate.kept_cells(cq.probs, "max").sum()) == 11
        assert int(_kept("max", cq.probs, minmax.DEFAULT_TOL).sum()) == 9
        res = decoupling_fidelity(cq)
        assert res.converged
        assert res.value - res.gap <= 1.9565971161 <= res.value


class TestIterationPath:
    """Interior-point iteration counts of fixed instances, so that a change
    to _ipm cannot trade iterations for time per iteration unseen."""

    @pytest.mark.parametrize("alpha, cells", [(4.0, 9), (2.0, 17)])
    def test_epr_rungs_with_an_8_level_memory(self, alpha, cells):
        psi = gaussian.epr_grid_wavefunction(1.5, 4096, memory_dim=8)
        part = discretize.Partition.centered(alpha, psi.grid[0], psi.grid[-1])
        cq = discretize.discretize_position(psi, part)
        assert cq.ops.shape == (cells, 8, 8)
        res = guessing_probability(cq)
        assert res.converged and res.iterations == 10

    def test_epr_rung_with_a_19_level_memory(self):
        psi = gaussian.epr_grid_wavefunction(1.5, 4096)
        part = discretize.Partition.centered(0.5, psi.grid[0], psi.grid[-1])
        res = guessing_probability(discretize.discretize_position(psi, part))
        assert res.converged and res.iterations == 19

    def test_cond_min_entropy_value(self):
        res = cond_min_entropy_value(random_density(9, _trial_rng(91, 0)), 3, 3)
        assert res.converged and res.iterations == 11


EMBEDDINGS = pytest.mark.parametrize("emb, shape", [
    (_cq_embedding(4), (4, 3, 3)),
    (_tensor_embedding(3, 2), (1, 6, 6)),
    (block_embedding(3, 2), (1, 6, 6)),
], ids=["cq", "tensor", "block"])


def _complex_normal(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _hermitian(rng, shape):
    g = _complex_normal(rng, shape)
    return g + g.conj().swapaxes(-1, -2)


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
        # _schur(A, B) (Re D + Im D) = Re H + Im H for Hermitian D, with H the
        # symmetrized map herm(L(D)), L(D) = adjoint(X embed(D) W)
        rng = np.random.default_rng(53)
        x, w = _complex_normal(rng, (2,) + shape)
        dmat = _hermitian(rng, emb.adjoint(x).shape)
        h = herm(emb.adjoint(x @ emb.embed(dmat) @ w))
        got = _schur(*emb.pairs(x, w)) @ (dmat.real + dmat.imag).reshape(-1)
        assert np.allclose(got, (h.real + h.imag).reshape(-1), atol=1e-12)

    @EMBEDDINGS
    def test_schur_matrix_is_symmetric(self, emb, shape):
        rng = np.random.default_rng(54)
        x, w = _hermitian(rng, (2,) + shape)
        r = _schur(*emb.pairs(x, w))
        assert r.dtype == float
        assert np.allclose(r, r.T, atol=1e-12)

    @EMBEDDINGS
    def test_schur_matrix_is_positive_definite(self, emb, shape):
        # for positive definite X and W
        rng = np.random.default_rng(55)
        g = _complex_normal(rng, (2,) + shape)
        x, w = g @ g.conj().swapaxes(-1, -2) + 0.1 * np.eye(shape[-1])
        r = _schur(*emb.pairs(x, w))
        assert np.allclose(r, r.T, atol=1e-12)
        assert np.linalg.eigvalsh(r).min() > 0.0


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
            res = cond_min_entropy_value(block_diagonal(cq.ops), 3, 2)
            val, gap = res.value, res.gap
            assert abs(val - pg) < 3e-6
            assert gap < 1e-7

    def test_rejects_dims_that_do_not_match_rho(self):
        rho = np.kron(np.eye(2) / 2.0, np.diag([0.6, 0.4]))
        with pytest.raises(ValueError, match="dims do not match rho"):
            cond_min_entropy_value(rho, 3, 2)


def _spy_ipm(monkeypatch):
    """The list of the rho of every _ipm call, copied as it arrives."""
    seen, real = [], minmax._ipm

    def spy(rho, emb, tol):
        seen.append(rho.copy())
        return real(rho, emb, tol)
    monkeypatch.setattr(minmax, "_ipm", spy)
    return seen


def _exactly_hermitian(rho):
    return np.array_equal(rho, rho.conj().swapaxes(-1, -2))


def _rounded_density(seed, n):
    """A density matrix U diag(p) U^H that is Hermitian only to rounding."""
    rng = _trial_rng(seed, 0)
    u = np.linalg.qr(_complex_normal(rng, (n, n)))[0]
    p = rng.random(n)
    return (u * (p / p.sum())) @ u.conj().T


class TestInteriorPointInput:
    """_ipm takes Z = embed(Y) - rho without symmetrizing it, which is exact
    only for an exactly Hermitian rho: every route hands it one."""

    @pytest.mark.parametrize("route", ["measure_to_cq", "ladder-min-rung",
                                       "cond_min_entropy_value", "fdec_block_sdp"])
    def test_rho_arrives_exactly_hermitian(self, monkeypatch, route):
        rounded = _rounded_density(82, 6)
        assert not _exactly_hermitian(rounded)
        _, f = mub_pair(3)
        psi = haar_state(27, _trial_rng(81, 0))
        cq = measure_to_cq(np.outer(psi, psi.conj()), [3, 3, 3], f, keep=2)
        seen = _spy_ipm(monkeypatch)
        res = {
            "measure_to_cq": lambda: guessing_probability(cq),
            "ladder-min-rung": lambda: discretize.convergence_ladder(
                gaussian.epr_grid_wavefunction(1.5, n_points=2048), kind="min", n_max=0,
                alpha0=2.0),
            "cond_min_entropy_value": lambda: cond_min_entropy_value(rounded, 2, 3),
            "fdec_block_sdp": lambda: fdec_block_sdp(cq, 1e-7),
        }[route]()
        assert res.converged
        assert seen and all(_exactly_hermitian(rho) for rho in seen)

    def test_pguess_does_not_depend_on_the_stack_layout(self):
        # measure_to_cq adopts a stack that is not C-ordered; the kept cells
        # are copied before the solve, so its layout changes no bit
        _, f = mub_pair(3)
        for trial in range(10):
            psi = haar_state(27, _trial_rng(83, trial))
            cq = measure_to_cq(np.outer(psi, psi.conj()), [3, 3, 3], f, keep=2)
            assert not cq.ops.flags.c_contiguous
            ordered = guessing_probability(CQState.from_stack(cq.labels,
                                                              np.ascontiguousarray(cq.ops)))
            res = guessing_probability(cq)
            assert res.iterations > 0
            assert (res.value, res.gap, res.iterations) == (ordered.value, ordered.gap,
                                                            ordered.iterations)
            assert np.array_equal(res.dual_certificate, ordered.dual_certificate)


class TestNonFiniteInput:
    """A NaN or infinite operator entry fails when the input is made, with
    one ValueError, not inside a solver."""

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("functional", [guessing_probability, decoupling_fidelity, cond_vn_cq],
                             ids=["guessing_probability", "decoupling_fidelity", "cond_vn_cq"])
    def test_cq_functional(self, functional, value):
        ops = random_cq(_trial_rng(84, 0), 3, 2).ops.copy()
        ops[1, 0, 1] = value
        with pytest.raises(ValueError, match="conditional operators must have finite entries"):
            functional(CQState.from_stack(range(3), ops))

    @pytest.mark.parametrize("value", [np.nan, np.inf, 1j * np.inf])
    def test_cond_min_entropy_value(self, value):
        rho = np.kron(np.eye(2) / 2.0, np.diag([0.6, 0.4])).astype(complex)
        rho[0, 3] = value
        with pytest.raises(ValueError, match="rho must have finite entries"):
            cond_min_entropy_value(rho, 2, 2)


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

    def test_one_outcome_is_exactly_zero(self):
        # F_dec = tr omega = 1: the classical ceiling (sum_x sqrt(t_x))^2 clamps
        # the ascent's 1 + 2.2e-16 in both bounds
        res = decoupling_fidelity(CQState((("0", np.eye(2) / 2.0),)))
        assert (res.value, res.gap) == (1.0, 0.0)
        assert h_max_cq(CQState((("0", np.eye(2) / 2.0),))).value == 0.0

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


def _assert_same_fdec(cq, tol=1e-9):
    # both values are certified upper bounds within their gaps of F_dec
    ascent = decoupling_fidelity(cq, tol)
    pure = fdec_by_purification(cq, tol)
    assert ascent.gap <= tol and pure.gap <= tol
    assert abs(ascent.value - pure.value) < 1e-8


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
        res = cond_min_entropy_value(block_diagonal(cq.ops), 3, 2)
        _assert_result(res, 1e-7, certificates=False)
        assert res.converged and res.iterations > 0

    @pytest.mark.parametrize("trimmed", [False, True])
    def test_capped_solves_are_not_converged(self, monkeypatch, trimmed):
        cq = _trimmed_cq(75, 3, 3) if trimmed else random_cq(_trial_rng(75, 0), 3, 3)
        # uncapped, the ascent certifies these at its fourth sweep
        monkeypatch.setattr(minmax, "ASCENT_MAX_SWEEPS", 2)
        monkeypatch.setattr(minmax, "IPM_MAX_ITER", 2)
        for res in (decoupling_fidelity(cq), guessing_probability(cq),
                    cond_min_entropy_value(block_diagonal(cq.ops), len(cq.labels), 3)):
            assert isinstance(res, SDPResult)
            assert not res.converged
            assert res.iterations == 2
            assert res.gap > 1e-7

    def test_capped_helstrom_is_exact(self, monkeypatch):
        monkeypatch.setattr(minmax, "IPM_MAX_ITER", 2)
        res = guessing_probability(BB84)
        assert res.converged and res.iterations == 0


class TestAscentAgainstBlockSDP:
    """decoupling_fidelity's bracket against the md block SDP on the
    interior-point core (oracles.fdec_block_sdp)."""

    def test_random_cq_brackets(self):
        for trial in range(100):
            rng = _trial_rng(64, trial)
            m, d = int(rng.integers(2, 9)), int(rng.integers(2, 7))
            cq = random_cq(rng, m, d, rank=int(rng.integers(1, d + 1)))
            res = decoupling_fidelity(cq)
            oracle = fdec_block_sdp(cq, 1e-9)
            assert res.converged and oracle.converged
            # both [value - gap, value] contain F_dec
            assert res.value - res.gap <= oracle.value + 1e-12
            assert oracle.value - oracle.gap <= res.value + 1e-12

    def test_left_out_directions_are_charged(self):
        # per cell, the smallest eigenvalues go while their sum stays within
        # the budget, zeros always; the charge is the sum of the square roots
        # of the per-cell sums
        vals = np.array([[0.0, 4e-26, 0.3, 5e-27], [2e-25, 0.0, 9e-25, 0.7]])
        keep, charge = minmax._kept_directions(vals, 1e-24)
        assert keep.tolist() == [[False, False, True, False], [False, False, True, True]]
        assert math.isclose(charge, math.sqrt(4.5e-26) + math.sqrt(2e-25), rel_tol=1e-12)

    @pytest.mark.parametrize("cap", [1, 2, 3])
    def test_capped_bracket_contains_the_oracle(self, monkeypatch, cap):
        cq = random_cq(_trial_rng(75, 0), 3, 3)
        oracle = fdec_block_sdp(cq, 1e-10)
        monkeypatch.setattr(minmax, "ASCENT_MAX_SWEEPS", cap)
        res = decoupling_fidelity(cq)
        assert not res.converged and res.iterations == cap
        assert res.value - res.gap <= oracle.value <= res.value
