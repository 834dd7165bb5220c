import math

import numpy as np
import pytest

from quncert.verify import (
    check_operator_lemmas,
    check_bipartite,
    check_minmax_tripartite,
    check_vn_tripartite,
    gedankenexperiment,
    haar_state,
    measure_to_cq,
    mub_pair,
    random_density,
    random_povm,
    _trial_rng,
)
from quncert import overlap, verify
from quncert.qstate import partial_trace, validate

from oracles import dilated_cond_entropy_bits


class TestRandomEnsembles:
    def test_haar_state_normalized(self):
        rng = np.random.default_rng(0)
        v = haar_state(5, rng)
        assert math.isclose(np.vdot(v, v).real, 1.0, abs_tol=1e-12)

    def test_random_density_valid(self):
        rng = np.random.default_rng(1)
        from quncert.qstate import DensityMatrix

        for d in (2, 3, 5):
            assert validate(DensityMatrix(random_density(d, rng)))["pass"]

    def test_random_povm_complete(self):
        rng = np.random.default_rng(2)
        povm = random_povm(3, 4, rng)
        assert validate(povm)["pass"]

    def test_mub_pair_unbiased(self):
        e, f = mub_pair(5)
        for ex in e.elements:
            for fy in f.elements:
                assert math.isclose(np.trace(ex @ fy).real, 0.2, abs_tol=1e-12)

    def test_seeded_trials_reproducible(self):
        a = random_density(3, _trial_rng(9, 4))
        b = random_density(3, _trial_rng(9, 4))
        c = random_density(3, _trial_rng(9, 5))
        assert np.allclose(a, b)
        assert not np.allclose(a, c)


class TestMeasureToCQ:
    def test_probabilities_born_rule(self):
        rng = np.random.default_rng(3)
        rho = random_density(4, rng)
        e, _ = mub_pair(2)
        cq = measure_to_cq(rho, (2, 2), e, keep=1)
        for (lab, _), el in zip(cq.outcomes, e.elements):
            p = np.trace(np.kron(el, np.eye(2)) @ rho).real
            assert math.isclose(cq.probs[int(lab)], p, abs_tol=1e-12)

    def test_product_state_memory_unchanged(self):
        rng = np.random.default_rng(4)
        rho_a, rho_b = random_density(2, rng), random_density(2, rng)
        e, _ = mub_pair(2)
        cq = measure_to_cq(np.kron(rho_a, rho_b), (2, 2), e, keep=1)
        for (_, om), p in zip(cq.outcomes, cq.probs):
            assert np.allclose(om / p, rho_b, atol=1e-10)

    @pytest.mark.parametrize("keep", [1, 2])
    def test_matches_per_outcome_kron(self, keep):
        # Tr_A[(E_x (x) 1) rho] with the other memory factor traced out,
        # formed outcome by outcome from the dense operator
        rng = np.random.default_rng(5)
        rho = random_density(12, rng)
        povm = random_povm(3, 4, rng)
        cq = measure_to_cq(rho, (3, 2, 2), povm, keep=keep)
        assert cq.labels == ["0", "1", "2", "3"]
        for op, e in zip(cq.ops, povm.elements):
            want = partial_trace(np.kron(e, np.eye(4)) @ rho, (3, 2, 2), [keep])
            assert np.allclose(op, want, rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("dims, keep", [((2, 2, 2), 0), ((2, 2, 2), 3),
                                            ((2, 2), 2), ((2, 2), -1)])
    def test_rejects_keep_outside_memory(self, dims, keep):
        e, _ = mub_pair(2)
        rho = np.eye(int(np.prod(dims))) / np.prod(dims)
        with pytest.raises(ValueError, match=f"keep must name a memory factor in 1..{len(dims) - 1}"):
            measure_to_cq(rho, dims, e, keep=keep)


class TestInputValidation:
    @pytest.mark.parametrize("check, dims", [
        (check_minmax_tripartite, (0, 2, 2)),
        (check_vn_tripartite, (2, -1, 2)),
        (check_bipartite, (2, 0)),
    ])
    def test_rejects_dims_below_one(self, check, dims):
        with pytest.raises(ValueError, match="dims must each be at least 1"):
            check(dims=dims, trials=1)

    @pytest.mark.parametrize("check, dims", [
        (check_minmax_tripartite, (5, 5, 5)),
        (check_vn_tripartite, (100, 100, 100)),
        (check_bipartite, (5, 5)),
    ])
    def test_oversize_dims_rejected_before_any_trial(self, monkeypatch, check, dims):
        def no_trial(seed, t):
            raise AssertionError("a trial was drawn")

        monkeypatch.setattr(verify, "_trial_rng", no_trial)
        with pytest.raises(ValueError, match="desk scale"):
            check(dims=dims, trials=1)

    @pytest.mark.parametrize("dims", [(2, 2, 2), (3, 3, 3), (8, 8, 8)])
    def test_vn_tripartite_runs_up_to_its_cap(self, dims):
        assert check_vn_tripartite(dims=dims, trials=1).passed

    def test_arity_checked_before_desk_scale(self):
        with pytest.raises(ValueError, match="dims must give 3 dimensions"):
            check_minmax_tripartite(dims=(9, 9, 9, 9), trials=1)
        with pytest.raises(ValueError, match="desk scale"):
            check_minmax_tripartite(dims=(9, 9, 9), trials=1)

    @pytest.mark.parametrize("check", [check_minmax_tripartite, check_vn_tripartite,
                                       check_bipartite, check_operator_lemmas])
    def test_rejects_negative_seed(self, check):
        with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
            check(trials=1, seed=-1)

    def test_unknown_variant_rejected_before_any_trial(self, monkeypatch):
        def no_trial(seed, t):
            raise AssertionError("a trial was drawn")

        monkeypatch.setattr(verify, "_trial_rng", no_trial)
        with pytest.raises(ValueError, match="unknown variant 'nope'"):
            check_bipartite(trials=1, variant="nope")


def _replay(monkeypatch, check, rep, **kwargs):
    """check run for one trial that draws from _trial_rng(seed, worst_trial)."""
    trial_rng = verify._trial_rng
    monkeypatch.setattr(verify, "_trial_rng", lambda seed, t: trial_rng(seed, rep.worst_trial))
    return check(trials=1, seed=rep.seed, **kwargs)


class TestWorstTrial:
    @pytest.mark.parametrize("check, kwargs", [
        (check_minmax_tripartite, {"dims": (3, 2, 2), "use_mub": False}),
        (check_vn_tripartite, {"use_mub": False}),
        (check_bipartite, {"variant": "dilation"}),
    ], ids=["minmax-tripartite", "vn-tripartite", "dilation"])
    def test_replays_min_slack(self, monkeypatch, check, kwargs):
        rep = check(trials=8, seed=3, **kwargs)
        assert rep.slacks[rep.worst_trial] == rep.min_slack == min(rep.slacks)
        assert rep.to_json()["worst_trial"] == rep.worst_trial
        assert _replay(monkeypatch, check, rep, **kwargs).min_slack == rep.min_slack

    def test_operator_lemmas_replay_all_eleven(self, monkeypatch):
        rep = check_operator_lemmas(trials=6, seed=2)
        w = rep.worst_trial
        assert rep.min_slack == min(rep.slacks[11 * w:11 * w + 11])
        again = _replay(monkeypatch, check_operator_lemmas, rep)
        assert again.slacks == rep.slacks[11 * w:11 * w + 11]
        assert again.min_slack == rep.min_slack

    def test_first_minimum_wins(self):
        # trials 1 and 2 tie at the minimum; the report names trial 1
        slacks = iter([[0.5], [0.25], [0.25], [1.0]])
        rep = verify._run("tie", 4, 0, lambda rng: next(slacks))
        assert (rep.min_slack, rep.worst_trial) == (0.25, 1)


class TestInequalitySuites:
    def test_minmax_tripartite_no_violations(self):
        rep = check_minmax_tripartite(trials=15, seed=5)
        assert rep.passed
        assert rep.violations == 0
        assert rep.min_slack >= -1e-7

    def test_vn_tripartite_no_violations(self):
        rep = check_vn_tripartite(trials=15, seed=6)
        assert rep.passed
        assert rep.min_slack >= -1e-7

    def test_bipartite_variants(self):
        for variant in ("frank_lieb", "dilation"):
            rep = check_bipartite(trials=15, seed=7, variant=variant)
            assert rep.passed, variant

    @pytest.mark.parametrize("dims", [(2, 2), (4, 4)])
    def test_frank_lieb_computes_only_its_own_bound(self, monkeypatch, dims):
        want = check_bipartite(dims=dims, trials=5, seed=11, variant="frank_lieb",
                               use_mub=False)

        def dilation_term(*args):
            raise AssertionError("frank_lieb computed a term of the dilation bound")
        monkeypatch.setattr(verify, "_dilated_cond_entropy", dilation_term)
        monkeypatch.setattr(overlap, "povm_overlap", dilation_term)
        assert check_bipartite(dims=dims, trials=5, seed=11, variant="frank_lieb",
                               use_mub=False) == want

    def test_dilation_tightens_frank_lieb_on_record(self):
        # both reports carry per-instance slacks for the same seeded states
        fl = check_bipartite(trials=10, seed=8, variant="frank_lieb")
        di = check_bipartite(trials=10, seed=8, variant="dilation")
        assert len(fl.slacks) == len(di.slacks) == 10

    def test_operator_lemmas(self):
        rep = check_operator_lemmas(trials=15, seed=9)
        assert rep.passed
        assert rep.min_slack >= -1e-7

    def test_report_serializes(self):
        rep = check_vn_tripartite(trials=3, seed=10)
        j = rep.to_json()
        assert j["passed"] is True
        assert j["seed"] == 10
        assert j["instances"] == 3

    def test_random_povm_pair_draw_order(self):
        # each trial draws the state, then E, then F from its own generator
        from quncert.entropy import cond_vn_cq
        from quncert.overlap import povm_overlap

        rep = check_vn_tripartite(dims=(2, 2, 2), trials=3, seed=5, use_mub=False)
        for t, slack in enumerate(rep.slacks):
            rng = _trial_rng(5, t)
            psi = haar_state(8, rng)
            rho = np.outer(psi, psi.conj())
            e = random_povm(2, 2, rng)
            f = random_povm(2, 2, rng)
            lhs = (cond_vn_cq(measure_to_cq(rho, [2, 2, 2], e, keep=1)).value
                   + cond_vn_cq(measure_to_cq(rho, [2, 2, 2], f, keep=2)).value)
            assert slack == lhs + math.log2(povm_overlap(e, f))

    @pytest.mark.parametrize("check", [check_minmax_tripartite, check_vn_tripartite,
                                       check_bipartite, check_operator_lemmas])
    @pytest.mark.parametrize("trials", [0, -1])
    def test_rejects_trials_below_one(self, check, trials):
        with pytest.raises(ValueError, match="trials"):
            check(trials=trials)

    def test_higher_dims(self):
        rep = check_minmax_tripartite(dims=(3, 2, 2), trials=5, seed=11)
        assert rep.passed


class TestUnconvergedSolves:
    """A capped H_min or H_max solve is counted, adds no slack, and fails
    the report."""

    @pytest.mark.parametrize("cap", [1, 2, 3])
    def test_minmax_tripartite(self, monkeypatch, cap):
        from quncert import minmax

        monkeypatch.setattr(minmax, "IPM_MAX_ITER", cap)
        rep = check_minmax_tripartite(dims=(3, 3, 3), trials=20, seed=1)
        assert rep.unconverged > 0
        assert rep.instances == len(rep.slacks) == 20 - rep.unconverged
        assert not rep.passed
        assert rep.to_json()["unconverged"] == rep.unconverged
        assert rep.to_json()["passed"] is False

    def test_operator_lemmas(self, monkeypatch):
        from quncert import minmax

        monkeypatch.setattr(minmax, "IPM_MAX_ITER", 3)
        rep = check_operator_lemmas(trials=5, seed=1)
        assert rep.unconverged > 0
        # eleven slacks per trial that converged
        assert rep.instances == 11 * (5 - rep.unconverged)
        assert not rep.passed

    def test_all_trials_capped_leave_no_slack(self, monkeypatch):
        from quncert import minmax

        monkeypatch.setattr(minmax, "IPM_MAX_ITER", 1)
        rep = check_minmax_tripartite(dims=(3, 3, 3), trials=3, seed=1)
        assert (rep.unconverged, rep.instances, rep.min_slack) == (3, 0, None)
        assert rep.worst_trial is None and rep.to_json()["worst_trial"] is None
        assert not rep.passed

    def test_worst_trial_counts_capped_trials(self, monkeypatch):
        # capped trials add no slack but keep their index, so the worst
        # trial still replays under the same cap
        from quncert import minmax

        monkeypatch.setattr(minmax, "IPM_MAX_ITER", 6)
        rep = check_minmax_tripartite(dims=(3, 3, 3), trials=20, seed=1)
        assert 0 < rep.unconverged and rep.worst_trial >= rep.instances > 0
        assert _replay(monkeypatch, check_minmax_tripartite, rep,
                       dims=(3, 3, 3)).min_slack == rep.min_slack

    def test_uncapped_reports_zero(self):
        for rep in (check_minmax_tripartite(dims=(3, 3, 3), trials=5, seed=1),
                    check_operator_lemmas(trials=5, seed=1)):
            assert rep.unconverged == 0
            assert rep.to_json()["unconverged"] == 0
            assert rep.passed


class TestDilation:
    @pytest.mark.parametrize("d_a, d_b, n_outcomes", [(2, 2, 2), (3, 2, 4), (2, 3, 3)])
    def test_dilated_entropy_matches_dense_isometry(self, d_a, d_b, n_outcomes):
        rng = np.random.default_rng(d_a * 10 + n_outcomes)
        rho = random_density(d_a * d_b, rng)
        for povm in (random_povm(d_a, n_outcomes, rng), mub_pair(d_a)[1]):
            got = verify._dilated_cond_entropy(rho, d_a, d_b, povm)
            want = dilated_cond_entropy_bits(rho, d_a, d_b, povm.elements)
            assert math.isclose(got, want, rel_tol=0.0, abs_tol=1e-12)


class TestGedankenexperiment:
    def test_measure_entangled_qubit(self):
        # measuring the Bell-paired qubit: both entropies vanish, and the
        # dilated bound collapses to zero as well
        out = gedankenexperiment(measured=1)
        assert abs(out["lhs"]) < 1e-9
        assert abs(out["dilation_rhs"]) < 1e-9
        assert math.isclose(out["c"], 0.5, abs_tol=1e-9)
        assert math.isclose(out["c1"], 1.0, abs_tol=1e-9)

    def test_measure_mixed_qubit(self):
        # measuring the maximally mixed qubit: 1 bit per basis, lhs = 2,
        # while the simple product bound still reports 0
        out = gedankenexperiment(measured=2)
        assert math.isclose(out["lhs"], 2.0, abs_tol=1e-9)
        assert math.isclose(out["dilation_rhs"], 2.0, abs_tol=1e-9)
        assert abs(out["frank_lieb_rhs"]) < 1e-9

    def test_rejects_bad_selector(self):
        with pytest.raises(ValueError):
            gedankenexperiment(measured=3)
