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
from quncert.qstate import validate


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
        # ten slacks per trial that converged
        assert rep.instances == 10 * (5 - rep.unconverged)
        assert not rep.passed

    def test_all_trials_capped_leave_no_slack(self, monkeypatch):
        from quncert import minmax

        monkeypatch.setattr(minmax, "IPM_MAX_ITER", 1)
        rep = check_minmax_tripartite(dims=(3, 3, 3), trials=3, seed=1)
        assert (rep.unconverged, rep.instances, rep.min_slack) == (3, 0, None)
        assert not rep.passed

    def test_uncapped_reports_zero(self):
        for rep in (check_minmax_tripartite(dims=(3, 3, 3), trials=5, seed=1),
                    check_operator_lemmas(trials=5, seed=1)):
            assert rep.unconverged == 0
            assert rep.to_json()["unconverged"] == 0
            assert rep.passed


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
