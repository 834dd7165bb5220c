"""Tests of the benchmark itself: each correctness check accepts a valid
value and rejects a perturbed one, the reference computations agree with
the package on small inputs, the tracer restores what it patches, and
BENCHMARK.json names what the code reports.

    python3 -m pytest -q perfbench
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import reference  # noqa: E402
from quncert import discretize, gaussian, minmax, overlap, qstate, verify  # noqa: E402


def failed(results) -> set:
    return {c.name.rsplit(".", 1)[-1] for c in results if not c.ok}


def test_ladder_limit():
    exact = reference.epr_h_q_given_b_bits(1.5)
    values = [exact + 0.3, exact + 0.02, exact + 2e-4]
    assert failed(checks.ladder_limit(values, exact + 3e-5, exact)) == set()
    assert failed(checks.ladder_limit(values[:-1] + [exact + 2e-3], exact + 3e-5, exact)) == {
        "finest_rung"}
    assert failed(checks.ladder_limit(values, exact + 2e-4, exact)) == {"aitken_limit"}


def test_monotone():
    assert failed(checks.monotone("x", [3.0, 2.0, 1.0])) == set()
    assert failed(checks.monotone("x", [3.0, 2.0, 2.0 + 1e-9])) == {"monotone"}


def test_memory_sandwich():
    assert failed(checks.memory_sandwich("x", 1.5, 2.0, 0.9)) == set()
    assert failed(checks.memory_sandwich("x", 2.0 + 1e-6, 2.0, 0.9)) == {"memory_sandwich"}
    assert failed(checks.memory_sandwich("x", 1.1 - 1e-6, 2.0, 0.9)) == {"memory_sandwich"}


def test_relation_and_overlap():
    lam0 = reference.prolate_lambda0(0.25)
    c = overlap.prolate_overlap(1.0, 1.0).c
    assert failed(checks.overlap_value("x", c, lam0)) == set()
    assert failed(checks.overlap_value("x", c + 2e-9, lam0)) == {"prolate"}
    bound = -math.log2(c)
    assert failed(checks.vn_relation("x", 1.2, bound - 1.2, c)) == set()
    assert failed(checks.vn_relation("x", 1.2, bound - 1.2 - 1e-6, c)) == {"relation"}


def test_epr_references_match_package():
    # closed form against the package's Gaussian formula, and the FFT-binned
    # momentum entropy against the package's own ladder on trivial memory
    h_qb, _, _ = gaussian.epr_conditional_entropies(1.5)
    assert abs(reference.epr_h_q_given_b_bits(1.5) - h_qb) < 1e-9
    psi = discretize.gaussian_wavefunction(1.0, n_points=1024)
    table = discretize.convergence_ladder(psi, "momentum", "vn", n_max=0)
    h_p = reference.momentum_cell_entropy_bits(psi.q0, psi.dq, psi.samples, 1.0)
    assert abs(table.values[0] - h_p) < 1e-9


def test_same_operators():
    psi = gaussian.epr_grid_wavefunction(1.5, n_points=1024, memory_dim=4)
    part = discretize.Partition.centered(2.0, psi.grid[0], psi.grid[-1])
    got = {int(k): op for k, op in discretize.discretize_position(psi, part).outcomes}
    want = reference.binned_position_cq(psi.q0, psi.dq, psi.samples, 2.0)
    assert failed(checks.same_operators("x", got, want)) == set()
    k = next(iter(got))
    assert failed(checks.same_operators("x", {**got, k: got[k] + 1e-10}, want)) == {
        "cq_operators"}
    assert failed(checks.same_operators("x", {j: got[j] for j in list(got)[1:]}, want)) == {
        "cq_operators"}


@pytest.fixture(scope="module")
def solved():
    rng = np.random.default_rng(5)
    p = rng.dirichlet(np.ones(3))
    ops = [p[i] * verify.random_density(2, rng) for i in range(3)]
    res = minmax.guessing_probability(qstate.CQState(tuple((str(i), op) for i, op in enumerate(ops))))
    return ops, res


def _certificate(ops, res, **change):
    args = dict(value=res.value, sigma=res.dual_certificate,
                povm=list(res.primal_povm.elements), converged=res.converged)
    args.update(change)
    return failed(checks.guessing_certificate("x", ops, **args))


def test_certificate_accepts_solver_output(solved):
    ops, res = solved
    assert _certificate(ops, res) == set()
    assert failed(checks.hmin_below_vn("x", -math.log2(res.value),
                                       reference.cond_vn_bits(ops))) == set()


def test_certificate_rejects_perturbations(solved):
    ops, res = solved
    eye = np.eye(2)
    sigma = res.dual_certificate
    assert "dual_feasible" in _certificate(ops, res, sigma=sigma - 1e-6 * eye)
    assert _certificate(ops, res, sigma=sigma + 1e-6 * eye) == {"gap"}
    assert _certificate(ops, res, converged=False) == {"gap"}
    assert "primal_value" in _certificate(ops, res, value=res.value + 1e-9)
    els = list(res.primal_povm.elements)
    assert "povm_complete" in _certificate(ops, res, povm=[1.01 * els[0]] + els[1:])
    # move weight between two elements: still complete, no longer PSD
    vals, vecs = np.linalg.eigh(els[0])
    shift = (vals[0] + 1e-6) * np.outer(vecs[:, 0], vecs[:, 0].conj())
    assert "povm_psd" in _certificate(ops, res, povm=[els[0] - shift, els[1] + shift] + els[2:])
    assert failed(checks.hmin_below_vn("x", reference.cond_vn_bits(ops) + 1e-6,
                                       reference.cond_vn_bits(ops))) == {"hmin_le_h"}


def test_tripartite_checks():
    rng = np.random.default_rng(np.random.SeedSequence([3, 0]))
    psi = verify.haar_state(8, rng)
    comp, fourier = reference.mub_vectors(2)
    xb = reference.measured_cq(psi, (2, 2, 2), comp, keep=1)
    yc = reference.measured_cq(psi, (2, 2, 2), fourier, keep=2)
    rho = np.outer(psi, psi.conj())
    e, f = verify.mub_pair(2)
    cq_xb = verify.measure_to_cq(rho, [2, 2, 2], e, keep=1)
    cq_yc = verify.measure_to_cq(rho, [2, 2, 2], f, keep=2)
    assert failed(checks.same_operators("x", dict(enumerate(cq_xb.ops)), dict(enumerate(xb)))) == set()
    assert failed(checks.same_operators("x", dict(enumerate(cq_yc.ops)), dict(enumerate(yc)))) == set()
    h_max = minmax.h_max_cq(cq_xb).value
    h_min = minmax.h_min_cq(cq_yc).value
    args = (reference.cond_vn_bits(xb), reference.cond_vn_bits(yc),
            np.array([np.real(np.trace(op)) for op in xb]), 0.5)

    def run(hmax, hmin):
        return failed(checks.tripartite("x", hmax, hmin, *args))

    assert run(h_max, h_min) == set()
    slack = h_max + h_min - 1.0
    assert "relation" in run(h_max - slack - 1e-6, h_min)
    assert run(h_max, args[1] + 1e-6) == {"hmin_le_h"}
    assert "h_le_hmax" in run(args[0] - 1e-6, h_min)
    classical = 2.0 * math.log2(np.sum(np.sqrt(args[2])))
    assert run(classical + 1e-6, h_min) == {"hmax_le_classical"}


def test_tracer_restores_bindings_and_counts():
    import spans

    tracer = spans.Tracer()
    before = {(id(obj), attr): getattr(obj, attr) for obj, attr, _, _ in spans.TARGETS}
    mark = tracer.mark()
    cq = qstate.CQState((("0", np.diag([0.3, 0.1])), ("1", np.diag([0.1, 0.2])),
                         ("2", np.diag([0.2, 0.1]))))
    with tracer.patched():
        res = minmax.guessing_probability(cq)
    layer = tracer.metrics(mark)
    assert {(id(obj), attr): getattr(obj, attr) for obj, attr, _, _ in spans.TARGETS} == before
    assert layer["minmax.pguess_iters"] == res.iterations
    assert layer["linalg.eigh_calls"] > 0
    assert 0.0 < layer["minmax.pguess_s"] < layer["minmax.pguess_s_per_iter"] * res.iterations


def test_benchmark_json_names_what_the_code_reports():
    import spans
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.UNITS
    assert [m["name"] for m in spec["end_to_end"]] == ["pass_s", "setup_s", "peak_rss_mb"]
