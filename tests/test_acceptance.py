"""End-to-end acceptance checks, one per headline capability.

Each test prints a single PASS/FAIL line (run with -s to see them). The
tolerances and runtime budgets are part of the contract; brute-force
reference values come from tests/oracles.py, never from the package itself.
"""

import math
import time

import numpy as np

from quncert.discretize import (
    Partition,
    convergence_ladder,
    discretize_position,
    gaussian_wavefunction,
    momentum_transform,
)
from quncert.entropy import classical_hmin_hmax, differential_entropy
from quncert.gaussian import epr_conditional_entropies, epr_gap, epr_grid_wavefunction
from quncert.minmax import cond_min_entropy_value, decoupling_fidelity
from quncert.overlap import prolate_overlap, prolate_top_eigenfunction
from quncert.verify import (
    check_operator_lemmas,
    check_bipartite,
    check_minmax_tripartite,
    check_vn_tripartite,
    gedankenexperiment,
    _trial_rng,
)

from oracles import (
    block_diagonal,
    epr_gap_nats,
    fdec_bloch_grid,
    gaussian_h_bits,
    gaussian_hmax_bits,
    gaussian_hmin_bits,
    helstrom_textbook,
    prolate_lambda0,
    random_cq,
)

LOG2 = math.log(2.0)


def _report(name, ok, detail, t0, budget):
    dt = time.time() - t0
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail} ({dt:.1f}s)")
    assert dt < budget, f"{name} exceeded {budget}s runtime budget ({dt:.1f}s)"
    return ok


def test_01_overlap_sweep():
    """Overlap curve: monotone sweep, near-one saturation, small-spacing law."""
    t0 = time.time()
    deltas = np.geomspace(0.1, 5.0, 40)
    cs = np.array([prolate_overlap(d, d).c for d in deltas])
    increasing = bool(np.all(np.diff(cs) > 0.0))
    # c(d, d) = lambda_0(d^2 / 4): the bandwidth that the small-spacing law fixes
    c3 = prolate_overlap(3.0, 3.0).c
    c3_err = abs(c3 - prolate_lambda0(9.0 / 4.0))
    c3_ok = c3_err < 1e-9
    tail = 1.0 - cs[-1]
    tail_ref = 1.0 - prolate_lambda0(deltas[-1] ** 2 / 4.0)
    tail_ok = math.isclose(tail, tail_ref, rel_tol=1e-5)
    ratio = prolate_overlap(0.1, 0.1).c / (0.01 / (2.0 * math.pi))
    ratio_ok = 0.99 <= ratio <= 1.0
    ok = increasing and c3_ok and tail_ok and ratio_ok
    _report("overlap sweep", ok,
            f"increasing={increasing}, c(3)={c3:.6f} (oracle err {c3_err:.1e}), "
            f"1-c(5)={tail:.4e} (oracle {tail_ref:.4e}), "
            f"small-spacing ratio={ratio:.6f}", t0, 10.0)
    assert increasing
    assert ratio_ok
    assert c3_ok, f"c(3) = {c3:.12f}, oracle lambda_0(9/4) off by {c3_err:.1e}"
    assert tail_ok, f"1 - c(5) = {tail:.6e}, oracle 1 - lambda_0(25/4) = {tail_ref:.6e}"


def test_02_overlap_product_invariance():
    """c depends on the spacings only through their product."""
    t0 = time.time()
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(10):
        a, b = rng.uniform(0.1, 4.0, 2)
        g = math.sqrt(a * b)
        worst = max(worst, abs(prolate_overlap(a, b).c - prolate_overlap(g, g).c))
    ok = worst < 1e-9
    _report("product invariance", ok, f"max |c(a,b) - c(g,g)| = {worst:.2e}",
            t0, 10.0)
    assert ok


def test_03_sharpness():
    """The top eigenfunction saturates the min/max-entropy bound."""
    t0 = time.time()
    c = prolate_overlap(1.0, 1.0).c
    fn = prolate_top_eigenfunction(1.0, 1.0)
    # position side: support inside one width-1 cell, so H_max vanishes
    n = 4096
    dq = 1.0 / 512.0
    grid = dq * (np.arange(n) + 0.5 - n / 2)
    vals = fn(grid).astype(complex)
    from quncert.qstate import GridWaveFunction

    psi = GridWaveFunction(grid[0], dq, vals / math.sqrt(np.sum(np.abs(vals) ** 2) * dq))
    part = Partition.centered(1.0, grid[0], grid[-1])
    cq = discretize_position(psi, part)
    hmax_q = 2.0 * math.log2(np.sqrt(cq.probs).sum())
    # momentum side: per-cell quadrature on a 63 x 65 = 4095-point grid
    probs = fn.momentum_cell_probabilities(n_cells=63, nodes_per_cell=65)
    hmin_p = -math.log2(probs.max())
    defect = hmin_p + math.log2(c)
    ok = abs(hmax_q) < 1e-12 and abs(defect) < 1e-3
    _report("saturation at unit spacings", ok,
            f"H_max(Q)={hmax_q:.1e} (want 0), H_min(P)+log2 c={defect:.2e}",
            t0, 30.0)
    assert abs(hmax_q) < 1e-12
    assert abs(defect) < 1e-3


def test_04_gap_curve():
    """Uncertainty gap versus squeezing: value, decay, exponential form."""
    t0 = time.time()
    g0 = epr_gap(1.0, base="bits")
    g0_ok = abs(g0 - math.log2(math.e / 2.0)) < 1e-9
    nu = math.cosh(3.0)  # r = 1.5
    g15 = epr_gap(nu, base="nats")
    g15_bits = epr_gap(nu, base="bits")
    g15_ref = epr_gap_nats(nu)
    g15_err = max(abs(g15 - g15_ref), abs(g15_bits * LOG2 - g15_ref))
    g15_ok = g15_err < 1e-12
    # large-nu law: gap ~ 1 / (6 nu^2) nats
    decay = 6.0 * nu * nu * g15
    decay_ok = abs(decay - 1.0) < 0.01
    rs = np.linspace(1.0, 3.0, 21)
    lg = np.log([epr_gap(math.cosh(2.0 * r), base="nats") for r in rs])
    resid = lg - np.polyval(np.polyfit(rs, lg, 1), rs)
    fit_ok = bool(np.max(np.abs(resid / lg)) < 0.01)
    ok = g0_ok and g15_ok and decay_ok and fit_ok
    _report("gap vs squeezing", ok,
            f"gap(0) err={g0 - math.log2(math.e / 2.0):.1e}, "
            f"gap(1.5)={g15_bits:.4e} bits (oracle err {g15_err:.1e} nats), "
            f"6 nu^2 gap={decay:.5f}, affine fit ok={fit_ok}",
            t0, 5.0)
    assert g0_ok
    assert fit_ok
    assert g15_ok, (f"gap(r=1.5) = {g15:.6e} nats / {g15_bits:.6e} bits, "
                    f"Fock-basis oracle {g15_ref:.6e} nats")
    assert decay_ok, f"6 nu^2 gap(r=1.5) = {decay:.5f}, want 1 within 0.01"


def test_05_gaussian_saturation():
    """Pure Gaussian states saturate both continuous relations."""
    t0 = time.time()
    psi = gaussian_wavefunction(sigma=1.0, n_points=4096)
    phi = momentum_transform(psi)
    hq = differential_entropy(psi.density(), psi.dq).value
    hp = differential_entropy(phi.density(), phi.dq).value
    d1 = abs(hq + hp - math.log2(math.e * math.pi))
    hmin_q = classical_hmin_hmax(psi.density(), psi.dq)[0].value
    hmax_p = classical_hmin_hmax(phi.density(), phi.dq)[1].value
    d2 = abs(hmin_q + hmax_p - math.log2(2.0 * math.pi))
    ok = d1 < 2e-3 and d2 < 2e-3
    _report("Gaussian saturation", ok,
            f"|h(Q)+h(P)-log2(e pi)|={d1:.1e}, "
            f"|hmin(Q)+hmax(P)-log2(2 pi)|={d2:.1e}", t0, 30.0)
    assert d1 < 2e-3
    assert d2 < 2e-3


def test_06_discretization_limits():
    """Regularized coarse-grained entropies approach the differential ones."""
    t0 = time.time()
    psi = gaussian_wavefunction(sigma=1.0, n_points=32768)
    limits = {"vn": gaussian_h_bits(1.0), "min": gaussian_hmin_bits(1.0),
              "max": gaussian_hmax_bits(1.0)}
    errs, mono = {}, {}
    for kind, lim in limits.items():
        tab = convergence_ladder(psi, which="position", kind=kind, n_max=8)
        errs[kind] = abs(tab.values[-1] - lim)
        mono[kind] = bool(np.all(np.diff(tab.values) <= 1e-9))
    ok = all(e < 2e-3 for e in errs.values()) and mono["min"] and mono["max"]
    _report("discretization limits", ok,
            "errors at alpha=2^-8: "
            + ", ".join(f"{k}={e:.1e}" for k, e in errs.items())
            + f", monotone min/max={mono['min']}/{mono['max']}", t0, 60.0)
    for kind, e in errs.items():
        assert e < 2e-3, kind
    assert mono["min"] and mono["max"]


def test_07_solver_correctness():
    """SDP solver against the Helstrom closed form and the Bloch-ball brute force."""
    t0 = time.time()
    worst_hel, worst_gap = 0.0, 0.0
    for trial in range(50):
        rng = _trial_rng(123, trial)
        d = int(rng.integers(2, 9))
        cq = random_cq(rng, 2, d)
        hel = helstrom_textbook(cq.outcomes[0][1], cq.outcomes[1][1])
        res = cond_min_entropy_value(block_diagonal(cq.ops), 2, d)
        worst_hel = max(worst_hel, abs(res.value - hel))
        worst_gap = max(worst_gap, res.gap)
    worst_dual = 0.0
    for trial in range(20):
        rng = _trial_rng(77, trial)
        cq = random_cq(rng, int(rng.integers(2, 4)), 2)
        worst_dual = max(worst_dual,
                         abs(decoupling_fidelity(cq).value - fdec_bloch_grid(cq)))
    ok = worst_hel < 1e-6 and worst_gap < 1e-7 and worst_dual < 1e-4
    _report("solver correctness", ok,
            f"SDP vs Helstrom={worst_hel:.1e}, gap cert={worst_gap:.1e}, "
            f"H_max duality vs grid={worst_dual:.1e}", t0, 120.0)
    assert worst_hel < 1e-6
    assert worst_gap < 1e-7
    assert worst_dual < 1e-4


def test_08_inequality_suites():
    """Randomized inequality checkers find no violations; exact toy model."""
    t0 = time.time()
    reports = {
        "minmax": check_minmax_tripartite(dims=(2, 2, 2), trials=50, seed=0),
        "vn": check_vn_tripartite(dims=(2, 2, 2), trials=50, seed=0),
        "simple-overlap": check_bipartite(dims=(2, 2), trials=50, seed=0,
                                          variant="frank_lieb"),
        "dilation": check_bipartite(dims=(2, 2), trials=50, seed=0,
                                    variant="dilation"),
        "lemmas": check_operator_lemmas(trials=50, seed=0),
    }
    min_slack = min(r.min_slack for r in reports.values())
    violations = sum(r.violations for r in reports.values())
    g1 = gedankenexperiment(measured=1)
    g2 = gedankenexperiment(measured=2)
    toy_ok = abs(g1["lhs"]) < 1e-12 and abs(g2["lhs"] - 2.0) < 1e-12
    ok = violations == 0 and min_slack >= -2e-7 and toy_ok
    _report("inequality suites", ok,
            f"violations={violations}, min slack={min_slack:.1e}, "
            f"toy model lhs=({g1['lhs']:.1e}, {g2['lhs']:.6f})", t0, 300.0)
    assert violations == 0
    assert min_slack >= -2e-7
    assert toy_ok


def test_09_epr_cross_check():
    """Finitely squeezed EPR wavefunction ladder against the closed form."""
    t0 = time.time()
    worst = 0.0
    for nu in (1.5, 3.0):
        psi = epr_grid_wavefunction(nu, n_points=4096)
        tab = convergence_ladder(psi, which="position", kind="vn", n_max=5)
        analytic = epr_conditional_entropies(nu)[0]  # h(Q) - H(B), bits
        worst = max(worst, abs(tab.extrapolated - analytic))
    ok = worst < 5e-3
    _report("EPR cross-check", ok, f"max |ladder - analytic| = {worst:.1e} bits",
            t0, 120.0)
    assert ok
