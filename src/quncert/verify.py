"""Randomized and constructed-instance checkers for the entropic uncertainty
relations and the supporting entropy lemmas.

Every checker draws its instances from a seeded generator (one derived seed
per trial, so reports are reproducible regardless of execution order) and
records the minimum slack LHS - RHS observed. A violation is slack below
-1e-7, matching the SDP solver tolerance. A trial whose SDP solve stops at
its iteration cap adds no slack and is counted as unconverged instead; a
report with an unconverged trial does not pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import entropy, minmax, overlap
from .qstate import CQState, POVM, herm, partial_trace, psd_sqrt, purify_cq

VIOLATION_TOL = -1e-7

__all__ = [
    "CheckReport",
    "haar_state",
    "random_density",
    "random_povm",
    "mub_pair",
    "measure_to_cq",
    "check_minmax_tripartite",
    "check_vn_tripartite",
    "check_bipartite",
    "check_operator_lemmas",
    "gedankenexperiment",
]


@dataclass(frozen=True)
class CheckReport:
    """min_slack is None when no trial gave a slack (all unconverged)."""

    relation: str
    instances: int
    min_slack: float | None
    violations: int
    seed: int
    slacks: tuple = field(default_factory=tuple)
    unconverged: int = 0

    @property
    def passed(self) -> bool:
        return self.violations == 0 and self.unconverged == 0

    def to_json(self) -> dict:
        return {
            "relation": self.relation,
            "instances": self.instances,
            "min_slack": self.min_slack,
            "violations": self.violations,
            "unconverged": self.unconverged,
            "seed": self.seed,
            "passed": self.passed,
        }


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, trial]))


def _trial_rngs(trials: int, seed: int):
    """The generators of trials 0 .. trials-1; every checker draws from these."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    return (_trial_rng(seed, t) for t in range(trials))


def _check_dims(dims, count: int):
    """dims, once checked to hold the `count` dimensions a relation needs."""
    if len(dims) != count:
        raise ValueError(f"dims must give {count} dimensions, got {len(dims)}: {list(dims)}")
    return dims


def haar_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random pure state vector (QR of a Gaussian matrix, phase fixed)."""
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    v = z / np.linalg.norm(z)
    phase = v[np.argmax(np.abs(v))]
    return v * (abs(phase) / phase)


def random_density(dim: int, rng: np.random.Generator, rank: int = None) -> np.ndarray:
    rank = rank or dim
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    m = g @ g.conj().T
    return herm(m / np.real(np.trace(m)))


def random_povm(dim: int, n_outcomes: int, rng: np.random.Generator) -> POVM:
    """Normalized random PSD set: E_x = S^{-1/2} G_x S^{-1/2}, S = sum G_x."""
    gs = []
    for _ in range(n_outcomes):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        gs.append(g @ g.conj().T)
    total = herm(sum(gs))
    vals, vecs = np.linalg.eigh(total)
    inv_sqrt = (vecs * (1.0 / np.sqrt(vals))) @ vecs.conj().T
    return POVM(tuple(herm(inv_sqrt @ g @ inv_sqrt) for g in gs))


def mub_pair(dim: int):
    """Computational and discrete-Fourier bases, unbiased in any dimension."""
    j, k = np.meshgrid(np.arange(dim), np.arange(dim), indexing="ij")
    f = np.exp(2j * math.pi * j * k / dim) / math.sqrt(dim)
    # rank-one projectors |v><v| onto the rows of each basis matrix
    bases = (np.eye(dim, dtype=complex), f.T)
    return tuple(POVM(b[:, :, None] * b.conj()[:, None, :]) for b in bases)


def measure_to_cq(rho: np.ndarray, dims, povm: POVM, keep: int) -> CQState:
    """Measure the first tensor factor with the POVM and keep one other
    factor as the quantum memory; returns the post-measurement cq state."""
    outcomes = []
    for x, e in enumerate(povm.elements):
        big = np.kron(e, np.eye(int(np.prod(dims[1:])))).reshape(rho.shape)
        outcomes.append((str(x), partial_trace(big @ rho, dims, [keep])))
    return CQState(outcomes)


def _quantum_cond_vn(rho: np.ndarray, dims, sys_a, sys_b, base="bits") -> float:
    """H(A|B) = H(AB) - H(B) on the listed tensor factors."""
    rho_ab = partial_trace(rho, dims, sorted(set(sys_a) | set(sys_b)))
    dims_ab = [dims[i] for i in sorted(set(sys_a) | set(sys_b))]
    kept = sorted(set(sys_a) | set(sys_b))
    b_local = [kept.index(i) for i in sys_b]
    rho_b = partial_trace(rho_ab, dims_ab, b_local)
    h_ab = entropy.von_neumann(rho_ab, base).value
    h_b = entropy.von_neumann(rho_b, base).value
    return h_ab - h_b


def _povm_pair(d_a: int, rng: np.random.Generator, use_mub: bool, n_outcomes: int = None):
    """The MUB pair on A, or two random POVMs drawn in the order (E, F)."""
    if use_mub:
        return mub_pair(d_a)
    m = n_outcomes or d_a
    e = random_povm(d_a, m, rng)
    return e, random_povm(d_a, m, rng)


def _report(relation, slacks, seed, unconverged: int = 0) -> CheckReport:
    slacks = tuple(float(s) for s in slacks)
    violations = sum(1 for s in slacks if s < VIOLATION_TOL)
    return CheckReport(relation, len(slacks), min(slacks, default=None), violations, seed,
                       slacks, unconverged)


def _bits(nats: float) -> float:
    """nats in bits, rounded as h_min_cq and h_max_cq round them."""
    return entropy.EntropyValue(nats, "nats").in_base("bits").value


def check_minmax_tripartite(dims=(2, 2, 2), trials: int = 50, seed: int = 0,
                            tol: float = minmax.DEFAULT_TOL, use_mub: bool = True) -> CheckReport:
    """H_max(X|B) + H_min(Y|C) >= -log2 c(E, F) on Haar-random tripartite
    pure states with MUB or random POVM pairs on A. H_max = log F_dec and
    H_min = -log P_guess each come from a certified solve."""
    d_a, d_b, d_c = _check_dims(dims, 3)
    if d_a * d_b * d_c > 64:
        raise ValueError("total dimension above desk scale")
    slacks, unconverged = [], 0
    for rng in _trial_rngs(trials, seed):
        psi = haar_state(d_a * d_b * d_c, rng)
        rho = np.outer(psi, psi.conj())
        e, f = _povm_pair(d_a, rng, use_mub)
        c = overlap.povm_overlap(e, f)
        fdec = minmax.decoupling_fidelity(measure_to_cq(rho, list(dims), e, keep=1), tol)
        pguess = minmax.guessing_probability(measure_to_cq(rho, list(dims), f, keep=2), tol)
        if not (fdec.converged and pguess.converged):
            unconverged += 1
            continue
        lhs = _bits(math.log(fdec.value)) + _bits(-math.log(pguess.value))
        slacks.append(lhs + math.log2(c))
    return _report("minmax_tripartite", slacks, seed, unconverged)


def check_vn_tripartite(dims=(2, 2, 2), trials: int = 50, seed: int = 0,
                        use_mub: bool = True) -> CheckReport:
    """H(X|B) + H(Y|C) >= -log2 c(E, F), conditional von Neumann version."""
    d_a, d_b, d_c = _check_dims(dims, 3)
    slacks = []
    for rng in _trial_rngs(trials, seed):
        psi = haar_state(d_a * d_b * d_c, rng)
        rho = np.outer(psi, psi.conj())
        e, f = _povm_pair(d_a, rng, use_mub)
        c = overlap.povm_overlap(e, f)
        lhs = (entropy.cond_vn_cq(measure_to_cq(rho, list(dims), e, keep=1)).value
               + entropy.cond_vn_cq(measure_to_cq(rho, list(dims), f, keep=2)).value)
        slacks.append(lhs + math.log2(c))
    return _report("vn_tripartite", slacks, seed)


def _stinespring_isometry(povm: POVM) -> np.ndarray:
    """V |psi> = sum_x sqrt(E_x)|psi> (x) |x>_X |x>_X'."""
    m, d = povm.elements.shape[:2]
    v = np.zeros((d, m, m, d), dtype=complex)
    x = np.arange(m)
    v[:, x, x, :] = np.swapaxes(psd_sqrt(povm.elements), 0, 1)
    return v.reshape(d * m * m, d)


def _dilated_cond_entropy(rho_ab: np.ndarray, d_a: int, d_b: int, povm: POVM) -> float:
    """H(A|XB) after the dilated measurement (X' traced out), in bits."""
    m = len(povm.elements)
    v = _stinespring_isometry(povm)
    big = np.kron(v, np.eye(d_b))
    rho_axxb = big @ rho_ab @ big.conj().T  # factors (A, X, X', B)
    rho_axb = partial_trace(rho_axxb, [d_a, m, m, d_b], keep=[0, 1, 3])
    return _quantum_cond_vn(rho_axb, [d_a, m, d_b], sys_a=[0], sys_b=[1, 2])


def check_bipartite(dims=(2, 2), trials: int = 50, seed: int = 0,
                    variant: str = "frank_lieb", n_outcomes: int = None,
                    use_mub: bool = True) -> CheckReport:
    """Bipartite uncertainty bounds on random rho_AB with measurement pairs.

    frank_lieb: H(X|B) + H(Y|B) >= log2(1/c1) + H(A|B).
    dilation:   H(X|B) + H(Y|B) >= -log2 c + H(A|B)
                                   - min{H(A|XB), H(A|YB)} after dilation.
    """
    d_a, d_b = _check_dims(dims, 2)
    if d_a * d_b > 16:
        raise ValueError("bipartite checker limited to total dimension 16")
    slacks = []
    for rng in _trial_rngs(trials, seed):
        rho = random_density(d_a * d_b, rng)
        e, f = _povm_pair(d_a, rng, use_mub, n_outcomes)
        lhs = (entropy.cond_vn_cq(measure_to_cq(rho, [d_a, d_b], e, keep=1)).value
               + entropy.cond_vn_cq(measure_to_cq(rho, [d_a, d_b], f, keep=1)).value)
        h_a_b = _quantum_cond_vn(rho, [d_a, d_b], sys_a=[0], sys_b=[1])
        if variant == "frank_lieb":
            rhs = -math.log2(overlap.frank_lieb_overlap(e, f)) + h_a_b
        elif variant == "dilation":
            c = overlap.povm_overlap(e, f)
            penalty = min(_dilated_cond_entropy(rho, d_a, d_b, f),
                          _dilated_cond_entropy(rho, d_a, d_b, e))
            rhs = -math.log2(c) + h_a_b - penalty
        else:
            raise ValueError(f"unknown variant {variant!r}")
        slacks.append(lhs - rhs)
    return _report(f"bipartite_{variant}", slacks, seed)


def gedankenexperiment(measured: int = 1):
    """Two qubits A1, A2: A1 maximally entangled with B, A2 maximally mixed.

    measured selects which qubit the MUB pair acts on (1 or 2). Returns a
    dict with the entropic quantities and both bipartite bounds."""
    bell = np.zeros(4)
    bell[0] = bell[3] = 1.0 / math.sqrt(2.0)
    rho_a1b = np.outer(bell, bell)
    # rho on (A1, B) (x) A2, then reorder factors to (A1, A2, B)
    rho_a1b_a2 = np.kron(rho_a1b, np.eye(2) / 2.0)  # (A1, B, A2)
    t = rho_a1b_a2.reshape(2, 2, 2, 2, 2, 2).transpose(0, 2, 1, 3, 5, 4)
    rho = t.reshape(8, 8)  # (A1, A2, B)
    z, x = mub_pair(2)
    eye2 = np.eye(2)
    if measured == 1:
        e = POVM(tuple(np.kron(p, eye2) for p in z.elements))
        f = POVM(tuple(np.kron(p, eye2) for p in x.elements))
    elif measured == 2:
        e = POVM(tuple(np.kron(eye2, p) for p in z.elements))
        f = POVM(tuple(np.kron(eye2, p) for p in x.elements))
    else:
        raise ValueError("measured must be 1 or 2")
    # regroup (A1, A2) as a single 4-dim system A
    dims = [4, 2]
    h_xb = entropy.cond_vn_cq(measure_to_cq(rho, dims, e, keep=1)).value
    h_yb = entropy.cond_vn_cq(measure_to_cq(rho, dims, f, keep=1)).value
    h_a_b = _quantum_cond_vn(rho, dims, sys_a=[0], sys_b=[1])
    c = overlap.povm_overlap(e, f)
    c1 = overlap.frank_lieb_overlap(e, f)
    penalty = min(_dilated_cond_entropy(rho, 4, 2, f),
                  _dilated_cond_entropy(rho, 4, 2, e))
    return {
        "lhs": h_xb + h_yb,
        "H(A|B)": h_a_b,
        "c": c,
        "c1": c1,
        "frank_lieb_rhs": -math.log2(c1) + h_a_b,
        "dilation_rhs": -math.log2(c) + h_a_b - penalty,
    }


def check_operator_lemmas(trials: int = 50, seed: int = 0,
                          tol: float = minmax.DEFAULT_TOL) -> CheckReport:
    """Property checks for the supporting entropy lemmas on random qubit-pair
    instances: relative-entropy monotonicity and scaling, the chain rule,
    D_max ordering and monotonicity, data processing for H_min/H_max, and
    the min/max and von Neumann purification dualities; eleven slacks per
    trial. The min/max duality sets decoupling_fidelity's ascent against
    the interior-point 2^{-H_min(X|C)} of the purified state. A trial with
    a capped H_min or H_max solve adds none of its slacks."""
    slacks, unconverged = [], 0
    for rng in _trial_rngs(trials, seed):
        trial = []
        d = 4
        rho = random_density(d, rng)
        gamma = random_density(d, rng)
        pert = random_density(d, rng) * rng.uniform(0.1, 1.0)
        sigma = gamma + pert  # sigma >= gamma
        # monotonicity in the second argument, relative and max-relative
        trial.append(entropy.relative_entropy(rho, gamma).value
                     - entropy.relative_entropy(rho, sigma).value)
        trial.append(entropy.max_relative_entropy(rho, gamma).value
                     - entropy.max_relative_entropy(rho, sigma).value)
        # scaling identities (exact)
        cscale = rng.uniform(0.05, 2.0)
        lhs = entropy.relative_entropy(rho, cscale * gamma, base="nats").value
        rhs = entropy.relative_entropy(rho, gamma, base="nats").value + math.log(1.0 / cscale)
        trial.append(1e-10 - abs(lhs - rhs))
        lhs = entropy.max_relative_entropy(rho, cscale * gamma, base="nats").value
        rhs = entropy.max_relative_entropy(rho, gamma, base="nats").value + math.log(1.0 / cscale)
        trial.append(1e-10 - abs(lhs - rhs))
        # D_max >= D
        trial.append(entropy.max_relative_entropy(rho, gamma).value
                     - entropy.relative_entropy(rho, gamma).value)
        # chain rule D(w_AB || s_A (x) s_B) = D(w_A||s_A) + D(w_AB||w_A (x) s_B)
        s_a = random_density(2, rng)
        s_b = random_density(2, rng)
        w_a = partial_trace(rho, [2, 2], [0])
        lhs = entropy.relative_entropy(rho, np.kron(s_a, s_b), base="nats").value
        rhs = (entropy.relative_entropy(w_a, s_a, base="nats").value
               + entropy.relative_entropy(rho, np.kron(w_a, s_b), base="nats").value)
        trial.append(1e-9 - abs(lhs - rhs))
        # D_max monotone under a random unital channel (Kraus from Haar unitaries)
        kraus = _random_unital_kraus(2, rng)
        chan = lambda m: herm(sum(k @ m @ k.conj().T for k in kraus))
        rho2 = random_density(2, rng)
        gam2 = random_density(2, rng)
        trial.append(entropy.max_relative_entropy(rho2, gam2).value
                     - entropy.max_relative_entropy(chan(rho2), chan(gam2)).value)
        # data processing: discarding a memory factor cannot lower H_min/H_max
        cq_bc = _random_cq(3, 4, rng)
        cq_b = CQState(tuple((lbl, partial_trace(op, [2, 2], [0]))
                             for lbl, op in cq_bc.outcomes))
        p_b, p_bc = (minmax.guessing_probability(cq, tol) for cq in (cq_b, cq_bc))
        f_b, f_bc = (minmax.decoupling_fidelity(cq, tol) for cq in (cq_b, cq_bc))
        trial.append(_bits(-math.log(p_b.value)) - _bits(-math.log(p_bc.value)) + 2 * tol)
        trial.append(_bits(math.log(f_b.value)) - _bits(math.log(f_bc.value)) + 2 * tol)
        # min/max duality H_max(X|B) = -H_min(X|C), C = X'B' purifying cq_b:
        # the unitary ascent against the interior-point core
        c_xc = _purified_min_entropy_value(cq_b, tol)
        trial.append(2 * tol - abs(_bits(math.log(f_b.value)) - _bits(math.log(c_xc.value))))
        # von Neumann duality H(A|C) = -H(A|B) for a purified two-qubit state
        trial.append(1e-9 - abs(_vn_duality_defect(rho)))
        if all(res.converged for res in (p_b, p_bc, f_b, f_bc, c_xc)):
            slacks.extend(trial)
        else:
            unconverged += 1
    return _report("operator_lemmas", slacks, seed, unconverged)


def _random_unital_kraus(dim: int, rng: np.random.Generator, n: int = 3):
    """Kraus set of a random unital channel: mixture of Haar unitaries."""
    p = rng.dirichlet(np.ones(n))
    kraus = []
    for i in range(n):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        q, r = np.linalg.qr(g)
        q = q * (np.diag(r) / np.abs(np.diag(r)))
        kraus.append(math.sqrt(p[i]) * q)
    return kraus


def _random_cq(n_outcomes: int, dim: int, rng: np.random.Generator) -> CQState:
    p = rng.dirichlet(np.ones(n_outcomes))
    return CQState(tuple((str(i), p[i] * random_density(dim, rng))
                         for i in range(n_outcomes)))


def _purified_min_entropy_value(omega: CQState, tol: float) -> minmax.SDPResult:
    """2^{-H_min(X|C)} of the purified cq state, C = X'B' (qstate.purify_cq),
    which equals F_dec(X|B) = 2^{H_max(X|B)} by duality."""
    m, d = omega.ops.shape[:2]
    vec, dims = purify_cq(omega)
    rho_xc = partial_trace(np.outer(vec, vec.conj()), list(dims), keep=[0, 1, 3])
    return minmax.cond_min_entropy_value(rho_xc, m, m * d, tol)


def _vn_duality_defect(rho_ab: np.ndarray, d_a: int = 2, d_b: int = 2) -> float:
    """|H(A|C) + H(A|B)| for the purification of rho_AB; zero by duality."""
    vals, vecs = np.linalg.eigh(herm(rho_ab))
    vals = np.clip(vals, 0.0, None)
    d = d_a * d_b
    psi = (vecs * np.sqrt(vals)).reshape(-1)  # |psi>_(AB)C with C = dim d
    rho = np.outer(psi, psi.conj())
    h_a_b = _quantum_cond_vn(rho, [d_a, d_b, d], sys_a=[0], sys_b=[1])
    h_a_c = _quantum_cond_vn(rho, [d_a, d_b, d], sys_a=[0], sys_b=[2])
    return h_a_c + h_a_b
