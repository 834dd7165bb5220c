"""Randomized and constructed-instance checkers for the entropic uncertainty
relations and the supporting entropy lemmas.

Every checker is a trial body run by one loop, `_run`. Trial t draws its
instance from its own generator `_trial_rng(seed, t)`, so a report does not
depend on execution order, and gives its slacks LHS - RHS. A violation is a
slack below VIOLATION_TOL = -minmax.DEFAULT_TOL, the SDP solvers' default
tolerance. A trial whose SDP solve stops at its iteration cap adds no slack
and is counted as unconverged instead; a report with an unconverged trial
does not pass. The report names the trial that holds the minimum slack,
`worst_trial`, so that `_trial_rng(seed, worst_trial)` replays it.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import entropy, minmax, overlap
from .qstate import CQState, POVM, herm, partial_trace, psd_eigh, psd_funcm, purify_cq

VIOLATION_TOL = -minmax.DEFAULT_TOL

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
    """min_slack and worst_trial, the index of the trial that holds it, are
    None when no trial gave a slack (all unconverged)."""

    relation: str
    instances: int
    min_slack: float | None
    violations: int
    seed: int
    slacks: tuple = field(default_factory=tuple)
    unconverged: int = 0
    worst_trial: int | None = None

    @property
    def passed(self) -> bool:
        return self.violations == 0 and self.unconverged == 0

    def to_json(self) -> dict:
        """Every field but the per-instance slacks, and passed."""
        fields = {k: v for k, v in asdict(self).items() if k != "slacks"}
        return {**fields, "passed": self.passed}


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, trial]))


def _run(relation: str, trials: int, seed: int, trial) -> CheckReport:
    """The one trial loop: trial(rng) gives the slacks of one trial, or None
    when one of its solves stopped at its cap."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    got = [trial(_trial_rng(seed, t)) for t in range(trials)]
    # (slack, trial) pairs; the least is the first trial to reach the minimum
    pairs = [(float(s), t) for t, out in enumerate(got) if out is not None for s in out]
    slacks = tuple(s for s, _ in pairs)
    min_slack, worst = min(pairs, default=(None, None))
    return CheckReport(relation, len(slacks), min_slack, sum(s < VIOLATION_TOL for s in slacks),
                       seed, slacks, got.count(None), worst)


def _check_dims(dims, count: int, cap: int) -> tuple:
    """dims, once checked to hold the `count` dimensions a relation needs,
    each at least 1, with a product of at most the relation's cap, so that
    no checker allocates for oversize dims."""
    dims = tuple(dims)
    if len(dims) != count:
        raise ValueError(f"dims must give {count} dimensions, got {len(dims)}: {list(dims)}")
    if min(dims) < 1:
        raise ValueError(f"dims must each be at least 1, got {list(dims)}")
    if math.prod(dims) > cap:
        raise ValueError(f"total dimension {math.prod(dims)} of dims {list(dims)} "
                         f"above this relation's desk scale of {cap}")
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
    """Normalized random PSD set: the pretty-good normalization
    E_x = S^{-1/2} G_x S^{-1/2}, S = sum G_x (minmax._pgm), of
    G_x = g_x g_x^dagger drawn outcome by outcome."""
    g = np.array([rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
                  for _ in range(n_outcomes)])
    gs = g @ np.swapaxes(g.conj(), 1, 2)
    return POVM(minmax._pgm(gs, minmax._cq_embedding(n_outcomes)))


def mub_pair(dim: int):
    """Computational and discrete-Fourier bases, unbiased in any dimension."""
    j, k = np.meshgrid(np.arange(dim), np.arange(dim), indexing="ij")
    f = np.exp(2j * math.pi * j * k / dim) / math.sqrt(dim)
    # rank-one projectors |v><v| onto the rows of each basis matrix
    bases = (np.eye(dim, dtype=complex), f.T)
    return tuple(POVM(b[:, :, None] * b.conj()[:, None, :]) for b in bases)


def measure_to_cq(rho: np.ndarray, dims, povm: POVM, keep: int) -> CQState:
    """Measure the first tensor factor of rho with the POVM and keep factor
    `keep` (1 .. len(dims) - 1) as the quantum memory.

    The operators Tr_A[(E_x (x) 1) rho] of all outcomes come from one
    contraction over the POVM stack, and one stacked partial trace leaves
    the memory factor of each; the cq state adopts that stack.
    """
    dims = list(dims)
    if not 1 <= keep < len(dims):
        raise ValueError(f"keep must name a memory factor in 1..{len(dims) - 1}, got {keep}")
    rest = math.prod(dims[1:])
    ops = np.einsum("xba,aibj->xij", povm.elements,
                    np.reshape(rho, (dims[0], rest, dims[0], rest)))
    return CQState.from_stack(range(len(ops)), partial_trace(ops, dims[1:], [keep - 1]))


def _quantum_cond_vn(rho: np.ndarray, dims, sys_a, sys_b) -> float:
    """H(A|B) = H(AB) - H(B) in bits, on the listed tensor factors."""
    kept = sorted(set(sys_a) | set(sys_b))
    rho_ab = partial_trace(rho, dims, kept)
    rho_b = partial_trace(rho_ab, [dims[i] for i in kept], [kept.index(i) for i in sys_b])
    return entropy.von_neumann(rho_ab).value - entropy.von_neumann(rho_b).value


def _povm_pair(d_a: int, rng: np.random.Generator, use_mub: bool):
    """The MUB pair on A, or two random d_a-outcome POVMs drawn in the order
    (E, F)."""
    if use_mub:
        return mub_pair(d_a)
    return random_povm(d_a, d_a, rng), random_povm(d_a, d_a, rng)


def _bits(kind: str, result: minmax.SDPResult) -> float:
    """H_min (kind "min") or H_max (kind "max") in bits from a solve, as
    h_min_cq and h_max_cq give them."""
    return minmax._entropy(kind, result, "bits").value


def _tripartite(relation: str, dims: tuple, trials: int, seed: int, use_mub: bool,
                entropies) -> CheckReport:
    """H(X|B) + H(Y|C) >= -log2 c(E, F) on Haar-random pure states of ABC,
    X and Y the outcomes of E and F on A. entropies(cq_xb, cq_yc) gives the
    left-hand side in bits, or None when one of its solves was capped."""
    def trial(rng):
        psi = haar_state(math.prod(dims), rng)
        rho = np.outer(psi, psi.conj())
        e, f = _povm_pair(dims[0], rng, use_mub)
        lhs = entropies(measure_to_cq(rho, dims, e, keep=1), measure_to_cq(rho, dims, f, keep=2))
        return None if lhs is None else [lhs + math.log2(overlap.povm_overlap(e, f))]

    return _run(relation, trials, seed, trial)


def check_minmax_tripartite(dims=(2, 2, 2), trials: int = 50, seed: int = 0,
                            use_mub: bool = True) -> CheckReport:
    """H_max(X|B) + H_min(Y|C) >= -log2 c(E, F) with MUB or random POVM pairs
    on A. H_max = log F_dec and H_min = -log P_guess each come from a
    certified solve at minmax.DEFAULT_TOL."""
    dims = _check_dims(dims, 3, 64)

    def hmax_hmin(cq_xb, cq_yc):
        fdec = minmax.decoupling_fidelity(cq_xb)
        pguess = minmax.guessing_probability(cq_yc)
        if fdec.converged and pguess.converged:
            return _bits("max", fdec) + _bits("min", pguess)
        return None

    return _tripartite("minmax_tripartite", dims, trials, seed, use_mub, hmax_hmin)


def check_vn_tripartite(dims=(2, 2, 2), trials: int = 50, seed: int = 0,
                        use_mub: bool = True) -> CheckReport:
    """H(X|B) + H(Y|C) >= -log2 c(E, F), conditional von Neumann version."""
    return _tripartite("vn_tripartite", _check_dims(dims, 3, 512), trials, seed, use_mub,
                       lambda xb, yc: entropy.cond_vn_cq(xb).value + entropy.cond_vn_cq(yc).value)


def _dilated_cond_entropy(rho_ab: np.ndarray, d_a: int, d_b: int, povm: POVM) -> float:
    """H(A|XB) in bits after the dilated measurement V = sum_x sqrt(E_x) (x)
    |x>_X |x>_X' with X' traced out, which leaves the X-diagonal state
    rho_AXB = sum_x (sqrt(E_x) (x) 1) rho_AB (sqrt(E_x) (x) 1) (x) |x><x|_X."""
    s = psd_funcm(povm.elements, np.sqrt)
    m, x = len(s), np.arange(len(s))
    rho_axb = np.zeros((d_a, m, d_b, d_a, m, d_b), dtype=complex)
    rho_axb[:, x, :, :, x, :] = np.einsum("xab,bicj,xcd->xaidj", s,
                                          np.reshape(rho_ab, (d_a, d_b, d_a, d_b)), s)
    return _quantum_cond_vn(rho_axb.reshape(d_a * m * d_b, -1), [d_a, m, d_b],
                            sys_a=[0], sys_b=[1, 2])


def _bipartite_bounds(rho: np.ndarray, d_a: int, d_b: int, e: POVM, f: POVM,
                      variants=("frank_lieb", "dilation")) -> dict:
    """The listed bipartite bounds for rho_AB with E and F measured on A, in
    bits, with what each needs; each variant costs only its own terms:

    lhs            = H(X|B) + H(Y|B), and H(A|B) for both;
    frank_lieb_rhs = log2(1/c1) + H(A|B), with c1;
    dilation_rhs   = -log2 c + H(A|B) - min{H(A|XB), H(A|YB)} after
                     dilation, with c.
    """
    dims = [d_a, d_b]
    h_a_b = _quantum_cond_vn(rho, dims, sys_a=[0], sys_b=[1])
    out = {
        "lhs": (entropy.cond_vn_cq(measure_to_cq(rho, dims, e, keep=1)).value
                + entropy.cond_vn_cq(measure_to_cq(rho, dims, f, keep=1)).value),
        "H(A|B)": h_a_b,
    }
    if "frank_lieb" in variants:
        c1 = overlap.frank_lieb_overlap(e, f)
        out.update(c1=c1, frank_lieb_rhs=-math.log2(c1) + h_a_b)
    if "dilation" in variants:
        c = overlap.povm_overlap(e, f)
        penalty = min(_dilated_cond_entropy(rho, d_a, d_b, f),
                      _dilated_cond_entropy(rho, d_a, d_b, e))
        out.update(c=c, dilation_rhs=-math.log2(c) + h_a_b - penalty)
    return out


def check_bipartite(dims=(2, 2), trials: int = 50, seed: int = 0,
                    variant: str = "frank_lieb", use_mub: bool = True) -> CheckReport:
    """Bipartite uncertainty bound `variant`, "frank_lieb" or "dilation"
    (see _bipartite_bounds), on random rho_AB with the MUB pair on A or two
    random d_A-outcome POVMs."""
    d_a, d_b = _check_dims(dims, 2, 16)
    if variant not in ("frank_lieb", "dilation"):
        raise ValueError(f"unknown variant {variant!r}; choose frank_lieb or dilation")

    def trial(rng):
        rho = random_density(d_a * d_b, rng)
        e, f = _povm_pair(d_a, rng, use_mub)
        bounds = _bipartite_bounds(rho, d_a, d_b, e, f, (variant,))
        return [bounds["lhs"] - bounds[f"{variant}_rhs"]]

    return _run(f"bipartite_{variant}", trials, seed, trial)


def gedankenexperiment(measured: int = 1):
    """Two qubits A1, A2: A1 maximally entangled with B, A2 maximally mixed.

    measured selects which qubit the MUB pair acts on (1 or 2). Returns
    _bipartite_bounds for A = (A1, A2): the entropic quantities and both
    bipartite bounds."""
    if measured not in (1, 2):
        raise ValueError("measured must be 1 or 2")
    bell = np.eye(2).reshape(4) / math.sqrt(2.0)
    # |Phi+><Phi+| on (A1, B) (x) I/2 on A2, factors reordered to (A1, A2, B)
    rho = np.kron(np.outer(bell, bell), np.eye(2) / 2.0).reshape([2] * 6)
    rho = rho.transpose(0, 2, 1, 3, 5, 4).reshape(8, 8)
    eye2 = np.eye(2)
    # each basis projector on the measured qubit, the identity on the other
    e, f = (POVM(tuple(np.kron(p, eye2) if measured == 1 else np.kron(eye2, p)
                       for p in basis.elements)) for basis in mub_pair(2))
    # regroup (A1, A2) as a single 4-dim system A
    return _bipartite_bounds(rho, 4, 2, e, f)


def check_operator_lemmas(trials: int = 50, seed: int = 0) -> CheckReport:
    """Property checks for the supporting entropy lemmas on random qubit-pair
    instances: relative-entropy monotonicity and scaling, the chain rule,
    D_max ordering and monotonicity, data processing for H_min/H_max, and
    the min/max and von Neumann purification dualities; eleven slacks per
    trial. The min/max duality sets decoupling_fidelity's ascent against
    the interior-point 2^{-H_min(X|C)} of the purified state. Every solve
    runs at minmax.DEFAULT_TOL. A trial with a capped H_min or H_max solve
    adds none of its slacks."""
    return _run("operator_lemmas", trials, seed, _lemma_slacks)


def _lemma_slacks(rng: np.random.Generator):
    """The eleven slacks of one check_operator_lemmas trial, or None when
    one of its H_min or H_max solves was capped."""
    tol = minmax.DEFAULT_TOL
    trial = []
    rho, gamma = random_density(4, rng), random_density(4, rng)
    sigma = gamma + random_density(4, rng) * rng.uniform(0.1, 1.0)  # sigma >= gamma
    divergences = (entropy.relative_entropy, entropy.max_relative_entropy)
    # monotonicity in the second argument, relative and max-relative
    for div in divergences:
        trial.append(div(rho, gamma).value - div(rho, sigma).value)
    # scaling identities (exact)
    cscale = rng.uniform(0.05, 2.0)
    for div in divergences:
        lhs = div(rho, cscale * gamma, base="nats").value
        rhs = div(rho, gamma, base="nats").value + math.log(1.0 / cscale)
        trial.append(1e-10 - abs(lhs - rhs))
    # D_max >= D
    trial.append(entropy.max_relative_entropy(rho, gamma).value
                 - entropy.relative_entropy(rho, gamma).value)
    # chain rule D(w_AB || s_A (x) s_B) = D(w_A||s_A) + D(w_AB||w_A (x) s_B)
    s_a, s_b = random_density(2, rng), random_density(2, rng)
    w_a = partial_trace(rho, [2, 2], [0])
    lhs = entropy.relative_entropy(rho, np.kron(s_a, s_b), base="nats").value
    rhs = (entropy.relative_entropy(w_a, s_a, base="nats").value
           + entropy.relative_entropy(rho, np.kron(w_a, s_b), base="nats").value)
    trial.append(1e-9 - abs(lhs - rhs))
    # D_max monotone under a random unital channel (Kraus from Haar unitaries)
    kraus = _random_unital_kraus(2, rng)
    chan = lambda m: herm(sum(k @ m @ k.conj().T for k in kraus))
    rho2, gam2 = random_density(2, rng), random_density(2, rng)
    trial.append(entropy.max_relative_entropy(rho2, gam2).value
                 - entropy.max_relative_entropy(chan(rho2), chan(gam2)).value)
    # data processing: discarding a memory factor cannot lower H_min/H_max
    cq_bc = _random_cq(3, 4, rng)
    cq_b = CQState.from_stack(cq_bc.labels, partial_trace(cq_bc.ops, [2, 2], [0]))
    p_b, p_bc = (minmax.guessing_probability(cq) for cq in (cq_b, cq_bc))
    f_b, f_bc = (minmax.decoupling_fidelity(cq) for cq in (cq_b, cq_bc))
    trial.append(_bits("min", p_b) - _bits("min", p_bc) + 2 * tol)
    trial.append(_bits("max", f_b) - _bits("max", f_bc) + 2 * tol)
    # min/max duality H_max(X|B) = -H_min(X|C), C = X'B' purifying cq_b:
    # the unitary ascent against the interior-point core, both read as H_max
    c_xc = _purified_min_entropy_value(cq_b)
    trial.append(2 * tol - abs(_bits("max", f_b) - _bits("max", c_xc)))
    # von Neumann duality H(A|C) = -H(A|B) for a purified two-qubit state
    trial.append(1e-9 - abs(_vn_duality_defect(rho)))
    if all(res.converged for res in (p_b, p_bc, f_b, f_bc, c_xc)):
        return trial
    return None


def _random_unital_kraus(dim: int, rng: np.random.Generator):
    """Kraus set of a random unital channel: mixture of three Haar unitaries."""
    p = rng.dirichlet(np.ones(3))
    kraus = []
    for i in range(3):
        q, r = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
        kraus.append(math.sqrt(p[i]) * (q * (np.diag(r) / np.abs(np.diag(r)))))
    return kraus


def _random_cq(n_outcomes: int, dim: int, rng: np.random.Generator) -> CQState:
    p = rng.dirichlet(np.ones(n_outcomes))
    return CQState(tuple((str(i), p[i] * random_density(dim, rng))
                         for i in range(n_outcomes)))


def _purified_min_entropy_value(omega: CQState) -> minmax.SDPResult:
    """2^{-H_min(X|C)} of the purified cq state, C = X'B' (qstate.purify_cq),
    which equals F_dec(X|B) = 2^{H_max(X|B)} by duality."""
    m, d = omega.ops.shape[:2]
    vec, dims = purify_cq(omega)
    rho_xc = partial_trace(np.outer(vec, vec.conj()), list(dims), keep=[0, 1, 3])
    return minmax.cond_min_entropy_value(rho_xc, m, m * d)


def _vn_duality_defect(rho_ab: np.ndarray) -> float:
    """H(A|C) + H(A|B) for the purification of a two-qubit rho_AB; zero by
    duality."""
    vals, vecs = psd_eigh(rho_ab)
    psi = (vecs * np.sqrt(vals)).reshape(-1)  # |psi>_(AB)C, C of dim 4
    rho = np.outer(psi, psi.conj())
    return (_quantum_cond_vn(rho, [2, 2, 4], sys_a=[0], sys_b=[2])
            + _quantum_cond_vn(rho, [2, 2, 4], sys_a=[0], sys_b=[1]))
