import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quncert.qstate import (
    CQState,
    DensityMatrix,
    GridWaveFunction,
    POVM,
    herm,
    partial_trace,
    psd_eigh,
    psd_funcm,
    purify_cq,
    validate,
)

from oracles import block_diagonal

RNG = np.random.default_rng(42)


def random_density(dim, rng=RNG):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return m / np.real(np.trace(m))


class TestStackedPrimitives:
    """A (k, d, d) stack goes through the same arithmetic as a loop over its
    matrices, so the results are equal, not merely close."""

    STACK = np.stack([random_density(5, np.random.default_rng(7 + i))
                      - 0.1 * np.eye(5) + 0.02j * np.triu(np.ones((5, 5)))
                      for i in range(4)])

    def test_herm(self):
        out = herm(self.STACK)
        for mat, got in zip(self.STACK, out):
            assert np.array_equal(got, herm(mat))
            assert np.array_equal(got, got.conj().T)

    def test_psd_eigh(self):
        vals, vecs = psd_eigh(self.STACK)
        assert vals.shape == (4, 5) and vecs.shape == (4, 5, 5)
        raw_vals, raw_vecs = np.linalg.eigh(herm(self.STACK))
        assert (raw_vals < 0).any()  # the stack is indefinite
        # the negative eigenvalues come back as 0, the vectors unchanged
        assert np.array_equal(vals, np.where(raw_vals < 0, 0.0, raw_vals))
        assert np.array_equal(vecs, raw_vecs)
        for mat, v, u in zip(self.STACK, vals, vecs):
            v_one, u_one = psd_eigh(mat)
            assert np.array_equal(v, v_one)
            assert np.array_equal(u, u_one)
        # the square root from it squares to the PSD part of the input
        psd_part = (vecs * vals[:, None, :]) @ vecs.conj().transpose(0, 2, 1)
        root = psd_funcm(self.STACK, np.sqrt)
        assert np.allclose(root @ root, psd_part, rtol=0.0, atol=1e-14)

    def test_psd_funcm(self):
        def pos(vals):
            return np.clip(vals, 0.0, None)

        out = psd_funcm(self.STACK, pos)
        for mat, got in zip(self.STACK, out):
            assert np.array_equal(got, psd_funcm(mat, pos))
            assert np.linalg.eigvalsh(got).min() >= -1e-12


class TestDensityMatrix:
    def test_validate_catches_nonhermitian(self):
        bad = np.array([[0.5, 0.3], [0.0, 0.5]])
        assert not validate(DensityMatrix(bad))["pass"]

    def test_validate_catches_negative_eigenvalue(self):
        bad = np.diag([1.5, -0.5])
        diag = validate(DensityMatrix(bad))
        assert not diag["psd"][0]

    def test_validate_catches_bad_trace(self):
        diag = validate(DensityMatrix(np.eye(2)))
        assert not diag["trace"][0]

    @pytest.mark.parametrize("mat", [np.ones((2, 3)) / 6.0, np.ones(2) / 2.0, np.ones((1, 1, 1))],
                             ids=["non-square", "vector", "stack"])
    def test_rejects_non_square(self, mat):
        with pytest.raises(ValueError, match="expected a square matrix"):
            DensityMatrix(mat)

    @pytest.mark.parametrize("value", [np.nan, np.inf, 1j * np.inf], ids=["nan", "inf", "1j-inf"])
    def test_rejects_non_finite_entries(self, value):
        mat = np.diag([0.5, 0.5]).astype(complex)
        mat[0, 0] = value
        with pytest.raises(ValueError, match="a density matrix must have finite entries"):
            DensityMatrix(mat)


class TestCQState:
    def test_probs_sum_to_one(self):
        cq = CQState((("a", 0.3 * random_density(3)), ("b", 0.7 * random_density(3))))
        assert np.allclose(cq.probs.sum(), 1.0)
        assert validate(cq)["pass"]

    def test_marginal_is_mixture(self):
        om0, om1 = 0.4 * random_density(2), 0.6 * random_density(2)
        cq = CQState((("0", om0), ("1", om1)))
        assert np.allclose(cq.marginal(), om0 + om1)

    def test_block_diagonal_embedding(self):
        cq = CQState((("0", 0.5 * np.eye(2) / 2.0), ("1", 0.5 * random_density(2))))
        block = block_diagonal(cq.ops)
        assert block.shape == (4, 4)
        assert np.allclose(np.real(np.trace(block)), 1.0)
        # off-diagonal blocks vanish
        assert np.allclose(block[:2, 2:], 0.0)


    def test_validate_flags_indefinite_outcome(self):
        cq = CQState((("0", np.diag([0.7, -0.1])), ("1", np.diag([0.2, 0.2]))))
        ok, min_eig = validate(cq)["psd"]
        assert not ok
        assert math.isclose(min_eig, -0.1)


class TestOneStack:
    @staticmethod
    def _raw(m=3, d=4, seed=5):
        rng = np.random.default_rng(seed)
        return rng.standard_normal((m, d, d)) + 1j * rng.standard_normal((m, d, d))

    def test_pairs_constructor_stores_hermitian_part(self):
        raw = self._raw()
        before = raw.copy()
        cq = CQState(tuple((str(x), op) for x, op in enumerate(raw)))
        assert isinstance(cq.ops, np.ndarray)
        assert cq.ops.shape == (3, 4, 4)
        assert np.array_equal(cq.ops, herm(raw))
        # the pairs are copied, so the caller's matrices are left as they were
        assert not np.shares_memory(cq.ops, raw)
        assert np.array_equal(raw, before)
        assert cq.labels == ["0", "1", "2"]

    def test_from_stack_adopts_without_copy(self):
        raw = self._raw()
        want = herm(raw)
        cq = CQState.from_stack(["a", "b", "c"], raw)
        assert np.shares_memory(cq.ops, raw)
        assert np.array_equal(cq.ops, want)
        assert [lbl for lbl, _ in cq.outcomes] == ["a", "b", "c"]
        assert all(np.shares_memory(op, cq.ops) for _, op in cq.outcomes)

    def test_stack_is_read_only(self):
        cq = CQState.from_stack(["a", "b", "c"], self._raw())
        with pytest.raises(ValueError):
            cq.ops[0, 0, 1] = 1.0

    @pytest.mark.parametrize("outcomes", [
        (),
        (("0", np.eye(2) / 4.0), ("1", np.eye(3) / 6.0)),
        (("0", np.array([0.5, 0.0])), ("1", np.array([0.0, 0.5]))),
        (("0", 0.5), ("1", 0.5)),
        (("0", np.ones((2, 3)) / 6.0),),
    ], ids=["empty", "mismatched", "one-dim", "scalar", "non-square"])
    def test_rejects_malformed_outcomes(self, outcomes):
        with pytest.raises(ValueError):
            CQState(outcomes)

    def test_from_stack_rejects_label_count(self):
        with pytest.raises(ValueError):
            CQState.from_stack(["a", "b"], self._raw())

    def test_batched_views_match_per_outcome_loop(self):
        from oracles import random_cq

        cq = random_cq(np.random.default_rng(6), 4, 3)
        ops = list(cq.ops)
        assert np.array_equal(cq.probs, [np.trace(op).real for op in ops])
        assert np.array_equal(cq.marginal(), sum(ops))
        min_eig = min(np.linalg.eigvalsh(op).min() for op in ops)
        assert cq.diagnostics()["psd"][1] == min_eig
        block = block_diagonal(cq.ops)
        for x, op in enumerate(ops):
            assert np.array_equal(block[3 * x:3 * x + 3, 3 * x:3 * x + 3], op)
        assert np.count_nonzero(block) == sum(np.count_nonzero(op) for op in ops)


class TestPOVM:
    def test_tuple_and_stack_give_one_stack(self):
        stack = np.array([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        from_tuple, from_stack = POVM(tuple(stack)), POVM(stack)
        for povm in (from_tuple, from_stack):
            assert isinstance(povm.elements, np.ndarray)
            assert povm.elements.shape == (2, 2, 2)
        assert np.array_equal(from_tuple.elements, from_stack.elements)

    @pytest.mark.parametrize("elements", [(), (np.array([1.0, 0.0]),)],
                             ids=["empty", "one-dim"])
    def test_rejects_malformed_elements(self, elements):
        with pytest.raises(ValueError):
            POVM(elements)

    def test_completeness(self):
        proj = np.diag([1.0, 0.0])
        povm = POVM((proj, np.eye(2) - proj))
        assert validate(povm)["pass"]

    def test_incomplete_flagged(self):
        povm = POVM((np.diag([0.5, 0.0]), np.diag([0.0, 0.5])))
        assert not validate(povm)["completeness"][0]


class TestGridWaveFunction:
    def test_norm_and_density(self):
        n = 8
        dq = 0.5
        samples = np.ones(n, dtype=complex) / math.sqrt(n * dq)
        psi = GridWaveFunction(-2.0, dq, samples)
        assert math.isclose(psi.norm_sq(), 1.0)
        assert np.allclose(psi.density().sum() * dq, 1.0)

    @pytest.mark.parametrize("dq", [0.0, -0.5, math.nan, math.inf])
    def test_rejects_dq_off_the_positive_reals(self, dq):
        with pytest.raises(ValueError, match="dq must be positive and finite"):
            GridWaveFunction(0.0, dq, np.ones(4, dtype=complex))

    @pytest.mark.parametrize("q0", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_q0(self, q0):
        with pytest.raises(ValueError, match="q0 must be finite"):
            GridWaveFunction(q0, 0.5, np.ones(4, dtype=complex))

    def test_validate_flags_unnormalized(self):
        psi = GridWaveFunction(0.0, 0.5, np.ones(4, dtype=complex))
        report = validate(psi)
        assert not report["pass"]
        assert report["normalization"] == (False, 2.0)

    def test_memory_columns(self):
        samples = np.zeros((4, 2), dtype=complex)
        samples[0, 0] = samples[1, 1] = 1.0
        psi = GridWaveFunction(0.0, 0.5, samples).normalized()
        assert math.isclose(psi.norm_sq(), 1.0)
        assert psi.density().shape == (4,)


class TestPartialTrace:
    def test_product_state(self):
        a, b = random_density(2), random_density(3)
        ab = np.kron(a, b)
        assert np.allclose(partial_trace(ab, (2, 3), [0]), a)
        assert np.allclose(partial_trace(ab, (2, 3), [1]), b)

    def test_bell_state_marginal(self):
        v = np.zeros(4)
        v[0] = v[3] = 1.0 / math.sqrt(2.0)
        rho = np.outer(v, v)
        assert np.allclose(partial_trace(rho, (2, 2), [0]), np.eye(2) / 2.0)

    def test_three_factor_keep_two(self):
        a, b, c = random_density(2), random_density(2), random_density(3)
        rho = np.kron(np.kron(a, b), c)
        assert np.allclose(partial_trace(rho, (2, 2, 3), [0, 2]), np.kron(a, c))

    def test_stack_traces_each_matrix(self):
        # a (2, 3, n, n) stack gives each matrix's partial trace, bit for bit
        stack = np.array([[random_density(12) for _ in range(3)] for _ in range(2)])
        for keep in ([0], [1, 2], [0, 2], [0, 1, 2]):
            red = partial_trace(stack, (2, 3, 2), keep)
            want = [[partial_trace(m, (2, 3, 2), keep) for m in row] for row in stack]
            assert np.array_equal(red, np.array(want))

    def test_stack_dims_checked_against_matrix_size(self):
        with pytest.raises(ValueError, match="product of dims"):
            partial_trace(np.zeros((3, 4, 4)), (2, 3), [0])

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_trace_preserved(self, seed):
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        rho = g @ g.conj().T
        rho /= np.real(np.trace(rho))
        for keep in ([0], [1], [0, 1]):
            red = partial_trace(rho, (2, 3), keep)
            assert math.isclose(np.real(np.trace(red)), 1.0, abs_tol=1e-12)


class TestPurifyCQ:
    def test_reduces_to_cq_blocks(self):
        from oracles import random_cq

        rng = np.random.default_rng(3)
        cq = random_cq(rng, 3, 2)
        vec, dims = purify_cq(cq)
        m, d = len(cq.outcomes), cq.dim
        assert dims == (m, m, d, d)
        rho = np.outer(vec, vec.conj())
        # tracing out the purifying factors X' B' leaves the cq block state
        red = partial_trace(rho, dims, [0, 2])
        for x, (_, om) in enumerate(cq.outcomes):
            blk = red[x * d:(x + 1) * d, x * d:(x + 1) * d]
            assert np.allclose(blk, om, atol=1e-12)

    def test_unit_norm(self):
        from oracles import random_cq

        cq = random_cq(np.random.default_rng(4), 2, 3)
        vec, _ = purify_cq(cq)
        assert math.isclose(np.vdot(vec, vec).real, 1.0, abs_tol=1e-12)

