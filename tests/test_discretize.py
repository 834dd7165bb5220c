import logging
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quncert import discretize, entropy, minmax, qstate
from quncert.discretize import (
    ConvergenceTable,
    Partition,
    convergence_ladder,
    discretize_position,
    gaussian_wavefunction,
    momentum_transform,
)
from quncert.entropy import cond_vn_cq
from quncert.gaussian import epr_grid_wavefunction
from quncert.minmax import DEFAULT_TOL, decoupling_fidelity, guessing_probability
from quncert.qstate import NEGLIGIBLE, CQState, GridWaveFunction, sample_outer_sum, validate

from oracles import (binned_cond_vn_nats, binned_cq, binned_cq_loop, epr_rung_brackets_bits,
                     gaussian_h_bits, gaussian_hmax_bits, gaussian_hmin_bits, momentum_fftshift)

# the EPR state at nu = 1.5 with its 19-level memory, on a small grid
EPR = epr_grid_wavefunction(1.5, n_points=2048)


def _random_wavefunction(rng, n, d, q0, dq):
    samples = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
    return GridWaveFunction(q0, dq, samples).normalized()


def _assert_matches_loop(psi, part):
    cq = discretize_position(psi, part)
    want = binned_cq_loop(psi.q0, psi.dq, psi.samples, part.alpha, part.offset,
                          part.k_min, part.k_max)
    assert cq.labels == list(want)
    for (_, got), op in zip(cq.outcomes, want.values()):
        assert np.abs(got - op).max() < 1e-12
    return cq


class TestPartition:
    def test_cell_index_half_open(self):
        part = Partition.centered(1.0, -4.0, 4.0)
        # cells are (offset + k, offset + k + 1]; the center cell holds 0
        assert part.cell_index(0.0) == part.cell_index(0.4)
        assert part.cell_index(0.5) == part.cell_index(0.0)
        assert part.cell_index(0.5001) == part.cell_index(0.0) + 1
        assert part.cell_index(-0.5) == part.cell_index(0.0) - 1

    def test_centered_offset(self):
        part = Partition.centered(0.25, -2.0, 2.0)
        assert math.isclose(part.offset, -0.125)

    @pytest.mark.parametrize("alpha, offset, name", [
        (math.nan, 0.0, "alpha"), (math.inf, 0.0, "alpha"), (-math.inf, 0.0, "alpha"),
        (1.0, math.nan, "offset"), (1.0, math.inf, "offset"), (1.0, -math.inf, "offset"),
    ])
    def test_rejects_non_finite_alpha_and_offset(self, alpha, offset, name):
        with pytest.raises(ValueError, match=name):
            Partition(alpha, offset, -100, 100)

    def test_rejects_empty_index_range(self):
        with pytest.raises(ValueError, match="empty index range"):
            Partition(1.0, -0.5, 1, 0)

    def test_refinement_merges_exactly(self):
        # halving alpha at the same offset nests cells pairwise
        coarse = Partition(1.0, 0.0, -4, 4)
        fine = Partition(0.5, 0.0, -8, 8)
        for q in np.linspace(-3.9, 3.9, 200):
            assert fine.cell_index(q) // 2 == coarse.cell_index(q)

    @given(st.floats(-50.0, 50.0), st.floats(0.01, 5.0))
    @settings(max_examples=100, deadline=None)
    def test_index_consistent_with_bounds(self, q, alpha):
        part = Partition(alpha, -alpha / 2.0, -1000, 1000)
        k = part.cell_index(q)
        lo = part.offset + k * alpha
        assert lo < q <= lo + alpha + 1e-9


class TestMomentumTransform:
    def test_unitary(self):
        psi = gaussian_wavefunction(sigma=1.0, n_points=1024)
        phi = momentum_transform(psi)
        assert math.isclose(phi.norm_sq(), 1.0, abs_tol=1e-10)

    def test_gaussian_width(self):
        # position variance s^2 maps to momentum variance 1/(4 s^2)
        psi = gaussian_wavefunction(sigma=1.5, n_points=4096)
        phi = momentum_transform(psi)
        var = float(np.sum(phi.grid ** 2 * phi.density()) * phi.dq)
        assert math.isclose(var, 1.0 / 9.0, rel_tol=1e-8)

    def test_translation_gets_phase_only(self):
        # shifting the state in position leaves |phi(p)|^2 unchanged
        psi0 = gaussian_wavefunction(sigma=1.0)
        psi1 = GridWaveFunction(psi0.q0 + 0.75, psi0.dq, psi0.samples)
        d0 = momentum_transform(psi0).density()
        d1 = momentum_transform(psi1).density()
        assert np.allclose(d0, d1, atol=1e-10)

    def test_requires_power_of_two(self):
        psi = GridWaveFunction(0.0, 0.1, np.ones(100, dtype=complex))
        with pytest.raises(ValueError):
            momentum_transform(psi)

    def test_parseval_per_memory_column(self):
        from quncert.gaussian import epr_grid_wavefunction

        psi = epr_grid_wavefunction(2.0, n_points=2048)
        phi = momentum_transform(psi)
        pos = np.sum(np.abs(psi.samples) ** 2, axis=0) * psi.dq
        mom = np.sum(np.abs(phi.samples) ** 2, axis=0) * phi.dq
        assert np.allclose(pos, mom, atol=1e-10)


def _layout(samples, layout):
    """samples as given ("C"), in Fortran order ("F"), or as a view that
    takes every other row and column of a larger array ("strided")."""
    if layout == "F":
        return np.asfortranarray(samples)
    if layout == "strided":
        n, d = samples.shape
        wide = np.zeros((2 * n, 2 * d), dtype=complex)
        wide[::2, ::2] = samples
        return wide[::2, ::2]
    return samples


def _traced_peak(fn, *args):
    """(fn(*args), the peak bytes traced while it ran)."""
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestSampleLayouts:
    """The momentum transform, the density and omega_B on C-ordered,
    Fortran-ordered and strided samples, against their complex formulas."""

    @staticmethod
    def _psi(n, layout):
        samples = _random_wavefunction(np.random.default_rng(n), n, 3, -1.3, 0.05).samples
        return GridWaveFunction(-1.3, 0.05, _layout(samples, layout)), samples

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    @pytest.mark.parametrize("n", [1, 2, 8, 4096])
    def test_momentum_matches_fftshift_oracle(self, n, layout):
        psi, samples = self._psi(n, layout)
        want = momentum_fftshift(psi.q0, psi.dq, samples)
        assert np.abs(momentum_transform(psi).samples - want).max() <= 1e-15

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    @pytest.mark.parametrize("n", [1, 2, 8, 4096])
    def test_real_view_density_and_marginal(self, n, layout):
        psi, samples = self._psi(n, layout)
        assert psi.samples.flags.c_contiguous
        dens = np.sum(np.abs(samples) ** 2, axis=1)
        assert np.abs(psi.density() - dens).max() <= 1e-15 * dens.max()
        omega = sample_outer_sum(psi.samples, psi.dq)
        want = psi.dq * (samples.T @ samples.conj())
        assert np.abs(omega - want).max() <= 1e-15
        assert np.array_equal(omega, omega.conj().T)


class TestMemoryPeak:
    """Traced peaks of the 32768-point momentum path of the 19-level EPR
    state: the transform writes one (N, d) array."""

    @pytest.fixture(scope="class")
    def psi(self):
        return epr_grid_wavefunction(1.5, n_points=32768)

    def test_momentum_transform_writes_its_output_once(self, psi):
        out, peak = _traced_peak(momentum_transform, psi)
        assert peak <= 1.1 * out.samples.nbytes

    def test_momentum_vn_ladder(self, psi):
        tab, peak = _traced_peak(convergence_ladder, psi, "momentum", "vn", 1)
        assert len(tab.rows) == 2
        assert peak <= 1.25 * psi.samples.nbytes


class TestDiscretizePosition:
    def test_probabilities_sum_to_one(self):
        psi = gaussian_wavefunction(sigma=1.0)
        part = Partition.centered(0.5, psi.grid[0], psi.grid[-1])
        cq = discretize_position(psi, part)
        assert math.isclose(cq.probs.sum(), 1.0, abs_tol=1e-10)

    def test_gaussian_cell_probabilities(self):
        # cell masses of N(0,1) against the error function
        from scipy.stats import norm

        psi = gaussian_wavefunction(sigma=1.0, n_points=16384)
        part = Partition.centered(1.0, psi.grid[0], psi.grid[-1])
        cq = discretize_position(psi, part)
        probs = {lab: p for (lab, _), p in zip(cq.outcomes, cq.probs)}
        center = part.cell_index(0.0)
        expected = norm.cdf(0.5) - norm.cdf(-0.5)
        assert math.isclose(probs[str(center)], expected, abs_tol=1e-6)

    def test_rejects_cells_below_grid_resolution(self):
        psi = gaussian_wavefunction(sigma=1.0, n_points=256)
        part = Partition.centered(psi.dq, psi.grid[0], psi.grid[-1])
        with pytest.raises(ValueError):
            discretize_position(psi, part)

    def test_rejects_partition_narrower_than_the_grid(self):
        psi = gaussian_wavefunction(sigma=1.0, n_points=256)
        with pytest.raises(ValueError, match="partition does not cover the grid support"):
            discretize_position(psi, Partition(1.0, -0.5, -2, 2))

    def test_memory_blocks_psd_and_normalized(self):
        from quncert.gaussian import epr_grid_wavefunction
        from quncert.qstate import validate

        psi = epr_grid_wavefunction(1.5, n_points=2048)
        part = Partition.centered(1.0, psi.grid[0], psi.grid[-1])
        cq = discretize_position(psi, part)
        assert validate(cq)["pass"]


class TestDiscretizeMatchesLoop:
    """The batched binning against a per-cell, per-sample loop."""

    def test_uneven_edge_cells(self):
        # dq does not divide alpha and the grid starts and ends mid-cell, so
        # cells hold 6 or 7 points and the edge cells fewer
        rng = np.random.default_rng(11)
        psi = _random_wavefunction(rng, 211, 3, -3.3, 0.0713)
        part = Partition.centered(0.45, psi.grid[0], psi.grid[-1])
        edges = part.offset + part.alpha * np.arange(part.k_min, part.k_max + 2)
        assert np.abs(psi.grid[:, None] - edges[None, :]).min() > 1e-6
        _assert_matches_loop(psi, part)
        counts = np.bincount(part.cell_index(psi.grid) - part.k_min)
        assert len(set(counts[counts > 0])) > 2

    def test_dyadic_grid_points_on_edges(self):
        # on the EPR grid every cell edge is a grid point; (lo, hi] decides
        from quncert.gaussian import epr_grid_wavefunction

        psi = epr_grid_wavefunction(1.5, n_points=512, memory_dim=4)
        for alpha in (1.0, 0.25):
            _assert_matches_loop(psi, Partition.centered(alpha, psi.grid[0], psi.grid[-1]))

    def test_zero_trace_cells_dropped(self):
        rng = np.random.default_rng(12)
        psi = _random_wavefunction(rng, 160, 2, -4.0, 0.05)
        samples = psi.samples.copy()
        samples[40:75] = 0.0  # a stretch spanning whole cells
        psi = GridWaveFunction(psi.q0, psi.dq, samples)
        part = Partition.centered(0.5, psi.grid[0], psi.grid[-1])
        cq = _assert_matches_loop(psi, part)
        hit = set(str(k) for k in part.cell_index(psi.grid))
        assert len(cq.labels) < len(hit)
        assert np.all(cq.probs > 0.0)

    def test_trivial_memory(self):
        rng = np.random.default_rng(13)
        psi = _random_wavefunction(rng, 128, 1, -2.0, 0.0371)
        cq = _assert_matches_loop(psi, Partition.centered(0.3, psi.grid[0], psi.grid[-1]))
        assert cq.dim == 1

    def test_partition_wider_than_grid(self):
        rng = np.random.default_rng(14)
        psi = _random_wavefunction(rng, 90, 3, -1.0, 0.0227)
        part = Partition(0.2, -0.1, -40, 40)
        cq = _assert_matches_loop(psi, part)
        assert len(cq.labels) < part.k_max - part.k_min + 1

    def test_outcomes_are_hermitian(self):
        rng = np.random.default_rng(15)
        psi = _random_wavefunction(rng, 256, 5, -3.0, 0.031)
        cq = discretize_position(psi, Partition.centered(0.5, psi.grid[0], psi.grid[-1]))
        for op in cq.ops:
            assert np.array_equal(op, op.conj().T)

    def test_ops_are_the_binned_stack(self, monkeypatch):
        # the stack of binned products is handed to the state, not copied
        handed = []
        adopt = CQState.from_stack

        def spy(labels, ops):
            handed.append(ops)
            return adopt(labels, ops)

        monkeypatch.setattr(CQState, "from_stack", spy)
        rng = np.random.default_rng(16)
        psi = _random_wavefunction(rng, 256, 4, -3.0, 0.031)
        cq = discretize_position(psi, Partition.centered(0.5, psi.grid[0], psi.grid[-1]))
        assert len(handed) == 1
        assert np.shares_memory(cq.ops, handed[0])
        assert cq.ops.shape == (len(cq.labels), 4, 4)

    @staticmethod
    def _assert_matches_cells(psi, alpha):
        part = Partition.centered(alpha, psi.grid[0], psi.grid[-1])
        cq = discretize_position(psi, part)
        want = binned_cq(psi.q0, psi.dq, psi.samples, part.alpha, part.offset,
                         part.k_min, part.k_max)
        assert cq.labels == list(want)
        assert np.abs(cq.ops - np.array(list(want.values()))).max() <= 1e-15
        return cq, part

    def test_per_cell_oracle_with_zero_trace_cell(self):
        samples = EPR.samples.copy()
        samples[1000:1100] = 0.0  # spans the cells (-0.25, 0.25] and (0.25, 0.75]
        psi = GridWaveFunction(EPR.q0, EPR.dq, samples)
        cq, part = self._assert_matches_cells(psi, 0.5)
        assert len(cq.labels) < len(np.unique(part.cell_index(psi.grid)))

    def test_per_cell_oracle_on_momentum_grid(self):
        # no momentum grid point lies within rounding of a cell edge
        phi = momentum_transform(EPR)
        cq, part = self._assert_matches_cells(phi, 1.0)
        edges = part.offset + part.alpha * np.arange(part.k_min, part.k_max + 2)
        assert np.abs(phi.grid[:, None] - edges[None, :]).min() > 1e-9
        assert len(cq.labels) > 100


class TestTraceFirstLadder:
    """Ladder rungs against discretize_position and the functional on the
    full binned stack, on the 19-level EPR state."""

    @pytest.mark.parametrize("which, alpha0", [
        pytest.param("position", 4.0, id="position"),
        pytest.param("momentum", 4.0, id="momentum"),
        pytest.param("momentum", 1.0, id="momentum-alpha0-1"),
    ])
    @pytest.mark.parametrize("kind", ["vn", "min", "max"])
    def test_rungs_match_full_stack(self, which, alpha0, kind):
        tab = convergence_ladder(EPR, which, kind, n_max=1, alpha0=alpha0, base="nats")
        psi = momentum_transform(EPR) if which == "momentum" else EPR
        for alpha, value in tab.rows:
            cq = discretize_position(psi, Partition.centered(alpha, psi.grid[0], psi.grid[-1]))
            if kind == "vn":
                full = cond_vn_cq(cq, base="nats").value
                assert abs(value - (full + math.log(alpha))) <= 2.0 * NEGLIGIBLE + 1e-12
                continue
            # the rung is the very solve of the full binned state
            res = (guessing_probability if kind == "min" else decoupling_fidelity)(cq)
            full = (-1.0 if kind == "min" else 1.0) * math.log(res.value)
            assert value == full + math.log(alpha)
            assert (alpha in tab.unconverged) == (not res.converged)
        assert tab.converged

    @pytest.mark.parametrize("which, alpha0, n_max, run_lengths", [
        # cells of 64 and 32 samples (at least the 19 levels), then 16, 8, 4, 2
        ("position", 1.0, 5, [{64}, {32}, {16}, {8}, {4}, {2}]),
        # dp = 2 pi / 32 does not divide alpha: ragged runs
        ("momentum", 2.0, 1, [{10, 11}, {5, 6}]),
    ])
    def test_vn_rungs_equal_full_stack(self, which, alpha0, n_max, run_lengths):
        tab = convergence_ladder(EPR, which, "vn", n_max=n_max, alpha0=alpha0, base="nats")
        psi = momentum_transform(EPR) if which == "momentum" else EPR
        for (alpha, value), lengths in zip(tab.rows, run_lengths):
            part = Partition.centered(alpha, psi.grid[0], psi.grid[-1])
            counts = np.bincount(part.cell_index(psi.grid) - part.k_min)
            assert set(counts[counts > 0][1:-1]) == lengths
            rung = value - math.log(alpha)
            assert abs(rung - cond_vn_cq(discretize_position(psi, part), base="nats").value) <= 1e-12
            blocks = binned_cond_vn_nats(psi.q0, psi.dq, psi.samples, alpha, part.offset,
                                         part.k_min, part.k_max)
            assert abs(rung - blocks) <= 1e-12

    def test_forms_only_kept_cells(self, monkeypatch):
        built, stacked = [], []
        adopt, cell_stack = CQState.from_stack, discretize._Cells.stack

        def spy(labels, ops):
            built.append(len(ops))
            return adopt(labels, ops)

        def stack_spy(cells, keep):
            stacked.append(int(np.count_nonzero(keep)))
            return cell_stack(cells, keep)

        monkeypatch.setattr(CQState, "from_stack", spy)
        monkeypatch.setattr(discretize._Cells, "stack", stack_spy)
        # a vn rung with a memory forms no operator stack
        convergence_ladder(EPR, "momentum", "vn", n_max=0)
        assert built == [] and stacked == []
        # a min or max rung forms the kept cells only, and builds no cq state
        # around them
        phi = momentum_transform(EPR)
        full = discretize_position(phi, Partition.centered(2.0, phi.grid[0], phi.grid[-1]))
        for kind in ("min", "max"):
            keep, _ = minmax._solve(kind, full.probs, lambda keep: full.ops[keep], DEFAULT_TOL)
            kept = int(keep.sum())
            assert kept < len(full.labels)
            built.clear()
            stacked.clear()
            convergence_ladder(EPR, "momentum", kind, n_max=0, alpha0=2.0)
            assert built == [] and stacked == [kept]
        # trivial memory takes the cell traces and forms no operator
        built.clear()
        convergence_ladder(gaussian_wavefunction(1.0, n_points=1024), "position", "vn", n_max=2)
        assert built == []

    def test_forms_omega_b_once_per_vn_ladder(self, monkeypatch):
        calls = []
        outer = discretize.sample_outer_sum
        monkeypatch.setattr(discretize, "sample_outer_sum",
                            lambda *a: calls.append(1) or outer(*a))
        for which, n_max in (("position", 3), ("momentum", 1)):
            calls.clear()
            convergence_ladder(EPR, which, "vn", n_max=n_max)
            assert len(calls) == 1
        # min and max rungs, discretize_position and trivial memory form no omega_B
        calls.clear()
        for kind in ("min", "max"):
            convergence_ladder(EPR, "position", kind, n_max=1, alpha0=4.0)
        discretize_position(EPR, Partition.centered(1.0, EPR.grid[0], EPR.grid[-1]))
        convergence_ladder(gaussian_wavefunction(1.0, n_points=1024), "position", "vn", n_max=2)
        assert calls == []

    @pytest.mark.parametrize("alpha", [1.0, 0.25, 2.0 ** -6])
    def test_rows_carry_their_weights(self, alpha):
        # a source with a weight per sample folds sqrt(w_i) into its rows and
        # takes weight 1: the grid's cells written that way read the same
        psi = epr_grid_wavefunction(1.5, n_points=4096)
        part = Partition.centered(alpha, psi.grid[0], psi.grid[-1])
        cells = discretize._cells(psi, part, psi.density())
        folded = cells._replace(rows=math.sqrt(psi.dq) * psi.samples, weight=1.0)
        keep = qstate.kept_cells(cells.traces, "vn")
        want = cells.stack(keep)
        assert np.abs(folded.stack(keep) - want).max() <= 1e-14 * np.abs(want).max()
        memory = entropy._spectrum(sample_outer_sum(psi.samples, psi.dq))
        want = cells.vn(keep, memory)
        assert abs(folded.vn(keep, memory) - want) <= 1e-14 * abs(want)

    def test_paper_scale_momentum_max_rung_keeps_few_cells(self, caplog):
        # the 32768-point grid puts most of its 12,869 cells at alpha = 1/2
        # in FFT rounding (trace about 1e-30); the tol budget skips them
        psi = epr_grid_wavefunction(1.5, n_points=32768)
        with caplog.at_level(logging.DEBUG, logger="quncert"):
            tab = convergence_ladder(psi, "momentum", "max", n_max=0, alpha0=0.5)
        assert tab.converged
        (rec,) = [r for r in caplog.records if r.name == "quncert"]
        got = re.search(r": (\d+) cells, (\d+) kept,", rec.getMessage())
        assert int(got[1]) > 10000 and int(got[2]) < 100

    def test_logs_one_debug_record_per_rung(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="quncert"):
            tab = convergence_ladder(EPR, "momentum", "vn", n_max=1)
        records = [r for r in caplog.records if r.name == "quncert"]
        assert len(records) == len(tab.rows)
        pattern = (r"momentum vn rung alpha=(\S+): (\d+) cells, (\d+) kept, "
                   r"skipped trace (\S+), (\S+) s")
        for rec, (alpha, _) in zip(records, tab.rows):
            assert rec.levelno == logging.DEBUG
            got = re.fullmatch(pattern, rec.getMessage())
            assert got is not None
            assert float(got[1]) == alpha
            assert 0 < int(got[3]) < int(got[2])
            assert 0.0 <= float(got[4]) <= NEGLIGIBLE
            assert float(got[5]) >= 0.0


@pytest.fixture(scope="module")
def epr_min_max_ladders():
    """The 19-level EPR state's position min ladder at alpha = 1, 1/2, 1/4 and
    max ladder at alpha = 1 .. 1/8 on 4096 points, in bits."""
    psi = epr_grid_wavefunction(1.5, n_points=4096)
    return {kind: convergence_ladder(psi, "position", kind, n_max=n_max, alpha0=1.0)
            for kind, n_max in (("min", 2), ("max", 3))}


class TestEprMinMaxBrackets:
    """The min and max rungs against brackets that need no SDP
    (oracles.epr_rung_brackets_bits): the uncertainty relation with a
    trivial third party from below, homodyne of the memory from above. A
    rung below its lower bound points to the SDP or to the overlap; one
    above its upper bound points to the SDP or to the cells."""

    NU = 1.5

    @pytest.mark.parametrize("kind, rung", [("min", 0), ("min", 1), ("min", 2),
                                            ("max", 0), ("max", 1), ("max", 2), ("max", 3)])
    def test_rung_inside_its_bracket(self, epr_min_max_ladders, kind, rung):
        # the max rungs sit 5.8e-4, 3.2e-5, 1.1e-5 and 1.1e-5 below the homodyne
        # bound. The grid's error is on the safe side: at 8192 and 16384 points
        # the rungs rise by about 7e-6 and then 2e-6 towards it, and a
        # Richardson step puts the continuum rung at alpha = 1/8 about 1e-8
        # below the bound.
        tab = epr_min_max_ladders[kind]
        assert tab.converged
        alpha, value = tab.rows[rung]
        lower, upper = epr_rung_brackets_bits(self.NU, alpha)[kind]
        assert lower <= value <= upper

    def test_brackets_close_on_the_closed_form_limits(self):
        # h_min(Q|B) = log2(pi/nu)/2 is the peak of N(0, 1/(2 nu)), x_A's law
        # given x_B, and h_max(Q|B) = h_min(Q|B) + 1 bit; each bracket
        # narrows about fourfold per halving of alpha
        sigma = 1.0 / math.sqrt(2.0 * self.NU)
        limits = {"min": gaussian_hmin_bits(sigma), "max": gaussian_hmax_bits(sigma)}
        widths = {"min": [], "max": []}
        for alpha in 2.0 ** -np.arange(5):
            for kind, (lower, upper) in epr_rung_brackets_bits(self.NU, alpha).items():
                assert lower <= limits[kind] <= upper
                widths[kind].append(upper - lower)
        for w in widths.values():
            assert np.all(np.diff(np.log2(w)) < -1.7)


class TestConvergenceLadder:
    PSI = gaussian_wavefunction(sigma=1.0)

    @pytest.mark.parametrize("kind,limit", [
        ("vn", gaussian_h_bits(1.0)),
        ("min", gaussian_hmin_bits(1.0)),
        ("max", gaussian_hmax_bits(1.0)),
    ])
    def test_extrapolates_to_differential_value(self, kind, limit):
        tab = convergence_ladder(self.PSI, which="position", kind=kind, n_max=6)
        assert abs(tab.extrapolated - limit) < 1e-4

    def test_momentum_ladder(self):
        # momentum marginal of the sigma=1 Gaussian is N(0, 1/4); the 16 sigma
        # state zero-padded to 32 sigma (the tail it drops is e^-64 of the peak)
        half = gaussian_wavefunction(sigma=1.0, n_points=2048)
        psi = GridWaveFunction(half.q0 - 1024 * half.dq, half.dq,
                               np.pad(half.samples, ((1024, 1024), (0, 0))))
        tab = convergence_ladder(psi, which="momentum", kind="vn", n_max=2,
                                 alpha0=1.0)
        assert abs(tab.values[-1] - gaussian_h_bits(0.5)) < 2e-2

    def test_regularized_values_decrease(self):
        tab = convergence_ladder(self.PSI, which="position", kind="max", n_max=6)
        assert all(np.diff(tab.values) <= 1e-9)

    def test_rungs_are_dyadic(self):
        tab = convergence_ladder(self.PSI, kind="vn", n_max=4, alpha0=2.0)
        assert np.allclose([alpha for alpha, _ in tab.rows], 2.0 * 0.5 ** np.arange(5))

    def test_rejects_too_fine(self):
        with pytest.raises(ValueError):
            convergence_ladder(self.PSI, kind="vn", n_max=12)

    @pytest.mark.parametrize("alpha0", [math.nan, math.inf, -math.inf, 0.0])
    def test_rejects_alpha0_off_the_positive_reals(self, alpha0):
        with pytest.raises(ValueError, match="alpha0"):
            convergence_ladder(self.PSI, kind="vn", n_max=0, alpha0=alpha0)

    @pytest.mark.parametrize("kind", ["vn", "min", "max"])
    def test_rejects_unknown_base_before_any_rung(self, monkeypatch, kind):
        calls = []
        cells = discretize._cells
        monkeypatch.setattr(discretize, "_cells", lambda *a: calls.append(1) or cells(*a))
        psi = gaussian_wavefunction(n_points=256)
        with pytest.raises(ValueError, match="unknown base 'foo'"):
            convergence_ladder(psi, kind=kind, n_max=0, base="foo")
        assert calls == []

    @pytest.mark.parametrize("kind", ["min", "max"])
    @pytest.mark.parametrize("tol", [-1.0, 0.0, math.nan, 0.5])
    def test_rejects_tol_outside_solver_range(self, kind, tol):
        # the range guessing_probability and decoupling_fidelity accept, checked
        # before any rung is solved
        psi = epr_grid_wavefunction(1.5, n_points=512, memory_dim=8)
        with pytest.raises(ValueError, match=re.escape("tol must be in (0, 1e-3]")):
            convergence_ladder(psi, kind=kind, n_max=0, alpha0=4.0, tol=tol)

    def test_memory_ladder_matches_classical_on_product(self):
        # a product wavefunction with 2-dim memory must give the same
        # conditional ladder as the classical fast path (memory independent)
        psi = gaussian_wavefunction(sigma=1.0, n_points=2048)
        mem = np.array([0.8, 0.6], dtype=complex)
        samples = psi.samples[:, 0][:, None] * mem[None, :]
        psi2 = GridWaveFunction(psi.q0, psi.dq, samples)
        t1 = convergence_ladder(psi, kind="vn", n_max=3)
        t2 = convergence_ladder(psi2, kind="vn", n_max=3)
        assert np.allclose(t1.values, t2.values, atol=1e-8)
        assert t1.converged and t2.converged

    @pytest.mark.parametrize("kind", ["min", "max"])
    def test_capped_rungs_are_reported(self, monkeypatch, kind):
        from quncert.gaussian import epr_grid_wavefunction

        psi = epr_grid_wavefunction(1.5, memory_dim=3)
        tab = convergence_ladder(psi, kind=kind, n_max=1, alpha0=8.0)
        assert tab.converged and tab.unconverged == ()
        # the ascent certifies the alpha = 8 rung at its second sweep
        monkeypatch.setattr(minmax, *{"min": ("IPM_MAX_ITER", 2),
                                      "max": ("ASCENT_MAX_SWEEPS", 1)}[kind])
        capped = convergence_ladder(psi, kind=kind, n_max=1, alpha0=8.0)
        assert not capped.converged
        assert capped.unconverged == (8.0, 4.0)


class TestGaussianWavefunction:
    @pytest.mark.parametrize("kwargs, name", [
        ({"n_points": 0}, "n_points"),
        ({"n_points": -4}, "n_points"),
        ({"sigma": 0.0}, "sigma"),
        ({"sigma": -1.0}, "sigma"),
        ({"sigma": -math.inf}, "sigma"),
        ({"sigma": math.inf}, "sigma"),
        ({"sigma": math.nan}, "sigma"),
    ])
    def test_rejects_degenerate_grid(self, kwargs, name):
        with pytest.raises(ValueError, match=name):
            gaussian_wavefunction(**kwargs)

    @pytest.mark.parametrize("sigma", [1e-300, 1e300])
    def test_extreme_sigma_is_the_unit_gaussian_rescaled(self, sigma):
        # sigma^2 under- or overflows; the amplitude is formed from
        # q/sigma and normalized, so psi_sigma(q) * sqrt(sigma) samples the
        # same function of q/sigma as sigma = 1
        psi, unit = gaussian_wavefunction(sigma), gaussian_wavefunction(1.0)
        assert validate(psi)["pass"] and np.isfinite(psi.samples).all()
        assert math.isclose(psi.dq, unit.dq * sigma, rel_tol=1e-15)
        assert np.allclose(psi.samples * math.sqrt(sigma), unit.samples, rtol=1e-12, atol=0.0)
