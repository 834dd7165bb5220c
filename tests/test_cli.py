import json
import logging
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from quncert.cli import MAX_SWEEP_POINTS, main
from quncert.discretize import MAX_POINTS
from quncert.gaussian import FIG2_MAX_ROWS
from quncert.qstate import CQState, DensityMatrix, GridWaveFunction
from quncert.serialize import StateFormatError, load_state, loads_state, save_state
from quncert.verify import MAX_TRIALS, _trial_rng

from oracles import random_cq

BB84 = CQState((("0", 0.5 * np.diag([1.0, 0.0])),
                ("1", 0.5 * np.ones((2, 2)) / 2.0)))

# the cap that leaves a ladder rung's H_min or H_max solve unconverged
CAPS = {"min": ("IPM_MAX_ITER", 2), "max": ("ASCENT_MAX_SWEEPS", 1)}


class TestSerialize:
    def test_density_round_trip(self, tmp_path):
        v = np.array([1.0, 1.0j]) / math.sqrt(2.0)
        rho = DensityMatrix(np.outer(v, v.conj()))
        p = tmp_path / "rho.json"
        save_state(rho, p)
        back = load_state(p)
        assert isinstance(back, DensityMatrix)
        assert np.allclose(back.mat, rho.mat)

    def test_cq_round_trip(self, tmp_path):
        p = tmp_path / "cq.json"
        save_state(BB84, p)
        back = load_state(p)
        assert isinstance(back, CQState)
        assert [lab for lab, _ in back.outcomes] == ["0", "1"]
        for (_, a), (_, b) in zip(back.outcomes, BB84.outcomes):
            assert np.allclose(a, b)

    def test_wavefunction_round_trip(self, tmp_path):
        from quncert.discretize import gaussian_wavefunction

        psi = gaussian_wavefunction(sigma=1.0, n_points=256)
        p = tmp_path / "psi.json"
        save_state(psi, p)
        back = load_state(p)
        assert isinstance(back, GridWaveFunction)
        assert math.isclose(back.dq, psi.dq)
        assert np.allclose(back.samples, psi.samples)

    @pytest.mark.parametrize("field, value", [("q0", math.nan), ("dq", math.nan), ("dq", math.inf)])
    def test_rejects_non_finite_grid_header(self, tmp_path, field, value):
        from quncert.discretize import gaussian_wavefunction

        p = tmp_path / "psi.json"
        save_state(gaussian_wavefunction(n_points=16), p)
        obj = json.loads(p.read_text())
        obj[field] = value
        with pytest.raises(StateFormatError, match=f"bad wavefunction header .*{field}"):
            loads_state(json.dumps(obj))

    @pytest.mark.parametrize("part", ["re", "im"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("kind", ["density", "cq", "wavefunction"])
    def test_rejects_non_finite_matrix_entry(self, tmp_path, kind, value, part):
        # rejected before re + 1j*im is formed: an Infinity there would warn
        from quncert.discretize import gaussian_wavefunction

        state, name = {"density": (DensityMatrix(np.eye(2) / 2.0), "density matrix"),
                       "cq": (BB84, "outcome 0"),
                       "wavefunction": (gaussian_wavefunction(n_points=16), "wavefunction")}[kind]
        p = tmp_path / "state.json"
        save_state(state, p)
        obj = json.loads(p.read_text())
        (obj["outcomes"][0]["state"] if kind == "cq" else obj)[part][1][0] = value
        with pytest.raises(StateFormatError, match=f"^{name}: non-finite entries in re or im$"):
            loads_state(json.dumps(obj))

    def test_rejects_unnormalized_wavefunction(self):
        bad = {"type": "wavefunction", "q0": 0.0, "dq": 0.5, "d": 1,
               "re": [[1.0]] * 4, "im": [[0.0]] * 4}
        with pytest.raises(StateFormatError,
                           match=r"wavefunction violates normalization \(measured 2\.0\)"):
            loads_state(json.dumps(bad))

    def test_rejects_unknown_type(self):
        with pytest.raises(StateFormatError):
            loads_state(json.dumps({"type": "mystery"}))

    @pytest.mark.parametrize("obj, message", [
        ({"type": "density", "re": [[1.0, 0.0], [0.0, 0.0]], "im": [[0.0, 0.0]]},
         "density matrix: re/im shape mismatch"),
        ({"type": "density", "dim": 3, "re": [[1.0, 0.0], [0.0, 0.0]]},
         "declared dim 3 != matrix dim 2"),
        ({"type": "wavefunction", "q0": 0.0, "dq": 0.5, "d": 2, "re": [[1.0]] * 2},
         "declared memory dimension does not match samples"),
    ], ids=["re-im-shape", "density-dim", "wavefunction-d"])
    def test_rejects_shape_mismatch(self, obj, message):
        with pytest.raises(StateFormatError, match=re.escape(message)):
            loads_state(json.dumps(obj))

    def test_save_rejects_unsupported_object(self, tmp_path):
        path = tmp_path / "state.json"
        with pytest.raises(TypeError, match="cannot serialize list"):
            save_state([1.0], path)
        assert list(tmp_path.iterdir()) == []

    def test_rejects_missing_fields(self):
        with pytest.raises(StateFormatError):
            loads_state(json.dumps({"type": "density", "dim": 2}))

    def test_rejects_invariant_violations(self):
        bad = {"type": "density", "dim": 2,
               "re": [[2.0, 0.0], [0.0, 0.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}
        with pytest.raises(StateFormatError) as err:
            loads_state(json.dumps(bad))
        assert "violates" in str(err.value)

    def test_rejects_unnormalized_cq(self):
        bad = {"type": "cq", "outcomes": [
            {"label": "0", "state": {"type": "density", "dim": 1,
                                     "re": [[0.4]], "im": [[0.0]]}}]}
        with pytest.raises(StateFormatError):
            loads_state(json.dumps(bad))


    @pytest.mark.parametrize("targets", [(json, ("dumps", "dump")), (os, ("replace",))],
                             ids=["json", "os.replace"])
    def test_save_state_failure_keeps_old_file(self, tmp_path, monkeypatch, targets):
        # a failure while serializing or while replacing the file leaves the
        # old file byte-identical and no temp file behind
        p = tmp_path / "cq.json"
        save_state(BB84, p)
        before = p.read_bytes()

        def fail(*args, **kwargs):
            raise RuntimeError("interrupted")

        module, names = targets
        for name in names:
            monkeypatch.setattr(module, name, fail)
        v = np.array([1.0, 1.0j]) / math.sqrt(2.0)
        rho = DensityMatrix(np.outer(v, v.conj()))
        with pytest.raises(RuntimeError):
            save_state(rho, p)
        monkeypatch.undo()
        assert p.read_bytes() == before
        assert sorted(os.listdir(tmp_path)) == ["cq.json"]


class TestCLI:
    def test_overlap_point(self, capsys):
        assert main(["overlap", "--delta-q", "1", "--delta-p", "1"]) == 0
        out = capsys.readouterr().out
        assert "delta,c,neg_log2_c" in out
        row = out.strip().splitlines()[-1].split(",")
        assert math.isclose(float(row[1]), 0.15805672744823066, abs_tol=1e-9)

    def test_overlap_of_one_prints_plus_zero(self, capsys):
        # c(20, 20) rounds to 1, and -log2(c) prints as 0, not -0
        assert main(["overlap", "--delta-q", "20", "--delta-p", "20"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "20,1,0"

    def test_overlap_sweep_csv(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(["overlap", "--sweep", "log:0.1:5:10", "--csv", str(out)]) == 0
        lines = out.read_text().splitlines()
        header = [l for l in lines if l.startswith("#")]
        assert any("config:" in h for h in header)
        assert any("base:" in h for h in header)
        rows = [l for l in lines if l and not l.startswith("#")][1:]
        assert len(rows) == 10
        cs = [float(r.split(",")[1]) for r in rows]
        assert all(np.diff(cs) > 0)

    def test_overlap_lin_sweep(self, capsys):
        assert main(["overlap", "--sweep", "lin:1:2:3"]) == 0
        rows = capsys.readouterr().out.splitlines()[-3:]
        assert [float(r.split(",")[0]) for r in rows] == [1.0, 1.5, 2.0]

    @pytest.mark.parametrize("argv", [
        ["overlap", "--delta-q", "1", "--delta-p", "1"],
        ["overlap", "--sweep", "log:0.1:5:3"],
    ])
    def test_overlap_unconverged_exits_1(self, capsys, monkeypatch, argv):
        from quncert import overlap

        # no order doubling, so no point can pass the stability test
        monkeypatch.setattr(overlap, "NYSTROM_CAP", overlap.NYSTROM_START)
        assert main(argv) == 1
        captured = capsys.readouterr()
        rows = captured.out.strip().splitlines()[4:]
        assert rows
        for row in rows:
            assert f"delta={row.split(',')[0]} not converged" in captured.err

    def test_overlap_converged_writes_nothing_to_stderr(self, capsys):
        assert main(["overlap", "--sweep", "log:0.1:5:3"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert len(captured.out.strip().splitlines()) == 7

    def test_seventeen_digit_payload(self, tmp_path):
        out = tmp_path / "gap.csv"
        main(["epr-gap", "--r-min", "0", "--r-max", "1", "--n", "2",
              "--csv", str(out)])
        row = [l for l in out.read_text().splitlines()
               if l and not l.startswith(("#", "r,"))][0]
        gap0 = row.split(",")[2]
        assert math.isclose(float(gap0), math.log2(math.e / 2.0), abs_tol=1e-15)
        digits = gap0.lstrip("-0.").replace(".", "")
        assert len(digits) >= 16  # 17 significant digits requested

    def test_epr_gap_prints_both_bases_and_takes_no_base(self, capsys):
        assert main(["epr-gap", "--n", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1:4] == ["# config: command=epr-gap n=2 r_max=3.0 r_min=0.0",
                              "# base: bits", "r,nu,gap_bits,gap_nats,log10_gap_nats"]
        with pytest.raises(SystemExit):
            main(["epr-gap", "--base", "nats"])

    def test_deterministic_outputs(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for p in (a, b):
            main(["ladder", "--kind", "min", "--n-max", "3", "--csv", str(p)])
        assert a.read_bytes() == b.read_bytes()

    def test_atomic_write_leaves_no_temp(self, tmp_path):
        out = tmp_path / "out.csv"
        main(["overlap", "--delta-q", "1", "--delta-p", "1", "--csv", str(out)])
        assert out.exists()
        assert [f for f in os.listdir(tmp_path) if f != "out.csv"] == []

    def test_entropy_subcommand(self, tmp_path, capsys):
        state = tmp_path / "cq.json"
        save_state(BB84, state)
        assert main(["entropy", "--state", str(state), "--measure", "hmin"]) == 0
        payload = json.loads(capsys.readouterr().out.strip())
        expected = -math.log2(0.5 + math.sqrt(2.0) / 4.0)
        assert math.isclose(payload["value"], expected, abs_tol=1e-7)
        assert payload["base"] == "bits"
        assert payload["gap"] < 1e-7

    def test_entropy_hmin_one_outcome_prints_plus_zero(self, tmp_path, capsys):
        # P_guess = 1 when the label is certain, and H_min = +0.0, not -0.0
        from quncert.minmax import h_min_cq

        cq = CQState((("0", np.eye(2) / 2.0),))
        assert math.copysign(1.0, h_min_cq(cq).value) == 1.0
        state = tmp_path / "cq.json"
        save_state(cq, state)
        assert main(["entropy", "--state", str(state), "--measure", "hmin"]) == 0
        out = capsys.readouterr().out
        assert '"value": 0.0' in out
        assert math.copysign(1.0, json.loads(out)["value"]) == 1.0

    def test_entropy_vn_of_pure_density_prints_plus_zero(self, tmp_path, capsys):
        state = tmp_path / "rho.json"
        state.write_text('{"type": "density", "re": [[1]]}')
        assert main(["entropy", "--state", str(state), "--measure", "vn"]) == 0
        out = capsys.readouterr().out
        assert '"value": 0.0' in out and "-0.0" not in out

    def test_entropy_hmax_one_outcome_prints_zero(self, tmp_path, capsys):
        state = tmp_path / "cq.json"
        save_state(CQState((("0", np.eye(2) / 2.0),)), state)
        assert main(["entropy", "--state", str(state), "--measure", "hmax"]) == 0
        assert json.loads(capsys.readouterr().out)["value"] == 0.0

    def test_entropy_hmax_reports_certificate(self, tmp_path, capsys):
        state = tmp_path / "cq.json"
        save_state(BB84, state)
        assert main(["entropy", "--state", str(state), "--measure", "hmax"]) == 0
        payload = json.loads(capsys.readouterr().out.strip())
        assert payload["converged"] is True
        assert payload["gap"] <= 1e-7
        assert payload["iterations"] > 0

    def test_entropy_hmax_capped_solve_exits_1(self, tmp_path, capsys, monkeypatch):
        from quncert import minmax

        # the ascent solves BB84's two pure cells in one sweep, and this
        # state in four; three leave a gap of about 1e-6
        state = tmp_path / "cq.json"
        save_state(random_cq(_trial_rng(75, 0), 3, 3), state)
        monkeypatch.setattr(minmax, "ASCENT_MAX_SWEEPS", 3)
        assert main(["entropy", "--state", str(state), "--measure", "hmax"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        payload = json.loads(captured.err.strip())
        assert payload["converged"] is False
        assert payload["iterations"] == 3
        assert payload["gap"] > 1e-7

    def test_entropy_hmax_epr_memory(self, tmp_path, capsys):
        from quncert.discretize import Partition, discretize_position
        from quncert.gaussian import epr_grid_wavefunction

        psi = epr_grid_wavefunction(1.5, memory_dim=3)
        cq = discretize_position(psi, Partition.centered(8.0, psi.grid[0], psi.grid[-1]))
        state = tmp_path / "epr.json"
        save_state(cq, state)
        assert main(["entropy", "--state", str(state), "--measure", "hmax"]) == 0
        payload = json.loads(capsys.readouterr().out.strip())
        assert payload["converged"] is True
        assert payload["gap"] <= 1e-7
        assert 0.0 < payload["value"] < 1e-3

    @pytest.mark.parametrize("measure, base, tol", [
        ("hmin", "bits", 1e-7), ("hmin", "nats", 1e-9), ("hmax", "bits", 1e-7),
        ("hmax", "nats", 1e-9)])
    def test_entropy_matches_library(self, tmp_path, capsys, measure, base, tol):
        # the command and h_min_cq / h_max_cq take one route from the solve
        from quncert.discretize import Partition, discretize_position
        from quncert.gaussian import epr_grid_wavefunction
        from quncert.minmax import h_max_cq, h_min_cq

        psi = epr_grid_wavefunction(1.5, memory_dim=3)
        state = tmp_path / "epr.json"
        save_state(discretize_position(psi, Partition.centered(2.0, psi.grid[0], psi.grid[-1])),
                   state)
        assert main(["entropy", "--state", str(state), "--measure", measure, "--base", base,
                     "--tol", str(tol)]) == 0
        payload = json.loads(capsys.readouterr().out)
        want = (h_min_cq if measure == "hmin" else h_max_cq)(load_state(state), tol, base)
        assert payload["value"] == want.value and payload["base"] == want.base

    @staticmethod
    def _epr_ladder_argv(tmp_path, kind):
        from quncert.gaussian import epr_grid_wavefunction

        state = tmp_path / "epr.json"
        save_state(epr_grid_wavefunction(1.5, memory_dim=3), state)
        # alpha = 8 and 4: 3 and 5 cells kept, so both rungs run the SDP
        return ["ladder", "--input", str(state), "--kind", kind,
                "--alpha0", "8", "--n-max", "1"]

    @pytest.mark.parametrize("kind", ["min", "max"])
    def test_ladder_capped_solve_exits_1(self, tmp_path, capsys, monkeypatch, kind):
        from quncert import minmax

        argv = self._epr_ladder_argv(tmp_path, kind)
        # the ascent certifies the alpha = 8 rung at its second sweep
        monkeypatch.setattr(minmax, *CAPS[kind])
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert len(captured.out.strip().splitlines()) == 7
        for alpha in ("8", "4"):
            assert f"{kind} rung at alpha={alpha} not converged" in captured.err

    @pytest.mark.parametrize("kind", ["min", "max"])
    def test_ladder_converged_exits_0(self, tmp_path, capsys, kind):
        assert main(self._epr_ladder_argv(tmp_path, kind)) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert len(captured.out.strip().splitlines()) == 7

    @pytest.mark.parametrize("measure", ["hmin", "hmax"])
    def test_entropy_rejects_bad_tol(self, tmp_path, capsys, measure):
        state = tmp_path / "cq.json"
        save_state(BB84, state)
        assert main(["entropy", "--state", str(state), "--measure", measure,
                     "--tol", "0"]) == 2
        assert "tol" in capsys.readouterr().err

    def test_entropy_vn_nats(self, tmp_path, capsys):
        state = tmp_path / "cq.json"
        save_state(BB84, state)
        assert main(["entropy", "--state", str(state), "--measure", "vn",
                     "--base", "nats"]) == 0
        payload = json.loads(capsys.readouterr().out.strip())
        assert payload["base"] == "nats"

    def test_validation_error_exit_code(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert main(["entropy", "--state", str(missing), "--measure", "vn"]) == 2
        assert "error" in capsys.readouterr().err

    def test_corrupt_state_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["entropy", "--state", str(bad), "--measure", "vn"]) == 2

    def test_verify_subcommand(self, capsys):
        rc = main(["verify", "--relation", "vn-tripartite",
                   "--trials", "3", "--seed", "0"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out.strip())
        assert payload["passed"] is True
        assert payload["instances"] == 3

    def test_verify_json_output(self, tmp_path):
        out = tmp_path / "rep.json"
        main(["verify", "--relation", "operator-lemmas", "--trials", "2",
              "--seed", "1", "--json", str(out)])
        text = out.read_text()
        body = "\n".join(l for l in text.splitlines() if not l.startswith("#"))
        assert json.loads(body)["passed"] is True

    def test_ladder_from_wavefunction_file(self, tmp_path, capsys):
        from quncert.discretize import gaussian_wavefunction

        psi = gaussian_wavefunction(sigma=1.0, n_points=1024)
        f = tmp_path / "psi.json"
        save_state(psi, f)
        assert main(["ladder", "--input", str(f), "--kind", "vn",
                     "--n-max", "2"]) == 0
        out = capsys.readouterr().out
        assert "alpha,H_reg,entropy_kind,base" in out

    def test_ladder_header_echoes_the_grid_it_ran(self, tmp_path, capsys):
        # the default Gaussian's sigma and n_points are echoed; a file's grid
        # comes from the file, and the header names neither
        assert main(["ladder", "--n-max", "0"]) == 0
        assert capsys.readouterr().out.splitlines()[1] == (
            "# config: alpha0=1.0 base=bits command=ladder kind=vn n_max=0 n_points=4096 "
            "sigma=1.0 which=position")
        f = tmp_path / "psi.json"
        save_state(GridWaveFunction(-2.0, 0.5, np.ones(8, dtype=complex)).normalized(), f)
        assert main(["ladder", "--input", str(f), "--n-max", "0"]) == 0
        assert capsys.readouterr().out.splitlines()[1] == (
            f"# config: alpha0=1.0 base=bits command=ladder input={f} kind=vn n_max=0 "
            "which=position")

    def test_ladder_stdout_unchanged_by_debug_log(self, capsys, caplog):
        argv = ["ladder", "--n-points", "1024", "--n-max", "2"]
        assert main(argv) == 0
        quiet = capsys.readouterr().out
        with caplog.at_level(logging.DEBUG, logger="quncert"):
            assert main(argv) == 0
        assert capsys.readouterr().out == quiet
        assert len(caplog.records) == 3

    def test_ladder_rejects_negative_n_max(self, capsys):
        assert main(["ladder", "--n-points", "256", "--n-max", "-1"]) == 2
        assert "n_max" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, name", [
        (["--n-points", "0"], "n_points"),
        (["--sigma", "0", "--n-max", "0"], "sigma"),
    ], ids=["n-points-0", "sigma-0"])
    def test_ladder_rejects_degenerate_gaussian(self, capsys, flags, name):
        assert main(["ladder", *flags]) == 2
        assert name in capsys.readouterr().err

    @pytest.mark.parametrize("relation, dims, count", [
        ("minmax-tripartite", ["2"], 3),
        ("minmax-tripartite", ["2", "2", "2", "2"], 3),
        ("vn-tripartite", ["2", "2"], 3),
        ("frank-lieb", ["2"], 2),
        ("dilation", ["2"], 2),
        ("frank-lieb", ["2", "2", "7"], 2),
        ("dilation", ["2", "2", "7"], 2),
    ])
    def test_verify_rejects_wrong_dims_arity(self, capsys, relation, dims, count):
        assert main(["verify", "--relation", relation, "--dims", *dims, "--trials", "1"]) == 2
        assert f"dims must give {count} dimensions" in capsys.readouterr().err

    def test_ladder_of_tiny_sigma_exits_0(self, capsys):
        # sigma^2 = 1e-600 underflows; one cell holds the whole Gaussian
        assert main(["ladder", "--sigma", "1e-300", "--n-max", "0"]) == 0
        assert "\n1,0,vn,bits\n" in capsys.readouterr().out

    def test_verify_oversize_dims_exit_2(self, capsys):
        # numpy would try to allocate 14.6 TiB for the state of these dims
        assert main(["verify", "--relation", "vn-tripartite", "--dims", "100", "100", "100",
                     "--trials", "1"]) == 2
        assert "total dimension 1000000" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        ("[1, 2]", "bad state file"),
        ('{"type": "wavefunction", "q0": [1], "dq": 0.1, "re": [[1.0]]}',
         "bad wavefunction header"),
        ('{"type": "density", "dim": [2], "re": [[1.0, 0.0], [0.0, 0.0]]}',
         "bad density matrix"),
    ], ids=["list", "wavefunction-q0-list", "density-dim-list"])
    def test_malformed_state_file_exits_2(self, tmp_path, capsys, text, message):
        path = tmp_path / "state.json"
        path.write_text(text)
        assert main(["entropy", "--state", str(path), "--measure", "vn"]) == 2
        assert f"error: {message} (" in capsys.readouterr().err

    @pytest.mark.parametrize("relation, dims", [
        ("minmax-tripartite", ["--dims", "2", "2", "2"]),
        ("vn-tripartite", ["--dims", "2", "2", "2"]),
        ("frank-lieb", ["--dims", "2", "2"]),
        ("dilation", ["--dims", "2", "2"]),
        ("operator-lemmas", []),
    ], ids=["minmax-tripartite", "vn-tripartite", "frank-lieb", "dilation", "operator-lemmas"])
    def test_verify_rejects_zero_trials(self, capsys, relation, dims):
        assert main(["verify", "--relation", relation, *dims,
                     "--trials", "0"]) == 2
        assert "trials must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("relation, dims", [("frank-lieb", []), ("dilation", []),
                                                ("minmax-tripartite", [])])
    def test_verify_default_dims_are_the_checkers(self, capsys, relation, dims):
        assert main(["verify", "--relation", relation, *dims, "--trials", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["passed"] is True

    @pytest.mark.parametrize("relation, dims, cap", [
        ("minmax-tripartite", ["--dims", "3", "3", "3"], 3),
        ("operator-lemmas", [], 3),
    ])
    def test_verify_capped_solve_exits_1(self, capsys, monkeypatch, relation, dims, cap):
        from quncert import minmax

        monkeypatch.setattr(minmax, "IPM_MAX_ITER", cap)
        assert main(["verify", "--relation", relation, *dims, "--trials", "3",
                     "--seed", "1"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["unconverged"] > 0
        assert payload["passed"] is False

    @pytest.mark.parametrize("argv, message", [
        (["overlap", "--sweep", "bad:1"], "bad sweep spec"),
        (["overlap", "--sweep", "log:1:2:x"], "bad sweep spec"),
        (["overlap", "--sweep", "cubic:1:2:3"], "unknown sweep kind"),
        (["overlap"], "need --delta-q and --delta-p"),
        (["overlap", "--delta-q", "1"], "need --delta-q and --delta-p"),
        (["verify", "--relation", "nope"], "unknown relation"),
        (["verify", "--relation", "operator-lemmas", "--dims", "9", "9", "9", "9"],
         "operator-lemmas runs on fixed qubit pairs and takes no --dims"),
        (["entropy", "--state", "{psi}", "--measure", "vn"], "vn needs a density or cq"),
        (["entropy", "--state", "{psi}", "--measure", "hmin"], "hmin needs a cq state"),
        (["entropy", "--state", "{rho}", "--measure", "hmax"], "hmax needs a cq state"),
        (["ladder", "--input", "{cq}"], "ladder input must be a wavefunction"),
        (["overlap", "--delta-q", "nan", "--delta-p", "1"], "spacings must be positive and finite"),
        (["overlap", "--delta-q", "1", "--delta-p", "inf"], "spacings must be positive and finite"),
        (["overlap", "--delta-q", "1e-300", "--delta-p", "1e-300"],
         "spacings 1e-300 and 1e-300 too small"),
        (["overlap", "--delta-q", "1e200", "--delta-p", "1e200"],
         "spacings 1e+200 and 1e+200 too large: their product overflows"),
        (["ladder", "--n-points", "256", "--alpha0", "nan"], "alpha0 must be positive and finite"),
        (["ladder", "--n-points", "256", "--alpha0", "inf"], "alpha0 must be positive and finite"),
        (["ladder", "--sigma", "inf", "--n-max", "0"], "sigma must be positive and finite"),
        (["verify", "--relation", "vn-tripartite", "--dims", "0", "2", "2"],
         "dims must each be at least 1, got [0, 2, 2]"),
        (["verify", "--relation", "frank-lieb", "--dims", "2", "-1"],
         "dims must each be at least 1, got [2, -1]"),
        (["verify", "--relation", "vn-tripartite", "--seed", "-1"],
         "seed must be non-negative, got -1"),
        (["overlap", "--sweep", "lin:1:2:0"], "sweep count n must be at least 1, got 0"),
        (["epr-gap", "--n", "0"], "row count n must be at least 1, got 0"),
        (["epr-gap", "--r-min", "nan", "--n", "3"], "squeezing r must be finite, got r_lo=nan"),
        (["epr-gap", "--r-max", "400", "--n", "2"], "squeezing r=400.0 too large"),
        (["epr-gap", "--r-max", "inf"], "squeezing r must be finite, got r_lo=0.0, r_hi=inf"),
        (["overlap", "--sweep", "log:-1:1:3"],
         "sweep ends must be positive and finite, got -1.0 and 1.0 in 'log:-1:1:3'"),
        (["overlap", "--sweep", "log:0:1:3"],
         "sweep ends must be positive and finite, got 0.0 and 1.0 in 'log:0:1:3'"),
        (["overlap", "--sweep", "lin:1:inf:3"],
         "sweep ends must be positive and finite, got 1.0 and inf in 'lin:1:inf:3'"),
        (["overlap", "--sweep", "log:1:2:3", "--delta-q", "1"],
         "--sweep sets both spacings and takes no --delta-q or --delta-p"),
        (["overlap", "--sweep", "log:1:2:3", "--delta-p", "1"],
         "--sweep sets both spacings and takes no --delta-q or --delta-p"),
        (["overlap", "--sweep", f"log:1:2:{MAX_SWEEP_POINTS + 1}"],
         f"sweep count n must be at most {MAX_SWEEP_POINTS}, got {MAX_SWEEP_POINTS + 1}"),
        (["epr-gap", "--n", str(FIG2_MAX_ROWS + 1)],
         f"row count n must be at most {FIG2_MAX_ROWS}, got {FIG2_MAX_ROWS + 1}"),
        (["ladder", "--n-points", str(MAX_POINTS + 1)],
         f"n_points must be at most {MAX_POINTS}, got {MAX_POINTS + 1}"),
        (["entropy", "--state", "{inf}", "--measure", "vn"],
         "density matrix: non-finite entries in re or im"),
        (["ladder", "--input", "{psi}", "--sigma", "2"],
         "--input sets the grid and takes no --sigma or --n-points"),
        (["ladder", "--input", "{psi}", "--n-points", "64"],
         "--input sets the grid and takes no --sigma or --n-points"),
        (["verify", "--relation", "operator-lemmas", "--trials", str(MAX_TRIALS + 1)],
         f"trials must be at most {MAX_TRIALS}, got {MAX_TRIALS + 1}"),
    ], ids=["sweep-arity", "sweep-count", "sweep-kind", "no-spacing", "one-spacing",
            "relation", "lemmas-dims", "vn-wavefunction", "hmin-wavefunction", "hmax-density",
            "ladder-cq", "overlap-nan", "overlap-inf", "overlap-underflow", "overlap-overflow",
            "ladder-alpha0-nan",
            "ladder-alpha0-inf", "ladder-sigma-inf", "verify-dims-0", "verify-dims-negative",
            "verify-seed-negative", "sweep-count-0", "epr-gap-n-0", "epr-gap-nan",
            "epr-gap-r-overflow", "epr-gap-r-inf", "sweep-log-negative", "sweep-log-zero",
            "sweep-lin-inf", "sweep-with-delta-q", "sweep-with-delta-p", "sweep-count-cap",
            "epr-gap-n-cap", "ladder-n-points-cap", "entropy-infinity", "input-with-sigma",
            "input-with-n-points", "verify-trials-cap"])
    def test_validation_error_exits_2(self, tmp_path, capsys, argv, message):
        from quncert.discretize import gaussian_wavefunction

        files = {"psi": tmp_path / "psi.json", "rho": tmp_path / "rho.json",
                 "cq": tmp_path / "cq.json", "inf": tmp_path / "inf.json"}
        save_state(gaussian_wavefunction(n_points=256), files["psi"])
        save_state(DensityMatrix(np.eye(2) / 2.0), files["rho"])
        save_state(BB84, files["cq"])
        files["inf"].write_text('{"type": "density", "re": [[Infinity, 0], [0, 0.5]]}')
        assert main([a.format(**files) for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        # the error line alone: no traceback and no numpy warning
        assert err.count("\n") == 1

    @pytest.mark.parametrize("ops", [
        [[[0.5]], [[0.25, 0.0], [0.0, 0.25]]],
        [[0.5, 0.0], [0.0, 0.5]],
        [0.5, 0.5],
    ], ids=["mismatched", "one-dim", "scalar"])
    def test_malformed_cq_file_exits_2(self, tmp_path, capsys, ops):
        f = tmp_path / "cq.json"
        f.write_text(json.dumps({"type": "cq", "outcomes": [
            {"label": str(x), "state": {"re": op}} for x, op in enumerate(ops)]}))
        assert main(["entropy", "--state", str(f), "--measure", "vn"]) == 2
        assert "error" in capsys.readouterr().err

    def test_console_script_installed(self):
        r = subprocess.run([sys.executable, "-m", "quncert.cli", "--help"],
                           capture_output=True, text=True)
        assert r.returncode == 0
        for sub in ("overlap", "epr-gap", "ladder", "entropy", "verify"):
            assert sub in r.stdout
