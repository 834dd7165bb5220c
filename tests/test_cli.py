import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from quncert.cli import main
from quncert.qstate import CQState, DensityMatrix, GridWaveFunction
from quncert.serialize import StateFormatError, load_state, loads_state, save_state


BB84 = CQState((("0", 0.5 * np.diag([1.0, 0.0])),
                ("1", 0.5 * np.ones((2, 2)) / 2.0)))


class TestSerialize:
    def test_density_round_trip(self, tmp_path):
        rho = DensityMatrix.pure(np.array([1.0, 1.0j]) / math.sqrt(2.0))
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

    def test_rejects_unknown_type(self):
        with pytest.raises(StateFormatError):
            loads_state(json.dumps({"type": "mystery"}))

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
        rho = DensityMatrix.pure(np.array([1.0, 1.0j]) / math.sqrt(2.0))
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

        state = tmp_path / "cq.json"
        save_state(BB84, state)
        monkeypatch.setattr(minmax, "IPM_MAX_ITER", 3)
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
        monkeypatch.setattr(minmax, "IPM_MAX_ITER", 2)
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
        (["entropy", "--state", "{psi}", "--measure", "vn"], "vn needs a density or cq"),
        (["entropy", "--state", "{psi}", "--measure", "hmin"], "hmin needs a cq state"),
        (["entropy", "--state", "{rho}", "--measure", "hmax"], "hmax needs a cq state"),
        (["ladder", "--input", "{cq}"], "ladder input must be a wavefunction"),
    ], ids=["sweep-arity", "sweep-count", "sweep-kind", "no-spacing", "one-spacing",
            "relation", "vn-wavefunction", "hmin-wavefunction", "hmax-density",
            "ladder-cq"])
    def test_validation_error_exits_2(self, tmp_path, capsys, argv, message):
        from quncert.discretize import gaussian_wavefunction

        files = {"psi": tmp_path / "psi.json", "rho": tmp_path / "rho.json",
                 "cq": tmp_path / "cq.json"}
        save_state(gaussian_wavefunction(n_points=256), files["psi"])
        save_state(DensityMatrix(np.eye(2) / 2.0), files["rho"])
        save_state(BB84, files["cq"])
        assert main([a.format(**files) for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

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
