import json
import os

import pytest

from subspace_bounds.cli import main


def run(args):
    return main(args)


class TestBoundCommand:
    def test_hs_two_point_json(self, tmp_path):
        out = tmp_path / "bound.json"
        code = run(
            ["bound", "hs", "--spectrum", "spike:2,1,1,2", "--n", "8", "--delta", "1",
             "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["value"] == pytest.approx(1.0 / 6.0, abs=1e-12)
        assert payload["schema"] == 1

    def test_excess_exp_family_auto_mu(self, tmp_path):
        out = tmp_path / "excess.json"
        code = run(
            ["bound", "excess", "--spectrum", "exp:1,10", "--d", "3", "--n", "1000",
             "--mu", "auto", "--out", str(out)]
        )
        assert code == 0
        assert json.loads(out.read_text())["value"] > 0

    def test_missing_n_is_usage_error(self):
        assert run(["bound", "hs", "--spectrum", "spike:2,1,1,2"]) == 2

    def test_bad_spectrum_is_usage_error(self):
        assert run(["bound", "hs", "--spectrum", "nope:1", "--n", "4"]) == 2

    def test_precondition_failure_is_exit_3(self):
        # flat leading block: the excess bound's separation assumption fails
        assert (
            run(["bound", "excess", "--spectrum", "spike:2,2,1,4", "--n", "10"]) == 3
        )

    def test_relrank_condition_not_met_is_exit_3(self):
        assert run(["bound", "relrank", "--spectrum", "spike:2,1,1,2", "--n", "4"]) == 3

    def test_canonical_kind(self, tmp_path):
        out = tmp_path / "canon.json"
        code = run(
            ["bound", "canonical", "--spectrum", "spike:2,1,1,2", "--n", "8",
             "--out", str(out)]
        )
        assert code == 0
        assert json.loads(out.read_text())["value"] == pytest.approx(1 / 6, abs=1e-12)

    def test_delta_auto(self, tmp_path):
        out = tmp_path / "auto.json"
        code = run(
            ["bound", "hs", "--spectrum", "spike:3,1,2,5", "--n", "20",
             "--delta", "auto", "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["params"]["delta"] > 0
        assert payload["value"] > 0

    def test_csv_format(self, tmp_path):
        out = tmp_path / "bound.csv"
        code = run(
            ["bound", "denoise", "--spectrum", "spike:3,0,1,4", "--sigma", "1.0",
             "--format", "csv", "--out", str(out)]
        )
        assert code == 0
        text = out.read_bytes().decode("utf-8")
        assert text.startswith("kind,p,d,param,value")
        assert "\r\n" in text


class TestVerifyCommand:
    def test_fisher_limit_passes(self, tmp_path):
        out = tmp_path / "fisher.json"
        code = run(
            ["verify", "fisher-limit", "--spectrum", "spike:2,1,1,2", "--n", "3",
             "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["status"] == "PASS"
        assert "1.5" in payload["checks"][0]["detail"]

    def test_derivatives_pass(self):
        assert run(["verify", "derivatives", "--p", "5", "--trials", "3", "--seed", "1"]) == 0

    def test_loss_identity_passes(self):
        assert run(["verify", "loss-identity", "--p", "6", "--trials", "25", "--seed", "2"]) == 0

    def test_lp_oracle_passes(self):
        assert run(["verify", "lp-oracle", "--trials", "60", "--seed", "7"]) == 0

    def test_unknown_suite_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run(["verify", "everything"])
        assert exc.value.code == 2


class TestSimulateCommand:
    ARGS = ["simulate", "--loss", "hs", "--spectrum", "spike:4,1,2,6", "--n", "100",
            "--reps", "400", "--seed", "1"]

    def test_row_written_with_positive_margin(self, tmp_path):
        out = tmp_path / "sim.csv"
        code = run(self.ARGS + ["--out", str(out)])
        assert code == 0
        lines = out.read_bytes().decode("utf-8").split("\r\n")
        assert lines[0].startswith("model,p,d,n_or_sigma,loss,mean,se")
        fields = lines[1].split(",")
        assert fields[0] == "cov"
        assert float(fields[10]) >= -3.0  # margin_sigmas

    def test_zero_reps_is_usage_error(self):
        assert run(
            ["simulate", "--loss", "hs", "--spectrum", "spike:4,1,2,6", "--n", "100",
             "--reps", "0", "--seed", "1"]
        ) == 2

    def test_repeat_appends_identical_row(self, tmp_path):
        out = tmp_path / "sim.csv"
        run(self.ARGS + ["--out", str(out)])
        run(self.ARGS + ["--out", str(out)])
        lines = [l for l in out.read_bytes().decode("utf-8").split("\r\n") if l]
        assert lines[1] == lines[2]

    def test_seed_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SUBSPACE_BOUNDS_SEED", "1")
        out = tmp_path / "env.csv"
        args = [a for a in self.ARGS if a not in ("--seed", "1")] + ["--out", str(out)]
        code = run(args)
        assert code == 0
        explicit = tmp_path / "explicit.csv"
        run(self.ARGS + ["--out", str(explicit)])
        assert out.read_bytes() == explicit.read_bytes()

    def test_non_integer_seed_env_is_usage_error(self, monkeypatch, capsys):
        monkeypatch.setenv("SUBSPACE_BOUNDS_SEED", "abc")
        args = [a for a in self.ARGS if a not in ("--seed", "1")]
        assert run(args) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == ["error: SUBSPACE_BOUNDS_SEED must be an integer, got 'abc'"]

    def test_sweep_cap_is_one_line_exit_5(self, monkeypatch, capsys):
        import subspace_bounds.linalg as linalg

        monkeypatch.setattr(linalg, "MAX_SWEEPS", 1)
        assert run(self.ARGS) == 5
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("not converged: Jacobi eigensolver reached the 1-sweep cap")

    def test_denoise_model_route(self, tmp_path):
        out = tmp_path / "den.csv"
        code = run(
            ["simulate", "--loss", "hs", "--spectrum", "spike:10,0,1,4", "--sigma", "1",
             "--reps", "400", "--seed", "5", "--out", str(out)]
        )
        assert code == 0
        assert out.read_bytes().decode("utf-8").split("\r\n")[1].split(",")[0] == "denoise"


class TestReportCommand:
    def test_exponential_sweep(self, tmp_path):
        out = tmp_path / "exp.csv"
        code = run(
            ["report", "--family", "exp", "--alpha", "1", "--p", "40", "--n", "1000000",
             "--d-min", "3", "--d-max", "12", "--out", str(out)]
        )
        assert code == 0
        lines = [l for l in out.read_bytes().decode("utf-8").split("\r\n") if l]
        assert len(lines) == 11  # header + 10 rows

    def test_polynomial_sweep(self, tmp_path):
        out = tmp_path / "poly.csv"
        code = run(
            ["report", "--family", "poly", "--alpha", "1", "--p", "40", "--n", "1000000",
             "--d-min", "3", "--d-max", "12", "--out", str(out)]
        )
        assert code == 0

    def test_empty_grid_is_usage_error(self):
        assert run(
            ["report", "--family", "exp", "--p", "40", "--n", "1000", "--d-min", "5",
             "--d-max", "4"]
        ) == 2

    def test_simulated_columns_appended(self, tmp_path):
        out = tmp_path / "sweep_sim.csv"
        code = run(
            ["report", "--family", "exp", "--alpha", "1", "--p", "6", "--n", "200",
             "--d-min", "2", "--d-max", "3", "--simulate", "60", "--seed", "3",
             "--out", str(out)]
        )
        lines = [l for l in out.read_bytes().decode("utf-8").split("\r\n") if l]
        assert lines[0].endswith("risk,se")
        assert len(lines) == 3
        assert code in (0, 4)  # a two-point grid may not fit the decay slope


class TestDeterminism:
    def test_bound_artifact_bytes_stable(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["bound", "hs", "--spectrum", "exp:0.5,8", "--d", "2", "--n", "50"]
        run(args + ["--out", str(a)])
        run(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_simulate_workers_do_not_change_bytes(self, tmp_path):
        rows = []
        for workers, name in ((1, "w1.csv"), (2, "w2.csv")):
            out = tmp_path / name
            run(
                ["simulate", "--loss", "excess", "--spectrum", "spike:4,1,2,6", "--n", "80",
                 "--reps", "600", "--seed", "9", "--workers", str(workers), "--out", str(out)]
            )
            rows.append(out.read_bytes())
        assert rows[0] == rows[1]
