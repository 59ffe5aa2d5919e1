import collections
import dataclasses
import enum
import io
import json
import math
import os
import pathlib
import re
import shlex
import subprocess
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subspace_bounds import bounds, exp_spectrum, verify
from subspace_bounds.cli import READS, SIMULATE_COLUMNS, TAKES, _json_text, main

# Args, artifact and stdout of two `verify` commands per suite, as the CLI
# wrote them while it still ran each suite's loops itself.  The fisher-limit
# rows were re-saved when the eigensolver became LAPACK's eigh and the Fisher
# information moved to ratio form; their floats moved by under 1e-11 relative.
# They were re-saved again, with "derivatives seed 1", when the limit moved
# to D = log(1 + chi2) and the rotations to one Hermitian eigensolve each.
# "lp-oracle seed 1" was re-saved when the LP oracle became one block-diagonal
# LP per block of programs: its max |flow - lp| went from 8.882e-16 to 4.441e-16.
# It was re-saved again when the flow solver began to reverse the columns: its
# max |flow - lp| and its max duality gap both went from 4.441e-16 to 1.110e-16.
VERIFY_GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "data" / "verify_golden.json").read_text(encoding="utf-8")
)
README = pathlib.Path(__file__).parent.parent / "README.md"


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

    @pytest.mark.parametrize(
        "spectrum, extra",
        [
            ("exp:1,nan", []),
            ("exp:1,inf", []),
            ("{bad", []),
            ('{"lambdas": [2, 1]}', []),
            ('{"lambdas": "ab", "d": 1}', []),
            ("exp:1,4.7", ["--d", "2"]),
            ("spike:2,1,1.9,3", []),
            ('{"lambdas": [2, 1], "d": 1.5}', []),
            ("exp:a,10", []),
        ],
    )
    def test_malformed_spectrum_is_one_line_usage_error(self, spectrum, extra, capsys):
        assert run(["bound", "hs", "--spectrum", spectrum, *extra, "--n", "4"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_precondition_failure_is_exit_3(self):
        # flat leading block: the excess bound's separation assumption fails
        assert (
            run(["bound", "excess", "--spectrum", "spike:2,2,1,4", "--n", "10"]) == 3
        )

    def test_negative_denoise_eigenvalue_is_exit_3(self, capsys):
        spectrum = '{"lambdas":[1,-1],"d":1}'
        assert run(["bound", "denoise", "--spectrum", spectrum, "--sigma", "1"]) == 3
        err = capsys.readouterr().err
        assert err == "precondition failed: denoising model requires nonnegative eigenvalues\n"

    def test_relrank_condition_not_met_is_exit_3(self):
        assert run(["bound", "relrank", "--spectrum", "spike:2,1,1,2", "--n", "4"]) == 3

    def test_relrank_follows_the_scale_of_the_spectrum(self, tmp_path):
        # lam_i lam_j overflows at scale 1e160; the plug-in value does not
        values = []
        for scale in ("", "e160"):
            out = tmp_path / f"relrank{scale}.json"
            spectrum = f'{{"lambdas": [4{scale}, 3{scale}, 1{scale}], "d": 1}}'
            args = ["bound", "relrank", "--spectrum", spectrum, "--n", "1000", "--out", str(out)]
            assert run(args) == 0
            values.append(json.loads(out.read_text())["value"])
        assert values[1] == pytest.approx(values[0] * 1e160, rel=1e-12, abs=0.0)

    def test_relrank_near_the_top_of_the_float_range(self, tmp_path):
        # lam_1 + lam_2 overflows; the split level between them does not
        values = []
        for scale in ("", "e308"):
            out = tmp_path / f"relrank{scale}.json"
            spectrum = f'{{"lambdas": [1.7{scale}, 1.6{scale}, 1{scale}], "d": 1}}'
            args = ["bound", "relrank", "--spectrum", spectrum, "--n", "100000", "--out", str(out)]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert run(args) == 0
            values.append(json.loads(out.read_text())["value"])
        assert values[1] == pytest.approx(values[0] * 1e308, rel=1e-12, abs=0.0)

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

    @pytest.mark.parametrize("delta", ["inf", "nan"])
    def test_non_finite_delta_is_named(self, delta, capsys):
        args = ["bound", "hs", "--spectrum", "spike:2,1,1,2", "--n", "8", "--delta", delta]
        assert run(args) == 3
        assert capsys.readouterr().err == "precondition failed: delta must be finite and > 0\n"

    @pytest.mark.parametrize("sigma", ["1e300", "1e-300", "inf", "nan"])
    @pytest.mark.parametrize("delta", [[], ["--delta", "auto"]])
    def test_sigma_squared_out_of_range_is_exit_3(self, sigma, delta, capsys):
        # Only a non-finite sigma is exit 3; a sigma whose square leaves the
        # float range is accepted, and at 1e-300 every cap 2 sigma^2 / gap^2 is 0.
        args = ["bound", "denoise", "--spectrum", "exp:1,3", "--d", "1", "--sigma", sigma, *delta]
        if sigma in ("inf", "nan"):
            assert run(args) == 3
            err = capsys.readouterr().err
            assert err == f"precondition failed: sigma must be > 0 and finite, got {sigma}\n"
        else:
            assert run(args) == 0
            out, err = capsys.readouterr()
            value = float(out.splitlines()[0].removeprefix("denoise lower bound: "))
            assert err == "" and (value > 0.0 if sigma == "1e300" else value == 0.0)

    def test_denoise_bound_does_not_depend_on_scale_of_spectrum_and_sigma(self, capsys):
        spectrum = '{"lambdas": [3e200, 1e200], "d": 1}'
        assert run(["bound", "denoise", "--spectrum", spectrum, "--sigma", "1e200"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "denoise lower bound: 0.166666666667"
        assert run(["bound", "denoise", "--spectrum", "spike:3,1,1,2", "--sigma", "1"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "denoise lower bound: 0.166666666667"

    @pytest.mark.parametrize(
        "args",
        [
            ["simulate", "--loss", "excess", "--spectrum", "spike:1e300,1e-300,1,3", "--n", "5",
             "--reps", "2"],
            ["bound", "canonical", "--spectrum", '{"lambdas": [1e308, 1e308, -1e308], "d": 1}',
             "--n", "1"],
            ["verify", "fisher-limit", "--spectrum", "spike:1e200,1,1,3", "--sigma", "1e-150"],
        ],
    )
    def test_extreme_scale_is_exit_3_with_one_line(self, args, capsys):
        assert run(args) == 3
        err = capsys.readouterr().err
        assert err.startswith("precondition failed: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "kind, dominating, replace, n",
        [
            ("relrank", "substochastic_max", bounds.FlowSolution._replace, "12"),
            ("canonical", "substochastic_max", bounds.FlowSolution._replace, "8"),
        ],
    )
    def test_failed_domination_check_is_exit_4_with_one_line(
        self, kind, dominating, replace, n, capsys
    ):
        solve = getattr(bounds, dominating)

        def halved(*args, **kwargs):
            result = solve(*args, **kwargs)
            return replace(result, value=result.value / 2.0)

        with mock.patch.object(bounds, dominating, halved):
            assert run(["bound", kind, "--spectrum", "spike:2,1,1,2", "--n", n]) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("check failed: ") and err.count("\n") == 1

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scale", [1e154, 1e160, 1e-170])
    def test_hs_bound_does_not_depend_on_spectrum_scale(self, scale, capsys):
        # n (gap / lam_i) (gap / lam_j) stays finite where n gap^2 / (lam_i lam_j) overflowed.
        lambdas = [float(x) * scale for x in exp_spectrum(1.0, 10, 3).lambdas]
        spectrum = json.dumps({"lambdas": lambdas, "d": 3})
        assert run(["bound", "hs", "--spectrum", spectrum, "--n", "1000"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "hs lower bound: 0.00102442769956"

    @pytest.mark.parametrize(
        "args, flag",
        [
            (["hs", "--spectrum", "spike:2,1,1,2", "--n", "8", "--mu", "0.3"], "--mu"),
            (["hs", "--spectrum", "spike:2,1,1,2", "--n", "8", "--sigma", "1"], "--sigma"),
            (["denoise", "--spectrum", "spike:2,1,1,2", "--sigma", "1", "--n", "8"], "--n"),
            (["denoise", "--spectrum", "spike:2,1,1,2", "--sigma", "1", "--mu", "auto"], "--mu"),
            (["excess", "--spectrum", "spike:4,1,2,6", "--n", "100", "--delta", "5"], "--delta"),
            (["excess", "--spectrum", "spike:4,1,2,6", "--n", "100", "--sigma", "1"], "--sigma"),
            (["canonical", "--spectrum", "spike:2,1,1,2", "--n", "8", "--delta", "1"], "--delta"),
            (["relrank", "--spectrum", "spike:2,1,1,2", "--n", "12", "--mu", "auto"], "--mu"),
        ],
    )
    def test_unread_flags_are_usage_errors(self, args, flag, tmp_path, capsys):
        out = tmp_path / "bound.json"
        assert run(["bound", *args, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: bound {args[0]} does not read {flag}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "args, message",
        [
            (["denoise", "--spectrum", "spike:2,1,1,2"], "--sigma is required for the denoising model"),
            (["hs", "--spectrum", "spike:2,1,1,2", "--n", "8", "--delta", "abc"],
             "--delta must be a number or 'auto'"),
        ],
    )
    def test_missing_model_flag_or_bad_parameter_is_usage_error(
        self, args, message, tmp_path, capsys
    ):
        out = tmp_path / "bound.json"
        assert run(["bound", *args, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "args, default",
        [
            (["hs", "--spectrum", "spike:3,1,2,5", "--n", "20"], ["--delta", "1"]),
            (["denoise", "--spectrum", "spike:3,1,2,5", "--sigma", "0.5"], ["--delta", "1"]),
            (["excess", "--spectrum", "spike:4,1,2,6", "--n", "100"], ["--mu", "auto"]),
        ],
    )
    def test_absent_parameter_reads_as_its_default(self, args, default, tmp_path):
        implicit, explicit = tmp_path / "implicit.json", tmp_path / "explicit.json"
        assert run(["bound", *args, "--out", str(implicit)]) == 0
        assert run(["bound", *args, *default, "--out", str(explicit)]) == 0
        assert implicit.read_bytes() == explicit.read_bytes()

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

    def test_fisher_limit_needs_two_dimensions(self, tmp_path, capsys):
        out = tmp_path / "fisher.json"
        args = ["verify", "fisher-limit", "--spectrum", "exp:0.5,1", "--n", "5", "--out", str(out)]
        assert run(args) == 2
        assert capsys.readouterr().err == (
            "error: --spectrum must have p >= 2 for fisher-limit, got p=1\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--n", "3"], "fisher-limit needs --spectrum"),
            (["--spectrum", "spike:2,1,1,2"], "fisher-limit needs --n and/or --sigma"),
        ],
    )
    def test_fisher_limit_missing_flags_are_usage_errors(self, args, message, tmp_path, capsys):
        out = tmp_path / "fisher.json"
        assert run(["verify", "fisher-limit", *args, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_derivatives_pass(self):
        assert run(["verify", "derivatives", "--p", "5", "--trials", "3", "--seed", "1"]) == 0

    def test_loss_identity_passes(self):
        assert run(["verify", "loss-identity", "--p", "6", "--trials", "25", "--seed", "2"]) == 0

    def test_lp_oracle_passes(self):
        assert run(["verify", "lp-oracle", "--trials", "60", "--seed", "7"]) == 0

    def test_lp_oracle_crosses_lp_blocks(self):
        # 1201 programs are three LP solves of at most LP_BLOCK = 500 programs.
        assert run(["verify", "lp-oracle", "--trials", "1201", "--seed", "3"]) == 0

    @pytest.mark.parametrize(
        "args",
        [
            ["loss-identity", "--p", "4", "--d", "4"],
            ["loss-identity", "--p", "1"],
            ["loss-identity", "--p", "6", "--d", "0"],
            ["derivatives", "--p", "0"],
            ["derivatives", "--p", "1"],
            ["derivatives", "--p", "5", "--d", "7"],
        ],
    )
    def test_bad_dimensions_are_usage_errors(self, args, capsys):
        assert run(["verify", *args, "--trials", "2", "--seed", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --p must be >= 2") and err.count("\n") == 1

    @pytest.mark.parametrize("suite", ["derivatives", "loss-identity", "lp-oracle"])
    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_non_positive_trials_are_usage_errors(self, suite, trials, tmp_path, capsys):
        out = tmp_path / "verify.json"
        assert run(["verify", suite, "--trials", trials, "--seed", "1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: --trials must be >= 1, got {trials}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "suite, flag, value",
        [
            ("lp-oracle", "--spectrum", "nonsense"),
            ("lp-oracle", "--n", "-5"),
            ("lp-oracle", "--sigma", "-1"),
            ("lp-oracle", "--p", "5"),
            ("lp-oracle", "--d", "2"),
            ("fisher-limit", "--trials", "0"),
            ("fisher-limit", "--p", "0"),
            ("fisher-limit", "--seed", "1"),
            ("derivatives", "--n", "10"),
            ("loss-identity", "--sigma", "0.5"),
            ("loss-identity", "--spectrum", "exp:1,6"),
        ],
    )
    def test_unread_flags_are_usage_errors(self, suite, flag, value, tmp_path, capsys):
        reads = {
            "lp-oracle": ["--trials", "2", "--seed", "1"],
            "fisher-limit": ["--spectrum", "spike:2,1,1,2", "--n", "3"],
            "derivatives": ["--p", "4", "--trials", "2", "--seed", "1"],
            "loss-identity": ["--p", "4", "--trials", "2", "--seed", "1"],
        }
        out = tmp_path / "verify.json"
        args = ["verify", suite, *reads[suite], flag, value, "--out", str(out)]
        assert run(args) == 2
        assert capsys.readouterr().err == f"error: verify {suite} does not read {flag}\n"
        assert not out.exists()

    @pytest.mark.parametrize("sigma", ["1e300", "1e158", "1e-300", "inf", "nan"])
    def test_fisher_limit_sigma_squared_out_of_range_is_exit_3(self, sigma, tmp_path, capsys):
        # sigma = 1e300 and 1e158 are accepted, but every information
        # (gap / sigma)^2 times t^2 = 1e-8 falls below the smallest normal
        # float, so no divergence could approach the limit; at 1e-300 the
        # information overflows.
        out = tmp_path / "verify.json"
        args = ["verify", "fisher-limit", "--spectrum", "exp:1,3", "--d", "1", "--sigma", sigma]
        code = run([*args, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 3 and err.count("\n") == 1 and not out.exists()
        if sigma == "1e-300":
            assert err == "precondition failed: the denoising Fisher information overflows the float range\n"
        elif sigma in ("1e300", "1e158"):
            assert err == (
                "precondition failed: the denoising Fisher information underflows the float"
                " range at t=0.0001\n"
            )
        else:
            assert err.startswith("precondition failed: sigma must be > 0 and finite")

    def test_fisher_limit_passes_at_small_information(self, tmp_path, capsys):
        # At sigma = 1e140 every information is near 1e-281: small, but its
        # divergences at t = 1e-4 stay normal floats and reach the limit.
        out = tmp_path / "verify.json"
        args = ["verify", "fisher-limit", "--spectrum", "exp:1,3", "--d", "1", "--sigma", "1e140"]
        assert run([*args, "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        artifact = json.loads(out.read_text())
        assert artifact["status"] == "PASS"
        assert max(c["report"]["rel_error"] for c in artifact["checks"]) <= 1e-9

    @pytest.mark.parametrize(
        "args",
        [
            ["--spectrum", "exp:0.5,8", "--d", "1", "--n", "1000"],
            ["--spectrum", "exp:0.5,8", "--d", "1", "--n", "10000000"],
            ["--spectrum", "exp:1,4", "--d", "1", "--n", "1000", "--sigma", "0.1"],
            ["--spectrum", "spike:2,1,1,2", "--sigma", "1e-154"],  # I_01 = 1e308
        ],
    )
    def test_fisher_limit_passes_at_large_information(self, args, tmp_path, capsys):
        # chi2 = expm1(D) strays from its t^2 limit here; D = log(1 + chi2) does not.
        out = tmp_path / "verify.json"
        assert run(["verify", "fisher-limit", *args, "--out", str(out)]) == 0
        checks = json.loads(out.read_text())["checks"]
        assert all(c["status"] == "PASS" for c in checks)
        assert max(c["report"]["rel_error"] for c in checks) <= 1e-7

    @pytest.mark.parametrize(
        "args",
        [
            ["lp-oracle", "--trials", "1", "--seed", "-1"],
            ["loss-identity", "--p", "2", "--d", "1", "--trials", "1", "--seed", "-5"],
            ["derivatives", "--p", "3", "--trials", "1", "--seed", "-2"],
        ],
    )
    def test_negative_seed_is_usage_error(self, args, tmp_path, capsys):
        out = tmp_path / "verify.json"
        assert run(["verify", *args, "--out", str(out)]) == 2
        seed = args[args.index("--seed") + 1]
        assert capsys.readouterr().err == f"error: --seed must be >= 0, got {seed}\n"
        assert not out.exists()

    def test_unknown_suite_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run(["verify", "everything"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("name", sorted(VERIFY_GOLDEN))
    def test_artifact_and_stdout_match_saved_bytes(self, name, tmp_path, capsys):
        saved = VERIFY_GOLDEN[name]
        out = tmp_path / "verify.json"
        assert run(["verify", *saved["args"], "--out", str(out)]) == 0
        assert out.read_bytes().decode("utf-8") == saved["artifact"]
        assert capsys.readouterr().out == saved["stdout"]

    def test_failed_check_is_exit_4(self, tmp_path, monkeypatch):
        monkeypatch.setattr("subspace_bounds.verify.dv_dir", lambda p, i, j, xi: np.zeros((p, p)))
        out = tmp_path / "derivatives.json"
        code = run(["verify", "derivatives", "--p", "4", "--trials", "2", "--seed", "1",
                    "--out", str(out)])
        assert code == 4
        payload = json.loads(out.read_text())
        assert payload["status"] == "FAIL"
        assert [c["status"] for c in payload["checks"]] == ["PASS", "FAIL"] * 2


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

    def test_excess_risk_at_n_1e16_is_positive_and_passes(self, tmp_path, capsys):
        # Here a loss taken as the difference of two O(lam) traces cancels to a negative mean.
        out = tmp_path / "sim.csv"
        args = ["simulate", "--loss", "excess", "--spectrum",
                '{"lambdas":[4,3,1,0.5,0.25,0.1],"d":2}', "--n", "10000000000000000",
                "--reps", "2048", "--seed", "1", "--out", str(out)]
        assert run(args) == 0
        stdout = capsys.readouterr().out
        assert stdout.startswith("risk ") and "VIOLATION" not in stdout
        assert float(stdout.split()[1]) > 0.0
        assert float(out.read_bytes().decode("utf-8").split("\r\n")[1].split(",")[5]) > 0.0

    def test_mean_more_than_3_se_below_the_bound_is_a_violation(self, tmp_path, capsys):
        solve = bounds.hs_lower_bound

        def above_every_loss(model, delta):
            # the hs loss 2 ||V[d:, :d]||_F^2 is at most 2 min(d, p - d) = 4 here
            return dataclasses.replace(solve(model, delta), value=10.0)

        out = tmp_path / "sim.csv"
        with mock.patch.object(bounds, "hs_lower_bound", above_every_loss):
            assert run(self.ARGS + ["--out", str(out)]) == 4
        assert capsys.readouterr().err.splitlines() == [
            "VIOLATION: simulated risk is more than 3 SE below the lower bound"
        ]
        row = out.read_bytes().decode("utf-8").split("\r\n")[1].split(",")
        assert row[0] == "cov" and float(row[9]) == 10.0

    def test_full_rank_subspace_has_zero_risk_and_bound(self, capsys):
        # d = p: no eigenvalue gap to test, nothing outside the subspace, no edge caps
        args = ["simulate", "--loss", "hs", "--spectrum", '{"lambdas":[2,1],"d":2}', "--n", "5",
                "--reps", "2", "--seed", "1"]
        assert run(args) == 0
        out, err = capsys.readouterr()
        assert out.splitlines()[0] == "risk 0 +- 0 (bound 0, margin inf SE)"
        assert err == ""

    def test_zero_reps_is_usage_error(self):
        assert run(
            ["simulate", "--loss", "hs", "--spectrum", "spike:4,1,2,6", "--n", "100",
             "--reps", "0", "--seed", "1"]
        ) == 2

    @pytest.mark.parametrize("flag, value", [("--reps", "-1"), ("--workers", "0"), ("--workers", "-2")])
    def test_non_positive_counts_are_usage_errors(self, flag, value, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        args = [a for a in self.ARGS if a not in ("--reps", "400")]
        assert run(args + ["--reps", "20", flag, value, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {flag} must be >= 1, got {value}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "args, command, flag",
        [
            (["--loss", "excess", "--n", "100", "--delta", "1e9"], "simulate --loss excess --n", "--delta"),
            (["--loss", "excess", "--n", "100", "--sigma", "1"], "simulate --loss excess --n", "--sigma"),
            (["--loss", "hs", "--sigma", "1", "--n", "100"], "simulate --loss hs --sigma", "--n"),
        ],
    )
    def test_unread_flags_are_usage_errors(self, args, command, flag, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        spectrum = ["--spectrum", "spike:4,1,2,6", "--reps", "20", "--seed", "1"]
        assert run(["simulate", *args, *spectrum, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {command} does not read {flag}\n"
        assert not out.exists()

    def test_absent_delta_reads_as_one(self, tmp_path):
        implicit, explicit = tmp_path / "implicit.csv", tmp_path / "explicit.csv"
        args = [a for a in self.ARGS if a not in ("--reps", "400")] + ["--reps", "20"]
        assert run(args + ["--out", str(implicit)]) == 0
        assert run(args + ["--delta", "1", "--out", str(explicit)]) == 0
        assert implicit.read_bytes() == explicit.read_bytes()

    def test_repeat_appends_identical_row(self, tmp_path):
        out = tmp_path / "sim.csv"
        run(self.ARGS + ["--out", str(out)])
        run(self.ARGS + ["--out", str(out)])
        lines = [l for l in out.read_bytes().decode("utf-8").split("\r\n") if l]
        assert lines[1] == lines[2]

    def test_empty_file_gets_the_header(self, tmp_path):
        out = tmp_path / "sim.csv"
        out.touch()
        run(self.ARGS + ["--out", str(out)])
        run(self.ARGS + ["--out", str(out)])
        lines = out.read_bytes().decode("utf-8").split("\r\n")
        assert lines[0] == ",".join(SIMULATE_COLUMNS)
        assert lines[1] == lines[2] and lines[1].startswith("cov,") and lines[3:] == [""]

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

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        args = ["simulate", "--loss", "hs", "--spectrum", "exp:1,3", "--d", "1", "--n", "5",
                "--reps", "2", "--seed", "-1", "--out", str(tmp_path / "sim.csv")]
        assert run(args) == 2
        assert capsys.readouterr().err == "error: --seed must be >= 0, got -1\n"
        assert not (tmp_path / "sim.csv").exists()

    def test_negative_seed_env_is_usage_error(self, monkeypatch, capsys):
        monkeypatch.setenv("SUBSPACE_BOUNDS_SEED", "-3")
        args = [a for a in self.ARGS if a not in ("--seed", "1")]
        assert run(args) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == ["error: SUBSPACE_BOUNDS_SEED must be >= 0, got -3"]

    @pytest.mark.parametrize("sigma", ["1e300", "1e-300", "inf", "nan"])
    def test_sigma_squared_out_of_range_is_exit_3(self, sigma, tmp_path, capsys):
        # Only a non-finite sigma is exit 3; 1e300 and 1e-300 simulate.
        out = tmp_path / "sim.csv"
        args = ["simulate", "--loss", "hs", "--spectrum", "exp:1,3", "--d", "1", "--sigma", sigma,
                "--reps", "2", "--seed", "1", "--out", str(out)]
        if sigma in ("inf", "nan"):
            assert run(args) == 3
            err = capsys.readouterr().err
            assert err == f"precondition failed: sigma must be > 0 and finite, got {sigma}\n"
        else:
            assert run(args) == 0
            assert capsys.readouterr().err == ""
            assert out.read_text().splitlines()[1].startswith(f"denoise,3,1,{float(sigma)!r},")

    def test_eigensolver_failure_is_one_line_exit_5(self, monkeypatch, capsys):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        assert run(self.ARGS) == 5
        err = capsys.readouterr().err
        assert err.splitlines() == [
            "not converged: LAPACK eigensolver failed: Eigenvalues did not converge"
        ]

    def test_one_replicate_is_usage_error(self, tmp_path, capsys):
        # One draw has no standard error, so it cannot be 3 SE below the bound.
        out = tmp_path / "sim.csv"
        args = ["simulate", "--loss", "excess", "--spectrum", '{"lambdas": [3, 2, 1], "d": 1}',
                "--n", "5", "--d", "1", "--seed", "5", "--out", str(out)]
        assert run([*args, "--reps", "1"]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: --reps must be >= 2: one replicate has no standard error, got 1"
        ]
        assert not out.exists()
        assert run([*args, "--reps", "2"]) == 0

    def test_degenerate_replicate_is_one_line_exit_3(self, capsys):
        # n = 1 gives a rank-one covariance: the gap below d = 2 is always zero
        args = ["simulate", "--loss", "hs", "--spectrum", "spike:3,1,2,3", "--n", "1",
                "--reps", "3", "--seed", "1"]
        assert run(args) == 3
        err = capsys.readouterr().err
        assert err.splitlines() == [
            "precondition failed: replicate 0 degenerate after 100 resamples"
        ]

    @pytest.mark.parametrize("delta", ["inf", "nan"])
    def test_non_finite_delta_is_named(self, delta, capsys):
        assert run(self.ARGS + ["--delta", delta]) == 3
        assert capsys.readouterr().err == "precondition failed: delta must be finite and > 0\n"

    def test_excess_standard_error_follows_the_scale_of_the_spectrum(self, tmp_path):
        # At scale 1e160 each squared loss would overflow the float range.
        se = []
        for scale in ("", "e160"):
            out = tmp_path / f"sim{scale}.csv"
            spectrum = f'{{"lambdas": [4{scale}, 3{scale}, 1{scale}], "d": 1}}'
            args = ["simulate", "--loss", "excess", "--spectrum", spectrum, "--n", "50",
                    "--reps", "20", "--seed", "1", "--out", str(out)]
            assert run(args) == 0
            se.append(float(out.read_bytes().decode("utf-8").split("\r\n")[1].split(",")[6]))
        assert se[0] > 0.0
        assert se[1] == pytest.approx(se[0] * 1e160, rel=1e-12, abs=0.0)

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

    def test_numeric_cells_are_plain_floats(self, tmp_path):
        out = tmp_path / "cells.csv"
        run(
            ["report", "--family", "exp", "--alpha", "1", "--p", "12", "--n", "100000",
             "--d-min", "3", "--d-max", "4", "--out", str(out)]
        )
        lines = [l for l in out.read_bytes().decode("utf-8").split("\r\n") if l]
        header = lines[0].split(",")
        for line in lines[1:]:
            cells = dict(zip(header, line.split(",")))
            assert not any("np." in cell for cell in cells.values())
            for name in ("alpha", "p", "n", "d", "condition_lhs", "bound", "shape", "ratio"):
                float(cells[name])

    def test_empty_grid_is_usage_error(self):
        assert run(
            ["report", "--family", "exp", "--p", "40", "--n", "1000", "--d-min", "5",
             "--d-max", "4"]
        ) == 2

    @pytest.mark.parametrize(
        "flag, value", [("--simulate", "0"), ("--simulate", "-3"), ("--workers", "0")]
    )
    def test_non_positive_counts_are_usage_errors(self, flag, value, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        args = ["report", "--family", "exp", "--alpha", "1", "--p", "6", "--n", "200",
                "--d-min", "2", "--d-max", "3", "--seed", "3", "--out", str(out)]
        extra = [flag, value] if flag == "--simulate" else ["--simulate", "20", flag, value]
        assert run(args + extra) == 2
        assert capsys.readouterr().err == f"error: {flag} must be >= 1, got {value}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "n, d_min, d_max, err",
        [
            ("0", "2", "3", "--n must be >= 1, got 0"),
            ("-1", "2", "3", "--n must be >= 1, got -1"),
            ("200", "0", "3", "every d must be in 1..p-1=5, got 0..3"),
            ("200", "2", "6", "every d must be in 1..p-1=5, got 2..6"),
            ("200", str(-(2**63)), str(2**63), f"every d must be in 1..p-1=5, got {-(2**63)}..{2**63}"),
        ],
    )
    def test_bad_n_or_d_range_is_usage_error(self, n, d_min, d_max, err, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        args = ["report", "--family", "poly", "--p", "6", "--n", n, "--d-min", d_min,
                "--d-max", d_max, "--out", str(out)]
        assert run(args) == 2
        assert capsys.readouterr().err == f"error: {err}\n"
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [("--seed", "5"), ("--workers", "3")])
    def test_simulation_flags_need_simulate(self, flag, value, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        args = ["report", "--family", "exp", "--p", "12", "--n", "1000", "--d-min", "3",
                "--d-max", "4", flag, value, "--out", str(out)]
        assert run(args) == 2
        assert capsys.readouterr().err == f"error: report without --simulate does not read {flag}\n"
        assert not out.exists()

    def test_seed_variable_is_read_only_to_simulate(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SUBSPACE_BOUNDS_SEED", "abc")
        args = ["report", "--family", "exp", "--alpha", "1", "--p", "12", "--n", "1000",
                "--d-min", "3", "--d-max", "4"]
        assert run(args + ["--out", str(tmp_path / "bound.csv")]) == 0
        assert run(args + ["--simulate", "5", "--out", str(tmp_path / "sim.csv")]) == 2
        assert "SUBSPACE_BOUNDS_SEED must be an integer" in capsys.readouterr().err

    def test_one_point_slope_fit_is_usage_error(self, capsys):
        args = ["report", "--family", "exp", "--alpha", "1", "--p", "12", "--n", "1000000",
                "--d-min", "3", "--d-max", "3"]
        assert run(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: the exp slope fit needs two or more d") and err.count("\n") == 1

    def test_slope_verdict_reads_its_tolerance_from_verify(self, capsys):
        args = ["report", "--family", "exp", "--alpha", "1", "--p", "12", "--n", "1000000",
                "--d-min", "3", "--d-max", "6"]
        assert run(args) == 0
        assert "PASS decay-slope fit" in capsys.readouterr().out
        with mock.patch.object(verify, "SLOPE_TOL", 0.0):
            assert run(args) == 4
        assert capsys.readouterr().out.splitlines()[-1].endswith("(tolerance 0%)")

    def test_one_valid_d_is_usage_error_for_poly(self, capsys):
        # d = 1 meets the bound condition and d = 2..4 do not: one ratio makes no band.
        args = ["report", "--family", "poly", "--p", "5", "--n", "10", "--d-min", "1", "--d-max", "4"]
        assert run(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: the poly scaling band needs two or more d") and err.count("\n") == 1

    def test_absent_workers_reads_as_one(self, tmp_path):
        args = ["report", "--family", "exp", "--alpha", "1", "--p", "6", "--n", "200",
                "--d-min", "2", "--d-max", "3", "--simulate", "30", "--seed", "3"]
        run(args + ["--out", str(tmp_path / "absent.csv")])
        run(args + ["--workers", "1", "--out", str(tmp_path / "one.csv")])
        absent = (tmp_path / "absent.csv").read_bytes()
        assert absent == (tmp_path / "one.csv").read_bytes() and absent.count(b"\r\n") == 3

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

    def test_large_n_simulated_sweep_dominates_bounds(self, tmp_path):
        # n = 1e5 rows per replicate: the covariance model draws the scatter,
        # not the rows, so this sweep takes about a second.
        out = tmp_path / "large_n.csv"
        code = run(
            ["report", "--family", "exp", "--alpha", "1", "--p", "12", "--n", "100000",
             "--d-min", "3", "--d-max", "6", "--simulate", "600", "--out", str(out)]
        )
        assert code == 0
        lines = [l for l in out.read_bytes().decode("utf-8").split("\r\n") if l]
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        assert [int(row["d"]) for row in rows] == [3, 4, 5, 6]
        for row in rows:
            assert float(row["risk"]) + 3.0 * float(row["se"]) >= float(row["bound"])


# A value each optional flag parses, and the arguments before them that each
# command's form needs.
FLAG_VALUES = {
    "spectrum": "spike:2,1,1,2", "d": "1", "n": "8", "sigma": "1", "delta": "1", "mu": "auto",
    "p": "4", "trials": "2", "seed": "1", "workers": "1",
}
FORM_ARGS = {
    "bound": lambda form: [form],
    "simulate": lambda form: [*form.split()[:2], "--reps", "2"],
    "verify": lambda form: [form],
    "report": lambda form: ["--family", "exp"],
}
# Every flag a command takes that one of its forms does not read.  --sigma with
# --loss hs picks the --sigma form, so the --n form of that loss never sees it.
UNREAD = [
    (command, form, flag)
    for command, forms in READS.items()
    for form, reads in forms.items()
    for flag in TAKES[command]
    if flag not in reads and (form, flag) != ("--loss hs --n", "sigma")
]
# A quick run of each command, and the stderr line's start when its --out cannot be written.
QUICK_RUNS = [
    ["bound", "hs", "--spectrum", "spike:2,1,1,2", "--n", "8"],
    ["simulate", "--loss", "hs", "--spectrum", "spike:2,1,1,2", "--n", "8", "--reps", "3", "--seed", "1"],
    ["verify", "lp-oracle", "--trials", "2", "--seed", "1"],
    ["report", "--family", "exp", "--p", "10", "--n", "100", "--d-min", "2", "--d-max", "4"],
]


class TestFlagContract:
    @pytest.mark.parametrize("command, form, flag", UNREAD)
    def test_every_unread_flag_is_a_usage_error(self, command, form, flag, tmp_path, capsys):
        out = tmp_path / "artifact"
        reads = [arg for f in READS[command][form] if f != "out" for arg in (f"--{f}", FLAG_VALUES[f])]
        argv = [command, *FORM_ARGS[command](form), *reads, f"--{flag}", FLAG_VALUES[flag]]
        assert run(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {command} {form} does not read --{flag}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "args, message",
        [
            (["bound", "hs", "--n", "8"], "bound hs needs --spectrum"),
            (["simulate", "--loss", "hs", "--n", "8", "--reps", "3"], "simulate needs --spectrum"),
            (["report", "--family", "exp", "--p", "10"], "report needs --p and --n"),
            (["report", "--family", "exp", "--n", "100"], "report needs --p and --n"),
        ],
    )
    def test_missing_required_flag_is_one_line(self, args, message, tmp_path, capsys):
        out = tmp_path / "artifact"
        assert run(args + ["--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("delta", ["auto", "abc"])
    def test_simulate_delta_is_a_number(self, delta, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        assert run([*QUICK_RUNS[1], "--delta", delta, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: --delta must be a number\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv", QUICK_RUNS, ids=lambda argv: argv[0])
    @pytest.mark.parametrize("where", ["missing directory", "directory"])
    def test_unwritable_out_is_a_usage_error(self, argv, where, tmp_path, capsys):
        out = tmp_path / "missing" / "x.json" if where == "missing directory" else tmp_path
        assert run([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write --out {out}: ") and err.count("\n") == 1
        assert sorted(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["bound", "hs", "--spectrum", "exp:1,1e17", "--n", "10"],
            ["simulate", "--loss", "hs", "--spectrum", "exp:1,1e17", "--n", "10", "--reps", "2"],
            ["verify", "fisher-limit", "--spectrum", "exp:1,1e17", "--n", "10"],
            ["report", "--family", "exp", "--p", str(10**17), "--n", "10", "--d-min", "2",
             "--d-max", "3"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_failed_allocation_is_exit_3_with_one_line(self, argv, capsys):
        # p = 10^17 asks for 8e17 bytes, beyond any address space, so it fails at once.
        assert run(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("precondition failed: Unable to allocate") and err.count("\n") == 1


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


_finite_floats = st.floats(allow_nan=False, allow_infinity=False)
# Scalars of every JSON kind, NaN, +-inf, -0.0 and np.float64 among the floats; lists
# that take the writer's fast joins (all finite floats, all bools) and lists that
# just miss them (a NaN among floats, ints beside bools, np.float64 beside floats).
_json_leaves = st.one_of(
    st.floats(), st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]),
    _finite_floats.map(np.float64), st.booleans(), st.integers(), st.none(), st.text(),
    st.lists(_finite_floats), st.lists(st.floats()), st.lists(st.booleans()),
    st.lists(st.one_of(st.booleans(), st.integers(0, 1))),
    st.lists(st.one_of(_finite_floats, _finite_floats.map(np.float64))),
)
_json_values = st.recursive(
    _json_leaves,
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.tuples(inner, inner),
                            st.dictionaries(st.text(), inner, max_size=4)),
    max_leaves=12,
)


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class _Tag(str):
    pass


class TestJsonText:
    """The CLI's one JSON writer has the bytes of the stdlib's sorted, indented dump."""

    @settings(derandomize=True, deadline=None, max_examples=400)
    @given(_json_values)
    def test_same_text_as_json_dumps(self, value):
        assert _json_text(value) == json.dumps(value, sort_keys=True, indent=2) + "\n"

    @pytest.mark.parametrize("value", [{}, [], [[]], {"a": {}}, {"é": ["☃", -0.0]}, (1.0, 2.0)])
    def test_empty_containers_and_non_ascii(self, value):
        assert _json_text(value) == json.dumps(value, sort_keys=True, indent=2) + "\n"

    @pytest.mark.parametrize(
        "value",
        [
            collections.OrderedDict([("b", 1.5), ("a", [None, True]), ("c", {"z": 0, "y": -7})]),
            {"level": _Level.HIGH, "levels": [_Level.LOW, 2, True]},
            {"tag": _Tag("x\u00e9"), "tags": [_Tag("y"), "z"], _Tag("k"): _Tag("v")},
            {"a": None, "b": 0, "c": "PASS", "d": 1e300, "e": 5e-324, "f": float("nan"),
             "g": float("-inf"), "h": np.float64(0.1), "i": False, "j": -0.0},
        ],
        ids=["ordered_dict", "int_enum", "str_subclass", "exact_scalars"],
    )
    def test_scalar_types_and_their_subclasses(self, value):
        # A dict subclass takes the dict branch: json.dumps(obj) alone would write it compactly.
        assert _json_text(value) == json.dumps(value, sort_keys=True, indent=2) + "\n"

    @pytest.mark.parametrize("value", [np.int64(3), [np.bool_(True)], {"x": [object()]}])
    def test_unsupported_types_raise_type_error(self, value):
        with pytest.raises(TypeError) as stdlib:
            json.dumps(value, sort_keys=True, indent=2)
        with pytest.raises(TypeError, match=re.escape(str(stdlib.value))):
            _json_text(value)


def _readme_commands() -> list[list[str]]:
    """The `subspace-bounds` commands of the README's "Command line" block, as argv lists."""
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Command line\n\n```bash\n(.*?)```", text, re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("subspace-bounds ")]


class TestReadmeCommands:
    def test_block_is_found(self):
        assert len(_readme_commands()) >= 10

    @pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
    def test_command_exits_zero(self, argv, tmp_path):
        if "--out" in argv:
            at = argv.index("--out") + 1
            argv = [*argv[:at], str(tmp_path / argv[at]), *argv[at + 1 :]]
        assert run(argv) == 0


def test_import_loads_no_scipy():
    # scipy is imported only where the LP oracle runs; importing scipy.linalg
    # alone would about double the start-up time of every command.
    code = (
        "import sys, subspace_bounds, subspace_bounds.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    env = {**os.environ, "PYTHONPATH": str(README.parent / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize(
    "spectrum, d",
    [("exp:0.02,60", "30"), ("spike:2,1,1,2", "1")],
    ids=["artifact_beyond_the_buffer", "artifact_in_the_buffer"],
)
def test_closed_stdout_is_a_quiet_exit(spectrum, d):
    """A reader that closed the pipe (``... | head -1``) ends the command with exit
    141 and nothing on stderr, whether the write or the last flush finds it closed."""
    read, write = os.pipe()
    os.close(read)
    env = {**os.environ, "PYTHONPATH": str(README.parent / "src")}
    argv = ["bound", "hs", "--spectrum", spectrum, "--d", d, "--n", "1000"]
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "subspace_bounds.cli", *argv],
            env=env, stdout=write, stderr=subprocess.PIPE, timeout=60,
        )
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (141, b"")


def test_closed_stdout_in_process(monkeypatch, capsys):
    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert run(["bound", "hs", "--spectrum", "spike:2,1,1,2", "--n", "8"]) == 141
    assert capsys.readouterr().err == ""


def test_flow_solves_load_no_scipy():
    # The max-flow solver stays numpy: importing scipy.sparse.csgraph alone
    # takes about as long as a whole bound command's start-up.
    code = (
        "import sys\n"
        "from subspace_bounds import DenoiseModel, exp_spectrum, optimize_delta\n"
        "from subspace_bounds.cli import main\n"
        "args = ['--spectrum', 'exp:0.02,40', '--d', '20', '--n', '1000']\n"
        "assert main(['bound', 'hs', *args]) == 0\n"
        "assert main(['bound', 'excess', *args, '--mu', 'auto']) == 0\n"
        "optimize_delta(DenoiseModel(exp_spectrum(0.02, 60, 30), 0.1))\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(README.parent / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
