"""CLI subcommands: weight solving, basis listing, sweeps, self-checks."""

import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import lue
from lue.cli import main
from lue.design import bernoulli_exposure_distribution, uniform_distribution
from lue.estimators import LinearEstimator, build_four_term_alue, build_malue_set
from lue.exposure import ExposureSpec, enumerate_exposures
from lue.mivlue import max_alpha3
from lue.verify import verify_estimator_set, verify_six_term_closed_form

SIX_ORDER = [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)]


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def six_term_payload(variances):
    # parameter order: baseline, level-1 effect, level-2 effect, second component
    return {
        "spec": {"levels": [2, 1]},
        "probabilities": {"0,0": 0.125, "0,1": 0.125, "1,0": 0.25, "1,1": 0.25,
                          "2,0": 0.125, "2,1": 0.125},
        "prior": {"covariance": np.diag(variances).tolist()},
    }


class TestWeightsCommand:
    def test_symmetric_prior_zeroes_the_four_term(self, tmp_path, capsys):
        path = write_json(tmp_path / "in.json", six_term_payload([1.0, 1.0, 1.0, 1.0]))
        # equal rates within each exposure pair force alpha3 to vanish
        payload = six_term_payload([1.0, 1.0, 1.0, 1.0])
        payload["probabilities"] = {k: 1 / 6 for k in payload["probabilities"]}
        path = write_json(tmp_path / "in.json", payload)
        assert main(["weights", "--input", path]) == 0
        out = capsys.readouterr().out
        alpha_line = next(line for line in out.splitlines() if line.startswith("# alpha1="))
        assert "alpha3=0.0" in alpha_line

    def test_maximizing_variances_approach_design_bound(self, tmp_path):
        payload = six_term_payload([1e-5, 1e-5, 1e5, 1.0])
        dist = bernoulli_exposure_distribution(2, 0.5)
        payload["probabilities"] = {
            f"{d},{z}": dist[(d, z)] for d in range(3) for z in (0, 1)
        }
        path = write_json(tmp_path / "in.json", payload)
        out_path = tmp_path / "weights.csv"
        assert main(["weights", "--input", path, "--output", str(out_path)]) == 0
        text = out_path.read_text()
        alpha_line = next(line for line in text.splitlines() if line.startswith("# alpha1="))
        alpha3 = float(alpha_line.split("alpha3=")[1])
        bound = max_alpha3([dist[e] for e in SIX_ORDER])
        assert alpha3 == pytest.approx(bound, abs=1e-3)

    def test_malformed_json_fails_without_output(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        out_path = tmp_path / "never.csv"
        assert main(["weights", "--input", str(bad), "--output", str(out_path)]) == 2
        assert "malformed JSON" in capsys.readouterr().err
        assert not out_path.exists()

    def test_schema_violation_names_the_field(self, tmp_path, capsys):
        path = write_json(tmp_path / "in.json", {"spec": {"levels": [2, 1]}})
        assert main(["weights", "--input", path]) == 2
        assert "prior: missing required field" in capsys.readouterr().err
        path = write_json(tmp_path / "in2.json",
                          {"spec": {"levels": [2, 1]}, "prior": {"dilation": 2.0}})
        assert main(["weights", "--input", path]) == 2
        assert "prior.covariance: missing required field" in capsys.readouterr().err

    def test_rows_cover_every_exposure(self, tmp_path, capsys):
        path = write_json(tmp_path / "in.json", six_term_payload([1.0, 2.0, 3.0, 4.0]))
        assert main(["weights", "--input", path]) == 0
        out = capsys.readouterr().out
        data_rows = [l for l in out.splitlines() if l and not l.startswith("#")
                     and not l.startswith("exposure")]
        assert len(data_rows) == 6


class TestBasisCommand:
    def test_header_counts(self, capsys):
        assert main(["basis", "--m", "3,1"]) == 0
        assert "malue=4 zero=0 basis=4 dim=3" in capsys.readouterr().out

    def test_header_counts_three_components(self, capsys):
        assert main(["basis", "--m", "1,1,1"]) == 0
        assert "malue=4 zero=1 basis=5 dim=4" in capsys.readouterr().out

    def test_single_estimator_listing(self, capsys):
        assert main(["basis", "--m", "1"]) == 0
        out = capsys.readouterr().out
        assert "malue=1 zero=0 basis=1 dim=0" in out
        assert out.count("[two_term") == 1

    def test_k_mismatch(self, capsys):
        assert main(["basis", "--k", "3", "--m", "2,1"]) == 2
        assert "disagrees" in capsys.readouterr().err

    @pytest.mark.parametrize("levels, digest", [
        ("1", "b938773d2bf6ccfc"),
        ("5", "c7e8df0116c41095"),
        ("3,1", "28651e7296b36623"),
        ("2,1,1", "749be51c6bbbf84b"),
        ("3,2,1", "23d04ccd0a5d0bea"),
        ("1,1,1,1", "fd09cf124260600e"),
    ])
    def test_listing_is_byte_identical(self, capsys, levels, digest):
        """Pins member names, member order and every weight's repr."""
        assert main(["basis", "--m", levels]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest


class TestSimulateCommand:
    def sweep_config(self):
        return {
            "network": {"kind": "k_regular", "n": 8, "k": [2, 3]},
            "outcome": {"kind": "independent", "mu1": [0, 10]},
            "num_draws": 10,
            "allocation_mode": "exhaustive",
            "estimators": ["HT0", "HT1", "HTAvg", "MInd", "MDil"],
        }

    def test_grid_rows_and_byte_identity(self, tmp_path, capsys):
        config = write_json(tmp_path / "sweep.json", self.sweep_config())
        out_dir = tmp_path / "out"
        assert main(["simulate", "--config", config, "--out-dir", str(out_dir), "--seed", "5"]) == 0
        produced = capsys.readouterr().out.strip()
        first = open(produced).read()
        rows = [l for l in first.splitlines() if l and not l.startswith("#")]
        assert rows[0].startswith("estimator,")
        assert len(rows) == 1 + 4 * 5  # header + settings x estimators
        assert main(["simulate", "--config", config, "--out-dir", str(out_dir), "--seed", "5"]) == 0
        assert open(produced).read() == first

    @pytest.mark.parametrize("config, digest", [
        ({"network": {"kind": "erdos_renyi", "n": 40, "p_edge": 0.3},
          "outcome": {"kind": "independent", "mu1": 1.0},
          "num_draws": 3, "allocation_mode": "sample", "allocation_count": 200,
          "estimators": ["HT0", "HT1", "HTAvg", "MInd", "MDil"]},
         "af4d138f5717ad8193d027b52a070d5039be34998ad1916c1cafeb0ca7f37e13"),
        ({"network": {"kind": "k_regular", "n": 10, "k": 3},
          "outcome": {"kind": "dilated", "eta1": 1.5},
          "num_draws": 3, "allocation_mode": "exhaustive",
          "estimators": ["HT0", "HT1", "HTAvg", "MInd", "MDil"]},
         "a0eb2678e23ff108eecd13018c2fc84cb559ff6d8a9d851cec7e243f03d751c6"),
        ({"network": {"kind": "k_regular", "n": 30, "k": 4},
          "outcome": {"kind": "interaction", "mu1": 5, "delta1": 2},
          "num_draws": 3, "allocation_mode": "sample", "allocation_count": 200,
          "estimators": ["HT0", "HT1", "HTAvg", "MInd", "MDil"]},
         "f5970aad5bedac98b6627f434f2068543157f8e61f24143d0ff0037e069eca32"),
    ], ids=["erdos_renyi_sample", "k_regular_dilated_exhaustive", "k_regular_interaction_sample"])
    def test_csv_bytes_are_pinned(self, tmp_path, capsys, config, digest):
        """Pins every digit of one setting's CSV, so a refactor cannot move them."""
        path = write_json(tmp_path / "setting.json", config)
        assert main(["simulate", "--config", path, "--out-dir", str(tmp_path), "--seed", "7"]) == 0
        produced = capsys.readouterr().out.strip()
        with open(produced, "rb") as handle:
            assert hashlib.sha256(handle.read()).hexdigest() == digest

    def test_seed_changes_output(self, tmp_path, capsys):
        config = write_json(tmp_path / "sweep.json", self.sweep_config())
        out_dir = tmp_path / "out"
        main(["simulate", "--config", config, "--out-dir", str(out_dir), "--seed", "5"])
        first = capsys.readouterr().out.strip()
        main(["simulate", "--config", config, "--out-dir", str(out_dir), "--seed", "6"])
        second = capsys.readouterr().out.strip()
        assert first != second  # different hash, different file

    def test_interaction_grid_shape(self, tmp_path, capsys):
        """A mu1 x delta1 grid expands to 12 settings, each with every estimator."""
        config = write_json(tmp_path / "grid.json", {
            "network": {"kind": "k_regular", "n": 6, "k": 2},
            "outcome": {"kind": "interaction", "mu1": [0, 10, 50], "delta1": [0, 2, 4, 6]},
            "num_draws": 2,
            "allocation_mode": "exhaustive",
            "estimators": ["HT0", "HTAvg"],
        })
        out_dir = tmp_path / "out"
        assert main(["simulate", "--config", config, "--out-dir", str(out_dir), "--seed", "2"]) == 0
        produced = capsys.readouterr().out.strip()
        rows = [l for l in open(produced).read().splitlines()
                if l and not l.startswith(("#", "estimator"))]
        assert len(rows) == 12 * 2
        assert sum(",interaction," in row for row in rows) == 24

    def test_erdos_renyi_size_sweep(self, tmp_path, capsys):
        config = write_json(tmp_path / "er.json", {
            "network": {"kind": "erdos_renyi", "n": [6, 8, 10], "p_edge": 0.25},
            "outcome": {"kind": "independent", "mu1": 0},
            "num_draws": 2,
            "allocation_mode": "exhaustive",
            "estimators": ["HT0", "HT1", "HTAvg", "MInd", "MDil"],
        })
        out_dir = tmp_path / "out"
        assert main(["simulate", "--config", config, "--out-dir", str(out_dir), "--seed", "4"]) == 0
        produced = capsys.readouterr().out.strip()
        rows = [l for l in open(produced).read().splitlines()
                if l and not l.startswith(("#", "estimator"))]
        assert len(rows) == 3 * 5
        assert all(",0.25," in row for row in rows)

    def test_failed_setting_reported_not_fatal(self, tmp_path, capsys):
        config = self.sweep_config()
        config["network"]["k"] = [2, 9]  # k=9 infeasible on 8 nodes
        path = write_json(tmp_path / "sweep.json", config)
        out_dir = tmp_path / "out"
        code = main(["simulate", "--config", path, "--out-dir", str(out_dir), "--seed", "1"])
        captured = capsys.readouterr()
        assert code == 1
        assert "failed" in captured.err
        produced = captured.out.strip()
        rows = [l for l in open(produced).read().splitlines()
                if l and not l.startswith(("#", "estimator"))]
        assert len(rows) == 2 * 5  # the two feasible settings survived

    def test_failed_setting_explains_itself(self, tmp_path):
        """A failure names its exception type; -v adds the traceback."""
        config = self.sweep_config()
        config["network"]["k"] = [2, 9]  # k=9 infeasible on 8 nodes
        path = write_json(tmp_path / "sweep.json", config)
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(lue.__file__)))
        errors = {}
        for flags in ([], ["-v"]):
            proc = subprocess.run(
                [sys.executable, "-m", "lue.cli", *flags, "simulate", "--config", path,
                 "--out-dir", str(tmp_path / "out"), "--seed", "1"],
                capture_output=True, text=True, env=env, timeout=120)
            assert proc.returncode == 1
            errors[bool(flags)] = proc.stderr
        for stderr in errors.values():
            assert "setting 2 failed: ValueError: need 0 < k < n, got k=9, n=8" in stderr
        assert "Traceback" not in errors[False]
        assert "Traceback (most recent call last)" in errors[True]
        assert "gen_k_regular_directed" in errors[True]

    def test_verbose_logs_stage_timings(self, tmp_path):
        """-v logs each setting's stage timings; without it nothing is logged."""
        config = write_json(tmp_path / "sweep.json", self.sweep_config())
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(lue.__file__)))
        logs = {}
        for flags in ([], ["-v"]):
            proc = subprocess.run(
                [sys.executable, "-m", "lue.cli", *flags, "simulate", "--config", config,
                 "--out-dir", str(tmp_path / "out"), "--seed", "3"],
                capture_output=True, text=True, env=env, timeout=120, check=True)
            logs[bool(flags)] = proc.stderr
        assert "stage seconds" not in logs[False]
        timed = [line for line in logs[True].splitlines() if "stage seconds" in line]
        assert len(timed) == 4  # one per setting of the 2 x 2 grid
        for stage in ("network=", "families=", "joint_pmf=", "params=", "outcome_table=",
                      "allocations=", "slots=", "gather=", "moments="):
            assert all(stage in line for line in timed)


class TestVerifyCommand:
    def test_filtered_checks_pass(self, capsys):
        assert main(["verify", "--filter", "design_oracle"]) == 0
        assert "[PASS] design_oracle" in capsys.readouterr().out

    def test_unknown_filter(self, capsys):
        assert main(["verify", "--filter", "no_such_check"]) == 2


class TestCheckInjection:
    def test_sign_flip_is_caught_and_named(self):
        """A corrupted four-term estimator fails the constraint check by name."""
        spec = ExposureSpec((3, 1))
        probs = uniform_distribution(spec)
        estimators = list(build_malue_set(spec, probs))
        vector = build_four_term_alue(spec, (1, 1), probs).as_vector()
        flipped = enumerate_exposures(spec).index((1, 0))
        vector[flipped] = -vector[flipped]
        estimators[1] = LinearEstimator(spec, vector, name="four_term(1, 1)")
        ok, details = verify_estimator_set(spec, probs, estimators=estimators)
        assert not ok
        assert "four_term(1, 1)" in details

    def test_wrong_denominator_closed_form_is_caught(self):
        """A wrong six-term denominator disagrees with the numeric solver."""

        def broken_alpha(probs, variances):
            from lue.mivlue import six_term_alpha_weights as good

            a1, a2, a3 = good(probs, variances)
            return a1 / 1.01, a2 / 1.01, a3 / 1.01

        ok, details = verify_six_term_closed_form(alpha_fn=broken_alpha, trials=5)
        assert not ok
        assert "closed form" in details


class TestPackageImport:
    def test_import_does_not_load_scipy(self):
        """The package needs numpy only; importing it pulls in no scipy module."""
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(lue.__file__)))
        code = "import sys, lue, lue.cli; print('scipy' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=60, check=True)
        assert proc.stdout.strip() == "False"
