"""CLI subcommands: weight solving, basis listing, sweeps, self-checks."""

import ctypes
import glob
import hashlib
import json
import math
import os
import pathlib
import re
import shlex
import subprocess
import sys

import numpy as np
import pytest

import lue
import lue.design
import lue.simulation
import lue.verify
from lue.cli import _setting_seed, build_parser, main
from lue.design import (BernoulliDesign, ExposureDistribution, allocation_matrix,
                        bernoulli_exposure_distribution, exposure_distribution_exact,
                        uniform_distribution)
from lue.estimators import LinearEstimator, build_malue_set
from lue.exposure import ExposureSpec, enumerate_exposures
from lue.mivlue import max_alpha3, six_term_alpha_weights
from lue.networks import gen_k_regular_directed
from lue.simulation import ExperimentConfig
from lue.verify import (check_basis_ranks, check_constraint_residuals, check_design_oracle,
                        check_six_term_closed_form, verify_estimator_set)

SIX_ORDER = [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)]


# Settings whose CSV bytes are pinned at --seed 7, by test id: (config, sha256 of the CSV).
PINNED_CSV = {
    "erdos_renyi_sample": (
        {"network": {"kind": "erdos_renyi", "n": 40, "p_edge": 0.3},
         "outcome": {"kind": "independent", "mu1": 1.0},
         "num_draws": 3, "allocation_mode": "sample", "allocation_count": 200,
         "estimators": ["HT0", "HT1", "HTAvg", "MInd", "MDil"]},
        "56542c23576c42c33f609803bfc135b7255cc725c4a96a9be5989f6ea07e0024"),
    "k_regular_dilated_exhaustive": (
        {"network": {"kind": "k_regular", "n": 10, "k": 3},
         "outcome": {"kind": "dilated", "eta1": 1.5},
         "num_draws": 3, "allocation_mode": "exhaustive",
         "estimators": ["HT0", "HT1", "HTAvg", "MInd", "MDil"]},
        "0035fb859a4726249fbe5862ad1bbe1e581c61a98d08c4c95a4672bdab7e6fed"),
    "k_regular_interaction_sample": (
        {"network": {"kind": "k_regular", "n": 30, "k": 4},
         "outcome": {"kind": "interaction", "mu1": 5, "delta1": 2},
         "num_draws": 3, "allocation_mode": "sample", "allocation_count": 200,
         "estimators": ["HT0", "HT1", "HTAvg", "MInd", "MDil"]},
        "d343bb09d5a1b4bc139d5b9ac919fdd78e5de9146889956a2f332c29f9be1a8b"),
    # At seed 7 this graph has two degree-0 units and in-degrees 1 to 3.
    "erdos_renyi_interaction_exhaustive_p03": (
        {"network": {"kind": "erdos_renyi", "n": 12, "p_edge": 0.15},
         "outcome": {"kind": "interaction", "mu1": 1.0, "delta1": 2.0},
         "p_treat": 0.3, "num_draws": 3, "allocation_mode": "exhaustive",
         "estimators": ["HT0", "HT1", "HTAvg", "MInd", "MDil"]},
        "0a653c0e32ab34342b9c418e1077b19ae48be60736caf000c99de07c0125ff97"),
    # 200 draws at n = 12, width 8: two draw blocks, of 136 and 64 draws.
    "two_draw_blocks": (
        {"network": {"kind": "k_regular", "n": 12, "k": 3},
         "outcome": {"kind": "interaction", "mu1": 1.0, "delta1": 2.0},
         "num_draws": 200, "allocation_mode": "exhaustive",
         "estimators": ["HT0", "HT1", "HTAvg", "MInd", "MDil"]},
        "6865ee3903ac22c3850d2d60f30faea803c64bc283f2c9da684f70d83d317025"),
    # The benchmark's three simulate workloads (bench/workloads.py), whole.
    "sim_exact": (
        {"network": {"kind": "k_regular", "n": 16, "k": 4},
         "outcome": {"kind": "independent", "mu1": 0},
         "num_draws": 40, "allocation_mode": "exhaustive",
         "estimators": ["HT0", "HT1", "HTAvg", "MInd", "MDil"]},
        "ad1771d36e33c90108e246705dabacc94d970f13b50b73244393a3404c51425c"),
    "sim_sample": (
        {"network": {"kind": "k_regular", "n": 200, "k": 8},
         "outcome": {"kind": "interaction", "mu1": 50, "delta1": 2},
         "num_draws": 30, "allocation_mode": "sample", "allocation_count": 1500,
         "estimators": ["HT0", "HT1", "HTAvg", "MInd", "MDil"]},
        "2a40b8dc062e01b2b898b07c41443489d5f8540280fa5b91df698c64dd9c69b7"),
    "dense_er": (
        {"network": {"kind": "erdos_renyi", "n": 150, "p_edge": 0.5},
         "outcome": {"kind": "independent", "mu1": 0},
         "num_draws": 4, "allocation_mode": "sample", "allocation_count": 1500,
         "estimators": ["HT0", "HT1", "HTAvg", "MInd", "MDil"]},
        "a5bc4d6a4227985d9e0e0b904561dea970cc6fd57290976171c4ac84d44dfb22"),
    # 300 draws cross the 256-draw chunk of the parameter streams: exhaustive blocks of
    # 136, 136 and 28 draws, the second holding draw 256, and sample mode's one per block.
    "chunk_crossing_exhaustive": (
        {"network": {"kind": "k_regular", "n": 12, "k": 3},
         "outcome": {"kind": "independent", "mu1": 1.0},
         "num_draws": 300, "allocation_mode": "exhaustive",
         "estimators": ["HT0", "HT1", "HTAvg", "MInd", "MDil"]},
        "37326b5c2336f2223e73b60abe4e1887a42be39972ef027e9208c1c2a61cbdf2"),
    "chunk_crossing_sample": (
        {"network": {"kind": "k_regular", "n": 12, "k": 3},
         "outcome": {"kind": "interaction", "mu1": 1.0, "delta1": 2.0},
         "num_draws": 300, "allocation_mode": "sample", "allocation_count": 64,
         "estimators": ["HT0", "HT1", "HTAvg", "MInd", "MDil"]},
        "778fd1d83df06d1116ca98ba8ba632b730e0f6819746015754c8bb41f7f0cc39"),
}


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


# ``lue`` with its address space capped at 1 GiB, so an oversized allocation fails in the child.
CAPPED_MAIN = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))
from lue.cli import main
sys.exit(main(sys.argv[1:]))
"""


def run_capped(*argv):
    """(exit code, stderr) of ``lue *argv`` in a child process under a 1 GiB memory cap."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(lue.__file__)),
               OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", CAPPED_MAIN, *argv], capture_output=True,
                          text=True, env=env, timeout=120)
    return proc.returncode, proc.stderr


def openblas_corename():
    """The OpenBLAS kernel that numpy's wheel runs on in this process, or None if unreadable."""
    libs = glob.glob(os.path.dirname(np.__file__) + ".libs/libscipy_openblas64_*.so")
    try:
        corename = ctypes.CDLL(libs[0]).scipy_openblas_get_corename64_
    except (IndexError, OSError, AttributeError):
        return None
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


def second_blas_kernel(host):
    """A kernel other than ``host`` that the CPU runs: Haswell given AVX2, else Sandybridge."""
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            flags = next(line for line in cpuinfo if line.startswith("flags")).split()
    except (OSError, StopIteration):
        return None
    if "avx2" in flags and host != "Haswell":
        return "Haswell"
    if "avx" in flags and host != "Sandybridge":
        return "Sandybridge"
    return None


# Run with tests/ on the path: writes each named PINNED_CSV setting's CSV under the
# directory argv[1] and prints the kernel it ran on with each CSV's sha256, as JSON.
SECOND_KERNEL_RUN = """
import contextlib, hashlib, io, json, pathlib, sys
from lue.cli import main
from test_cli import PINNED_CSV, openblas_corename, write_json
out, digests = pathlib.Path(sys.argv[1]), {}
for name in sys.argv[2:]:
    path = write_json(out / f"{name}.json", PINNED_CSV[name][0])
    with contextlib.redirect_stdout(io.StringIO()) as printed:
        code = main(["simulate", "--config", path, "--out-dir", str(out / name), "--seed", "7"])
    if code:
        sys.exit(f"{name}: lue simulate exited {code}")
    produced = pathlib.Path(printed.getvalue().strip())
    digests[name] = hashlib.sha256(produced.read_bytes()).hexdigest()
print(json.dumps({"kernel": openblas_corename(), "digests": digests}))
"""


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 16: the pinned bytes hold on the SkylakeX OpenBLAS kernel only; "
    "drop this marker once they hold under every kernel"))
def test_pinned_csv_bytes_hold_under_a_second_blas_kernel(tmp_path):
    """The benchmark's three simulate settings write their pinned bytes under another kernel.

    One subprocess forces the kernel with ``OPENBLAS_CORETYPE``, which acts only
    on the process that sets it, and reads back the kernel it got.
    """
    kernel = second_blas_kernel(openblas_corename())
    if kernel is None:
        pytest.skip("no second OpenBLAS kernel to force on this host")
    names = ["sim_exact", "sim_sample", "dense_er"]
    tests = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OPENBLAS_CORETYPE=kernel,
               PYTHONPATH=os.pathsep.join([os.path.dirname(os.path.dirname(lue.__file__)), tests]))
    proc = subprocess.run([sys.executable, "-c", SECOND_KERNEL_RUN, str(tmp_path), *names],
                          capture_output=True, text=True, env=env, timeout=120)
    if proc.returncode:
        pytest.fail(proc.stderr)
    ran = json.loads(proc.stdout)
    if ran["kernel"] != kernel:
        pytest.skip(f"OPENBLAS_CORETYPE={kernel} ran on kernel {ran['kernel']}")
    assert ran["digests"] == {name: PINNED_CSV[name][1] for name in names}


def test_package_version_is_the_pyproject_version():
    """A version bump edits both places; this catches one edited without the other."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as handle:
        assert tomllib.load(handle)["project"]["version"] == lue.__version__


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

    @pytest.mark.parametrize("prior, message", [
        ({"covariance": [[math.nan, 0.0], [0.0, 1.0]]}, "covariance entries must be finite"),
        ({"covariance": [[math.inf, 0.0], [0.0, 1.0]]}, "covariance entries must be finite"),
        ({"covariance": [[1.0, 0.0], [0.0, 1.0]], "dilation": math.nan},
         "dilation must be finite and non-negative, got nan"),
        ({"covariance": [[1.0, 0.0], [0.0, 1.0]], "dilation": -1},
         "dilation must be finite and non-negative, got -1.0"),
    ])
    def test_non_finite_prior_exits_2_naming_the_field(self, tmp_path, capsys, prior, message):
        path = write_json(tmp_path / "in.json", {"spec": {"levels": [1]}, "prior": prior})
        out_path = tmp_path / "never.csv"
        assert main(["weights", "--input", path, "--output", str(out_path)]) == 2
        assert f"error: prior: {message}" in capsys.readouterr().err
        assert not out_path.exists()

    def test_base_perturbation_without_dilation_exits_2(self, tmp_path, capsys):
        """The solve would ignore it, so the input is refused and the field named."""
        prior = {"covariance": np.eye(4).tolist(),
                 "base_perturbation": (1e-3 * (np.eye(4) + 0.1 * np.ones((4, 4)))).tolist()}
        path = write_json(tmp_path / "in.json", {"spec": {"levels": [2, 1]}, "prior": prior})
        out_path = tmp_path / "never.csv"
        assert main(["weights", "--input", path, "--output", str(out_path)]) == 2
        assert ("error: prior: base_perturbation applies only under a dilation"
                in capsys.readouterr().err)
        assert not out_path.exists()

    @pytest.mark.parametrize("payload, message", [
        # Each payload is otherwise valid for the spec the coercion would produce.
        ({"spec": {"levels": [2.7, 1]}, "prior": {"covariance": np.eye(4).tolist()}},
         "spec.levels: every level must be a positive integer"),
        ({"spec": {"levels": [True, 1]}, "prior": {"covariance": np.eye(3).tolist()}},
         "spec.levels: every level must be a positive integer"),
        ({"spec": {"levels": [1]}, "prior": {"covariance": np.eye(2).tolist(), "dilation": True}},
         "prior.dilation: expected int/float, got bool"),
        ({"spec": {"levels": [1]}, "probabilities": {"0": True, "1": 0.0},
          "prior": {"covariance": np.eye(2).tolist()}},
         "probabilities.0 must be a finite number, got True"),
        # An integer too large for a float: JSON has no bound on the digits.
        ({"spec": {"levels": [1]}, "probabilities": {"0": 10**400, "1": 0.5},
          "prior": {"covariance": np.eye(2).tolist()}},
         f"probabilities.0 must be a finite number, got {10**400}"),
        ({"spec": {"levels": [1]}, "prior": {"covariance": [[10**400, 0], [0, 1]]}},
         "prior: int too large to convert to float"),
        ({"spec": {"levels": [1]}, "prior": {"covariance": np.eye(2).tolist(), "dilation": 1,
                                             "base_perturbation": [[10**400, 0], [0, 1]]}},
         "prior: int too large to convert to float"),
        ({"spec": {"levels": [1]}, "prior": {"covariance": np.eye(2).tolist(),
                                             "dilation": 10**400}},
         "prior: int too large to convert to float"),
    ], ids=["float_level", "bool_level", "bool_dilation", "bool_probability", "huge_probability",
            "huge_covariance", "huge_base_perturbation", "huge_dilation"])
    def test_mistyped_number_exits_2_naming_the_field(self, tmp_path, capsys, payload, message):
        """A float, a JSON true or an integer too large for a float is refused, not coerced."""
        path = write_json(tmp_path / "in.json", payload)
        out_path = tmp_path / "never.csv"
        assert main(["weights", "--input", path, "--output", str(out_path)]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not out_path.exists()

    def test_ill_conditioned_solve_writes_its_warning(self, tmp_path, capsys):
        """A near-vanishing probability makes the solve warn in the header, and still pass."""
        raw = {f"{d},{z}": 1e-14 if z == 3 else 1.0 for d in range(2) for z in range(4)}
        total = sum(raw.values())
        payload = {"spec": {"levels": [1, 3]},
                   "probabilities": {key: value / total for key, value in raw.items()},
                   "prior": {"covariance": np.eye(5).tolist()}}
        path = write_json(tmp_path / "in.json", payload)
        assert main(["weights", "--input", path]) == 0
        warnings = [line for line in capsys.readouterr().out.splitlines()
                    if line.startswith("# warning=")]
        assert warnings == ["# warning=optimality system condition estimate 1.00e+14 "
                            "exceeds 1e12"]

    @pytest.mark.parametrize("payload, message", [
        (None, "input: file not found: "),
        ({"spec": {"levels": [1]}, "probabilities": {"a,b": 0.5},
          "prior": {"covariance": np.eye(2).tolist()}},
         "probabilities.a,b: key must be comma-separated integers"),
        ({"spec": {"levels": [1]}, "probabilities": {"0": 0.5, "1": 0.25},
          "prior": {"covariance": np.eye(2).tolist()}},
         "probabilities: exposure probabilities sum to 0.75, expected 1"),
        ({"spec": {"levels": [1]}, "probabilities": {"0": 0.5, "1": 0.5, "2": 0.0},
          "prior": {"covariance": np.eye(2).tolist()}},
         "probabilities: exposure (2,) is outside the set of levels (1,)"),
    ], ids=["missing_file", "key_not_integers", "pmf_sum", "pmf_foreign_exposure"])
    def test_bad_input_exits_2_naming_it(self, tmp_path, capsys, payload, message):
        path = str(tmp_path / "absent.json") if payload is None else write_json(
            tmp_path / "in.json", payload)
        out_path = tmp_path / "never.csv"
        assert main(["weights", "--input", path, "--output", str(out_path)]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not out_path.exists()

    def test_singular_solve_exits_1_naming_the_exposure(self, tmp_path, capsys):
        """A prior that gives an outcome zero variance fails the solve, not the input checks."""
        payload = {"spec": {"levels": [2, 1]}, "prior": {"covariance": np.zeros((4, 4)).tolist()}}
        path = write_json(tmp_path / "in.json", payload)
        assert main(["weights", "--input", path]) == 1
        assert capsys.readouterr().err == ("error: potential outcome at (1, 1) has prior variance "
                                           "0.0; system is singular\n")

    def test_rows_cover_every_exposure(self, tmp_path, capsys):
        path = write_json(tmp_path / "in.json", six_term_payload([1.0, 2.0, 3.0, 4.0]))
        assert main(["weights", "--input", path]) == 0
        out = capsys.readouterr().out
        data_rows = [l for l in out.splitlines() if l and not l.startswith("#")
                     and not l.startswith("exposure")]
        assert len(data_rows) == 6

    @pytest.mark.parametrize("payload, digest", [
        ({"spec": {"levels": [2, 1]},
          "probabilities": {"0,0": 0.125, "0,1": 0.125, "1,0": 0.25, "1,1": 0.25,
                            "2,0": 0.125, "2,1": 0.125},
          "prior": {"covariance": [[1.0, 0.5, 0.0, 0.0], [0.5, 2.0, 0.0, 0.0],
                                   [0.0, 0.0, 1.5, 0.0], [0.0, 0.0, 0.0, 0.75]],
                    "dilation": 100.0,
                    "base_perturbation": (1e-3 * (np.eye(4) + 0.1 * np.ones((4, 4)))).tolist()}},
         "fa1e3d7b63ccfe3e50db46a9a6a397bb375a7987fb456777131f07259f3d1fb7"),
        ({"spec": {"levels": [40, 1]}, "prior": {"covariance": np.eye(42).tolist()}},
         "0858ddc9f483e99783b73099a98441edba50d84591591f6310a9354257c0b8f6"),
    ], ids=["six_term_dilated", "identity_40"])
    def test_weights_bytes_are_pinned(self, tmp_path, capsys, payload, digest):
        """Pins every weight, variance and alpha digit, so a refactor cannot move them."""
        path = write_json(tmp_path / "in.json", payload)
        assert main(["weights", "--input", path]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_a_level_too_large_for_any_table_exits_2(self, tmp_path):
        """A 401-digit level is refused by its exposure count, before any table is sized."""
        path = write_json(tmp_path / "in.json", {"spec": {"levels": [10**400]},
                                                 "prior": {"covariance": [[1.0]]}})
        code, err = run_capped("weights", "--input", path)
        assert (code, err) == (2, "error: spec.levels: the levels give more than "
                                  "1,048,576 exposures\n")


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

    @pytest.mark.parametrize("levels, message", [
        ("3,x", "error: --m: invalid literal for int() with base 10: 'x'"),
        ("3,0", "error: --m: every level must be a positive integer, got 0"),
    ])
    def test_bad_levels_exit_2_naming_the_flag(self, capsys, levels, message):
        assert main(["basis", "--m", levels]) == 2
        captured = capsys.readouterr()
        assert message in captured.err and captured.out == ""

    @pytest.mark.parametrize("levels", [str(10**400), str(2**40), str(2**27)],
                             ids=["401_digits", "2**40", "2**27"])
    def test_levels_over_the_exposure_limit_exit_2(self, levels):
        """Refused by exposure count before any table is sized, under a 1 GiB memory cap."""
        code, err = run_capped("basis", "--m", levels)
        assert (code, err) == (2, "error: --m: the levels give more than 1,048,576 exposures\n")

    @pytest.mark.parametrize("levels, digest", [
        ("1", "7000f16efab63810"),
        ("5", "d97fbac88eae8fe4"),
        ("3,1", "60167f7ede275329"),
        ("2,1,1", "47ef7d26b068d81e"),
        ("3,2,1", "127f17200360ec2f"),
        ("1,1,1,1", "b819fa1ffee2c941"),
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

    @pytest.mark.parametrize("config, digest", PINNED_CSV.values(), ids=list(PINNED_CSV))
    def test_csv_bytes_are_pinned(self, tmp_path, capsys, config, digest):
        """Pins every digit of one setting's CSV, so a refactor cannot move them.

        The first run solves every weight row and builds its network point's
        setting, and the second reuses both from their memos; both must write
        the pinned bytes.
        """
        path = write_json(tmp_path / "setting.json", config)
        lue.simulation.clear_memos()
        for _ in ("cold", "warm"):
            assert main(["simulate", "--config", path, "--out-dir", str(tmp_path),
                         "--seed", "7"]) == 0
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

    @pytest.mark.parametrize("mode", [{"allocation_mode": "exhaustive"},
                                      {"allocation_mode": "sample", "allocation_count": 50}],
                             ids=["exhaustive", "sample"])
    def test_delta1_grid_is_paired(self, tmp_path, capsys, mode):
        """Settings on one network grid point share the seed, so a delta1 grid is paired.

        HT0 reads untreated outcomes only, which interaction never moves, so its
        rows agree but for the delta1 column; HT1 reads treated ones.  The two
        network grid points draw different networks and parameters.
        """
        config = write_json(tmp_path / "grid.json", {
            "network": {"kind": "k_regular", "n": 10, "k": [2, 3]},
            "outcome": {"kind": "interaction", "mu1": 50, "delta1": [0, 2, 4]},
            "num_draws": 20, "estimators": ["HT0", "HT1"], **mode,
        })
        assert main(["simulate", "--config", config, "--out-dir", str(tmp_path),
                     "--seed", "7"]) == 0
        produced = capsys.readouterr().out.strip()
        rows = [line.split(",") for line in open(produced).read().splitlines()
                if line.startswith("HT")]
        for k in ("2", "3"):
            point = [row for row in rows if row[2] == k]
            assert [row[5] for row in point if row[0] == "HT0"] == ["0", "2", "4"]
            assert len({tuple(row[:5] + row[6:]) for row in point if row[0] == "HT0"}) == 1
            assert len({row[6] for row in point if row[0] == "HT1"}) == 3
        assert len({row[6] for row in rows if row[0] == "HT0"}) == 2

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

    def test_dilated_setting_at_negative_eta1_solves(self, tmp_path, capsys):
        """MDil's rows at eta1 = -2 solve: the first elimination pass alone misses the gate."""
        path = write_json(tmp_path / "dilated.json", {
            "network": {"kind": "k_regular", "n": 6, "k": 2},
            "outcome": {"kind": "dilated", "eta1": -2}, "num_draws": 50,
            "allocation_mode": "exhaustive"})
        lue.simulation.clear_memos()
        assert main(["simulate", "--config", path, "--out-dir", str(tmp_path), "--seed", "7"]) == 0
        rows = open(capsys.readouterr().out.strip()).read().splitlines()
        assert any(row.startswith("MDil,6,2,dilated,-2,") for row in rows)

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

    @pytest.mark.parametrize("override,message", [
        ({"allocation_mode": "sample", "allocation_count": 0},
         "setting 0 failed: ValueError: allocation_count must be a positive integer"),
        ({"allocation_mode": "sample", "allocation_count": -3},
         "setting 0 failed: ValueError: allocation_count must be a positive integer"),
        ({"estimators": []},
         "setting 0 failed: ValueError: estimators must name at least one family"),
        ({"num_draws": 2.5}, "setting 0 failed: ValueError: num_draws must be a positive integer"),
        ({"num_draws": 0}, "setting 0 failed: ValueError: num_draws must be a positive integer"),
        ({"num_draws": True},
         "setting 0 failed: ValueError: num_draws must be a positive integer, got True"),
        ({"allocation_mode": "sample", "allocation_count": True},
         "setting 0 failed: ValueError: allocation_count must be a positive integer"),
        ({"estimators": "MInd"}, "setting 0 failed: ValueError: estimators must be a list of "
                                 "family names, got the string 'MInd'"),
        # JSON NaN and Infinity parse as floats.
        ({"outcome": {"kind": "interaction", "mu1": 0, "delta1": float("nan")}},
         "setting 0 failed: ValueError: delta1 must be a finite number, got nan"),
        ({"outcome": {"kind": "dilated", "eta1": float("inf")}},
         "setting 0 failed: ValueError: eta1 must be a finite number, got inf"),
        ({"outcome": {"kind": "independent", "mu1": float("-inf")}},
         "setting 0 failed: ValueError: mu1 must be a finite number, got -inf"),
        ({"outcome": {"kind": "independent", "mu1": "5"}},
         "setting 0 failed: ValueError: mu1 must be a finite number, got '5'"),
        # JSON true is a Python bool, which is also an int and a real number.
        ({"outcome": {"kind": "independent", "mu1": True}},
         "setting 0 failed: ValueError: mu1 must be a finite number, got True"),
        ({"network": {"kind": "erdos_renyi", "n": 10, "p_edge": True}},
         "setting 0 failed: ValueError: p_edge must be a finite number, got True"),
        ({"network": {"kind": "k_regular", "n": 10, "k": True}},
         "setting 0 failed: ValueError: k must be a positive integer, got True"),
        ({"network": {"kind": "k_regular", "n": 10.0, "k": 2}},
         "setting 0 failed: ValueError: n must be a positive integer, got 10.0"),
        ({"p_treat": "0.5"}, "setting 0 failed: ValueError: p_treat must be a finite number, got '0.5'"),
        ({"p_treat": None}, "setting 0 failed: ValueError: p_treat must be a finite number, got None"),
        ({"p_treat": [0.5]}, "setting 0 failed: ValueError: p_treat must be a finite number, got [0.5]"),
        ({"p_treat": True}, "setting 0 failed: ValueError: p_treat must be a finite number, got True"),
        ({"estimators": ["MInd", "HT0", "MInd"]},
         "setting 0 failed: ValueError: estimator family 'MInd' is listed more than once"),
        # A field the run never reads is refused, not silently dropped.
        ({"num_draw": 3, "estimator": ["HT0"]},
         "setting 0 failed: ValueError: unknown config field 'estimator', 'num_draw'"),
        ({"network": {"kind": "k_regular", "n": 8, "k": 2, "p_edge": 0.3}},
         "setting 0 failed: ValueError: p_edge is not read under kind 'k_regular', got 0.3"),
        ({"network": {"kind": "erdos_renyi", "n": 8, "p_edge": 0.3, "k": 2}},
         "setting 0 failed: ValueError: k is not read under kind 'erdos_renyi', got 2"),
        ({"outcome": {"kind": "independent", "mu1": 0, "delta1": 5}},
         "setting 0 failed: ValueError: delta1 is not read under kind 'independent', got 5"),
        ({"outcome": {"kind": "dilated", "eta1": 2, "delta1": 1}},
         "setting 0 failed: ValueError: delta1 is not read under kind 'dilated', got 1"),
        ({"outcome": {"kind": "independent", "eta1": 2}},
         "setting 0 failed: ValueError: eta1 is not read under kind 'independent', got 2"),
        ({"outcome": {"kind": "interaction", "delta1": 1, "eta1": 0.5}},
         "setting 0 failed: ValueError: eta1 is not read under kind 'interaction', got 0.5"),
        ({"outcome": {"kind": "dilated", "mu1": 3, "eta1": 2}},
         "setting 0 failed: ValueError: mu1 is not read under kind 'dilated', got 3"),
    ])
    def test_out_of_range_setting_names_the_field(self, tmp_path, capsys, override, message):
        config = {**self.sweep_config(), "network": {"kind": "k_regular", "n": 8, "k": 2},
                  "outcome": {"kind": "independent", "mu1": 0}, **override}
        path = write_json(tmp_path / "sweep.json", config)
        code = main(["simulate", "--config", path, "--out-dir", str(tmp_path / "out")])
        assert code == 1
        assert message in capsys.readouterr().err

    def test_int_too_large_for_a_float_fails_its_setting_by_name(self, tmp_path, capsys):
        """JSON reads a 401-digit ``mu1`` as an int that no float can hold."""
        config = {**self.sweep_config(), "network": {"kind": "k_regular", "n": 8, "k": 2},
                  "outcome": {"kind": "independent", "mu1": 10**400}}
        path = write_json(tmp_path / "huge.json", config)
        assert main(["simulate", "--config", path, "--out-dir", str(tmp_path / "out")]) == 1
        assert (f"setting 0 failed: ValueError: mu1 must be a finite number, got {10**400}\n"
                in capsys.readouterr().err)

    def test_unread_grid_value_fails_its_setting_by_name(self, tmp_path, capsys):
        """A grid over delta1 under the independent model writes no row labelled delta1 5."""
        config = {"network": {"kind": "k_regular", "n": 8, "k": 2},
                  "outcome": {"kind": "independent", "mu1": 0, "delta1": [0, 5]},
                  "num_draws": 2, "estimators": ["HT0"]}
        path = write_json(tmp_path / "grid.json", config)
        assert main(["simulate", "--config", path, "--out-dir", str(tmp_path / "out")]) == 1
        captured = capsys.readouterr()
        assert ("setting 1 failed: ValueError: delta1 is not read under kind 'independent', "
                "got 5") in captured.err
        rows = [line for line in open(captured.out.strip()).read().splitlines()
                if line.startswith("HT0,")]
        assert len(rows) == 1 and rows[0].split(",")[5] == "0"

    def test_underflowing_pmf_names_degree_and_p_treat(self, tmp_path, capsys):
        """A dense graph at a small p_treat fails its setting with the cause named."""
        config = {"network": {"kind": "erdos_renyi", "n": 400, "p_edge": 0.9},
                  "outcome": {"kind": "independent", "mu1": 0}, "p_treat": 0.1,
                  "allocation_mode": "sample", "allocation_count": 10, "num_draws": 1,
                  "estimators": ["HT0"]}
        path = write_json(tmp_path / "dense.json", config)
        code = main(["simulate", "--config", path, "--out-dir", str(tmp_path / "out")])
        assert code == 1
        setting = ExperimentConfig.from_dict({**config, "master_seed": _setting_seed(0, 0)})
        lowest = int(setting.build_network().in_degrees.min())
        assert (f"setting 0 failed: ValueError: in-degree {lowest} at p_treat 0.1: "
                "the mass of exposure") in capsys.readouterr().err

    @pytest.mark.parametrize("payload,message", [
        ([1, 2], "error: config: expected a JSON object, got list"),
        ({"network": 5, "outcome": {"kind": "independent"}},
         "error: network: expected dict, got int"),
        ({"network": {"kind": "k_regular", "n": 8, "k": 2}},
         "error: outcome: missing required field"),
        ({"network": {"kind": "k_regular", "n": 8, "k": []},
          "outcome": {"kind": "independent", "mu1": 0}},
         "error: network.k: grid list is empty"),
        ({"network": {"kind": "k_regular", "n": 6, "k": 2},
          "outcome": {"kind": "independent"}, "master_seed": 12345},
         "error: master_seed: each setting's seed is derived from --seed; remove the key"),
    ])
    def test_malformed_config_exits_2(self, tmp_path, capsys, payload, message):
        path = write_json(tmp_path / "bad.json", payload)
        out_dir = tmp_path / "out"
        assert main(["simulate", "--config", path, "--out-dir", str(out_dir)]) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == "" and not out_dir.exists()

    def test_verbose_logs_stage_timings(self, tmp_path):
        """-v logs each setting's stage timings, weight rows and build; without it, nothing."""
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
        # Each k-regular setting has one in-degree, and the mu1 axis reuses its five rows.
        rows = [re.search(r"weight rows solved=(\d+) reused=(\d+)", line).groups()
                for line in timed]
        assert sorted(rows) == [("0", "5"), ("0", "5"), ("5", "0"), ("5", "0")]
        # The mu1 axis runs inside each k, so the second setting of each k reuses its build.
        assert [line.rsplit("; setting ", 1)[1] for line in timed] == [
            "built", "reused", "built", "reused"]


class TestVerifyCommand:
    def test_filtered_checks_pass(self, capsys):
        assert main(["verify", "--filter", "design_oracle"]) == 0
        assert "[PASS] design_oracle" in capsys.readouterr().out

    def test_design_oracle_enumerates_each_network_once(self, monkeypatch):
        """One allocation matrix per (network, p_treat): eight networks at two p_treat."""
        calls = []

        def spy(design):
            calls.append((design.n, design.p_treat))
            return allocation_matrix(design)

        monkeypatch.setattr(lue.verify, "allocation_matrix", spy)
        monkeypatch.setattr(lue.design, "allocation_matrix", spy)
        assert check_design_oracle() == (True, "")
        assert sorted(calls) == sorted([(n, p) for n in (3, 5, 8, 10) for p in (0.5, 0.3)] * 2)

    def test_unknown_filter(self, capsys):
        assert main(["verify", "--filter", "no_such_check"]) == 2

    def test_every_check_passes(self, capsys):
        assert main(["verify"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(" (")[0] for line in lines] == [
            f"[PASS] {name}" for name in lue.verify.ALL_CHECKS]
        assert len(lines) == 5


def swapped_pmf(degree, p_treat):
    """The Bernoulli exposure pmf with its entries reversed: a corruption the design oracle must catch."""
    dist = bernoulli_exposure_distribution(degree, p_treat)
    return ExposureDistribution(dist.spec, dist.vector[::-1])


def nudged_pmf(degree, p_treat):
    """The Bernoulli exposure pmf, with its first mass off by 1e-13 relative at p_treat 0.3."""
    dist = bernoulli_exposure_distribution(degree, p_treat)
    if p_treat != 0.3:
        return dist
    vector = dist.vector.copy()
    vector[0] *= 1.0 + 1e-13
    return ExposureDistribution(dist.spec, vector)


def no_own_treatment(network, units):
    """The slot map without its own-treatment term: every slot is 2d, never 2d + 1."""
    return 2 * network.adjacency.astype(np.float32)[:, units]


class TestCheckInjection:
    def test_a_slot_map_without_own_treatment_fails_both_oracles(self, monkeypatch):
        """Both enumeration oracles push every allocation through the slot map that runs.

        With no own-treatment term, no allocation reaches a treated exposure: the design
        oracle finds its mass 0, and the exact unit pmf refuses the zero mass.
        """
        for module in (lue.design, lue.verify):
            monkeypatch.setattr(module, "slot_coefficients", no_own_treatment)
        assert check_design_oracle() == (
            False, "n=3 unit=0 exposure=(1, 1): closed 0.25 vs exact 0.0")
        network = gen_k_regular_directed(5, 2, seed=5)
        with pytest.raises(ValueError, match=r"exposure \(1, 1\) needs .* got 0.0"):
            exposure_distribution_exact(BernoulliDesign(5, 0.5), "network_interference",
                                        network, 0)

    def test_a_biased_atomic_set_fails_constraint_residuals_naming_its_spec(self, monkeypatch):
        """Doubled weights miss the estimand by 1 on a scale of 2, at levels (2, 1) only."""
        original = lue.verify.build_malue_set

        def doubled(spec, probs):
            members = original(spec, probs)
            if spec.levels != (2, 1):
                return members
            return [LinearEstimator(spec, 2 * member.vector, member.name) for member in members]

        monkeypatch.setattr(lue.verify, "build_malue_set", doubled)
        assert check_constraint_residuals() == (False, (
            "levels (2, 1): estimator four_term(1, 1) violates constraints "
            "(relative residual 5.000e-01)"))

    @pytest.mark.parametrize("name, message", [
        ("malue_count", "enumerated sizes (4, 0) != closed forms (5, 0)"),
        ("basis_count", "basis size mismatch"),
        ("lue_dimension", "dimension identity fails"),
    ])
    def test_a_wrong_closed_form_fails_basis_ranks_naming_its_spec(self, monkeypatch, name,
                                                                    message):
        """Each closed form one too large at levels (1, 3), partway through the sweep."""
        closed_form = getattr(lue.verify, name)
        monkeypatch.setattr(lue.verify, name,
                            lambda spec: closed_form(spec) + (spec.levels == (1, 3)))
        assert check_basis_ranks() == (False, f"levels (1, 3): {message}")

    def test_coefficients_off_their_sum_fail_by_trial(self):
        """1e-10 off per coefficient is within the solve's tolerance, not the sum's 1e-12."""

        def drifted(probs, variances):
            return tuple(a + 1e-10 for a in six_term_alpha_weights(probs, variances))

        ok, details = check_six_term_closed_form(alpha_fn=drifted, trials=3)
        assert not ok
        assert details.startswith("trial 0: coefficients sum to 1.00000000030")

    def test_sign_flip_is_caught_and_named(self):
        """A corrupted four-term estimator fails the constraint check by name."""
        spec = ExposureSpec((3, 1))
        probs = uniform_distribution(spec)
        estimators = list(build_malue_set(spec, probs))
        assert estimators[1].name == "four_term(1, 1)"
        vector = estimators[1].as_vector()
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

        ok, details = check_six_term_closed_form(alpha_fn=broken_alpha, trials=5)
        assert not ok
        assert "closed form" in details

    def test_corrupted_simulation_pmf_fails_the_design_oracle(self, monkeypatch):
        """The design oracle checks the pmf the simulation reads, so corrupting it is caught."""
        monkeypatch.setattr(lue.verify, "bernoulli_exposure_distribution", swapped_pmf)
        ok, details = check_design_oracle()
        assert not ok
        assert "closed" in details and "vs exact" in details

    def test_design_oracle_names_the_first_offender(self, monkeypatch):
        """The first offender in canonical order, with its values printed as plain floats."""
        monkeypatch.setattr(lue.verify, "bernoulli_exposure_distribution", swapped_pmf)
        ok, details = check_design_oracle()
        assert not ok
        assert details == "n=3 unit=0 exposure=(1, 1): closed 0.125 vs exact 0.25"

    def test_pmf_off_by_1e_13_relative_fails_the_design_oracle(self, monkeypatch):
        """Unit pmfs are held to exact cell masses, to 1e-15 at p_treat 0.3, not to 1e-12."""
        monkeypatch.setattr(lue.verify, "bernoulli_exposure_distribution", nudged_pmf)
        ok, details = check_design_oracle()
        assert not ok
        assert details == "n=3 unit=0 exposure=(1, 1): closed 0.1260000000000126 vs exact 0.126"

    def test_transposed_joint_block_fails_the_design_oracle(self, monkeypatch):
        """The design oracle reads every block of the joint pmf, and names the pair that is off."""
        original = lue.verify.joint_exposure_pmf
        transposed = []

        def corrupted(network, units, width, p_treat):
            joint = original(network, units, width, p_treat)
            block = joint[:width, width:2 * width]
            if not np.array_equal(block, block.T):
                transposed.append((units[0], units[1]))
            block[...] = block.T.copy()
            return joint

        monkeypatch.setattr(lue.verify, "joint_exposure_pmf", corrupted)
        ok, details = check_design_oracle()
        assert not ok and transposed
        assert f"units {transposed[-1]}:" in details and "vs exact" in details

    def test_biased_weight_row_fails_enumeration_unbiasedness(self, monkeypatch, capsys):
        """A weight row off by one part in a thousand moves the exact mean off the truth."""
        original = lue.simulation.family_weights
        lue.simulation.clear_memos()  # a held network point would never call the patch

        def biased(names, degree, p_treat, eta1=1.0):
            rows = original(names, degree, p_treat, eta1).copy()
            rows[-1, -1] *= 1.001
            return rows

        monkeypatch.setattr(lue.simulation, "family_weights", biased)
        assert main(["verify", "--filter", "enumeration_unbiasedness"]) == 1
        (line,) = capsys.readouterr().out.splitlines()
        assert line.startswith("[FAIL] enumeration_unbiasedness (")
        assert "MDil draw 0: |mean - truth|" in line

    def test_failing_check_exits_1_through_the_runner(self, monkeypatch, capsys):
        """``lue verify`` times a failing check, prints it as FAIL with its details, and exits 1."""
        monkeypatch.setattr(lue.verify, "bernoulli_exposure_distribution", swapped_pmf)
        assert main(["verify", "--filter", "design_oracle"]) == 1
        (line,) = capsys.readouterr().out.splitlines()
        assert line.startswith("[FAIL] design_oracle (")
        assert "vs exact" in line


class TestReadme:
    def test_simulate_config_example_runs(self, tmp_path, capsys):
        """The README's ``simulate`` config runs as written: four settings of five families."""
        readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
        section = readme.split("`simulate` config example", 1)[1]
        block = re.search(r"```json\n(.*?)```", section, flags=re.DOTALL).group(1)
        path = tmp_path / "sweep.json"
        path.write_text(block)
        assert main(["simulate", "--config", str(path), "--out-dir", str(tmp_path / "out")]) == 0
        text = open(capsys.readouterr().out.strip()).read()
        rows = [line for line in text.splitlines() if line and not line.startswith("#")]
        assert len(rows) == 1 + 20  # header + settings x families

    def test_library_example_runs(self, capsys):
        """The README's python block runs as written and prints its four results."""
        readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
        blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.DOTALL)
        assert len(blocks) == 1
        exec(compile(blocks[0], "README.md", "exec"), {})
        assert len(capsys.readouterr().out.splitlines()) >= 4

    def test_command_lines_parse(self):
        """Each ``lue`` line of the Command line block parses, with and without its [...] groups."""
        readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
        section = readme.split("## Command line", 1)[1]
        block = re.search(r"```bash\n(.*?)```", section, flags=re.DOTALL).group(1)
        commands = [line for line in block.splitlines() if line.startswith("lue ")]
        assert len(commands) >= 4
        parser = build_parser()
        for command in commands:
            with_groups = re.sub(r"\[(.*?)\]", r"\1", command)
            for variant in (with_groups, re.sub(r"\[.*?\]", "", command)):
                args = parser.parse_args(shlex.split(variant)[1:])
                assert callable(args.func), variant


class TestPackageImport:
    def test_import_does_not_load_scipy(self):
        """The package needs numpy only; importing it pulls in no scipy module."""
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(lue.__file__)))
        code = "import sys, lue, lue.cli; print('scipy' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=60, check=True)
        assert proc.stdout.strip() == "False"
