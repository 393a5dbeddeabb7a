"""Command-line interface: reports, exit codes, file round trips."""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qbench import cli, cv, model
from qbench.canonical import RECIPE_TOL, canonical_det_test
from qbench.cli import build_parser, main
from qbench.cv import AnalyticDevice, CvParams, FockCutoff, attenuator_device
from qbench.linalg import Operator, operator_to_json
from qbench.model import (
    Channel,
    DetTest,
    channel_to_json,
    det_test_to_json,
    performance_operator,
    prob_test_to_json,
)
from qbench.presets import equator_test, teleport_test


def run_cli(capsys, *argv: str) -> tuple[int, dict | None, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out.startswith("{") else None
    return code, payload, captured.err


def _gram(rng: np.random.Generator, d: int) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return g @ g.conj().T


def strip_timestamp(text: str) -> str:
    """``text`` without the value of its timestamp, in JSON or in CSV."""
    return re.sub(r"\d{4}-\d\d-\d\dT[\d:]+[+-]\d\d:\d\d", "", text)


class TestBenchmarkCommand:
    def test_teleport_qubit(self, capsys):
        code, out, _ = run_cli(capsys, "benchmark", "--builtin", "teleport")
        assert code == 0
        assert abs(out["value"] - 2.0 / 3.0) < 1e-6
        assert out["lower"] <= 2.0 / 3.0 + 1e-9
        # the largest eigenvalue 2/3 is attained, so the grid cannot tighten it
        assert abs(out["upper"] - 2.0 / 3.0) < 1e-12
        assert out["method"] == "spectral"

    def test_teleport_qutrit_colon_form(self, capsys):
        code, out, _ = run_cli(capsys, "benchmark", "--builtin", "teleport:3")
        assert code == 0
        assert abs(out["value"] - 0.5) < 1e-4

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_teleport_bracket_is_not_inverted(self, capsys, d):
        # the spectral bound can undercut the seesaw value by roundoff
        code, out, _ = run_cli(capsys, "benchmark", "--builtin", f"teleport:{d}")
        assert code == 0
        assert out["lower"] <= out["upper"]

    def test_chsh(self, capsys):
        code, out, _ = run_cli(capsys, "benchmark", "--builtin", "chsh")
        assert code == 0
        assert abs(out["value"] - math.sqrt(2.0)) < 1e-6

    def test_equator(self, capsys):
        code, out, _ = run_cli(capsys, "benchmark", "--builtin", "equator")
        assert code == 0
        assert abs(out["value"] - 0.75) < 1e-6

    def test_coherent_closed_form(self, capsys):
        code, out, _ = run_cli(
            capsys, "benchmark", "--builtin", "coherent", "--g", "1", "--lambda", "1"
        )
        assert code == 0
        assert abs(out["value"] - 2.0 / 3.0) < 1e-12
        assert out["method"] == "closed_form"

    def test_omega_file_prob_test(self, capsys, tmp_path):
        path = tmp_path / "equator.json"
        path.write_text(json.dumps(prob_test_to_json(equator_test(3))))
        code, out, _ = run_cli(capsys, "benchmark", "--omega", str(path))
        assert code == 0
        assert abs(out["value"] - 0.75) < 1e-6

    def test_omega_file_bare_operator(self, capsys, tmp_path):
        # a bare performance operator gets the maximally mixed reference
        t = teleport_test(2)
        path = tmp_path / "omega.json"
        path.write_text(json.dumps(operator_to_json(t.omega)))
        code, out, _ = run_cli(capsys, "benchmark", "--omega", str(path))
        assert code == 0
        assert abs(out["value"] - 2.0 / 3.0) < 1e-6

    @pytest.mark.parametrize("dims", [(2, 1), (1, 2)])
    def test_omega_with_a_one_dimensional_factor(self, capsys, tmp_path, dims):
        # the grid over C^1 is the one state [1]: the bracket closes exactly,
        # and the grid only ties the largest eigenvalue, so that sets upper
        m = _gram(np.random.default_rng(3), 2)
        m /= np.trace(m).real
        path = tmp_path / "omega.json"
        path.write_text(json.dumps(operator_to_json(Operator(m, dims))))
        code, out, _ = run_cli(capsys, "benchmark", "--omega", str(path))
        # the maximally mixed reference scales the operator by d_in
        top = dims[1] * np.linalg.eigvalsh(m)[-1]
        assert code == 0
        assert out["certified"] and out["method"] == "spectral"
        assert abs(out["value"] - top) < 1e-12
        assert abs(out["upper"] - top) < 1e-12

    def test_spectral_bound_is_named(self, capsys, tmp_path):
        # past two qubits ``upper`` is the largest eigenvalue, and ``method``
        # names that certificate for both report kinds
        rng = np.random.default_rng(2)
        m = sum(np.kron(_gram(rng, 2), _gram(rng, 3)) for _ in range(2))
        omega = Operator(m / np.trace(m).real, (2, 3))
        prob = tmp_path / "omega.json"
        prob.write_text(json.dumps(operator_to_json(omega)))
        det = tmp_path / "det.json"
        det.write_text(json.dumps(det_test_to_json(canonical_det_test(omega).as_det_test())))
        for flag, path in (("--omega", prob), ("--test", det)):
            code, out, _ = run_cli(capsys, "benchmark", flag, str(path))
            assert code == 0 and out["certified"]
            assert out["method"] == "spectral", flag
            assert out["lower"] <= out["upper"]

    @pytest.mark.parametrize("scale", [1e4, 1e8, 1e10])
    def test_scaled_det_test_file(self, capsys, tmp_path, scale):
        # every tolerance scales with the observable: the threshold is 2/3·s
        det = canonical_det_test(teleport_test(2).omega).as_det_test()
        obs = Operator(scale * det.observable.matrix, det.observable.dims)
        path = tmp_path / "det.json"
        path.write_text(json.dumps(det_test_to_json(DetTest(det.sigma_AR, obs))))
        code, out, _ = run_cli(capsys, "benchmark", "--test", str(path))
        target = 2.0 / 3.0 * scale
        assert code == 0 and out["converged"]
        assert out["lower"] <= target * (1 + 1e-9) and out["upper"] >= target * (1 - 1e-9)

    def test_det_test_file(self, capsys, tmp_path):
        det = canonical_det_test(teleport_test(2).omega).as_det_test()
        path = tmp_path / "det.json"
        path.write_text(json.dumps(det_test_to_json(det)))
        code, out, _ = run_cli(capsys, "benchmark", "--test", str(path))
        assert code == 0
        assert abs(out["value"] - 2.0 / 3.0) < 1e-6
        assert "tau_min" in out

    def test_det_bracket_holds_the_threshold(self, capsys, tmp_path):
        # three-term separable operator on (2, 3); an explicit strategy
        # scores 0.7519 and the grid oracle bounds the threshold by 0.8401
        rng = np.random.default_rng(1)
        m = sum(np.kron(_gram(rng, 2), _gram(rng, 3)) for _ in range(3))
        omega = Operator(m / np.trace(m).real, (2, 3))
        det = canonical_det_test(omega).as_det_test()
        path = tmp_path / "det.json"
        path.write_text(json.dumps(det_test_to_json(det)))
        code, out, _ = run_cli(capsys, "benchmark", "--test", str(path))
        assert code == 0
        assert out["certified"]
        assert 0.7519 <= out["lower"] <= out["upper"] <= 0.8401

    def test_det_bracket_is_pinned(self, capsys, tmp_path):
        # the same reproducer; any valid cut sequence puts ``lower`` within
        # d_in * CUT_TOL * rho(omega) of the optimum, while ``upper`` is the
        # spectral bound at tau_min and moves with the cut sequence's Y
        rng = np.random.default_rng(1)
        m = sum(np.kron(_gram(rng, 2), _gram(rng, 3)) for _ in range(3))
        omega = Operator(m / np.trace(m).real, (2, 3))
        path = tmp_path / "det.json"
        path.write_text(json.dumps(det_test_to_json(canonical_det_test(omega).as_det_test())))
        code, out, _ = run_cli(capsys, "benchmark", "--test", str(path))
        assert code == 0
        assert out["certified"]
        assert abs(out["lower"] - 0.7536382644) < 1e-6
        assert abs(out["upper"] - 0.7819443547) < 1e-6

    def test_malformed_json_names_the_line(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"omega": [1,\n  }')
        code, _, err = run_cli(capsys, "benchmark", "--omega", str(path))
        assert code == 1
        assert f"{path}:2" in err

    @pytest.mark.parametrize("flag", ["--omega", "--test", "--device"])
    def test_file_past_the_byte_cap_is_refused_unread(self, capsys, monkeypatch, tmp_path, flag):
        # each flag's file is valid JSON padded to 2 MiB, so reading it alone
        # would pass the 1 MiB peak; 45 bytes per byte is past a 16 MiB cap
        if flag == "--device":
            data = channel_to_json(attenuator_device(0.8).materialize(FockCutoff(50)))
            argv = ("cv", "--device", "@{}", "--cutoff", "50")
        else:
            omega = teleport_test(4).omega
            data = operator_to_json(omega) if flag == "--omega" else det_test_to_json(
                canonical_det_test(omega).as_det_test()
            )
            argv = ("benchmark", flag, "{}")
        path = tmp_path / "input.json"
        text = json.dumps(data)
        path.write_text(text + " " * (2**21 - len(text)))
        size = path.stat().st_size
        monkeypatch.setattr(model, "ARRAY_MAX_BYTES", 2**24)
        assert cli.JSON_PEAK_PER_BYTE * size > 2**24
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, *(a.format(path) for a in argv))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and out is None
        assert f"{path} holds {size} bytes" in err and "uncertified" in err
        assert peak < 2**20, peak

    def test_teleport_past_the_byte_cap_is_uncertified(self, capsys):
        # teleport:999 used to die allocating 7.25 TiB
        code, out, err = run_cli(capsys, "benchmark", "--builtin", "teleport:999")
        assert (code, out) == (2, None)
        assert "d=999" in err and "MiB cap" in err

    def test_requires_exactly_one_source(self, capsys):
        code, _, err = run_cli(capsys, "benchmark")
        assert code == 1
        assert "exactly one" in err

    def test_negative_restarts_is_a_usage_error(self, capsys):
        # refused by the parser, as every other usage error is
        code, out, err = run_cli(capsys, "benchmark", "--builtin", "chsh", "--restarts", "-3")
        assert (code, out) == (1, None)
        assert "--restarts" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("benchmark", "--builtin", "equator:3", "--seed", "-1"),
            ("benchmark", "--omega", "{omega}", "--seed", "-3"),
            ("canonical", "--omega", "{omega}", "--seed", "-1"),
            ("benchmark", "--builtin", "chsh", "--restarts", "2.5"),
        ],
    )
    def test_seed_and_restarts_take_non_negative_integers(self, capsys, tmp_path, argv):
        # each of these ended in numpy's "expected non-negative integer" traceback
        path = tmp_path / "equator.json"
        path.write_text(json.dumps(prob_test_to_json(equator_test(3))))
        code, out, err = run_cli(capsys, *(a.format(omega=path) for a in argv))
        assert (code, out) == (1, None)
        assert err.startswith("usage: qbench ") and "non-negative integer" in err

    def test_start_count_past_the_byte_cap_is_uncertified(self, capsys):
        # 10**12 starts used to end in a MemoryError traceback (29.1 TiB)
        code, out, err = run_cli(
            capsys, "benchmark", "--builtin", "teleport:2", "--restarts", str(10**12)
        )
        assert (code, out) == (2, None)
        assert "starts needs" in err and "MiB cap" in err

    def test_unknown_builtin(self, capsys):
        code, _, err = run_cli(capsys, "benchmark", "--builtin", "nope")
        assert code == 1
        assert "nope" in err

    def test_seeded_runs_are_byte_identical(self, capsys):
        main(["benchmark", "--builtin", "chsh", "--seed", "11"])
        first = capsys.readouterr().out
        main(["benchmark", "--builtin", "chsh", "--seed", "11"])
        second = capsys.readouterr().out
        assert strip_timestamp(first) == strip_timestamp(second)

    def test_csv_keeps_scalars_only(self, capsys):
        code = main(["benchmark", "--builtin", "teleport", "--format", "csv"])
        out = capsys.readouterr().out
        assert code == 0
        header, row = out.strip().splitlines()
        assert "value" in header.split(",")
        assert "tau_min" not in header

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code = main(["benchmark", "--builtin", "chsh", "--out", str(path)])
        assert code == 0
        assert capsys.readouterr().out == ""
        data = json.loads(path.read_text())
        assert abs(data["value"] - math.sqrt(2.0)) < 1e-6


class TestCanonicalCommand:
    def test_prob_test_round_trip(self, capsys, tmp_path):
        path = tmp_path / "teleport.json"
        path.write_text(json.dumps(prob_test_to_json(teleport_test(2))))
        code, out, _ = run_cli(capsys, "canonical", "--omega", str(path))
        assert code == 0
        assert out["round_trip_residual"] < 1e-9
        assert out["check"]["deviation"] < 1e-9
        assert out["recipe"]["input_state"]["dims"] == [2, 2]

    def test_det_test_round_trip(self, capsys, tmp_path):
        det = canonical_det_test(teleport_test(2).omega).as_det_test()
        path = tmp_path / "det.json"
        path.write_text(json.dumps(det_test_to_json(det)))
        code, out, _ = run_cli(capsys, "canonical", "--test", str(path))
        assert code == 0
        assert out["round_trip_residual"] < 1e-9
        assert abs(out["check"]["score_original"] - out["check"]["score_recipe"]) < 1e-9

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(
        k=st.integers(-6, 12),
        d_out=st.integers(1, 3),
        d_in=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(k=6, d_out=2, d_in=2, seed=0)
    @example(k=8, d_out=2, d_in=2, seed=0)
    @example(k=12, d_out=2, d_in=2, seed=0)
    def test_scaled_det_test_is_certified(self, tmp_path_factory, k, d_out, d_in, seed):
        """A det test whose observable is scaled by 10**k is certified: its
        round trip and check channel are judged against their own size."""
        rng = np.random.default_rng(seed)
        sigma = _gram(rng, d_in * d_in)
        g = rng.normal(size=(d_out * d_in,) * 2) + 1j * rng.normal(size=(d_out * d_in,) * 2)
        test = DetTest(
            Operator(sigma / np.trace(sigma).real, (d_in, d_in)),
            Operator(10.0**k * (g + g.conj().T), (d_out, d_in)),
        )
        work = tmp_path_factory.mktemp("scaled")
        (work / "det.json").write_text(json.dumps(det_test_to_json(test)))
        argv = ["canonical", "--test", str(work / "det.json"), "--out", str(work / "out.json")]
        assert main(argv) == 0
        out = json.loads((work / "out.json").read_text())
        scale = np.linalg.norm(performance_operator(test).matrix)
        assert out["certified"]
        assert out["round_trip_residual"] <= RECIPE_TOL * max(1.0, scale)

    @pytest.mark.parametrize("d_out, d_in", [(2, 3), (3, 2)])
    def test_det_test_unequal_dims(self, capsys, tmp_path, d_out, d_in):
        # the check channel has to map the input dimension to the output one
        rng = np.random.default_rng(2)
        m = sum(np.kron(_gram(rng, d_out), _gram(rng, d_in)) for _ in range(3))
        omega = Operator(m / np.trace(m).real, (d_out, d_in))
        path = tmp_path / "det.json"
        path.write_text(json.dumps(det_test_to_json(canonical_det_test(omega).as_det_test())))
        code, out, _ = run_cli(capsys, "canonical", "--test", str(path))
        assert code == 0
        assert out["round_trip_residual"] < 1e-9
        assert out["check"]["deviation"] < 1e-9

    def test_prob_test_unequal_dims(self, capsys, tmp_path):
        rng = np.random.default_rng(3)
        omega, sigma = _gram(rng, 8), _gram(rng, 4)
        data = {
            "omega": operator_to_json(Operator(omega / np.trace(omega).real, (2, 4))),
            "sigma_A": operator_to_json(Operator(sigma / np.trace(sigma).real, (4,))),
        }
        path = tmp_path / "prob.json"
        path.write_text(json.dumps(data))
        code, out, _ = run_cli(capsys, "canonical", "--omega", str(path))
        assert code == 0
        assert out["round_trip_residual"] < 1e-9
        assert out["check"]["deviation"] < 1e-9

    def test_bare_operator(self, capsys, tmp_path):
        path = tmp_path / "omega.json"
        path.write_text(json.dumps(operator_to_json(teleport_test(2).omega)))
        code, out, _ = run_cli(capsys, "canonical", "--omega", str(path))
        assert code == 0
        assert out["check"] is None
        assert out["round_trip_residual"] < 1e-9

    def test_rank_deficient_reference_is_diagnosed(self, capsys, tmp_path):
        sigma = np.zeros((2, 2))
        sigma[0, 0] = 1.0
        data = {
            "omega": operator_to_json(Operator(np.eye(4) / 1.0, (2, 2))),
            "sigma_A": operator_to_json(Operator(sigma, (2,))),
        }
        path = tmp_path / "deficient.json"
        path.write_text(json.dumps(data))
        code, _, err = run_cli(capsys, "canonical", "--omega", str(path))
        assert code == 2
        assert "support" in err


class TestCvCommand:
    def test_identity_device(self, capsys):
        code, out, _ = run_cli(capsys, "cv", "--device", "identity", "--cutoff", "30")
        assert code == 0
        assert abs(out["score"] - 1.0) < 1e-6
        assert out["abs_diff"] < 1e-4
        assert out["method"] == "setup+oracle"

    def test_vacuum_device(self, capsys):
        code, out, _ = run_cli(capsys, "cv", "--device", "vacuum", "--cutoff", "30")
        assert code == 0
        assert abs(out["value"] - 0.5) < 1e-4

    def test_attenuator_device(self, capsys):
        code, out, _ = run_cli(capsys, "cv", "--device", "attenuator:0.8", "--cutoff", "30")
        assert code == 0
        t = 0.8
        assert abs(out["value"] - 1.0 / (1.0 + (1.0 - math.sqrt(t)) ** 2)) < 1e-4

    def test_scale_device(self, capsys):
        # q > 1 re-prepares amplified states, so it needs the taller cutoff
        q = 1.3
        code, out, _ = run_cli(capsys, "cv", "--device", f"scale:{q}", "--cutoff", "40")
        assert code == 0
        exact = 1.0 / (1.0 + q * q + (1.0 - q) ** 2)
        assert abs(out["value"] - exact) < 1e-4

    def test_heterodyne_mp_small_prior_falls_back(self, capsys):
        code, out, _ = run_cli(
            capsys, "cv", "--device", "heterodyne-mp", "--lambda", "0.01"
        )
        assert code == 0
        assert out["method"] == "oracle"
        assert out["score"] is None
        assert abs(out["value"] - 0.5) < 2e-3
        assert "n_max" in out["note"]

    def test_heterodyne_mp_past_the_kraus_cap_is_scored(self, capsys):
        # 8·120⁴ bytes of Kraus operators is past the cap (n_max 107), but the
        # run reads the device's n_max³ charge blocks and builds none of them
        code, out, _ = run_cli(capsys, "cv", "--device", "heterodyne-mp", "--cutoff", "120")
        assert 8 * 120**4 > cv.ARRAY_MAX_BYTES
        assert code == 0 and out["certified"]
        assert out["method"] == "setup+oracle" and out["note"] is None
        assert out["abs_diff"] < 1e-6

    def test_heterodyne_mp_past_the_charge_block_cap_falls_back(self, capsys):
        # the charge-block run takes ~32·n_max³ bytes: refused at n_max 400
        code, out, _ = run_cli(capsys, "cv", "--device", "heterodyne-mp", "--cutoff", "400")
        assert code == 0 and out["certified"]
        assert out["method"] == "oracle"
        assert out["score"] is None
        assert "n_max=400" in out["note"]

    @pytest.mark.parametrize(
        "extra", [(), ("--mu", "4"), ("--conjugate",), ("--mu", "4", "--conjugate")]
    )
    @pytest.mark.parametrize(
        "device", ["identity", "vacuum", "attenuator:0.8", "scale:0.6", "heterodyne-mp"]
    )
    def test_builtin_devices_are_run_without_a_kraus_array(
        self, capsys, monkeypatch, device, extra
    ):
        def refuse(*args):
            raise AssertionError("a built-in device built a Kraus array")

        monkeypatch.setattr(cv.AnalyticDevice, "materialize", refuse)
        for builder in ("_split_diagonals", "_attenuator_kraus", "_gaussian_kraus"):
            monkeypatch.setattr(cv, builder, refuse)
        code, out, _ = run_cli(
            capsys, "cv", "--device", device, "--lambda", "4", "--cutoff", "24", *extra
        )
        assert code == 0 and out["certified"]
        assert out["method"] == "setup+oracle"

    @pytest.mark.parametrize("n_max, spill", [(30, 0.198), (60, None), (90, None)])
    def test_uncertified_run_names_its_spill(self, capsys, n_max, spill):
        # scale:3 spills 1 − p_succ past the cutoff, and the run is off the
        # exact reference until a taller cutoff holds it: by 4.7e-3 at n_max
        # 30 and 2.1e-4 at 60 (3.9e-3 there if it were divided by p_succ)
        code, out, _ = run_cli(
            capsys, "cv", "--device", "scale:3", "--g", "3", "--cutoff", str(n_max)
        )
        assert out["abs_diff"] > 1e-6
        if spill is None:
            assert code == 0 and out["certified"] and out["note"] is None
            return
        assert code == 2 and not out["certified"]
        assert abs(1.0 - out["p_succ"] - spill) < 1e-3
        assert f"1 - p_succ = {1.0 - out['p_succ']:.2e}" in out["note"]
        assert f"n_max={n_max}" in out["note"]

    def test_noise_past_the_byte_cap_falls_back(self, capsys):
        # the noise fold at n_max 300 is refused before it is built
        code, out, _ = run_cli(
            capsys, "cv", "--device", "identity", "--mu", "4", "--lambda", "4", "--cutoff", "300"
        )
        assert code == 0
        assert out["method"] == "oracle" and out["certified"]
        assert "n_max=300" in out["note"]

    @pytest.mark.parametrize("mu", ["1e-20", "1e-300"])
    def test_input_noise_past_every_cutoff_falls_back(self, capsys, mu):
        # the tmsv ratio x rounds to 1, so no cutoff holds the input; the
        # built-in device still has its closed form
        code, out, err = run_cli(capsys, "cv", "--device", "identity", "--mu", mu, "--cutoff", "10")
        assert code == 0, err
        assert out["method"] == "oracle" and out["certified"]
        assert "tmsv parameter x=1.0 leaks" in out["note"]

    def test_suggested_cutoff_is_reported(self, capsys, tmp_path):
        # the CutoffError's suggestion reaches both the fallback note of a
        # built-in device and the stderr line of a Kraus device
        argv = ("--lambda", "0.1", "--cutoff", "10")
        code, out, _ = run_cli(capsys, "cv", "--device", "identity", *argv)
        assert code == 0 and out["method"] == "oracle"
        assert "suggested cutoff n_max=194" in out["note"]
        path = tmp_path / "k10.json"
        path.write_text(json.dumps(channel_to_json(Channel.identity(10))))
        code, out, err = run_cli(capsys, "cv", "--device", f"@{path}", *argv)
        assert (code, out) == (2, None)
        assert "leaks 3.86e-01 past n_max=10; suggested cutoff n_max=194" in err

    def test_boundary_gain_is_scored(self, capsys):
        # c = g·k = 1 has no squeezer angle, but W_1 has its closed form
        code, out, _ = run_cli(capsys, "cv", "--device", "identity", "--g", "2", "--lambda", "3")
        assert code == 0 and out["certified"]
        assert out["setup"]["theta"] is None and out["setup"]["g_port"] is None
        assert abs(out["score"] - 0.75) < 1e-6

    def test_kraus_file_device(self, capsys, tmp_path):
        path = tmp_path / "device.json"
        path.write_text(json.dumps(channel_to_json(Channel.identity(30))))
        code, out, _ = run_cli(capsys, "cv", "--device", f"@{path}", "--cutoff", "30")
        assert code == 0
        assert out["abs_diff"] < 1e-4

    def test_kraus_file_without_closed_form_surfaces_guard(self, capsys, tmp_path):
        path = tmp_path / "device.json"
        path.write_text(json.dumps(channel_to_json(Channel.identity(40))))
        code, _, err = run_cli(
            capsys, "cv", "--device", f"@{path}", "--lambda", "0.01"
        )
        assert code == 2
        assert "tmsv" in err

    def test_builtin_device_reference_is_the_closed_form(self, capsys):
        code, out, _ = run_cli(capsys, "cv", "--device", "attenuator:0.8")
        assert code == 0
        assert out["oracle_method"] == "closed_form"
        assert "oracle_nodes" not in out and "oracle_error" not in out
        assert abs(out["oracle"] - 1.0 / (1.0 + (1.0 - math.sqrt(0.8)) ** 2)) < 1e-15

    def test_kraus_device_reference_is_the_fock_series(self, capsys, tmp_path):
        path = tmp_path / "device.json"
        path.write_text(json.dumps(channel_to_json(Channel.identity(30))))
        _, out, _ = run_cli(capsys, "cv", "--device", f"@{path}", "--cutoff", "30")
        assert out["oracle_method"] == "fock_series"
        assert "oracle_nodes" not in out and "oracle_error" not in out
        # the run and the series score the same truncated device
        assert out["abs_diff"] <= 1e-14
        # no node count to set
        argv = ("cv", "--device", f"@{path}", "--cutoff", "30", "--nodes", "32")
        assert run_cli(capsys, *argv)[0] == 1

    def test_conjugate_kraus_run_meets_its_reference(self, capsys, tmp_path):
        # under conjugation the run also truncates the beamsplitter sectors
        path = tmp_path / "device.json"
        lossy = attenuator_device(0.8).materialize(FockCutoff(40))
        path.write_text(json.dumps(channel_to_json(lossy)))
        code, out, _ = run_cli(
            capsys, "cv", "--device", f"@{path}", "--conjugate", "--g", "1.2", "--cutoff", "40"
        )
        assert code == 0 and out["abs_diff"] <= 1e-7
        assert out["oracle_method"] == "fock_series"
        assert "oracle_nodes" not in out and "oracle_error" not in out

    def test_parser_is_built_once_and_keeps_no_flags(self, capsys):
        assert build_parser() is build_parser()
        code, out, _ = run_cli(capsys, "cv", "--device", "identity", "--conjugate", "--mu", "2")
        assert code == 0 and out["setup"]["conjugate"] and out["setup"]["mu"] == 2.0
        code, out, _ = run_cli(capsys, "cv", "--device", "identity")
        assert code == 0
        assert out["setup"]["conjugate"] is False and out["setup"]["mu"] is None
        assert out["setup"]["branch"] == "pure_low_gain"

    def test_conjugate_run_within_the_old_quadrature_error_is_certified(self, capsys):
        # the run is within 1.1e-10 of the exact 0.16216545145; a 24-node
        # quadrature read 0.16087 here and left the run uncertified
        code, out, _ = run_cli(
            capsys, "cv", "--device", "attenuator:0.1737", "--g", "1.9234",
            "--lambda", "0.6934", "--conjugate", "--cutoff", "40",
        )
        assert code == 0 and out["certified"]
        assert out["abs_diff"] < 1e-9

    def test_unknown_device(self, capsys):
        code, _, err = run_cli(capsys, "cv", "--device", "teacup")
        assert code == 1
        assert "teacup" in err

    def test_conjugate_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "cv", "--device", "identity", "--conjugate", "--cutoff", "40"
        )
        assert code == 0
        assert abs(out["score"] - 1.0 / math.sqrt(5.0)) < 1e-4
        assert out["setup"]["branch"] == "conjugation"

    def test_stages_name_the_route_taken(self, capsys):
        # every fidelity branch reads out the closed-form pair observable; the
        # report keeps the squeezer angle and port of the optical setup
        _, out, _ = run_cli(capsys, "cv", "--device", "attenuator:0.9", "--g", "1.2")
        assert out["setup"]["stages"][2:] == ["pair_observable(c=0.848528)"]
        _, out, _ = run_cli(capsys, "cv", "--device", "attenuator:0.9", "--g", "1.0")
        assert out["setup"]["stages"][2:] == ["pair_observable(c=0.707107)"]
        assert abs(out["setup"]["theta"] - 0.881374) < 1e-6
        assert out["setup"]["g_port"] == 0
        _, out, _ = run_cli(
            capsys, "cv", "--device", "identity", "--mu", "2", "--conjugate"
        )
        assert out["setup"]["stages"][2:] == [
            "noise(nu=3)",
            "beamsplitter(t=0.210526)",
            "photodetector(reference port, score on no-click)",
        ]
        # g = 0 targets the vacuum, and no noise runs
        _, out, _ = run_cli(capsys, "cv", "--device", "attenuator:0.8", "--g", "0", "--mu", "2")
        assert out["setup"]["stages"][2:] == ["pair_observable(c=0)"]

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (("benchmark", "--builtin", "coherent", "--lambda", "-0.5"), "lam"),
            (("benchmark", "--builtin", "coherent", "--lambda", "-2"), "lam"),
            (("benchmark", "--builtin", "coherent", "--g", "nan"), "g must be a number"),
            (("cv", "--device", "identity", "--g", "nan"), "g must be a number"),
            (("cv", "--device", "identity", "--g", "inf"), "gain must be finite"),
            (("cv", "--device", "identity", "--mu", "nan"), "mu must be a number"),
            (("cv", "--device", "scale:nan"), "must be finite"),
            (("cv", "--device", "scale:inf"), "must be finite"),
            (("cv", "--device", "identity", "--cutoff", "1"), "n_max must exceed 1"),
            (("cv", "--device", "identity", "--cutoff", "0"), "n_max must exceed 1"),
            (("cv", "--device", "attenuator:1.5"), "outside [0, 1]"),
            (("benchmark", "--builtin", "teleport:1"), "dimension >= 2"),
            (("benchmark", "--builtin", "equator:2"), "at least 3 phases"),
            (("cv", "--device", "identity", "--mu", "0"), "mu must be positive"),
            (("benchmark", "--builtin", "teleport:abc"), "'abc' is not an integer"),
            (("benchmark", "--builtin", "equator:x"), "'x' is not an integer"),
            (("benchmark", "--builtin", "chsh:5"), "'chsh' takes no parameter"),
            (("benchmark", "--builtin", "coherent:7"), "'coherent' takes no parameter"),
            (("cv", "--device", "identity:2"), "'identity' takes no parameter"),
            (("cv", "--device", "attenuator"), "'attenuator' needs a parameter"),
            (("cv", "--device", "scale:x"), "'x' is not a number"),
            # a value whose square overflows, and an infinite prior width
            (("benchmark", "--builtin", "coherent", "--lambda", "inf"), "lam must be positive"),
            (("cv", "--device", "identity", "--lambda", "inf"), "lam must be positive"),
            (("cv", "--device", "identity", "--g", "1e200", "--cutoff", "10"), "gain must be"),
            (("cv", "--device", "scale:1e200", "--cutoff", "10"), "must be finite"),
            (("benchmark", "--builtin", "coherent", "--g", "1e200"), "gain must be"),
        ],
    )
    def test_invalid_scenario_values_are_usage_errors(self, capsys, argv, flag):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out is None
        assert flag in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("benchmark", "--builtin", "coherent", "--g", "1e154", "--lambda", "1e-300"),
            ("cv", "--device", "scale:1e154", "--g", "1e154", "--conjugate", "--cutoff", "10"),
            ("cv", "--device", "attenuator:0.5", "--g", "1e150", "--mu", "1e300", "--cutoff", "10"),
        ],
    )
    def test_values_near_the_overflow_report_finite_numbers(self, capsys, argv):
        # a square past the float range has a valid limit here, and no
        # report may carry NaN or Infinity, which are not JSON
        code = main(list(argv))
        text = capsys.readouterr().out
        assert code in (0, 2)

        def refuse(token):
            raise AssertionError(f"non-finite {token} in the report")

        json.loads(text, parse_constant=refuse)

    def test_seeded_runs_are_byte_identical(self, capsys):
        # cv draws nothing at random, so it takes no --seed
        main(["cv", "--device", "vacuum", "--cutoff", "24"])
        first = capsys.readouterr().out
        main(["cv", "--device", "vacuum", "--cutoff", "24"])
        second = capsys.readouterr().out
        assert strip_timestamp(first) == strip_timestamp(second)


@pytest.mark.parametrize(
    "argv, code, needle",
    [
        (("benchmark", "--omega", "{dir}"), 1, "Is a directory"),
        (("cv", "--device", "@{dir}"), 1, "Is a directory"),
        (("benchmark", "--omega", "{latin1}"), 1, "latin1.json is not UTF-8"),
        (("benchmark", "--test", "{list}"), 2, "malformed deterministic-test JSON"),
        (("canonical", "--test", "{list}"), 2, "malformed deterministic-test JSON"),
        (("benchmark", "--omega", "{number}"), 2, "malformed operator JSON"),
        (("canonical", "--omega", "{number}"), 2, "malformed operator JSON"),
        (("cv", "--device", "identity", "--cutoff", "10", "--out", "{missing}"), 1, "x.json"),
        (("benchmark", "--omega", "{dims_text}"), 2, "malformed operator JSON"),
        (("canonical", "--omega", "{dims_text}"), 2, "malformed operator JSON"),
        (("benchmark", "--omega", "{dims_null}"), 2, "malformed operator JSON"),
        (("canonical", "--omega", "{dims_null}"), 2, "malformed operator JSON"),
        (("benchmark", "--omega", "{dims_nested}"), 2, "malformed operator JSON"),
        (("canonical", "--omega", "{dims_nested}"), 2, "malformed operator JSON"),
        (("benchmark", "--omega", "{dims_bool}"), 2, "malformed operator JSON"),
        (("canonical", "--omega", "{dims_bool}"), 2, "malformed operator JSON"),
        (("benchmark", "--omega", "{dims_float}"), 2, "malformed operator JSON"),
        (("canonical", "--omega", "{dims_float}"), 2, "malformed operator JSON"),
        (("benchmark", "--omega", "{sigma_text}"), 2, "malformed operator JSON"),
        (("canonical", "--omega", "{sigma_text}"), 2, "malformed operator JSON"),
        (("benchmark", "--omega", "{one_factor}"), 2, "must be bipartite"),
        (("canonical", "--omega", "{one_factor}"), 2, "must be bipartite"),
    ],
    ids=["omega-dir", "device-dir", "omega-not-utf8", "benchmark-test-list", "canonical-test-list",
         "benchmark-omega-number", "canonical-omega-number", "out-missing-dir",
         "benchmark-dims-text", "canonical-dims-text", "benchmark-dims-null",
         "canonical-dims-null", "benchmark-dims-nested", "canonical-dims-nested",
         "benchmark-dims-bool", "canonical-dims-bool", "benchmark-dims-float",
         "canonical-dims-float", "benchmark-sigma-dims-text", "canonical-sigma-dims-text",
         "benchmark-one-factor", "canonical-one-factor"],
)
def test_bad_file_paths_are_reported_not_raised(capsys, tmp_path, argv, code, needle):
    (tmp_path / "latin1.json").write_bytes(b'{"omega": "\xe9"}')
    (tmp_path / "list.json").write_text("[1, 2]")
    (tmp_path / "number.json").write_text("3")
    paths = {
        "dir": tmp_path,
        "latin1": tmp_path / "latin1.json",
        "list": tmp_path / "list.json",
        "number": tmp_path / "number.json",
        "missing": tmp_path / "missing" / "x.json",
    }
    # a 2×2 identity whose dims field is replaced
    eye = operator_to_json(Operator(np.eye(2), (2,)))
    files = {
        "dims_text": eye | {"dims": ["x"]},
        "dims_null": eye | {"dims": None},
        "dims_nested": eye | {"dims": [[2]]},
        "dims_bool": {"dims": [True, True], "re": [[1.0]], "im": [[0.0]]},
        "dims_float": eye | {"dims": [2.5]},
        "sigma_text": {"omega": operator_to_json(teleport_test(2).omega),
                       "sigma_A": operator_to_json(Operator(np.eye(2) / 2, (2,))) | {"dims": ["q"]}},
        "one_factor": eye,
    }
    for name, payload in files.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(payload))
    got, out, err = run_cli(capsys, *(a.format(**paths) for a in argv))
    assert (got, out) == (code, None)
    assert needle in err


@pytest.mark.parametrize(
    "argv",
    [
        ("benchmark", "--builtin", "equator"),
        ("benchmark", "--builtin", "coherent"),
        ("benchmark", "--omega", "{prob}"),
        ("benchmark", "--omega", "{bare}"),
        ("benchmark", "--test", "{det}"),
        ("canonical", "--omega", "{prob}"),
        ("canonical", "--test", "{det}"),
        ("cv", "--device", "identity", "--cutoff", "20"),
        ("cv", "--device", "@{kraus}", "--cutoff", "30"),
        ("cv", "--device", "scale:3", "--g", "3", "--cutoff", "30"),  # uncertified
    ],
)
def test_every_report_has_one_envelope(capsys, tmp_path, argv):
    # the command comes first, certified and timestamp last, and the exit
    # code is 0 exactly when the report is certified, in JSON and in CSV
    paths = {
        "prob": tmp_path / "prob.json",
        "bare": tmp_path / "bare.json",
        "det": tmp_path / "det.json",
        "kraus": tmp_path / "kraus.json",
    }
    paths["prob"].write_text(json.dumps(prob_test_to_json(equator_test(3))))
    paths["bare"].write_text(json.dumps(operator_to_json(teleport_test(2).omega)))
    det = canonical_det_test(teleport_test(2).omega).as_det_test()
    paths["det"].write_text(json.dumps(det_test_to_json(det)))
    paths["kraus"].write_text(json.dumps(channel_to_json(Channel.identity(30))))
    argv = [a.format(**paths) for a in argv]

    code, out, _ = run_cli(capsys, *argv)
    keys = list(out)
    assert keys[0] == "command" and out["command"] == argv[0]
    assert keys[-2:] == ["certified", "timestamp"]
    assert code == (0 if out["certified"] else 2)

    assert main([*argv, "--format", "csv"]) == code
    header, row = capsys.readouterr().out.strip().splitlines()
    columns = header.split(",")
    assert columns[0] == "command" and row.startswith(f"{argv[0]},")
    assert columns[-2:] == ["certified", "timestamp"]


@pytest.mark.parametrize(
    "argv",
    [
        ("benchmark", "--builtin", "teleport:2"),
        ("canonical", "--omega", "{prob}"),
        ("cv", "--device", "vacuum", "--cutoff", "24"),
    ],
)
def test_report_is_one_line_of_the_same_json(capsys, monkeypatch, tmp_path, argv):
    # the report is one line from json's C encoder; it loads to the same dict
    # as the indented dump of the same payload, --out writes the same text,
    # and the CSV is the flattened payload
    prob = tmp_path / "prob.json"
    prob.write_text(json.dumps(prob_test_to_json(teleport_test(2))))
    argv = [a.format(prob=prob) for a in argv]
    payloads = []
    dumps = json.dumps

    def spy(obj, **kwargs):
        payloads.append(obj)
        return dumps(obj, **kwargs)

    monkeypatch.setattr(cli.json, "dumps", spy)
    assert main(argv) == 0
    text = capsys.readouterr().out
    monkeypatch.undo()
    assert text.endswith("\n") and "\n" not in text[:-1]
    assert json.loads(text) == json.loads(json.dumps(payloads[-1], indent=2))

    out = tmp_path / "out.json"
    assert main([*argv, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert strip_timestamp(out.read_text(encoding="utf-8")) == strip_timestamp(text)

    assert main([*argv, "--format", "csv"]) == 0
    table = io.StringIO(newline="")
    flat = cli._flatten(json.loads(text))
    writer = csv.DictWriter(table, fieldnames=list(flat))
    writer.writeheader()
    writer.writerow(flat)
    assert strip_timestamp(capsys.readouterr().out) == strip_timestamp(table.getvalue())


class TestEnvironment:
    def test_thread_cap_reaches_blas_env(self):
        probe = (
            "import os; os.environ['QBENCH_THREADS'] = '3'; import qbench.cli; "
            "print(os.environ['OPENBLAS_NUM_THREADS'], os.environ['OMP_NUM_THREADS'])"
        )
        # a cap or thread variable inherited from the calling shell would win
        env = {
            key: value for key, value in os.environ.items()
            if key != "QBENCH_THREADS" and not key.endswith("_NUM_THREADS")
        }
        res = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
            env=env,
        )
        assert res.stdout.split() == ["3", "3"]

    def test_cold_import_skips_scipy_optimize(self):
        probe = "import sys, qbench.cli; print('scipy.optimize' in sys.modules)"
        res = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True
        )
        assert res.stdout.split() == ["False"]

    def test_cold_import_loads_no_scipy_at_all(self):
        probe = (
            "import sys, qbench.cli\n"
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
            "print('numpy.polynomial' in sys.modules)"
        )
        res = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True
        )
        loaded_scipy, loaded_polynomial = res.stdout.splitlines()
        assert loaded_scipy == "[]"
        assert loaded_polynomial == "False"

    def test_kraus_file_run_loads_no_scipy(self, tmp_path):
        # the Kraus-device reference is a Fock series, with no quadrature
        # rule, and neither the file reader nor the sectors call np.unique,
        # which imports numpy.ma
        path = tmp_path / "device.json"
        path.write_text(json.dumps(channel_to_json(attenuator_device(0.8).materialize(FockCutoff(40)))))
        probe = (
            "import sys, qbench.cli\n"
            f"code = qbench.cli.main(['cv', '--device', '@' + {str(path)!r}, '--conjugate', "
            "'--mu', '3'])\n"
            "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'), "
            "'numpy.polynomial' in sys.modules, 'numpy.ma' in sys.modules)"
        )
        res = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True
        )
        assert res.stdout.splitlines()[-1] == "0 [] False False"

    def test_det_benchmark_loads_no_scipy(self, tmp_path):
        # the cutting-plane loop's master LP is numpy's own simplex
        path = tmp_path / "det.json"
        test = canonical_det_test(teleport_test(2).omega).as_det_test()
        path.write_text(json.dumps(det_test_to_json(test)))
        probe = (
            "import sys, qbench.cli\n"
            f"code = qbench.cli.main(['benchmark', '--test', {str(path)!r}])\n"
            "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        res = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True
        )
        assert res.stdout.splitlines()[-1] == "0 []"

    @pytest.mark.parametrize(
        "argv",
        [
            ("canonical", "--omega", "f", "--restarts", "3"),
            ("cv", "--device", "identity", "--seed", "3"),
            ("benchmark", "--builtin", "chsh", "--mu", "2"),
            ("benchmark", "--builtin", "teleport", "--dim", "3"),
            ("cv", "--device", "identity", "--nodes", "32"),
        ],
    )
    def test_flags_a_command_does_not_read_are_usage_errors(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, None)
        assert "unrecognized arguments" in err

    @pytest.mark.parametrize("argv", [("-h",), ("cv", "--help")])
    def test_help_returns_zero(self, capsys, argv):
        # main returns every exit code; argparse's SystemExit never leaves it
        assert main(list(argv)) == 0
        assert "usage: qbench" in capsys.readouterr().out

    def test_no_subcommand_prints_help(self, capsys):
        code = main([])
        assert code == 1
        assert "benchmark" in capsys.readouterr().err


# extreme values of the scenario flags and device parameters
_EXTREMES = (0.0, 1e-300, 1e-20, 1e-15, 0.5, 1.0, 2.0, 1e154, math.inf, math.nan, -1.0)
_NUMBERS = st.one_of(st.sampled_from(_EXTREMES), st.floats())
# --device name: the AnalyticDevice kind it names and its fixed parameter
_KINDS = {"identity": ("identity", 1.0), "vacuum": ("vacuum", 1.0),
          "heterodyne-mp": ("rescale_mp", 1.0), "attenuator": ("attenuator", None),
          "scale": ("rescale_mp", None)}


@st.composite
def _sweep_argv(draw) -> list[str]:
    """A ``cv`` or ``benchmark --builtin coherent`` argv with each scenario
    flag absent or set to an extreme value, at a cutoff of at most 60."""
    if draw(st.booleans()):
        argv = ["benchmark", "--builtin", "coherent"]
    else:
        name = draw(st.sampled_from(sorted(_KINDS)))
        if _KINDS[name][1] is None:
            name = f"{name}:{draw(_NUMBERS)!r}"
        argv = ["cv", "--device", name, f"--cutoff={draw(st.integers(1, 60))}"]
        if draw(st.booleans()):
            argv.append("--conjugate")
        if (mu := draw(st.none() | _NUMBERS)) is not None:
            argv.append(f"--mu={mu!r}")
    for flag in ("--g", "--lambda"):
        if (value := draw(st.none() | _NUMBERS)) is not None:
            argv.append(f"{flag}={value!r}")
    return argv


def _flag(argv: list[str], flag: str, default: float) -> float:
    values = [float(a.split("=", 1)[1]) for a in argv if a.startswith(f"{flag}=")]
    return values[0] if values else default


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(argv=_sweep_argv())
@example(argv=["cv", "--device", "identity", "--mu=1e-20", "--cutoff=10"])
@example(argv=["cv", "--device", "scale:1e154", "--cutoff=10", "--conjugate", "--g=1e154"])
@example(argv=["benchmark", "--builtin", "coherent", "--g=1e154", "--lambda=1e-300"])
def test_extreme_inputs_exit_cleanly(argv):
    """Every run exits 0, 1 or 2 without a traceback, writes no NaN or
    Infinity, and an exit-0 cv run of a built-in device reports a value
    within CV_CERTIFY_TOL of the device's closed form."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue()
    text = out.getvalue()
    assert "NaN" not in text and "Infinity" not in text, argv
    if code != 0 or argv[0] != "cv":
        return
    report = json.loads(text)
    name, _, param = argv[2].partition(":")
    kind, fixed = _KINDS[name]
    device = AnalyticDevice(kind, fixed if param == "" else float(param))
    params = CvParams(g=_flag(argv, "--g", 1.0), lam=_flag(argv, "--lambda", 1.0),
                      mu=_flag(argv, "--mu", math.inf), conjugate="--conjugate" in argv)
    assert abs(report["value"] - device.average_fidelity(params)) <= cli.CV_CERTIFY_TOL, argv


def _scaled_det_test_json() -> dict:
    # the observable is linear in omega, so scaling it in the file gives the
    # det test of 1e200·omega without building that operator
    rng = np.random.default_rng(1)
    m = sum(np.kron(_gram(rng, 2), _gram(rng, 3)) for _ in range(3))
    data = det_test_to_json(canonical_det_test(Operator(m / np.trace(m).real, (2, 3))).as_det_test())
    for part in ("re", "im"):
        data["observable"][part] = (1e200 * np.asarray(data["observable"][part])).tolist()
    return data


def _nan_kraus_json() -> dict:
    data = channel_to_json(Channel.identity(20))
    data["kraus"]["re"][-1] = math.nan  # json writes the NaN token
    return data


def _bare_operator_json(psd: bool, scale: float) -> dict:
    rng = np.random.default_rng(0)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    if psd:
        m = m @ m.conj().T / np.trace(m @ m.conj().T).real
    return {"dims": [2, 2], "re": (scale * m.real).tolist(), "im": (scale * m.imag).tolist()}


# argv with the file's place left open, and the file's content
_UNADMITTED_FILES = {
    "benchmark-nonhermitian": (("benchmark", "--omega", "{}"), lambda: _bare_operator_json(False, 1e160)),
    "canonical-nonhermitian": (("canonical", "--omega", "{}"), lambda: _bare_operator_json(False, 1e160)),
    "canonical-psd": (("canonical", "--omega", "{}"), lambda: _bare_operator_json(True, 1e200)),
    "benchmark-det-test": (("benchmark", "--test", "{}"), _scaled_det_test_json),
    "canonical-det-test": (("canonical", "--test", "{}"), _scaled_det_test_json),
    "cv-nan-kraus": (("cv", "--device", "@{}"), _nan_kraus_json),
}


@pytest.mark.parametrize("case", sorted(_UNADMITTED_FILES))
def test_unadmitted_file_inputs_exit_cleanly(tmp_path, case):
    """A file whose operator or Kraus array has a NaN entry or an overflowing
    Frobenius norm is refused at its first constructor: exit 2 (never 0)
    with one ``qbench: uncertified:`` line, no traceback or warning, and no
    NaN or Infinity on stdout."""
    template, content = _UNADMITTED_FILES[case]
    path = tmp_path / "input.json"
    path.write_text(json.dumps(content()))
    argv = [arg.format(path) for arg in template]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code == 2, argv
    assert "Traceback" not in err.getvalue()
    assert "NaN" not in out.getvalue() and "Infinity" not in out.getvalue(), argv
    assert err.getvalue().startswith("qbench: uncertified:") and err.getvalue().count("\n") == 1


@pytest.mark.parametrize("scale", [1.0, 1e-10])
@pytest.mark.parametrize("command", ["benchmark", "canonical"])
def test_out_of_support_omega_is_refused_at_every_scale(capsys, tmp_path, command, scale):
    """A probabilistic test whose omega reaches input |1>, which sigma_A =
    |0><0| never prepares, exits 2 whatever the units of omega: the support
    rule is relative to ||omega||."""
    rng = np.random.default_rng(0)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    data = {"omega": operator_to_json(Operator(scale * (m + m.conj().T), (2, 2))),
            "sigma_A": operator_to_json(Operator(np.diag([1.0, 0.0]), (2,)))}
    path = tmp_path / "omega.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, command, "--omega", str(path))
    assert (code, out) == (2, None)
    assert "support" in err


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    builtin=st.sampled_from(["chsh"])
    | st.builds("teleport:{}".format, st.sampled_from([1, 2, 3, 56, 10**9]))
    | st.builds("equator:{}".format, st.sampled_from([1, 2, 3, 7])),
    seed=st.none() | st.sampled_from([-1, 0, 2**63, 10**12]),
    restarts=st.none() | st.sampled_from([-1, 0, 2**63, 10**12]),
)
@example(builtin="equator:3", seed=-1, restarts=None)
@example(builtin="teleport:2", seed=None, restarts=10**12)
@example(builtin="chsh", seed=2**63, restarts=2**63)
def test_integer_flags_exit_cleanly(builtin, seed, restarts):
    """``benchmark --builtin`` with extreme ``--seed`` and ``--restarts``
    values returns 0, 1 or 2 without a traceback; a parser refusal is
    returned, not raised."""
    argv = ["benchmark", "--builtin", builtin]
    for flag, value in (("--seed", seed), ("--restarts", restarts)):
        if value is not None:
            argv.append(f"{flag}={value}")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue()
