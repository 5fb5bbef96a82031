"""End-to-end tests of the command-line interface."""

import json
import math

import pytest

from sturmdisc import __version__
from sturmdisc.cli import main


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


FREE = {"q": "0", "h": 0, "H": 0}


class TestSpectrumCommand:
    def test_json_report(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "problems": {"free": FREE},
                "spectrum": {"problem": "free", "modulus_bound": 10},
            },
        )
        assert main(["spectrum", "--config", cfg]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["version"] == __version__
        assert report["command"] == "spectrum"
        assert report["config"]["spectrum"]["modulus_bound"] == 10
        lams = [e["lam"][0] for e in report["result"]["eigenvalues"]]
        for want in (0.0, 1.0, 4.0, 9.0):
            assert min(abs(l - want) for l in lams) < 1e-6

    def test_deterministic_output(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "problems": {"free": FREE},
                "spectrum": {"problem": "free", "modulus_bound": 10},
            },
        )
        out1, out2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        assert main(["spectrum", "--config", cfg, "--out", out1]) == 0
        assert main(["spectrum", "--config", cfg, "--out", out2]) == 0
        assert open(out1, "rb").read() == open(out2, "rb").read()

    def test_csv_format(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "problems": {"free": FREE},
                "spectrum": {"problem": "free", "modulus_bound": 5},
            },
        )
        assert main(["spectrum", "--config", cfg, "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "re,im,multiplicity,residual"
        assert len(lines) >= 3


class TestCharfnCommand:
    def test_lambda_forms(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "problems": {"p": FREE},
                "charfn": {"problem": "p", "lambdas": [2.0, [3.0, 1.0]]},
            },
        )
        assert main(["charfn", "--config", cfg]) == 0
        report = json.loads(capsys.readouterr().out)
        samples = report["result"]["samples"]
        assert samples[0]["lam"] == [2.0, 0.0]
        assert samples[1]["lam"] == [3.0, 1.0]
        # free problem: delta = -s sin(s pi)
        s = math.sqrt(2.0)
        want = -s * math.sin(s * math.pi)
        assert samples[0]["delta"][0] == pytest.approx(want, rel=1e-8)

    def test_bad_lambda_entry(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "problems": {"p": FREE},
                "charfn": {"problem": "p", "lambdas": ["nope"]},
            },
        )
        assert main(["charfn", "--config", cfg]) == 1
        assert "lambdas[0]" in capsys.readouterr().err


class TestGrowthCommand:
    def test_free_delta_fit(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "problems": {"p": FREE},
                "growth": {"problem": "p", "target": "delta"},
            },
        )
        assert main(["growth", "--config", cfg]) == 0
        result = json.loads(capsys.readouterr().out)["result"]
        assert result["c"] == pytest.approx(math.pi, rel=1e-6)
        assert result["p"] == pytest.approx(0.5, abs=0.01)

    def test_bad_target(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {"problems": {"p": FREE}, "growth": {"problem": "p", "target": "x"}},
        )
        assert main(["growth", "--config", cfg]) == 1


class TestNormingCommand:
    def test_free_neumann(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "problems": {"p": FREE},
                "norming": {"problem": "p", "modulus_bound": 5},
            },
        )
        assert main(["norming", "--config", cfg]) == 0
        out = json.loads(capsys.readouterr().out)["result"]["norming"]
        by_lam = {round(rec["lam"][0]): rec for rec in out}
        assert by_lam[0]["alphas"][0][0] == pytest.approx(math.pi, rel=1e-8)
        assert by_lam[1]["alphas"][0][0] == pytest.approx(math.pi / 2, rel=1e-8)
        assert max(max(rec["identity_residuals"]) for rec in out) < 1e-8


class TestProductCommand:
    def test_config_zeros(self, tmp_path, capsys):
        zeros = [n * n for n in range(1, 40)]
        cfg = write_config(
            tmp_path,
            {
                "problems": {"p": {"q": "0", "h": 0, "H": "dirichlet"}},
                "product": {"problem": "p", "zeros": zeros, "lambdas": [0.25]},
            },
        )
        assert main(["product", "--config", cfg]) == 0
        result = json.loads(capsys.readouterr().out)["result"]
        assert result["n_zeros"] == len(zeros)

    def test_zero_modulus_is_compute_error(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "problems": {"p": FREE},
                "product": {"problem": "p", "zeros": [0.0, 1.0], "lambdas": [0.5]},
            },
        )
        assert main(["product", "--config", cfg]) == 2
        assert "computation failed" in capsys.readouterr().err

    def test_far_ray_overflow_is_compute_error(self, tmp_path, capsys):
        # |delta(1e6 i)| ~ exp(2221) has no float value
        cfg = write_config(
            tmp_path,
            {
                "problems": {"p": {"q": "1", "h": 0, "H": 0}},
                "product": {
                    "problem": "p",
                    "zeros": [n * n + 1 for n in range(20)],
                    "lambdas": [[0, 1e6]],
                },
            },
        )
        assert main(["product", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "OverflowError" in err
        assert "log scale" in err


class TestValidationErrors:
    def test_missing_file(self, capsys):
        assert main(["spectrum", "--config", "/nonexistent.json"]) == 1
        assert "config error" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["spectrum", "--config", str(path)]) == 1

    def test_unknown_problem_field(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "problems": {"p": {"q": "0", "wrong": 1}},
                "spectrum": {"problem": "p", "modulus_bound": 5},
            },
        )
        assert main(["spectrum", "--config", cfg]) == 1

    def test_missing_section_key(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {"problems": {"p": FREE}, "spectrum": {"problem": "p"}},
        )
        assert main(["spectrum", "--config", cfg]) == 1
        assert "modulus_bound" in capsys.readouterr().err

    def test_uniq_bad_mode(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "problems": {"a": FREE, "b": FREE},
                "uniq": {
                    "problem_a": "a",
                    "problem_b": "b",
                    "b": 2.0,
                    "mode": "wat",
                },
            },
        )
        assert main(["uniq", "--config", cfg]) == 1


class TestPropertyExit:
    def test_unmet_decay_claim(self, tmp_path, capsys):
        # a merely-integrable potential difference cannot meet an m=5 claim
        cfg = write_config(
            tmp_path,
            {
                "problems": {"a": FREE, "b": {"q": "1", "h": 0, "H": 0}},
                "uniq": {
                    "problem_a": "a",
                    "problem_b": "b",
                    "b": 2.0,
                    "mode": "iy",
                    "m": 5,
                },
            },
        )
        assert main(["uniq", "--config", cfg]) == 3
        report = json.loads(capsys.readouterr().out)
        assert report["failed"] is True
        assert report["result"]["pass"] is False
