"""End-to-end tests of the command-line interface."""

import csv
import io
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
        assert lines[0] == "lam_re,lam_im,multiplicity,residual"
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

    def test_complex_entry_shape(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {"problems": {"p": FREE}, "product": {"problem": "p", "zeros": [[1]]}},
        )
        assert main(["product", "--config", cfg]) == 1
        assert "$.product.zeros[0]" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, problem, section, path",
        [
            ("product", FREE, {"zeros": [True, 4, 9]}, "$.product.zeros[0]"),
            ("charfn", FREE, {"lambdas": [True]}, "$.charfn.lambdas[0]"),
            ("charfn", {"q": "0", "h": True}, {"lambdas": [1]}, "$.problems.p.h"),
            ("charfn", {"q": "0", "H": [0, False]}, {"lambdas": [1]}, "$.problems.p.H"),
            ("charfn", {"q": "0", "gamma": True}, {"lambdas": [1]}, "$.problems.p.gamma"),
            ("charfn", {"q": "0", "beta": True}, {"lambdas": [1]}, "$.problems.p.beta"),
            ("charfn", {"q": "0", "d": False}, {"lambdas": [1]}, "$.problems.p.d"),
        ],
    )
    def test_bool_is_not_a_number(self, tmp_path, capsys, command, problem, section, path):
        cfg = write_config(
            tmp_path, {"problems": {"p": problem}, command: {"problem": "p", **section}}
        )
        assert main([command, "--config", cfg]) == 1
        assert path in capsys.readouterr().err

    def test_non_finite_potential(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {"problems": {"p": {"q": "1/0"}}, "charfn": {"problem": "p", "lambdas": [1]}},
        )
        assert main(["charfn", "--config", cfg]) == 1
        assert "$.problems.p.q" in capsys.readouterr().err

    def test_pole_between_samples(self, tmp_path, capsys):
        # the pole at x = 1 falls between the sample points of the piece
        for q, code in (("1/(x-1)", 1), ("1/(x-4)", 0)):
            cfg = write_config(
                tmp_path,
                {"problems": {"p": {"q": q}}, "charfn": {"problem": "p", "lambdas": [1]}},
            )
            assert main(["charfn", "--config", cfg]) == code
            err = capsys.readouterr().err
            assert ("$.problems.p.q" in err) == (code == 1)

    def test_unknown_section_field(self, tmp_path, capsys, monkeypatch):
        def no_search(*args, **kw):
            raise AssertionError("the search ran before the config was checked")

        monkeypatch.setattr("sturmdisc.cli.find_eigenvalues", no_search)
        cfg = write_config(
            tmp_path,
            {
                "problems": {"p": FREE},
                "spectrum": {"problem": "p", "modulus_bound": 5, "im_halfwidht": 200},
            },
        )
        assert main(["spectrum", "--config", cfg]) == 1
        assert "$.spectrum.im_halfwidht: unknown field" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, section, path",
        [
            ("spectrum", {"problem": "a", "modulus_bound": -5}, "$.spectrum.modulus_bound"),
            ("norming", {"problem": "a", "modulus_bound": 0}, "$.norming.modulus_bound"),
            ("product", {"problem": "a", "modulus_bound": -1}, "$.product.modulus_bound"),
            ("growth", {"problem": "a", "per_decade": 0}, "$.growth.per_decade"),
            ("growth", {"problem": "a", "y_lo": 100, "y_hi": 1000, "per_decade": 1},
             "$.growth.per_decade"),
            ("growth", {"problem": "a", "y_lo": 0}, "$.growth.y_lo"),
            ("growth", {"problem": "a", "y_lo": 1e4, "y_hi": 1e3}, "$.growth.y_hi"),
            ("asympt", {"problem_a": "a", "problem_b": "b", "r": 0.5, "x0": 3.0, "m": -3},
             "$.asympt.m"),
            ("asympt", {"problem_a": "a", "problem_b": "b", "r": 3.0, "x0": 0.5, "m": 0},
             "$.asympt.x0"),
            ("asympt", {"problem_a": "a", "problem_b": "b", "r": 0.5, "x0": 4.0, "m": 0},
             "$.asympt.x0"),
            ("asympt", {"problem_a": "a", "problem_b": "b", "r": -1.0, "x0": 3.0, "m": 0},
             "$.asympt.r"),
            ("uniq", {"mode": "iy", "problem_a": "a", "problem_b": "b", "b": 2.0, "m": -3},
             "$.uniq.m"),
            ("uniq", {"mode": "collapse", "problem_a": "a", "problem_b": "b", "b": -1.0},
             "$.uniq.b"),
            ("uniq", {"mode": "ratio", "problem_a": "a", "problem_b": "b", "b": 4.0},
             "$.uniq.b"),
            # the search covers the whole disc: a strip width, even a valid
            # one, is an unknown field
            ("spectrum", {"problem": "a", "modulus_bound": 5, "im_halfwidth": 12},
             "$.spectrum.im_halfwidth"),
        ],
    )
    def test_out_of_range_field(self, tmp_path, capsys, monkeypatch, command, section, path):
        def unreachable(*args, **kw):
            raise AssertionError("the library ran before the config was checked")

        for name in ("find_eigenvalues", "char_delta", "delta_many", "growth_fit",
                     "decay_order_fit", "bracket_decay_probe", "collapse_consistency",
                     "product_ratio_probe"):
            monkeypatch.setattr(f"sturmdisc.cli.{name}", unreachable)
        cfg = write_config(
            tmp_path, {"problems": {"a": FREE, "b": {"q": "1"}}, command: section}
        )
        assert main([command, "--config", cfg]) == 1
        assert path in capsys.readouterr().err

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


class TestComputeExit:
    def test_ratio_probe_with_eigenvalue_at_zero(self, tmp_path, capsys):
        # FREE has the Neumann eigenvalue 0, which the ratio's normalization
        # at 0 cannot divide by
        cfg = write_config(
            tmp_path,
            {
                "problems": {"a": FREE, "b": {"q": "0.5", "h": 0, "H": 0}},
                "uniq": {"mode": "ratio", "problem_a": "a", "problem_b": "b", "b": 2.0},
            },
        )
        assert main(["uniq", "--config", cfg]) == 2
        assert "problem_a: delta(0) = 0" in capsys.readouterr().err


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


# JSON fields that hold [re, im] pairs (for kappas/alphas, lists of them)
COMPLEX_FIELDS = {"lam", "delta", "delta_inf", "product", "kappas", "alphas"}


def json_columns(key, value, is_complex):
    """The (column, value) pairs of one JSON field under the CSV rule."""

    if is_complex and not isinstance(value[0], list):
        return [(key + "_re", value[0]), (key + "_im", value[1])]
    if isinstance(value, list):
        return [
            pair
            for k, item in enumerate(value)
            for pair in json_columns(f"{key}_{k}", item, is_complex)
        ]
    return [(key, value)]


SPLICED = {
    "q": [
        {"interval": [0.0, 2.0], "expr": "x - 2"},
        {"interval": [2.0, math.pi], "expr": "0"},
    ]
}

CHEAP_CONFIGS = {
    "spectrum": {
        "problems": {"p": FREE},
        "spectrum": {"problem": "p", "modulus_bound": 10},
    },
    # the double root at 4 has a second kappa/alpha column set, so the
    # simple root at 1 leaves those cells blank
    "norming": {
        "problems": {"p": {"q": "0", "h": [0, 2], "H": [0, -2]}},
        "norming": {"problem": "p", "modulus_bound": 6},
    },
    "charfn": {
        "problems": {"p": FREE},
        "charfn": {"problem": "p", "lambdas": [2.0, [3.0, 1.0]]},
    },
    "product": {
        "problems": {"p": {"q": "0", "h": 0, "H": "dirichlet"}},
        "product": {"problem": "p", "zeros": [1, 4, [9, 0]], "lambdas": [0.25, [2, 1]]},
    },
    "growth": {
        "problems": {"p": FREE},
        "growth": {"problem": "p", "y_lo": 100.0, "y_hi": 1000.0, "per_decade": 2},
    },
    "asympt": {
        "problems": {"a": {"q": "0"}, "b": {"q": "x - 3"}},
        "asympt": {"problem_a": "a", "problem_b": "b", "r": 2.9, "x0": 3.0, "m": 0},
    },
    "uniq": {
        "problems": {"a": {"q": "0"}, "b": SPLICED},
        "uniq": {"mode": "collapse", "problem_a": "a", "problem_b": "b", "b": 2.0},
    },
}


@pytest.mark.parametrize("command", list(CHEAP_CONFIGS))
def test_csv_is_derived_from_json(tmp_path, capsys, command):
    cfg = write_config(tmp_path, CHEAP_CONFIGS[command])
    assert main([command, "--config", cfg]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert main([command, "--config", cfg, "--format", "csv"]) == 0
    header, *lines = csv.reader(io.StringIO(capsys.readouterr().out))

    lists = [v for v in result.values()
             if isinstance(v, list) and all(isinstance(r, dict) for r in v)]
    records = lists[0] if lists else [result]
    rows = [
        dict(pair for key, value in rec.items()
             for pair in json_columns(key, value, key in COMPLEX_FIELDS))
        for rec in records
    ]
    # the report sorts its keys; the CSV keeps the payload's field order
    assert sorted(header) == sorted({name for row in rows for name in row})
    assert len(lines) == len(rows)
    for row, line in zip(rows, lines):
        assert len(line) == len(header)
        for name, cell in zip(header, line):
            if name not in row:
                assert cell == ""
            elif isinstance(row[name], bool):
                assert cell == str(row[name]).lower()
            elif isinstance(row[name], float):
                assert float(cell) == row[name]
            else:
                assert cell == str(row[name])
