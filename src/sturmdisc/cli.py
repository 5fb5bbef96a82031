"""Command-line front-end.

``sturmdisc <command> --config file.json [--out path] [--format json|csv]``
reads a JSON run configuration, dispatches to the library, and writes a
report.  Exit codes: 0 success, 1 config validation error, 2 computation
failure, 3 property-check failure (asympt/uniq pass/fail modes).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

import numpy as np

from . import __version__
from .asympt import decay_order_fit
from .charfn import char_delta, delta_consistency, delta_many
from .config import ConfigError, RunConfig, get_complex_list, get_int, get_real, load_config
from .entire import doubling_check, fit_constant, growth_fit, ray_points
from .norming import check_identity, compute_norming
from .spectrum import ZeroSequence, find_eigenvalues
from .uniq import collapse_consistency, bracket_decay_probe, product_ratio_probe

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_COMPUTE = 2
EXIT_PROPERTY = 3


def _check(ok: bool, path: str, message: str) -> None:
    """Reject an out-of-range field before anything is computed."""

    if not ok:
        raise ConfigError(path, message)


def _search(cfg: RunConfig, path: str):
    """The section's problem and its eigenvalues inside ``modulus_bound``."""

    p = cfg.problem("problem", path + ".problem")
    bound = get_real(cfg.params, "modulus_bound", path)
    _check(bound > 0, path + ".modulus_bound", "must be positive")
    return p, find_eigenvalues(p, bound)


# ---------------------------------------------------------------------------
# Command implementations: each returns (payload, status), where status is
# the exit code.  Complex values stay ``complex``; _emit writes them as
# [re, im] in JSON and as two columns in CSV.
# ---------------------------------------------------------------------------


def _run_spectrum(cfg: RunConfig):
    _, records = _search(cfg, "$.spectrum")
    payload = {
        "eigenvalues": [
            {"lam": complex(r.lam), "multiplicity": r.multiplicity, "residual": r.residual}
            for r in records
        ]
    }
    return payload, EXIT_OK


def _run_norming(cfg: RunConfig):
    p, records = _search(cfg, "$.norming")
    out = []
    for rec in records:
        norm = compute_norming(p, rec)
        out.append(
            {
                "lam": complex(rec.lam),
                "multiplicity": rec.multiplicity,
                "kappas": [complex(k) for k in norm.kappas],
                "alphas": [complex(a) for a in norm.alphas],
                "identity_residuals": list(check_identity(p, rec, norm)),
            }
        )
    return {"norming": out}, EXIT_OK


def _run_charfn(cfg: RunConfig):
    p = cfg.problem("problem", "$.charfn.problem")
    out = []
    for lam in get_complex_list(cfg.params, "lambdas", "$.charfn"):
        s = char_delta(p, lam)
        out.append(
            {
                "lam": lam,
                "delta": complex(s.delta.val),
                "delta_inf": complex(s.delta_inf.val),
                "log_scale": s.delta.log,
                "consistency": delta_consistency(p, lam),
            }
        )
    return {"samples": out}, EXIT_OK


def _run_product(cfg: RunConfig):
    path = "$.product"
    if "zeros" in cfg.params:
        p = cfg.problem("problem", path + ".problem")
        zeros = get_complex_list(cfg.params, "zeros", path)
        seq = ZeroSequence(np.array(zeros), np.ones(len(zeros), dtype=int),
                           origin="config")
    else:
        p, records = _search(cfg, path)
        seq = ZeroSequence.from_records(records)
    constant = fit_constant(p, seq, lam=0.0)
    lams = get_complex_list(cfg.params, "lambdas", path) if "lambdas" in cfg.params else [
        complex(v) for v in np.linspace(-4.9, 4.9, 11)
    ]
    out = []
    for lam in lams:
        full, half = doubling_check(seq, lam, constant)
        out.append(
            {
                "lam": lam,
                "product": complex(full.value),
                "delta": complex(char_delta(p, lam).delta.value),
                "doubling_gap": abs(full.value - half.value),
            }
        )
    payload = {"constant": complex(constant), "n_zeros": len(seq), "samples": out}
    return payload, EXIT_OK


def _run_growth(cfg: RunConfig):
    p = cfg.problem("problem", "$.growth.problem")
    target = cfg.params.get("target", "delta")
    if target not in ("delta", "delta_inf"):
        raise ConfigError("$.growth.target", "expected 'delta' or 'delta_inf'")
    y_lo = get_real(cfg.params, "y_lo", "$.growth", default=1e2)
    y_hi = get_real(cfg.params, "y_hi", "$.growth", default=1e6)
    per_decade = get_int(cfg.params, "per_decade", "$.growth", default=2)
    _check(y_lo > 0, "$.growth.y_lo", "must be positive")
    _check(y_hi > y_lo, "$.growth.y_hi", "must exceed y_lo")
    ys = ray_points(y_lo, y_hi, per_decade) if per_decade > 0 else []
    _check(len(ys) >= 3, "$.growth.per_decade",
           f"gives {len(ys)} ray points; the growth fit needs at least 3")
    vals, vals_inf, scales = delta_many(p, 1j * ys)
    logs = np.log(np.abs(vals if target == "delta" else vals_inf)) + scales
    fit = growth_fit(ys, logs)
    preds = fit.c * np.sqrt(ys / 2.0) + fit.p * np.log(ys) + fit.const
    payload = {
        "target": target,
        "c": fit.c,
        "p": fit.p,
        "const": fit.const,
        "max_residual": fit.max_residual,
        "samples": [
            {"y": float(y), "log_abs": float(l), "model": float(m)}
            for y, l, m in zip(ys, logs, preds)
        ],
    }
    return payload, EXIT_OK


def _run_asympt(cfg: RunConfig):
    pa = cfg.problem("problem_a", "$.asympt.problem_a")
    pb = cfg.problem("problem_b", "$.asympt.problem_b")
    r = get_real(cfg.params, "r", "$.asympt")
    x0 = get_real(cfg.params, "x0", "$.asympt")
    m = get_int(cfg.params, "m", "$.asympt")
    _check(0 <= r < math.pi, "$.asympt.r", "must lie in [0, pi)")
    _check(r < x0 <= math.pi, "$.asympt.x0", "must lie in (r, pi]")
    _check(m >= 0, "$.asympt.m", "must be non-negative")
    combo = cfg.params.get("combination", "22")
    try:
        fit = decay_order_fit(pa, pb, r, x0, combo=combo, m_claimed=m)
    except KeyError:
        raise ConfigError("$.asympt.combination", "expected one of 11, 12, 21, 22")
    payload = {
        "combination": "%d%d" % fit.combo,
        "claimed_exponent": fit.claimed_exponent,
        "fitted_slope": fit.slope,
        "slope_stderr": fit.slope_stderr,
        "pass": bool(fit.passes),
        "points_used": int(fit.used.sum()),
    }
    return payload, EXIT_OK if fit.passes else EXIT_PROPERTY


def _run_uniq(cfg: RunConfig):
    mode = cfg.params.get("mode")
    if mode not in ("iy", "collapse", "ratio"):
        raise ConfigError("$.uniq.mode", "expected one of 'iy', 'collapse', 'ratio'")
    pa = cfg.problem("problem_a", "$.uniq.problem_a")
    pb = cfg.problem("problem_b", "$.uniq.problem_b")
    b = get_real(cfg.params, "b", "$.uniq")
    _check(0 < b <= math.pi, "$.uniq.b", "must lie in (0, pi]")
    if mode == "iy":
        m = get_int(cfg.params, "m", "$.uniq")
        _check(m >= 0, "$.uniq.m", "must be non-negative")
        probe = bracket_decay_probe(pa, pb, b, m)
        ok = bool(probe.passes)
        values = {"fitted_slope": probe.slope, "slope_stderr": probe.slope_stderr,
                  "threshold": probe.threshold}
    elif mode == "collapse":
        tol = get_real(cfg.params, "tolerance", "$.uniq", default=1e-8)
        rep = collapse_consistency(pa, pb, b)
        ok = rep.max_rel <= tol
        values = {"max_relative_gap": rep.max_rel, "tolerance": tol}
    else:
        rep = product_ratio_probe(pa, pb, b)
        ok = rep.monotone_tail
        values = {
            "fitted_rate": rep.fitted_rate,
            "rate_stderr": rep.rate_stderr,
            "expected_rate": rep.expected_rate,
            "monotone_tail": ok,
            "samples": [
                {"y": float(y), "log_ratio": float(v)}
                for y, v in zip(rep.ys, rep.log_ratios)
            ],
        }
    payload = {"mode": mode, **values, "pass": ok}
    return payload, EXIT_OK if ok else EXIT_PROPERTY


# command -> (runner, the fields its config section may hold)
_RUNNERS = {
    "spectrum": (_run_spectrum, {"problem", "modulus_bound"}),
    "norming": (_run_norming, {"problem", "modulus_bound"}),
    "charfn": (_run_charfn, {"problem", "lambdas"}),
    "product": (_run_product, {"problem", "zeros", "modulus_bound", "lambdas"}),
    "growth": (_run_growth, {"problem", "target", "y_lo", "y_hi", "per_decade"}),
    "asympt": (_run_asympt, {"problem_a", "problem_b", "r", "x0", "m", "combination"}),
    "uniq": (_run_uniq, {"mode", "problem_a", "problem_b", "b", "m", "tolerance"}),
}


def _flatten(key: str, value, row: dict) -> None:
    """Add ``value`` to ``row`` as CSV cells, in columns named after ``key``."""

    if isinstance(value, complex):
        _flatten(key + "_re", value.real, row)
        _flatten(key + "_im", value.imag, row)
    elif isinstance(value, list):
        for k, item in enumerate(value):
            _flatten(f"{key}_{k}", item, row)
    elif isinstance(value, bool):
        row[key] = "true" if value else "false"
    elif isinstance(value, float):
        row[key] = "%.17g" % value
    else:
        row[key] = str(value)


def _csv(result: dict) -> str:
    """The result as CSV: one row per record of its list of records (or a
    single row when it has none), columns named by the JSON fields."""

    lists = [v for v in result.values()
             if isinstance(v, list) and all(isinstance(r, dict) for r in v)]
    rows = []
    for record in lists[0] if lists else [result]:
        row = {}
        for key, value in record.items():
            _flatten(key, value, row)
        rows.append(row)
    header = list(dict.fromkeys(name for row in rows for name in row))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([row.get(name, "") for name in header] for row in rows)
    return buf.getvalue()


def _emit(report, fmt, out_path):
    if fmt == "json":
        text = json.dumps(report, indent=2, sort_keys=True,
                          default=lambda z: [z.real, z.imag]) + "\n"
    else:
        text = _csv(report["result"])
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sturmdisc",
        description="Spectral computations for Sturm-Liouville problems "
        "with an interior discontinuity",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _RUNNERS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True)
        cmd.add_argument("--out", default=None)
        cmd.add_argument("--format", choices=("json", "csv"), default="json")
    args = parser.parse_args(argv)

    try:
        runner, fields = _RUNNERS[args.command]
        cfg = load_config(args.config, args.command, fields)
        payload, status = runner(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - boundary of the CLI
        print(f"computation failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_COMPUTE

    report = {
        "version": __version__,
        "command": args.command,
        "config": cfg.raw,
        "result": payload,
    }
    if status == EXIT_PROPERTY:
        report["failed"] = True
    _emit(report, args.format, args.out)
    return status


if __name__ == "__main__":
    sys.exit(main())
