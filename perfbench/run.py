"""Benchmark of sturmdisc, one workload per invocation.

    env OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 MKL_NUM_THREADS=1 \\
        python3 perfbench/run.py --workload spectrum --seed 1 --seconds 35 --trace 0

Run it from the root of a source checkout: ``sturmdisc`` is imported from
that checkout's ``src/`` and nowhere else, so a directory without the
sources makes it exit with an error and print no result.  Workloads are
``spectrum``, ``ray`` and ``interior`` (see ``workloads.py`` and the
README).  The load comes from this one process with no worker threads: a
closed loop that runs whole passes over the workload's operations until
another pass would end after ``--seconds`` (at least one pass).

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs the same passes with the per-layer wrappers of
``tracing.py`` installed and reports the per-layer metrics instead, writing
the spans to ``perfbench/out/``.  Either way every output of every pass is
checked after the timed passes, and the last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
SETUP_REPEATS = 3  # fresh set-ups in child processes, besides this process's own
DIGITS_CAP = 16.0  # an error of exactly 0 reads as 16 correct digits

# The benchmark command pins these; a direct run of this file gets the same.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

sys.path.insert(0, HERE)
from workloads import WORKLOADS  # noqa: E402  (stdlib only; no numpy yet)

_clock = time.perf_counter


def set_up(workload: str, seed: int):
    """Import ``sturmdisc`` from the checkout and build the workload's
    problems; returns the package, the workload and the seconds it took."""

    t0 = _clock()
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "sturmdisc", "__init__.py")):
        raise SystemExit(f"perfbench: no sturmdisc sources under {src}")
    sys.path.insert(0, src)
    import sturmdisc
    import sturmdisc.cli  # noqa: F401  (the CLI operations call sturmdisc.cli.main)

    if not os.path.abspath(sturmdisc.__file__).startswith(src + os.sep):
        raise SystemExit(f"perfbench: imported sturmdisc from {sturmdisc.__file__}, not {src}")
    wl = WORKLOADS[workload](seed, ROOT, OUT_DIR)
    wl.build(sturmdisc)
    return sturmdisc, wl, _clock() - t0


def setup_probe(workload: str, seed: int) -> float:
    """One more set-up in a fresh interpreter, timed inside it."""

    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def run_pass(ops, results, tracer, span_log):
    """One pass over the operations; returns (wall seconds, rate items,
    rate seconds, failures)."""

    if tracer is not None:
        tracer.reset()
    wall = items = item_s = 0.0
    failed = 0
    for op in ops:
        t0 = _clock()
        dt = None
        try:
            out = op.run()
            dt = _clock() - t0
            if op.collect is not None:
                out = op.collect(out)
        except Exception:  # noqa: BLE001 - a failed operation is counted, not fatal
            wall += _clock() - t0 if dt is None else dt
            failed += 1
            print(f"perfbench: {op.name} failed", file=sys.stderr)
            traceback.print_exc()
            continue
        wall += dt
        results.append((op, out))
        if op.items is not None:
            items += op.items(out)
            item_s += dt
    if tracer is not None:
        span_log.append(tracer.spans)
    return wall, items, item_s, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        print(json.dumps({"setup_s": set_up(args.workload, args.seed)[2]}))
        return 0

    sd, wl, first_setup = set_up(args.workload, args.seed)
    setups = [first_setup] + [setup_probe(args.workload, args.seed)
                              for _ in range(0 if args.trace else SETUP_REPEATS)]
    os.makedirs(OUT_DIR, exist_ok=True)
    ops = wl.ops(sd)

    tracer = None
    if args.trace:
        from tracing import Tracer, dump_spans

        tracer = Tracer()
        tracer.install()

    results, span_log, passes, layer = [], [], [], []
    attempted = failed = 0
    start = _clock()
    while True:
        wall, items, item_s, n_failed = run_pass(ops, results, tracer, span_log)
        attempted += len(ops)
        failed += n_failed
        passes.append((wall, items / item_s if item_s > 0 else 0.0))
        if tracer is not None:
            layer.append(tracer.metrics())
        median_wall = statistics.median(p[0] for p in passes)
        if _clock() - start + median_wall > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()

    # Untimed: reference computations and the checks of every output.
    refs = wl.references()
    correct = True
    digits = DIGITS_CAP
    for op, out in results:
        try:
            checks = op.check(out, refs)
        except Exception:  # noqa: BLE001 - a check that cannot run is a failed check
            print(f"perfbench: CHECK FAILED {op.name}: the check raised", file=sys.stderr)
            traceback.print_exc()
            correct = False
            continue
        for chk in checks:
            if not chk.ok:
                correct = False
                print(f"perfbench: CHECK FAILED {op.name}: {chk.label} = "
                      f"{chk.value!r} (limit {chk.limit!r})", file=sys.stderr)
            if chk.digits:
                err = max(chk.value, 10.0 ** -DIGITS_CAP)
                digits = min(digits, -math.log10(err) if math.isfinite(err) else 0.0)

    walls = [p[0] for p in passes]
    if tracer is None:
        metrics = end_to_end(setups, walls, [p[1] for p in passes], digits, peak_rss_mb)
    else:
        metrics = per_layer(layer)
        path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
        with open(path, "w") as fh:
            fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                 "traced_wall_s": walls}) + "\n")
            for k, spans in enumerate(span_log):
                dump_spans(spans, fh, k)

    summary = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {len(passes)} pass(es), "
          f"pass walls {[round(w, 3) for w in walls]}, setups {[round(s, 3) for s in setups]}")
    print(json.dumps(summary))
    return 0


def end_to_end(setups, walls, rates, digits, peak_rss_mb) -> dict:
    """The end-to-end metrics as ``{name: (value, unit)}``: medians over the
    set-ups and over the passes."""

    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "items_per_s": (statistics.median(rates), "1/s"),
        "accuracy_digits": (digits, "digits"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer(per_pass) -> dict:
    """The per-layer metrics as ``{name: (value, unit)}``: the median of
    each over the traced passes (counts repeat exactly from pass to pass)."""

    return {
        k: (statistics.median(m[k] for m in per_pass), _unit(k)) for k in per_pass[0]
    }


def _unit(metric: str) -> str:
    if metric.endswith("_us") or metric.endswith("us_per_lam"):
        return "us"
    if metric.endswith("_s") or ".mean_s." in metric:
        return "s"
    if metric.endswith("ratio") or metric.endswith("per_eig") or metric.endswith("per_ray_point"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
