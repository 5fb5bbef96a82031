"""Reference figures quoted in the README, computed afresh (about 15 s).

    env OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 MKL_NUM_THREADS=1 \\
        python3 perfbench/figures.py

Prints ``char_delta`` time (median of three) and relative error against the
exact ``Delta`` at ``lam = i y``, ``y = 1e2 .. 1e6``, for the free jump
problem (h = .3, H = .1, beta = 1.5, gamma = .2i), and ``delta_many``
microseconds per lambda by batch size over the batches that
``find_eigenvalues(free Neumann, 370)`` issues.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import defaultdict

import run
import reference
from tracing import Tracer


def main() -> int:
    sd, _, setup_s = run.set_up("ray", 0)
    print(f"set-up (import sturmdisc, build problems): {setup_s:.3f} s")
    data = dict(h=0.3, H=0.1, beta=1.5, gamma=0.2j)
    problem = sd.Problem(q="0", **data)
    print("char_delta at lam = i y: median seconds of 3, relative error of Delta")
    for k in range(2, 7):
        y = 10.0**k
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            sample = sd.char_delta(problem, 1j * y)
            times.append(time.perf_counter() - t0)
        exact = reference.free_jump_delta(1j * y, **data)[0]
        err = reference.rel_error(sample.delta.val, sample.delta.log, exact)
        print(f"  y = 1e{k}: {statistics.median(times):.4f} s, error {err:.2e}")

    tracer = Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        records = sd.find_eigenvalues(sd.Problem(q="0"), 370.0)
        search_s = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    by_size = defaultdict(list)
    for name, _via, t_start, t_end, _p, _e, _c, size in tracer.spans:
        if name == "charfn.delta_many":
            by_size[size].append(t_end - t_start)
    print(f"find_eigenvalues(free Neumann, 370): {len(records)} roots, {search_s:.2f} s traced")
    print("delta_many by batch size: batches, microseconds per lambda (mean)")
    for lo, hi in ((1, 16), (17, 64), (65, 256), (257, 1024), (1025, 4096)):
        spans = [(n, t) for n, ts in by_size.items() if lo <= n <= hi for t in ts]
        if spans:
            lams = sum(n for n, _ in spans)
            us = 1e6 * sum(t for _, t in spans) / lams
            print(f"  {lo}-{hi}: {len(spans)} batches, {us:.1f} us per lambda")
    return 0


if __name__ == "__main__":
    sys.exit(main())
