"""Per-layer spans and counters for the traced benchmark run.

The program is not modified: :meth:`Tracer.install` wraps every public
module-level function of each ``sturmdisc`` module and rebinds the wrapper
in every ``sturmdisc`` namespace that holds the same function object (so
``sturmdisc.spectrum.char_delta`` is traced as well as
``sturmdisc.charfn.char_delta``).  Each wrapper records a span: name, the
namespace it was called through, start, end and the enclosing span.  Two
lower boundaries are counted rather than spanned, because they run per
integration step: ``scipy``'s ``solve_ivp`` as ``sturmdisc.ode`` sees it
(calls, ``nfev`` and time inside the right-hand side) and the potential
callables that ``PotentialExpr.piece_fn`` hands out.  Spans stay in memory
and are written out when the benchmark ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import time
from collections import defaultdict

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self._undo = []  # (owner, attribute, original)
        self.reset()

    def reset(self):
        """Drop the spans and counters of the previous pass."""

        self.spans = []  # [name, via, t0, t1, parent, error, child_s, info]
        self._stack = []
        self.counts = defaultdict(int)
        self.seconds = defaultdict(float)

    # -- installation ---------------------------------------------------

    def install(self):
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if (name == "sturmdisc" or name.startswith("sturmdisc.")) and mod is not None
        }
        originals = {}
        for name, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == name
                    and not attr.startswith("_")
                ):
                    originals[id(obj)] = (obj, _short(name) + "." + attr)
        for name, mod in modules.items():
            via = _short(name)
            for attr, obj in list(vars(mod).items()):
                entry = originals.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._set(mod, attr, self._span_wrapper(obj, entry[1], via))

        ode = modules["sturmdisc.ode"]
        self._set(ode, "solve_ivp", self._ivp_wrapper(ode.solve_ivp))
        pot = modules["sturmdisc.expr"].PotentialExpr
        self._set(pot, "piece_fn", self._piece_fn_wrapper(pot.piece_fn))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, fn, name, via):
        tracer = self  # reset() rebinds spans and stack, so look them up per call

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack = tracer.spans, tracer._stack
            parent = stack[-1] if stack else -1
            record = [name, via, _clock(), 0.0, parent, None, 0.0, _info(name, args, kwargs)]
            spans.append(record)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                record[5] = type(exc).__name__
                raise
            finally:
                record[3] = _clock()
                stack.pop()
                if parent >= 0:
                    spans[parent][6] += record[3] - record[2]
            _note_result(tracer, name, result)
            return result

        return traced

    def _ivp_wrapper(self, solve_ivp):
        tracer = self

        @functools.wraps(solve_ivp)
        def traced_ivp(fun, t_span, y0, **kwargs):
            def timed_rhs(t, y):
                t0 = _clock()
                out = fun(t, y)
                tracer.seconds["rhs"] += _clock() - t0
                tracer.counts["rhs_timed"] += 1
                return out

            sol = solve_ivp(timed_rhs, t_span, y0, **kwargs)
            tracer.counts["ivp_calls"] += 1
            tracer.counts["rhs_evals"] += int(sol.nfev)
            return sol

        return traced_ivp

    def _piece_fn_wrapper(self, piece_fn):
        tracer = self
        wrapped = {}  # id(original) -> (original, wrapper); keeps identity stable

        @functools.wraps(piece_fn)
        def traced_piece_fn(pot, lo, hi):
            fn = piece_fn(pot, lo, hi)
            entry = wrapped.get(id(fn))
            if entry is None or entry[0] is not fn:

                def counted_q(x, fn=fn):
                    t0 = _clock()
                    out = fn(x)
                    tracer.seconds["q"] += _clock() - t0
                    tracer.counts["q_evals"] += 1
                    return out

                entry = wrapped[id(fn)] = (fn, counted_q)
            return entry[1]

        return traced_piece_fn

    # -- reduction --------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics of the spans and counters since :meth:`reset`."""

        calls = defaultdict(int)
        self_s = defaultdict(float)
        total_s = defaultdict(float)
        for name, _via, t0, t1, _parent, _err, child_s, _info in self.spans:
            calls[name] += 1
            total_s[name] += t1 - t0
            self_s[name] += (t1 - t0) - child_s

        def where(name, via=None, parent=None):
            for rec in self.spans:
                if rec[0] != name or (via is not None and rec[1] != via):
                    continue
                if parent is not None and (
                    rec[4] < 0 or self.spans[rec[4]][0] != parent
                ):
                    continue
                yield rec

        def ratio(num, den):
            return num / den if den else 0.0

        m = {}
        m["ode.rhs_evals"] = self.counts["rhs_evals"]
        m["ode.rhs_us"] = 1e6 * ratio(self.seconds["rhs"], self.counts["rhs_timed"])
        m["ode.ivp_calls"] = self.counts["ivp_calls"]
        for fn in ("ode.solve_chain", "ode.solve_many", "ode.pair_integrals",
                   "spectrum.count_zeros", "charfn.f_function"):
            m[fn + ".calls"] = calls[fn]
        for fn in ("ode.solve_chain", "ode.solve_many", "ode.pair_integrals",
                   "spectrum.count_zeros", "charfn.f_function", "charfn.f_bracket_ray",
                   "asympt.decay_order_fit", "uniq.bracket_decay_probe",
                   "uniq.product_ratio_probe", "uniq.collapse_consistency",
                   "norming.compute_norming", "norming.check_identity",
                   "config.load_config"):
            m[fn + ".self_s"] = self_s[fn]
        m["ode.solve_many.lams"] = sum(r[7] for r in where("ode.solve_many"))
        delta_many_lams = sum(r[7] for r in where("charfn.delta_many"))
        m["charfn.delta_many.us_per_lam"] = 1e6 * ratio(
            total_s["charfn.delta_many"], delta_many_lams
        )
        samples = sum(r[7] for r in where("charfn.delta_many", via="spectrum"))
        m["spectrum.contour_samples"] = samples
        m["spectrum.contour_retries"] = sum(
            1
            for fn in ("spectrum.count_zeros", "spectrum.multiplicity_probe")
            for r in where(fn)
            if r[5] == "ZeroOnContour"
        )
        m["spectrum.samples_per_eig"] = ratio(samples, self.counts["eigs_found"])
        newton = list(where("charfn.char_delta", via="spectrum"))
        m["spectrum.newton_calls"] = len(newton)
        m["spectrum.newton_s"] = sum(r[3] - r[2] for r in newton)
        m["charfn.char_delta.calls"] = calls["charfn.char_delta"]
        bins = defaultdict(list)
        for r in where("charfn.char_delta"):
            bins[r[7]].append(r[3] - r[2])
        for k in range(2, 7):
            vals = bins.get(k, [])
            m[f"charfn.char_delta.mean_s.1e{k}"] = sum(vals) / len(vals) if vals else 0.0
        m["asympt.points_used_ratio"] = ratio(
            self.counts["fit_points_used"], self.counts["fit_points"]
        )
        m["uniq.char_delta_per_ray_point"] = ratio(
            len(list(where("charfn.char_delta", parent="uniq.product_ratio_probe"))),
            len(list(where("charfn.f_bracket_ray", parent="uniq.product_ratio_probe"))),
        )
        m["expr.q_evals"] = self.counts["q_evals"]
        m["expr.q_eval_us"] = 1e6 * ratio(self.seconds["q"], self.counts["q_evals"])
        m["cli.self_s"] = self_s["cli.main"]
        m["entire.self_s"] = sum(v for k, v in self_s.items() if k.startswith("entire."))
        return m


def dump_spans(spans, fh, pass_index: int):
    """Write one pass's spans (``Tracer.spans``) as JSON lines."""

    for i, (name, via, t0, t1, parent, err, _child, _info) in enumerate(spans):
        fh.write(json.dumps({
            "pass": pass_index, "id": i, "parent": parent, "name": name,
            "via": via, "start": t0, "end": t1, "error": err,
        }) + "\n")


def _short(module_name: str) -> str:
    return module_name.split(".", 1)[1] if "." in module_name else module_name


def _info(name, args, kwargs):
    """The span attribute a metric needs: batch size or ``|lam|`` decade."""

    if name in ("ode.solve_many", "charfn.delta_many"):
        lams = args[1] if len(args) > 1 else kwargs.get("lams", ())
        try:
            return len(lams)
        except TypeError:
            return 1
    if name == "charfn.char_delta":
        mag = abs(complex(args[1] if len(args) > 1 else kwargs.get("lam", 0)))
        return min(6, max(2, round(math.log10(mag)))) if mag > 0 else 2
    return None


def _note_result(tracer, name, result):
    if name == "spectrum.find_eigenvalues":
        tracer.counts["eigs_found"] += sum(r.multiplicity for r in result)
    elif name == "asympt.decay_order_fit":
        tracer.counts["fit_points_used"] += int(result.used.sum())
        tracer.counts["fit_points"] += int(result.used.size)
