"""Span tracing of `homfit` from outside the package.

`Tracer.install()` replaces the public functions of each `homfit` module
(plus the few private boundary functions named in EXTRA) with wrappers
that record one span per call: name, start, end, parent span and job id.
Every module namespace that imported the function gets the wrapper, so
calls between modules are traced too.  Spans stay in memory until the
pass ends.  Hooks on a few calls record counts that only the call's
arguments or result show (grid points, Newton steps, atoms).

Self time is a span's duration minus the time its child spans cover; a
layer is a module, and the layers' self times add up to the time of the
root spans (one `cli.main` per job).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import defaultdict
from time import perf_counter

from checks import certificate_errors

MODULES = ("cli", "constraints", "centering", "solver", "certificate",
           "integrals", "spheres", "polynomials", "oracle")

# Public helpers called inside every quadrature level; tracing them would
# cost more than the work they do, so their time stays with the caller.
SKIP = {"polynomials.basis_for", "polynomials.monomial_matrix"}

# Boundary functions outside `__all__`: one ladder call of the
# quadrature, the sphere-rule builders (run only on a `sphere_grid`
# cache miss) and the cone membership test.
EXTRA = ("integrals._angular_integrals", "spheres._circle",
         "spheres._fibonacci", "spheres._product_s3",
         "polynomials.check_in_cone")

SPAN_FIELDS = ("name", "start", "end", "parent", "job")


def self_times(spans):
    """Self time of every span: duration minus the union of the intervals
    its direct children cover, clipped to the span itself."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c in sorted(children.get(i, ()), key=lambda k: spans[k][1]):
            lo, hi = max(spans[c][1], cursor), min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


class Tracer:
    """Collects spans and counters for one pass."""

    def __init__(self):
        self.spans = []            # [name, start, end, parent, job]
        self.stack = []
        self.job = None
        self.counts = defaultdict(float)
        self.maxima = {}
        self.originals = {}
        self._hooks = {
            "integrals._angular_integrals": self._on_ladder,
            "solver.solve_min_volume": self._on_solve,
            "centering.solve_min_volume_centered": self._on_centered,
            "certificate.caratheodory_reduce": self._on_reduce,
            "certificate.build_certificate": self._on_certificate,
            "oracle.mvee_symmetric": self._on_oracle,
            "constraints.to_constraints": self._on_sample,
            "constraints.inclusion_check": self._on_audit,
        }

    def install(self):
        """Wrap the traced functions in every loaded `homfit` module."""
        mods = {name: importlib.import_module(f"homfit.{name}") for name in MODULES}
        targets = {}
        for name, mod in mods.items():
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr)
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and f"{name}.{attr}" not in SKIP):
                    targets[fn] = f"{name}.{attr}"
        for qual in EXTRA:
            name, attr = qual.split(".")
            targets[getattr(mods[name], attr)] = qual
        self.originals = {qual: fn for fn, qual in targets.items()}
        wrappers = {fn: self._wrap(qual, fn) for fn, qual in targets.items()}
        namespaces = [m for key, m in sys.modules.items()
                      if key == "homfit" or key.startswith("homfit.")]
        for mod in namespaces:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(mod, attr, wrappers[value])

    def _wrap(self, qual, fn):
        hook = self._hooks.get(qual)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [qual, 0.0, 0.0, stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[2] = perf_counter()
                stack.pop()
                if hook is not None:
                    hook(span, args, kwargs, None, exc)
                raise
            span[2] = perf_counter()
            stack.pop()
            if hook is not None:
                hook(span, args, kwargs, result, None)
            return result

        return traced

    def call_cost(self, calls=200_000):
        """Seconds one traced call adds: a wrapped against a bare no-op."""
        def noop():
            return None

        traced = Tracer()._wrap("probe.noop", noop)
        times = []
        for fn in (noop, traced):
            start = perf_counter()
            for _ in range(calls):
                fn()
            times.append(perf_counter() - start)
        return (times[1] - times[0]) / calls

    def _parent_name(self, span):
        return self.spans[span[3]][0] if span[3] >= 0 else None

    def _on_ladder(self, span, args, kwargs, result, exc):
        if result is None:
            return
        info = result[1]
        self.counts["integrals.points"] += info["points"]
        if not info["converged"]:
            self.counts["integrals.unconverged"] += 1

    def _on_solve(self, span, args, kwargs, result, exc):
        if result is not None:
            self.counts["solver.newton_steps"] += result.iterations
            self.counts["solver.stages"] += result.stages

    def _on_centered(self, span, args, kwargs, result, exc):
        if result is not None:
            self.counts["centering.inner_solves"] += result.evaluations
            self.counts["centering.outer_iters"] += result.outer_iterations

    def _on_reduce(self, span, args, kwargs, result, exc):
        self.counts["certificate.atoms_in"] += len(args[1])
        if result is not None:
            self.counts["certificate.atoms_out"] += len(result[1])

    def _on_certificate(self, span, args, kwargs, result, exc):
        if result is None:
            return
        errors = certificate_errors(result.as_dict())
        self._max("certificate.resid_rel_max", errors["resid_rel"])
        self._max("certificate.mass_err_max", errors["mass_err"])

    def _on_oracle(self, span, args, kwargs, result, exc):
        if result is not None:
            self.counts["oracle.iterations"] += result.iterations
            return
        from homfit.errors import ConvergenceError
        if isinstance(exc, ConvergenceError):
            # it raises only after running every allowed iteration
            self.counts["oracle.iterations"] += kwargs.get("max_iters", _default(
                self.originals["oracle.mvee_symmetric"], "max_iters"))
        self.counts["oracle.failures"] += 1

    def _on_sample(self, span, args, kwargs, result, exc):
        # the audit draws its own sample through to_constraints
        if result is not None and self._parent_name(span) != "constraints.inclusion_check":
            self.counts["constraints.points"] += len(result)

    def _on_audit(self, span, args, kwargs, result, exc):
        if result is not None:
            self._max("constraints.audit_violation_max", result.max_violation)

    def _max(self, key, value):
        if key not in self.maxima or value > self.maxima[key]:
            self.maxima[key] = float(value)

    def summarize(self):
        """Per-layer metrics of everything recorded so far, and the tracing
        overhead estimated as span count times the cost of one traced call."""
        spans = self.spans
        own = self_times(spans)
        layer_self = defaultdict(float)
        calls = defaultdict(int)
        for i, span in enumerate(spans):
            layer_self[span[0].split(".")[0]] += own[i]
            calls[span[0]] += 1

        def duration(*names, not_under=()):
            """Summed duration of calls to `names` not nested in one another
            or in a call to `not_under`."""
            skip = set(names) | set(not_under)
            return sum(span[2] - span[1] for span in spans
                       if span[0] in names and self._parent_name(span) not in skip)

        linesearch = sum(1 for span in spans if span[0] == "integrals.integral_exp"
                         and self._parent_name(span) == "solver.solve_min_volume")
        c = self.counts
        ladder = calls["integrals._angular_integrals"]
        m = {
            "integrals.calls": ladder,
            "integrals.self_s": layer_self["integrals"],
            "integrals.points": c["integrals.points"],
            "integrals.unconverged": c["integrals.unconverged"],
            "integrals.unconverged_frac": _ratio(c["integrals.unconverged"], ladder),
            "spheres.grid_builds": (calls["spheres._circle"] + calls["spheres._fibonacci"]
                                    + calls["spheres._product_s3"]),
            "spheres.build_s": layer_self["spheres"],
            "polynomials.self_s": layer_self["polynomials"],
            "polynomials.compose_s": duration("polynomials.compose_linear"),
            "polynomials.cone_check_s": duration("polynomials.check_in_cone",
                                                 "polynomials.min_on_sphere"),
            "solver.solves": calls["solver.solve_min_volume"],
            "solver.self_s": layer_self["solver"],
            "solver.newton_steps": c["solver.newton_steps"],
            "solver.linesearch_evals": linesearch,
            "solver.step_accept_ratio": _ratio(c["solver.newton_steps"], linesearch),
            "solver.stages": c["solver.stages"],
            "centering.inner_solves": c["centering.inner_solves"],
            "centering.outer_iters": c["centering.outer_iters"],
            "centering.self_s": layer_self["centering"],
            "centering.s_per_inner": _ratio(
                duration("centering.solve_min_volume_centered"),
                c["centering.inner_solves"]),
            "certificate.self_s": layer_self["certificate"],
            "certificate.reduce_s": duration("certificate.caratheodory_reduce"),
            "certificate.atoms_in": c["certificate.atoms_in"],
            "certificate.atoms_out": c["certificate.atoms_out"],
            "certificate.resid_rel_max": self.maxima.get("certificate.resid_rel_max", 0.0),
            "certificate.mass_err_max": self.maxima.get("certificate.mass_err_max", 0.0),
            "oracle.self_s": layer_self["oracle"],
            "oracle.iterations": c["oracle.iterations"],
            "oracle.failures": c["oracle.failures"],
            "constraints.self_s": layer_self["constraints"],
            "constraints.sample_s": duration(
                "constraints.to_constraints", not_under=["constraints.inclusion_check"]),
            "constraints.points": c["constraints.points"],
            "constraints.audit_s": duration("constraints.inclusion_check"),
            "constraints.audit_violation_max":
                self.maxima.get("constraints.audit_violation_max", 0.0),
            "cli.load_s": duration("cli.load_description"),
            "cli.contours_s": duration("cli.emit_contours"),
            "cli.self_s": layer_self["cli"],
            "trace.spans": len(spans),
            "trace.layer_sum_s": sum(layer_self.values()),
            "trace.overhead_est_s": len(spans) * self.call_cost(),
        }
        return {k: float(v) for k, v in m.items()}


def _ratio(num, den):
    return num / den if den else 0.0


def _default(fn, param):
    return inspect.signature(fn).parameters[param].default
