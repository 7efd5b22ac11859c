"""Spans around every call into a ``degint`` layer, installed from outside.

The layers are the modules of ``src/degint``.  :class:`LayerTracer` wraps
each public function of each layer and replaces it at every binding site:
the defining module, every other ``degint`` module that imported it by name
(``cli.rk4``, ``kepler.adaptive``, ``facto.mat_exp``, ...) and the package
itself.  ``PoissonChart.pi`` and ``Observable.gradient`` are wrapped as
class attributes, and the Observables that ``double.projection_invariants``
returns get a wrapped ``fn``.  Nothing in ``src/`` is edited; uninstalling
restores every original object.
"""

import dataclasses
import functools
import importlib
import inspect
import sys

from spans import SpanRecorder

LAYERS = ("matrixcore", "poisson", "integrate", "kepler", "calogero",
          "double", "facto", "cli")

INVARIANT_SPAN = "double.invariant"


def _wrap(rec: SpanRecorder, name: str, fn, after=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        i = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(i)
        return after(rec, args, result) if after else result
    traced.traced_span = name
    return traced


def _count_fd(rec, args, result):
    if args[0].grad is None:
        rec.counts["poisson.gradient.fd_calls"] += 1
    return result


def _count_rk4(rec, args, traj):
    rec.counts["integrate.rk4.steps"] += traj.accepted_steps
    rec.counts["integrate.states_bytes"] += traj.states.nbytes
    return traj


def _count_adaptive(rec, args, traj):
    rec.counts["integrate.adaptive.accepted"] += traj.accepted_steps
    rec.counts["integrate.adaptive.rejected"] += traj.rejected_steps
    rec.counts["integrate.states_bytes"] += traj.states.nbytes
    return traj


def _count_monitor(rec, args, report):
    rec.counts["integrate.monitor.states"] += len(args[0].states)
    return report


def _wrap_invariants(rec, args, observables):
    return [dataclasses.replace(o, fn=_wrap(rec, INVARIANT_SPAN, o.fn))
            for o in observables]


_AFTER = {
    "poisson.gradient": _count_fd,
    "integrate.rk4": _count_rk4,
    "integrate.adaptive": _count_adaptive,
    "integrate.monitor": _count_monitor,
    "double.projection_invariants": _wrap_invariants,
}


def public_functions(module):
    """Functions a layer defines under a name without a leading underscore."""
    return {name: obj for name, obj in vars(module).items()
            if not name.startswith("_") and inspect.isfunction(obj)
            and obj.__module__ == module.__name__}


class LayerTracer:
    """Context manager that routes every layer call through ``rec``."""

    def __init__(self, rec: SpanRecorder):
        self.rec = rec
        self._restore = []          # (owner, attribute, original)

    def _install(self, owner, attr, wrapper):
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def __enter__(self):
        poisson = importlib.import_module("degint.poisson")
        for cls, attr in ((poisson.PoissonChart, "pi"), (poisson.Observable, "gradient")):
            span = f"poisson.{attr}"
            self._install(cls, attr, _wrap(self.rec, span, vars(cls)[attr], _AFTER.get(span)))
        wrapped = {}
        for layer in LAYERS:
            module = importlib.import_module(f"degint.{layer}")
            for name, fn in public_functions(module).items():
                span = f"{layer}.{name}"
                wrapped[id(fn)] = _wrap(self.rec, span, fn, _AFTER.get(span))
        sites = [m for n, m in sorted(sys.modules.items())
                 if n == "degint" or n.startswith("degint.")]
        for module in sites:
            for attr, value in list(vars(module).items()):
                if id(value) in wrapped and not attr.startswith("__"):
                    self._install(module, attr, wrapped[id(value)])
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        return False


# Spans whose self time and whose call count are reported per report.
TIMED_SPANS = (
    "poisson.pi", "poisson.gradient", "poisson.jacobi_defect",
    "poisson.leibniz_defect", "integrate.rk4", "integrate.adaptive",
    "integrate.monitor", "double.rank_one_reduction",
    "double.relativistic_hamiltonians", "calogero.solve_phi_psi_oracle",
    "calogero.phi_psi_closed_form", "calogero.relation_residual",
    "calogero.character_residuals", "kepler.project_to_p5",
    "matrixcore.mat_exp", "matrixcore.ul_split_factorize", "matrixcore.spectral",
    "matrixcore.traces_of_powers", "facto.factorization_flow",
)
COUNTED_SPANS = (
    "poisson.pi", "poisson.gradient", "poisson.bracket",
    "calogero.solve_phi_psi_oracle", "kepler.project_to_p5",
    "matrixcore.mat_exp", "matrixcore.ul_split_factorize", "matrixcore.spectral",
    "matrixcore.traces_of_powers", "facto.factorization_flow",
)
COUNTERS = (
    "poisson.gradient.fd_calls", "integrate.rk4.steps",
    "integrate.adaptive.accepted", "integrate.adaptive.rejected",
    "integrate.monitor.states", "integrate.states_bytes", "cli.bytes_written",
)


def layer_metrics(rec: SpanRecorder, reports: int) -> dict:
    """Every per-layer metric, per report: name -> (value, unit).

    ``<layer>.self_ms`` sums the self time of all spans of that layer, so
    ``cli.self_ms`` is the report span minus everything it called in the
    other layers: sampling, row formatting and writing.
    """
    calls, self_ns = rec.totals()
    layer_ns = dict.fromkeys(LAYERS, 0)
    for span, ns in self_ns.items():
        layer_ns[span.split(".")[0]] += ns
    values = {}
    for layer in LAYERS:
        values[f"{layer}.self_ms"] = (layer_ns[layer] / 1e6, "ms")
    for span in TIMED_SPANS:
        values[f"{span}.self_ms"] = (self_ns[span] / 1e6, "ms")
    for span in COUNTED_SPANS:
        values[f"{span}.calls"] = (calls[span], "count")
    values["double.invariant_evals"] = (calls[INVARIANT_SPAN], "count")
    values["double.invariant_self_ms"] = (self_ns[INVARIANT_SPAN] / 1e6, "ms")
    for name in COUNTERS:
        values[name] = (rec.counts[name], "bytes" if "bytes" in name else "count")
    return {name: (value / reports, unit) for name, (value, unit) in values.items()}
