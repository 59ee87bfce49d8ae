"""Outside-in per-layer tracing of the pigeonpost modules.

``Tracer.install`` wraps every public module-level function of every
``pigeonpost`` module and rebinds the wrapper under each name that points
at the original, in every loaded ``pigeonpost`` module: the modules bind
with ``from .x import y``, so patching only the defining module would miss
most calls.  ``scipy.optimize.milp`` is wrapped as well when scipy is
already loaded (``ilp`` imports it inside the solve call, so the wrapper is
picked up there); nothing imports scipy just to trace it.

Each wrapper records its *self* time: its wall time minus the wall time of
wrapped calls made inside it.  Self time of private helpers counts towards
the public function that called them.  No file under ``src/`` changes.
"""

from __future__ import annotations

import inspect
import sys
from collections import defaultdict
from time import perf_counter

# Public function -> per-layer metric.  Public functions not listed here
# go to ``trace.other_s``.
SPAN_METRICS = {
    "pigeonpost.cli.main": "cli.main_self_s",
    "pigeonpost.cli.build_parser": "cli.main_self_s",
    "pigeonpost.demand.parse_demand_graph": "demand.parse_s",
    "pigeonpost.demand.weakly_connected_components": "demand.components_s",
    "pigeonpost.demand.lower_bound": "demand.bounds_s",
    "pigeonpost.demand.degree_profile": "demand.bounds_s",
    "pigeonpost.planners.plan_coordinator": "planners.coordinator_s",
    "pigeonpost.planners.plan_cycle": "planners.cycle_s",
    "pigeonpost.planners.make_result": "planners.make_result_s",
    "pigeonpost.exact.optimal_multihop": "exact.multihop_s",
    "pigeonpost.exact.optimal_twohop": "exact.twohop_s",
    "pigeonpost.ilp.build_twohop_model": "ilp.build_s",
    "pigeonpost.ilp.build_multihop_model": "ilp.build_s",
    "pigeonpost.ilp.optimal_twohop_ilp": "ilp.solve_s",
    "pigeonpost.ilp.optimal_multihop_ilp": "ilp.solve_s",
    "pigeonpost.ilp.solve_binary_model": "ilp.solve_s",
    "pigeonpost.ilp.extract_plan": "ilp.extract_s",
    "pigeonpost.ilp.export_lp": "ilp.export_lp_s",
    "pigeonpost.flightplan.parse_flight_plan": "flightplan.parse_plan_s",
    "pigeonpost.flightplan.verify_twohop": "flightplan.verify_twohop_s",
    "pigeonpost.flightplan.verify_multihop": "flightplan.verify_multihop_s",
    "pigeonpost.reductions.parse_dimacs_cnf": "reductions.parse_cnf_s",
    "pigeonpost.reductions.reduce_3sat_to_twohop": "reductions.reduce_s",
    "pigeonpost.reductions.reduce_vertex_cover_to_multihop": "reductions.reduce_s",
    "pigeonpost.jsonutil.canonical_dumps": "jsonutil.dumps_s",
}

# ``verify`` dispatches through ``VERIFIERS``, which holds the raw
# functions, so its span is keyed on the mode argument instead.
VERIFY_METRICS = {
    "twohop": "flightplan.verify_twohop_s",
    "multihop": "flightplan.verify_multihop_s",
}

# Calls counted into ``demand.calls`` (component split and bounds).
DEMAND_CALLS = {
    "pigeonpost.demand.weakly_connected_components",
    "pigeonpost.demand.lower_bound",
    "pigeonpost.demand.degree_profile",
}

TIME_METRICS = sorted(set(SPAN_METRICS.values()) | {"ilp.highs_s", "trace.other_s"})
COUNT_METRICS = (
    "demand.calls",
    "ilp.highs_vars",
    "ilp.highs_rows",
    "ilp.highs_nonzeros",
    "ilp.highs_nodes",
    "flightplan.flights_verified",
    "jsonutil.bytes",
)


def _public_functions(module):
    for name, value in vars(module).items():
        if (
            not name.startswith("_")
            and inspect.isfunction(value)
            and value.__module__ == module.__name__
        ):
            yield name, value


class Tracer:
    """Self time and counts per layer while installed."""

    def __init__(self):
        self.seconds = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack: list[float] = []
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ spans
    def _span(self, metric_of, fn, on_return=None):
        stack = self._stack
        seconds = self.seconds

        def wrapper(*args, **kwargs):
            metric = metric_of(args, kwargs)
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                seconds[metric] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrapper_for(self, qualname: str, fn):
        if qualname == "pigeonpost.flightplan.verify":
            def verify_metric(args, kwargs):
                mode = args[0] if args else kwargs.get("mode")
                return VERIFY_METRICS.get(mode, "trace.other_s")

            def count_flights(args, kwargs, report):
                self.counts["flightplan.flights_verified"] += report.pigeon_count

            return self._span(verify_metric, fn, count_flights)
        metric = SPAN_METRICS.get(qualname, "trace.other_s")
        on_return = None
        if qualname in DEMAND_CALLS:
            def on_return(args, kwargs, result):
                self.counts["demand.calls"] += 1
        elif qualname == "pigeonpost.jsonutil.canonical_dumps":
            def on_return(args, kwargs, text):
                self.counts["jsonutil.bytes"] += len(text.encode())
        return self._span(lambda args, kwargs: metric, fn, on_return)

    def _milp_wrapper(self, fn):
        def count_model(args, kwargs, result):
            c = kwargs["c"] if "c" in kwargs else args[0]
            self.counts["ilp.highs_vars"] += len(c)
            constraints = kwargs.get("constraints")
            if constraints is not None:
                self.counts["ilp.highs_rows"] += constraints.A.shape[0]
                self.counts["ilp.highs_nonzeros"] += constraints.A.nnz
            self.counts["ilp.highs_nodes"] += int(getattr(result, "mip_node_count", 0) or 0)

        return self._span(lambda args, kwargs: "ilp.highs_s", fn, count_model)

    # ------------------------------------------------------- patching
    def _rebind(self, module, name, value):
        self._undo.append((module, name, getattr(module, name)))
        setattr(module, name, value)

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "pigeonpost" or name.startswith("pigeonpost."))
        ]
        wrappers = {}
        for module in modules:
            for name, fn in _public_functions(module):
                wrappers[id(fn)] = self._wrapper_for(f"{module.__name__}.{name}", fn)
        for module in modules:
            for name, value in list(vars(module).items()):
                if id(value) in wrappers and inspect.isfunction(value):
                    self._rebind(module, name, wrappers[id(value)])
        optimize = sys.modules.get("scipy.optimize")
        if optimize is not None:
            self._rebind(optimize, "milp", self._milp_wrapper(optimize.milp))

    def uninstall(self) -> None:
        while self._undo:
            module, name, value = self._undo.pop()
            setattr(module, name, value)

    def snapshot(self) -> dict:
        return {"seconds": dict(self.seconds), "counts": dict(self.counts)}
