"""Traced pass of one workload: `fwforge.cli.main` in-process, with spans.

    python bench/spans.py --workload NAME --out-dir DIR

Installs wrappers around the functions in `SPANS`, where fwforge defines
them and wherever a module bound them with `from ... import`, then runs
the workload's commands one after another in this interpreter through
`fwforge.cli.main`, writing each report into DIR.  Every wrapped call
records a span; its self time is its duration minus the time covered by
its child spans.  Numpy's eigensolvers count as `spectra.solve` when a
spectra function calls them.

The tracing overhead is the number of spans times the cost of one span,
timed here on a no-op function: a plain pass to subtract would differ by
the host's drift, several seconds on a 40-s pass, not by the wrappers.

Prints one JSON object: each command's exit code and the per-layer
metrics.  DIR/trace.json keeps every command's span table.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

# Layer boundaries: the functions each module offers the layer above.
# Helpers called once per term or per matrix entry (ncalg.o_count,
# lang.format_term, concretizer.decompose_matrix, spectra.closed_form_energy)
# stay unwrapped: a span around them would cost more than their work.
SPANS = {
    "cli": ("main",),
    "lang": ("parse_expr", "format_expr"),
    "ncalg": ("expand", "AbstractExpr.mul"),
    "fseries": ("nc_binomial_power", "central_expand"),
    "eriksen": ("run_pipeline", "compare_to_reference", "reference_target"),
    "stepwise": ("expand_static", "build_iterative", "derive_second_step"),
    "comparator": ("build_basis", "min_hbar_order", "project", "diff_report"),
    "concretizer": (
        "ConcreteExpr.mul",
        "ConcreteExpr.normal_order",
        "matrix_identity_report",
        "derive_electrostatic",
        "verify_uniform_commutator",
    ),
    "spectra": (
        "build_model_matrix",
        "hermitian_sqrt",
        "compare_closed_form",
        "amm_linearity_scan",
        "correction_residual_scan",
        "operator_relation_check",
    ),
}
SOLVERS = ("eig", "eigh", "eigvals", "eigvalsh")

# name -> unit of every per-layer metric this pass reports.
METRICS = {
    "comparator.build_basis.self_s": "s",
    "comparator.min_hbar_order.self_s": "s",
    "comparator.project.self_s": "s",
    "comparator.project.calls": "count",
    "comparator.basis_elements": "count",
    "comparator.basis_classes": "count",
    "comparator.classes_queried": "count",
    "comparator.elements_reported": "count",
    "ncalg.mul.calls": "count",
    "ncalg.mul.self_s": "s",
    "ncalg.mul.terms_out": "count",
    "ncalg.expand.calls": "count",
    "ncalg.expand.self_s": "s",
    "fseries.nc_binomial_power.self_s": "s",
    "eriksen.run_pipeline.self_s": "s",
    "eriksen.compare_to_reference.self_s": "s",
    "eriksen.hfw_terms": "count",
    "stepwise.expand_static.self_s": "s",
    "concretizer.mul.calls": "count",
    "concretizer.mul.term_pairs": "count",
    "concretizer.mul.self_s": "s",
    "concretizer.normal_order.self_s": "s",
    "concretizer.matrix_identity_report.calls": "count",
    "concretizer.matrix_identity_report.self_s": "s",
    "spectra.build_model_matrix.self_s": "s",
    "spectra.solve_s": "s",
    "spectra.solves": "count",
    "spectra.matrix_dim_max": "count",
    "spectra.compare_closed_form.self_s": "s",
    "cli.main.self_s": "s",
    "lang.parse_expr.self_s": "s",
    "lang.format_expr.self_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """Span stack, per-span totals and the counters the hooks fill."""

    def __init__(self):
        self.stack: list[list] = []  # [name, time covered by children]
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total, self
        self.counts = defaultdict(float)
        self.classes: set = set()

    def wrap(self, name: str, fn, hook=None, when=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if when is not None and not when(self):
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            self.stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.stack.pop()
                if self.stack:
                    self.stack[-1][1] += elapsed
                record = self.spans[name]
                record[0] += 1
                record[1] += elapsed
                record[2] += elapsed - frame[1]
            if hook is not None:
                hook(self, args, result)
            return result

        return wrapper

    def take(self) -> dict:
        """Span table and counters since the last call, then reset."""
        table = {
            "spans": {k: {"calls": c, "total_s": t, "self_s": s} for k, (c, t, s) in self.spans.items()},
            "counts": dict(self.counts),
            "classes_queried": len(self.classes),
        }
        self.spans.clear()
        self.counts.clear()
        self.classes.clear()
        return table


def _count_class(tracer, args, result):
    tracer.classes.update(args[0].classify())


def _hooks():
    def mul_terms(tracer, args, result):
        tracer.counts["ncalg.mul.terms_out"] += len(result)

    def basis(tracer, args, result):
        tracer.counts["comparator.basis_elements"] += len(result)
        tracer.counts["comparator.basis_classes"] += len(result.classes())

    def project(tracer, args, result):
        _count_class(tracer, args, result)
        tracer.counts["comparator.elements_reported"] += len(result.entries)

    def pipeline(tracer, args, result):
        tracer.counts["eriksen.hfw_terms"] += len(result.H_FW)

    def concrete_mul(tracer, args, result):
        tracer.counts["concretizer.mul.term_pairs"] += len(args[0]) * len(args[1])

    def model_matrix(tracer, args, result):
        dim = tracer.counts["spectra.matrix_dim_max"]
        tracer.counts["spectra.matrix_dim_max"] = max(dim, result.shape[-1])

    return {
        "ncalg.mul": mul_terms,
        "comparator.build_basis": basis,
        "comparator.min_hbar_order": _count_class,
        "comparator.project": project,
        "eriksen.run_pipeline": pipeline,
        "concretizer.mul": concrete_mul,
        "spectra.build_model_matrix": model_matrix,
    }


def install(tracer: Tracer) -> None:
    """Replace each function in SPANS by its wrapper wherever it is bound."""
    import numpy as np

    hooks = _hooks()
    modules = {name: importlib.import_module(f"fwforge.{name}") for name in SPANS}
    for module_name, attributes in SPANS.items():
        module = modules[module_name]
        for attribute in attributes:
            owner_name, _, fn_name = attribute.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = getattr(owner, fn_name)
            span = f"{module_name}.{fn_name}"
            wrapper = tracer.wrap(span, original, hooks.get(span))
            setattr(owner, fn_name, wrapper)
            if owner_name:
                continue
            for other in modules.values():
                for bound, value in list(vars(other).items()):
                    if value is original:
                        setattr(other, bound, wrapper)

    def from_spectra(t):
        return bool(t.stack) and t.stack[-1][0].startswith("spectra.")

    for solver in SOLVERS:
        setattr(np.linalg, solver, tracer.wrap("spectra.solve", getattr(np.linalg, solver), when=from_spectra))


def span_cost(calls: int = 20000, repeats: int = 5) -> float:
    """Seconds one span adds to a call: a wrapped no-op against a bare one."""

    def noop():
        return None

    wrapped = Tracer().wrap("probe", noop)
    extra = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            wrapped()
        middle = time.perf_counter()
        for _ in range(calls):
            noop()
        extra.append((middle - start) - (time.perf_counter() - middle))
    return max(0.0, sorted(extra)[repeats // 2] / calls)


def layer_metrics(tables: list[dict], cost: float) -> dict[str, float]:
    spans = defaultdict(lambda: defaultdict(float))
    counts = defaultdict(float)
    for table in tables:
        for name, record in table["spans"].items():
            for key, value in record.items():
                spans[name][key] += value
        for name, value in table["counts"].items():
            if name == "spectra.matrix_dim_max":
                counts[name] = max(counts[name], value)
            else:
                counts[name] += value
        counts["comparator.classes_queried"] += table["classes_queried"]
    values = {}
    for name in METRICS:
        if name in counts:
            values[name] = counts[name]
        elif name == "spectra.solve_s":
            values[name] = spans["spectra.solve"]["total_s"]
        elif name == "spectra.solves":
            values[name] = spans["spectra.solve"]["calls"]
        elif name == "trace.overhead_s":
            values[name] = cost * sum(record["calls"] for record in spans.values())
        elif name.endswith(".self_s"):
            values[name] = spans[name[: -len(".self_s")]]["self_s"]
        elif name.endswith(".calls"):
            values[name] = spans[name[: -len(".calls")]]["calls"]
        else:
            values[name] = 0
        if METRICS[name] == "count":
            values[name] = int(values[name])
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--out-dir", required=True, type=Path)
    args = parser.parse_args(argv)

    import fwforge.cli
    from workloads import WORKLOADS

    tracer = Tracer()
    install(tracer)
    exits, tables = [], {}
    for command in WORKLOADS[args.workload]:
        out = args.out_dir / command.report
        try:
            code = fwforge.cli.main([*command.args, "--out", str(out)])
        except Exception as exc:  # a crash fails the operation, the pass goes on
            print(f"{' '.join(command.args)}: {exc!r}", file=sys.stderr)
            code = None
        exits.append(code)
        tables[" ".join(command.args)] = tracer.take()
    (args.out_dir / "trace.json").write_text(json.dumps(tables, indent=1))
    print(json.dumps({"exits": exits, "metrics": layer_metrics(list(tables.values()), span_cost())}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
