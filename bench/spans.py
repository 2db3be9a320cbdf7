"""In-memory span tracing of the package's public functions, from outside.

`Tracer.install()` replaces each traced function by a wrapper at every
module attribute that holds it, so calls resolve to the wrapper whether the
caller imported the function by name (`from .metric_plane import
solve_bottleneck`) or reaches it through its module (`gf2.rref`).  A wrapper
records one span (name, start, end, parent span, op id) in flat arrays and,
for a few functions, adds counts read from the arguments and the result.
Spans are only recorded while `enabled` is true, so the benchmark's own
answer checks, which call the same functions, stay out of the trace.

`summarise()` derives per-layer numbers from the spans: call counts, self
time (span duration minus the time its child spans cover) and the derived
counts and ratios the benchmark reports per layer.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
from array import array
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

PACKAGE = "circlepers"

# Functions wrapped, by module: those the CLI reaches whose layer metrics the
# benchmark reports.  Private helpers stay inside their caller's span.
TRACED = {
    "cli": ["main"],
    "io": [
        "read_line_module", "read_circle_module", "read_plane_diagram", "read_quotient_diagram",
        "read_quotient_matching", "read_invariant_matching", "write_plane_diagram",
        "write_quotient_diagram", "write_partial_matching", "write_invariant_matching",
    ],
    "rationals": ["parse_number", "format_number", "format_ratio"],
    "intervals": ["diagram_of", "diagram_of_line", "translate_basis"],
    "metric_quotient": ["bottleneck_quotient", "quotient_linf", "matching_cost_quotient"],
    "metric_plane": ["bottleneck_plane", "linf", "solve_bottleneck"],
    "matching_transfer": ["lift_matching", "project_matching", "invariant_cost"],
    "grid": ["to_grid", "step_composite"],
    "interleaving": [
        "bruteforce_distance", "feasible_interleaving", "interleaving_distance_circle",
    ],
    "gf2": ["rref", "nullspace", "lex_min_solution", "matmul"],
}


def _text_bytes(counts, args, result):
    counts["io.read.bytes"] += len(args[0].encode("utf-8"))


def _read_records(field):
    def probe(counts, args, result):
        _text_bytes(counts, args, result)
        counts["io.read.records"] += len(getattr(result, field))

    return probe


def _read_matching(counts, args, result):
    _text_bytes(counts, args, result)
    counts["io.read.records"] += len(result.pairs) + len(result.unmatched_a) + len(result.unmatched_b)


def _read_orbits(counts, args, result):
    _text_bytes(counts, args, result)
    counts["io.read.records"] += len(result.orbit_pairs)


def _written_bytes(counts, args, result):
    counts["io.write.bytes"] += len(result.encode("utf-8"))


def _bottleneck_size(counts, args, result):
    pair_costs, diag_a, diag_b = args
    counts["metric_plane.solve_bottleneck.points"] += len(diag_a) + len(diag_b)
    candidates = {0, *diag_a, *diag_b}
    for row in pair_costs:
        candidates.update(row)
    counts["metric_plane.solve_bottleneck.candidates"] += len(candidates)


def _feasible(counts, args, result):
    counts["interleaving.feasible"] += bool(result.feasible)


def _fiber_dims(counts, args, result):
    counts["grid.fiber_dim_max"] = max(counts["grid.fiber_dim_max"], max(result.dims))


def _lifted_classes(counts, args, result):
    counts["matching_transfer.classes"] += len(args[0].points) + len(args[1].points)


def _projected_classes(counts, args, result):
    counts["matching_transfer.classes"] += len(args[0].classes_a) + len(args[0].classes_b)


PROBES = {
    "io.read_line_module": _read_records("intervals"),
    "io.read_circle_module": _read_records("intervals"),
    "io.read_plane_diagram": _read_records("points"),
    "io.read_quotient_diagram": _read_records("points"),
    "io.read_quotient_matching": _read_matching,
    "io.read_invariant_matching": _read_orbits,
    "io.write_plane_diagram": _written_bytes,
    "io.write_quotient_diagram": _written_bytes,
    "io.write_partial_matching": _written_bytes,
    "io.write_invariant_matching": _written_bytes,
    "metric_plane.solve_bottleneck": _bottleneck_size,
    "interleaving.feasible_interleaving": _feasible,
    "grid.to_grid": _fiber_dims,
    "matching_transfer.lift_matching": _lifted_classes,
    "matching_transfer.project_matching": _projected_classes,
}


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(".bytes"):
        return "bytes"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.raised: Counter = Counter()  # (span name, exception type) -> count
        self.counts: Counter = Counter()
        self.enabled = False
        self.op = -1
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers: dict[str, object] = {}  # one per function, so reinstalling adds no names

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == PACKAGE]
        for module_name, functions in TRACED.items():
            module = importlib.import_module(f"{PACKAGE}.{module_name}")
            for fname in functions:
                original = getattr(module, fname)
                name = f"{module_name}.{fname}"
                if name not in self._wrappers:
                    self._wrappers[name] = self._wrap(name, original)
                wrapper = self._wrappers[name]
                for holder in modules:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            self._patches.append((holder, attr, original))
                            setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        probe = PROBES.get(name)
        stack = self._stack
        names, parents, ops = self.span_name, self.span_parent, self.span_op
        starts, ends = self.span_start, self.span_end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            ops.append(self.op)
            ends.append(0.0)
            stack.append(idx)
            start = perf_counter()
            starts.append(start)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.raised[(name, type(exc).__name__)] += 1
                raise
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if probe is not None:
                probe(self.counts, args, result)
            return result

        return wrapper

    # -- derived numbers -------------------------------------------------

    def per_name(self) -> tuple[Counter, defaultdict]:
        """Calls and self seconds per span name."""
        n = len(self.span_start)
        child = [0.0] * n
        parents, starts, ends = self.span_parent, self.span_start, self.span_end
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        names = self.names
        for i in range(n):
            name = names[self.span_name[i]]
            calls[name] += 1
            self_s[name] += ends[i] - starts[i] - child[i]
        return calls, self_s

    def masks_scanned(self) -> int:
        rref = self.names.index("gf2.rref")
        feasible = self.names.index("interleaving.feasible_interleaving")
        names, parents = self.span_name, self.span_parent
        return sum(
            1
            for i in range(len(names))
            if names[i] == rref and parents[i] >= 0 and names[parents[i]] == feasible
        )

    def summarise(self, passes: int) -> dict[str, float]:
        """Per-layer metrics per pass over the round, from *passes* identical passes."""
        calls, self_s = self.per_name()
        counts = self.counts

        def layer_self(prefix: str) -> float:
            return sum(v for k, v in self_s.items() if k.startswith(prefix))

        feasible_calls = calls["interleaving.feasible_interleaving"]
        masks = self.masks_scanned()
        m = {
            "cli.main.calls": calls["cli.main"],
            "cli.main.self_s": self_s["cli.main"],
            "io.read.self_s": layer_self("io.read_"),
            "io.read.records": counts["io.read.records"],
            "io.read.bytes": counts["io.read.bytes"],
            "io.write.self_s": layer_self("io.write_"),
            "io.write.bytes": counts["io.write.bytes"],
            "rationals.parse_number.calls": calls["rationals.parse_number"],
            "rationals.format_number.calls": calls["rationals.format_number"],
            "rationals.self_s": layer_self("rationals."),
            "intervals.diagram_of.self_s": self_s["intervals.diagram_of"] + self_s["intervals.diagram_of_line"],
            "intervals.translate_basis.calls": calls["intervals.translate_basis"],
            "intervals.translate_basis.self_s": self_s["intervals.translate_basis"],
            "metric_quotient.bottleneck_quotient.self_s": self_s["metric_quotient.bottleneck_quotient"],
            "metric_quotient.quotient_linf.calls": calls["metric_quotient.quotient_linf"],
            "metric_quotient.quotient_linf.self_s": self_s["metric_quotient.quotient_linf"],
            "metric_quotient.matching_cost_quotient.self_s": self_s["metric_quotient.matching_cost_quotient"],
            "metric_plane.bottleneck_plane.self_s": self_s["metric_plane.bottleneck_plane"],
            "metric_plane.linf.calls": calls["metric_plane.linf"],
            "metric_plane.solve_bottleneck.calls": calls["metric_plane.solve_bottleneck"],
            "metric_plane.solve_bottleneck.self_s": self_s["metric_plane.solve_bottleneck"],
            "metric_plane.solve_bottleneck.points": counts["metric_plane.solve_bottleneck.points"],
            "metric_plane.solve_bottleneck.candidates": counts["metric_plane.solve_bottleneck.candidates"],
            "matching_transfer.lift_matching.self_s": self_s["matching_transfer.lift_matching"],
            "matching_transfer.project_matching.self_s": self_s["matching_transfer.project_matching"],
            "matching_transfer.invariant_cost.self_s": self_s["matching_transfer.invariant_cost"],
            "matching_transfer.classes": counts["matching_transfer.classes"],
            "grid.to_grid.calls": calls["grid.to_grid"],
            "grid.to_grid.self_s": self_s["grid.to_grid"],
            "grid.step_composite.self_s": self_s["grid.step_composite"],
            "interleaving.bruteforce_distance.self_s": self_s["interleaving.bruteforce_distance"],
            "interleaving.feasible_interleaving.calls": feasible_calls,
            "interleaving.feasible_interleaving.self_s": self_s["interleaving.feasible_interleaving"],
            "interleaving.masks_scanned": masks,
            "interleaving.budget_exhausted": self.raised[("interleaving.feasible_interleaving", "BudgetExceeded")],
            "interleaving.interleaving_distance_circle.self_s": self_s["interleaving.interleaving_distance_circle"],
            "gf2.rref.calls": calls["gf2.rref"],
            "gf2.rref.self_s": self_s["gf2.rref"],
            "gf2.nullspace.self_s": self_s["gf2.nullspace"],
            "gf2.lex_min_solution.self_s": self_s["gf2.lex_min_solution"],
            "gf2.matmul.calls": calls["gf2.matmul"],
        }
        # a per-pass figure keeps counts independent of how many passes fitted in the run
        out = {k: v / passes for k, v in m.items()}
        out["grid.fiber_dim_max"] = counts["grid.fiber_dim_max"]
        out["interleaving.feasible_ratio"] = counts["interleaving.feasible"] / feasible_calls if feasible_calls else 0.0
        out["interleaving.mask_hit_ratio"] = counts["interleaving.feasible"] / masks if masks else 0.0
        return out

    def write(self, path: Path) -> None:
        """All spans as gzipped tab-separated rows: op, span, parent, name, start, end."""
        names = self.names
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=3) as fh:
            fh.write("op\tspan\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self.span_start)):
                fh.write(
                    f"{self.span_op[i]}\t{i}\t{self.span_parent[i]}\t{names[self.span_name[i]]}"
                    f"\t{self.span_start[i]:.9f}\t{self.span_end[i]:.9f}\n"
                )
