"""Per-layer spans from outside the engine.

``Tracer.install`` replaces each traced engine function by a wrapper in
every module namespace that holds it, including the ones that imported
it by name (``fixpoint.is_model``, ``solutions.atom_universe``,
``altsem.enumerate_solutions``, ``cli.parse_program`` and so on), so a
call is seen whichever module makes it.  Each wrapper records one span;
a function's self time is its spans' time minus the time of the spans
they enclose.  ``uninstall`` restores the originals.
"""

from __future__ import annotations

from time import perf_counter_ns

from bench import MODULES
from aggfix import altsem, cli, evaluate, fixpoint, solutions, syntax
from workloads import OP_NAMES

TRACED = {
    syntax: ("parse_program", "ground_program", "atom_universe", "herbrand_base"),
    evaluate: ("is_model", "eval_aggregate_atom", "is_minimal_model"),
    solutions: (
        "is_solution", "is_solution_oracle", "enumerate_solutions",
        "conditionally_satisfies",
    ),
    fixpoint: (
        "reduct", "least_fixpoint", "is_fixpoint_answer_set", "enumerate_answer_sets",
        "_consequences",
    ),
    altsem: (
        "translate_tr", "unfold", "is_flp_answer_set", "is_naive_answer_set",
        "gl_answer_check", "compare_programs",
    ),
    cli: ("main",),
}

# Names other modules import by value; install() checks each is rebound.
IMPORTED_BY_NAME = {
    fixpoint: ("is_model", "conditionally_satisfies", "herbrand_base"),
    solutions: ("atom_universe",),
    altsem: (
        "is_fixpoint_answer_set", "enumerate_solutions", "herbrand_base",
        "is_minimal_model",
    ),
}


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.counters = {"swept": 0, "models": 0, "answers": 0, "tr_rules": 0}
        self._stack: list[list] = []  # [name, child_ns]
        self._saved: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _wrap(self, name: str, fn):
        stack, calls, self_ns = self._stack, self.calls, self.self_ns
        calls.setdefault(name, 0)
        self_ns.setdefault(name, 0)
        per_case = name == "solutions.is_solution"
        counters = self.counters

        def span(*args, **kwargs):
            key = name
            if per_case:
                agg = args[0]
                key = f"{name}.{agg.func}_{OP_NAMES[agg.op]}"
            parent = stack[-1][0] if stack else None
            frame = [name, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                calls[name] += 1
                self_ns[name] += elapsed - frame[1]
                if per_case:
                    calls[key] = calls.get(key, 0) + 1
                    self_ns[key] = self_ns.get(key, 0) + elapsed - frame[1]
            if name == "evaluate.is_model" and parent == "fixpoint.enumerate_answer_sets":
                counters["swept"] += 1
                counters["models"] += bool(result)
            elif name == "fixpoint.enumerate_answer_sets":
                counters["answers"] += len(result)
            elif name == "altsem.translate_tr":
                counters["tr_rules"] += len(result.rules)
            return result

        return span

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        wrappers = {}
        for module, names in TRACED.items():
            for attr in names:
                fn = getattr(module, attr)
                label = f"{module.__name__.rsplit('.', 1)[1]}.{attr}"
                wrappers[id(fn)] = (fn, self._wrap(label, fn))
        for module in MODULES:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, hit[1])
        spans = {id(span) for _, span in wrappers.values()}
        for module, names in IMPORTED_BY_NAME.items():
            for attr in names:
                if id(getattr(module, attr)) not in spans:
                    self.uninstall()
                    raise RuntimeError(f"{module.__name__}.{attr} was not rebound")

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Counts and self times (ms) under the per-layer metric names."""
        out: dict[str, float] = {}
        for name in self.calls:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_ms"] = self.self_ns[name] / 1e6
        c = self.counters
        out["fixpoint.consequence_steps"] = self.calls["fixpoint._consequences"]
        out["fixpoint.search.model_ratio"] = c["models"] / c["swept"] if c["swept"] else 0.0
        out["fixpoint.search.answer_ratio"] = c["answers"] / c["swept"] if c["swept"] else 0.0
        out["altsem.tr_rules"] = c["tr_rules"]
        return out


def per_layer_names() -> list[tuple[str, str, str]]:
    """(metric, unit, better) for every per-layer metric, in report order."""
    rows = []

    def fn_rows(module, attrs):
        prefix = module.__name__.rsplit(".", 1)[1]
        for attr in attrs:
            rows.append((f"{prefix}.{attr}.calls", "count", "lower"))
            rows.append((f"{prefix}.{attr}.self_ms", "ms", "lower"))

    fn_rows(syntax, TRACED[syntax])
    fn_rows(evaluate, TRACED[evaluate])
    fn_rows(solutions, TRACED[solutions])
    for func in ("sum", "count", "min", "max", "avg"):
        for op in OP_NAMES.values():
            rows.append((f"solutions.is_solution.{func}_{op}.calls", "count", "lower"))
            rows.append((f"solutions.is_solution.{func}_{op}.self_ms", "ms", "lower"))
    fn_rows(fixpoint, ("reduct", "least_fixpoint", "enumerate_answer_sets"))
    rows.append(("fixpoint.consequence_steps", "count", "lower"))
    rows.append(("fixpoint.search.model_ratio", "ratio", "higher"))
    rows.append(("fixpoint.search.answer_ratio", "ratio", "higher"))
    fn_rows(altsem, TRACED[altsem])
    rows.append(("altsem.tr_rules", "count", "lower"))
    rows.append(("cli.main.self_ms", "ms", "lower"))
    rows.append(("trace.overhead_ratio", "ratio", "lower"))
    return rows
