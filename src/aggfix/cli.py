"""Command-line front end.

Subcommands: solve, check, compare, solutions, ground, gen.  Exit code
0 means at least one answer set (or a true verdict), 1 none (or a false
verdict), 2 any input or usage error, 3 a budget limit hit.  ``--format
json`` mirrors the text output; ``--quiet`` suppresses stdout so that
scripts can rely on the exit code alone.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from . import altsem, fixpoint, harness, solutions
from .errors import AggfixError, LimitExceeded, ParseError
from .syntax import (
    Program,
    atom_key,
    ground_program,
    parse_atom_list,
    parse_program,
    render_interpretation,
    render_program,
    render_rule,
)

JSON_FORMAT_VERSION = 1

ENV_BUDGET_ORACLE = "AGGFIX_BUDGET_ORACLE"


@dataclass
class RunConfig:
    format: str = "text"
    quiet: bool = False
    trace: str = "none"  # none | stages | full
    budget_oracle: int = solutions.DEFAULT_ORACLE_FREE_LIMIT
    budget_enum: int = solutions.DEFAULT_ENUM_LIMIT
    budget_candidates: int = fixpoint.DEFAULT_CANDIDATE_LIMIT
    budget_subsets: int = 1 << 20
    budget_sum: int = solutions.DEFAULT_SUBSET_SUM_LIMIT

    def emit(self, text: str = ""):
        if not self.quiet:
            print(text)

    def emit_json(self, payload: dict):
        payload = {"version": JSON_FORMAT_VERSION, **payload}
        if not self.quiet:
            print(json.dumps(payload, sort_keys=True))


def _interp_to_json(atoms) -> list[str]:
    return [str(a) for a in sorted(atoms, key=atom_key)]


def _load_ground(path: str) -> Program:
    text = Path(path).read_text(encoding="utf-8")
    return ground_program(parse_program(text))


def _stage_lines(trace: fixpoint.FixpointTrace) -> list[str]:
    return [
        f"K^{i} = {render_interpretation(stage)}"
        for i, stage in enumerate(trace.distinct_stages)
    ]


def cmd_solve(args, cfg: RunConfig) -> int:
    program = _load_ground(args.file)
    answers = fixpoint.enumerate_answer_sets(program, limit=cfg.budget_candidates)
    traces = None
    if cfg.trace != "none":
        traces = [fixpoint.least_fixpoint(program, m) for m in answers]
    if cfg.format == "json":
        payload = {"command": "solve", "answer_sets": [_interp_to_json(m) for m in answers]}
        if traces is not None:
            payload["traces"] = [
                [_interp_to_json(stage) for stage in t.distinct_stages] for t in traces
            ]
        cfg.emit_json(payload)
    else:
        for index, m in enumerate(answers):
            cfg.emit(render_interpretation(m))
            if traces is not None:
                for line in _stage_lines(traces[index]):
                    cfg.emit(f"  {line}")
    return 0 if answers else 1


def cmd_check(args, cfg: RunConfig) -> int:
    program = _load_ground(args.file)
    candidate = parse_atom_list(args.candidate)
    verdict, trace = fixpoint.is_fixpoint_answer_set(program, candidate)
    if cfg.format == "json":
        cfg.emit_json(
            {
                "command": "check",
                "candidate": _interp_to_json(candidate),
                "verdict": verdict,
                "lfp": _interp_to_json(trace.fixpoint),
                "trace": [_interp_to_json(s) for s in trace.distinct_stages],
            }
        )
    else:
        if cfg.trace == "full":
            cfg.emit("reduct:")
            for rule in fixpoint.reduct(program, candidate).rules:
                cfg.emit(f"  {render_rule(rule)}")
        for line in _stage_lines(trace):
            cfg.emit(line)
        cfg.emit(f"lfp = {render_interpretation(trace.fixpoint)}")
        cfg.emit(f"answer set: {'yes' if verdict else 'no'}")
    return 0 if verdict else 1


def _read_candidates(path: str):
    out = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line or line.startswith("%"):
            continue
        if line == "{}":
            line = ""
        out.append(parse_atom_list(line.strip("{}")))
    return out


def cmd_compare(args, cfg: RunConfig) -> int:
    program = _load_ground(args.file)
    candidates = None
    if args.candidates_from_file:
        candidates = _read_candidates(args.candidates_from_file)
    elif args.candidate is not None:
        candidates = [parse_atom_list(args.candidate)]
    reports = altsem.compare_programs(
        program,
        candidates=candidates,
        candidate_limit=cfg.budget_candidates,
        enum_limit=cfg.budget_enum,
        subset_limit=cfg.budget_subsets,
    )
    shown = [r for r in reports if args.all or r.any_accepted]
    if cfg.format == "json":
        cfg.emit_json(
            {
                "command": "compare",
                "reports": [
                    {
                        "candidate": _interp_to_json(r.candidate),
                        "verdicts": r.verdicts,
                    }
                    for r in shown
                ],
            }
        )
    else:
        for r in shown:
            flags = " ".join(
                f"{name}={'yes' if value else 'no'}"
                for name, value in r.verdicts.items()
            )
            cfg.emit(f"{render_interpretation(r.candidate)} {flags}")
    return 0


def cmd_solutions(args, cfg: RunConfig) -> int:
    program = _load_ground(args.file)
    aggregates = []
    for rule in program.rules:
        for agg in rule.agg:
            if agg not in aggregates:
                aggregates.append(agg)
    if not aggregates:
        raise ParseError("the program contains no aggregate atoms")
    if not 0 <= args.index < len(aggregates):
        raise ParseError(
            f"aggregate index {args.index} out of range "
            f"(program has {len(aggregates)})"
        )
    aggregate = aggregates[args.index]
    pairs = solutions.enumerate_solutions(
        aggregate,
        program,
        limit=cfg.budget_enum,
        oracle_free_limit=cfg.budget_oracle,
        subset_sum_limit=cfg.budget_sum,
    )
    if cfg.format == "json":
        cfg.emit_json(
            {
                "command": "solutions",
                "aggregate": str(aggregate),
                "count": len(pairs),
                "solutions": [
                    {"p": _interp_to_json(s.p), "n": _interp_to_json(s.n)}
                    for s in pairs
                ],
            }
        )
    else:
        cfg.emit(f"{len(pairs)} solution{'s' if len(pairs) != 1 else ''}")
        for s in pairs:
            cfg.emit(str(s))
    return 0


def cmd_ground(args, cfg: RunConfig) -> int:
    program = _load_ground(args.file)
    if cfg.format == "json":
        cfg.emit_json(
            {"command": "ground", "rules": [render_rule(r) for r in program.rules]}
        )
    else:
        text = render_program(program)
        if text:
            cfg.emit(text.rstrip("\n"))
    return 0


def cmd_gen(args, cfg: RunConfig) -> int:
    outdir = Path(args.out) if args.out else None
    if outdir is not None:
        outdir.mkdir(parents=True, exist_ok=True)
    for seed in range(args.seed, args.seed + args.count):
        params = harness.GenParams(
            seed=seed,
            num_predicates=args.predicates,
            max_arity=args.max_arity,
            num_constants=args.constants,
            num_rules=args.rules,
            aggregate_permille=args.aggregate_permille,
        )
        text = render_program(harness.generate_program(params))
        if outdir is not None:
            (outdir / f"seed-{seed}.lp").write_text(text, encoding="utf-8")
        elif cfg.format == "json":
            cfg.emit_json({"command": "gen", "seed": seed, "program": text})
        else:
            if args.count > 1:
                cfg.emit(f"% seed-{seed}")
            cfg.emit(text.rstrip("\n"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aggfix",
        description="Answer sets for logic programs with aggregates.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text")
    common.add_argument("--quiet", action="store_true")
    common.add_argument("--budget-oracle", type=int, default=None)
    common.add_argument("--budget-enum", type=int, default=None)
    common.add_argument(
        "--budget-candidates", type=int, default=None,
        help="most candidates a sweep may visit: solve sweeps the 2**|head atoms| "
        "subsets of the rule-head atoms; compare, given no candidates, lists "
        "all 2**|herbrand base| subsets",
    )
    common.add_argument("--budget-subsets", type=int, default=None)
    common.add_argument("--budget-sum", type=int, default=None)

    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", parents=[common], help="enumerate answer sets")
    p_solve.add_argument("file")
    p_solve.add_argument(
        "--trace", nargs="?", const="stages", default="none",
        choices=("none", "stages", "full"),
    )
    p_solve.set_defaults(run=cmd_solve)

    p_check = sub.add_parser("check", parents=[common], help="verify one candidate")
    p_check.add_argument("file")
    p_check.add_argument("-m", "--candidate", required=True,
                         help="comma-separated ground atoms; empty string for {}")
    p_check.add_argument(
        "--trace", nargs="?", const="stages", default="stages",
        choices=("none", "stages", "full"),
    )
    p_check.set_defaults(run=cmd_check)

    p_cmp = sub.add_parser("compare", parents=[common],
                           help="verdicts under all implemented semantics")
    p_cmp.add_argument("file")
    p_cmp.add_argument("-m", "--candidate", default=None)
    p_cmp.add_argument("--candidates-from-file", default=None)
    p_cmp.add_argument("--all", action="store_true",
                       help="also list candidates no semantics accepts")
    p_cmp.set_defaults(run=cmd_compare)

    p_sol = sub.add_parser("solutions", parents=[common],
                           help="enumerate solutions of one aggregate atom")
    p_sol.add_argument("file")
    p_sol.add_argument("--index", type=int, default=0,
                       help="which aggregate atom, in rule order (default 0)")
    p_sol.set_defaults(run=cmd_solutions)

    p_ground = sub.add_parser("ground", parents=[common], help="print the grounding")
    p_ground.add_argument("file")
    p_ground.set_defaults(run=cmd_ground)

    p_gen = sub.add_parser("gen", parents=[common], help="generate seeded programs")
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--count", type=int, default=1)
    p_gen.add_argument("--out", default=None, help="directory for seed-<n>.lp files")
    p_gen.add_argument("--rules", type=int, default=6)
    p_gen.add_argument("--predicates", type=int, default=3)
    p_gen.add_argument("--constants", type=int, default=3)
    p_gen.add_argument("--max-arity", type=int, default=1)
    p_gen.add_argument("--aggregate-permille", type=int, default=400)
    p_gen.set_defaults(run=cmd_gen)

    return parser


def _config_from(args) -> RunConfig:
    cfg = RunConfig()
    cfg.format = args.format
    cfg.quiet = args.quiet
    cfg.trace = getattr(args, "trace", "none")
    env_oracle = os.environ.get(ENV_BUDGET_ORACLE)
    if env_oracle is not None:
        cfg.budget_oracle = int(env_oracle)
    if args.budget_oracle is not None:
        cfg.budget_oracle = args.budget_oracle
    if args.budget_enum is not None:
        cfg.budget_enum = args.budget_enum
    if args.budget_candidates is not None:
        cfg.budget_candidates = args.budget_candidates
    if args.budget_subsets is not None:
        cfg.budget_subsets = args.budget_subsets
    if args.budget_sum is not None:
        cfg.budget_sum = args.budget_sum
    return cfg


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return args.run(args, cfg)
    except LimitExceeded as exc:
        print(f"limit exceeded: {exc}", file=sys.stderr)
        return 3
    except (AggfixError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
