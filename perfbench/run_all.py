"""Run every workload over a range of seeds and summarise the spread.

    python3 perfbench/run_all.py --seeds 0-9 [--trace] [--record perfbench/baseline.json]

Each run is ``run.py`` in a fresh interpreter, one at a time, so the
engine's caches start cold as they do for a CLI user.  For every
workload and end-to-end metric it prints the median, the quartiles and
the spread (interquartile distance over the median).  With ``--trace``
it also makes two traced runs per workload on the first seed, checks
that their counts repeat exactly, and prints the per-layer metrics.
``--record`` writes the runs, the machine, each workload's generator
parameters and input sizes, and the per-layer predictions to a JSON
file: the baseline later changes are measured against.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# For each layer metric: the end-to-end metric it should move, on which
# workload, and where no change is predicted.
PREDICTIONS = [
    {"layer": "syntax", "metrics": "syntax.{parse_program,ground_program,"
     "atom_universe,herbrand_base}.{calls,self_ms}",
     "moves": ["ops_per_s", "op_ms_p50"], "on": ["check-large", "solve-sweep"],
     "no_change_on": ["solutions-enum"]},
    {"layer": "evaluate", "metrics": "evaluate.is_model.{calls,self_ms}",
     "moves": ["ops_per_s", "op_ms_tail"], "on": ["solve-sweep"],
     "no_change_on": ["check-large"]},
    {"layer": "evaluate", "metrics": "evaluate.is_minimal_model.{calls,self_ms}",
     "moves": ["ops_per_s", "op_ms_tail"], "on": ["compare-corpus"],
     "no_change_on": ["check-large"]},
    {"layer": "evaluate", "metrics": "evaluate.eval_aggregate_atom.{calls,self_ms}",
     "moves": ["ops_per_s", "op_ms_tail"], "on": ["solve-sweep", "compare-corpus"],
     "no_change_on": ["check-large"]},
    {"layer": "solutions", "metrics": "solutions.{is_solution,is_solution_oracle,"
     "enumerate_solutions,conditionally_satisfies}.{calls,self_ms}, "
     "solutions.is_solution.<func>_<op>.{calls,self_ms}",
     "moves": ["ops_per_s", "op_ms_tail"], "on": ["solutions-enum"],
     "no_change_on": ["solve-sweep"]},
    {"layer": "fixpoint", "metrics": "fixpoint.search.{model_ratio,answer_ratio}",
     "moves": ["ops_per_s", "op_ms_tail"], "on": ["solve-sweep"],
     "no_change_on": ["check-large", "solutions-enum"]},
    {"layer": "fixpoint", "metrics": "fixpoint.{reduct,least_fixpoint}.{calls,self_ms}, "
     "fixpoint.consequence_steps",
     "moves": ["ops_per_s", "op_ms_tail"], "on": ["check-large"],
     "no_change_on": ["solutions-enum"]},
    {"layer": "altsem", "metrics": "altsem.{translate_tr,unfold,is_flp_answer_set,"
     "is_naive_answer_set,gl_answer_check,compare_programs}.{calls,self_ms}, "
     "altsem.tr_rules",
     "moves": ["ops_per_s", "peak_rss_mb"], "on": ["compare-corpus"],
     "no_change_on": ["solve-sweep", "check-large", "solutions-enum"]},
    {"layer": "cli", "metrics": "cli.main.self_ms, trace.overhead_ratio",
     "moves": ["op_ms_p50"], "on": ["compare-corpus"], "no_change_on": []},
]


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}: {done.stderr}")
    return json.loads(lines[-1])


def spread(values) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def machine() -> dict:
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version()}


def workload_facts(names) -> dict:
    sys.path.insert(0, str(HERE))
    import bench  # noqa: F401  (puts the engine source on sys.path)
    import run
    import workloads

    facts = {}
    for name in names:
        inputs = workloads.WORKLOADS[name](0)
        params = {
            "solve-sweep": workloads.solve_params,
            "check-large": workloads.check_params,
            "compare-corpus": workloads.compare_params,
        }.get(name)
        facts[name] = {
            "why": workloads.WHY[name],
            "generator": (
                {k: v for k, v in dataclasses.asdict(params(0)).items() if k != "seed"}
                if params else {"values": workloads.SOLUTION_VALUES,
                                "value_range": workloads.VALUE_RANGE,
                                "rounds": workloads.SOLUTION_ROUNDS}
            ),
            "slice_0": {
                "generator_seeds": inputs.gen_seeds,
                "files": len(inputs.files),
                "ops_per_pass": len(inputs.ops),
                "base_atoms": [min(inputs.base_atoms), max(inputs.base_atoms)],
                "rules": [min(inputs.rules), max(inputs.rules)],
            },
            "tail_percentile": run.TAIL_PERCENTILE[name],
            "chunk_ops": run.CHUNK_OPS[name],
        }
    return facts


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    parser = argparse.ArgumentParser(description="run every workload over seeds")
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--workloads", default=None, help="comma-separated names")
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--record", default=None)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    lo, _, hi = args.seeds.partition("-")
    seeds = list(range(int(lo), int(hi or lo) + 1))
    record = {"machine": machine(), "run_seconds": seconds, "seeds": seeds,
              "workloads": workload_facts(names), "predictions": PREDICTIONS}
    ok = True
    for name in names:
        runs = [run_one(name, seed, seconds, 0) for seed in seeds]
        entry = record["workloads"][name]
        entry["runs"] = runs
        entry["summary"] = {}
        print(f"== {name}: {len(runs)} runs")
        for metric in spec["end_to_end"]:
            m = metric["name"]
            values = [r["metrics"][m]["value"] for r in runs]
            med, q1, q3, s = spread(values)
            entry["summary"][m] = {"median": med, "q1": q1, "q3": q3, "spread": s}
            flag = "" if m == "setup_s" or s < metric["bound"] / 3 else "  (spread above bound/3)"
            print(f"  {m:12s} median {med:10.4f} {metric['unit']:5s} "
                  f"q1 {q1:10.4f} q3 {q3:10.4f} spread {s:.3f} bound {metric['bound']}{flag}")
        fails = sum(r["failed"] for r in runs)
        tried = sum(r["attempted"] for r in runs)
        print(f"  fail_frac    {fails / tried:g} ({fails} of {tried} ops); "
              f"all correct: {all(r['correct'] for r in runs)}")
        ok &= all(r["correct"] for r in runs)
        if args.trace:
            first, second = (run_one(name, seeds[0], seconds, 1) for _ in range(2))
            counts_repeat = all(
                first["metrics"][k]["value"] == second["metrics"][k]["value"]
                for k in first["metrics"] if not k.endswith(("self_ms", "overhead_ratio"))
            )
            entry["traced"] = [first, second]
            ok &= first["correct"] and second["correct"] and counts_repeat
            print(f"  traced twice on seed {seeds[0]}: counts repeat exactly: {counts_repeat}")
            for k, v in first["metrics"].items():
                if v["value"]:
                    print(f"    {k} {v['value']:g} {v['unit']}")
    if args.record:
        Path(args.record).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
