"""Create the committed expected outputs, cross-checking each one.

    python3 perfbench/make_expected.py --workload solve-sweep [--slices 0-9]

Runs every op of the chosen slices once through ``aggfix.cli.main`` and
checks its output with a route independent of the one that produced it:

* solve-sweep: the answer sets equal the stable models of the ``tr``
  translation (swept over subsets of rule heads, which hold every
  answer set), and each one is accepted by the unfolding semantics;
* check-large: the verdict says whether the lfp equals the candidate,
  the stages climb to the lfp, and an accepted candidate is a model of
  the program under two-valued evaluation;
* solutions-enum: every pair of the universe is a listed solution
  exactly when ``solutions.is_solution_oracle`` accepts it;
* compare-corpus: the rows cover every candidate once, the fixpoint
  column marks exactly the answer sets ``solve`` finds, and the verdicts
  keep fixpoint = unfolding = tr and fixpoint => FLP.

Records are merged into ``expected/<workload>.json``; a failed check
aborts without writing.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import sys

import bench
import workloads
from aggfix import altsem, evaluate, fixpoint, solutions
from aggfix.syntax import ground_program, parse_atom_list, parse_program


class CrossCheckError(Exception):
    pass


def _require(ok: bool, what: str):
    if not ok:
        raise CrossCheckError(what)


def _program(path):
    return ground_program(parse_program(open(path, encoding="utf-8").read()))


def _atoms(names):
    return parse_atom_list(",".join(names))


def check_solve(path, code, payload):
    p = _program(path)
    found = {_atoms(m) for m in payload["answer_sets"]}
    tr = altsem.translate_tr(p)
    heads = sorted({r.head for r in p.rules}, key=str)
    stable = {
        frozenset(c)
        for size in range(len(heads) + 1)
        for c in itertools.combinations(heads, size)
        if altsem.gl_answer_check(tr, frozenset(c))
    }
    _require(found == stable, "answer sets differ from the tr stable models")
    _require(all(altsem.is_unfolding_answer_set(p, m) for m in found),
             "an answer set is rejected by unfolding")
    _require(code == (0 if found else 1), "exit code does not match answer sets")


def check_check(path, code, payload):
    p = _program(path)
    candidate = _atoms(payload["candidate"])
    lfp = _atoms(payload["lfp"])
    verdict = payload["verdict"]
    _require(verdict == (lfp == candidate), "verdict disagrees with lfp == candidate")
    stages = [_atoms(s) for s in payload["trace"]]
    _require(stages[0] == frozenset() and stages[-1] == lfp, "trace ends elsewhere")
    _require(all(a < b for a, b in zip(stages, stages[1:])), "trace does not climb")
    if verdict:
        _require(evaluate.is_model(candidate, p), "accepted candidate is no model")
    _require(code == (0 if verdict else 1), "exit code does not match verdict")


def check_solutions(path, code, payload):
    p = _program(path)
    aggregate = p.rules[0].agg[0]
    listed = {(_atoms(s["p"]), _atoms(s["n"])) for s in payload["solutions"]}
    universe = solutions.atom_universe(aggregate, p)
    oracle = set()
    for assignment in itertools.product((0, 1, 2), repeat=len(universe)):
        pair = solutions.SolutionPair(
            frozenset(a for a, w in zip(universe, assignment) if w == 1),
            frozenset(a for a, w in zip(universe, assignment) if w == 2),
        )
        if solutions.is_solution_oracle(aggregate, pair, p):
            oracle.add((pair.p, pair.n))
    _require(listed == oracle, "solutions differ from the oracle's")
    _require(payload["count"] == len(listed) and code == 0, "count or exit code")


def check_compare(path, code, payload):
    p = _program(path)
    rows = {_atoms(r["candidate"]): r["verdicts"] for r in payload["reports"]}
    base = workloads.base_atoms(p)
    _require(len(rows) == len(payload["reports"]) == 2 ** len(base),
             "rows do not cover every candidate once")
    accepted = {m for m, v in rows.items() if v["fixpoint"]}
    _require(accepted == set(fixpoint.enumerate_answer_sets(p)),
             "fixpoint column differs from solve")
    for v in rows.values():
        _require(v["fixpoint"] == v["unfolding"] == v["tr"], "fixpoint/unfolding/tr")
        _require(v["flp"] or not v["fixpoint"], "fixpoint answer set not FLP")
    _require(code == 0, "exit code")


CHECKS = {
    "solve": check_solve,
    "check": check_check,
    "solutions": check_solutions,
    "compare": check_compare,
}


def make_slice(workload: str, slice_no: int) -> dict:
    inputs = workloads.WORKLOADS[workload](slice_no)
    work = bench.WORK / f"expected-{workload}-{slice_no}-{os.getpid()}"
    workloads.write(inputs, work)
    cwd = os.getcwd()
    os.chdir(work)
    try:
        for cache in bench.engine_caches():
            cache.cache_clear()
        records, prev = [], None
        for op in inputs.ops:
            code, out, _ = bench.run_op(op, prev)
            prev = out
            _require(code in bench.EXPECTED_CODES[op.argv[0]],
                     f"{op.key}: exit code {code}: {out[:200]}")
            try:
                CHECKS[op.argv[0]](op.argv[3], code, json.loads(out))
            except CrossCheckError as exc:
                raise CrossCheckError(f"{workload} slice {slice_no} {op.key}: {exc}")
            records.append(bench.record(code, out))
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)
    return {"inputs": bench.inputs_digest(inputs), "records": "".join(records)}


def _slices(text: str) -> range:
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--slices", default=f"0-{workloads.SLICES - 1}")
    args = parser.parse_args(argv)
    made = {}
    for slice_no in _slices(args.slices):
        made[str(slice_no)] = make_slice(args.workload, slice_no)
        print(f"{args.workload} slice {slice_no}: "
              f"{len(made[str(slice_no)]['records']) // bench.RECORD_CHARS} ops checked",
              flush=True)
    try:
        bench.WORK.rmdir()
    except OSError:
        pass
    path = bench.expected_path(args.workload)
    data = {"slices": {}}
    if path.exists():
        data = json.loads(path.read_text(encoding="utf-8"))
    data["slices"].update(made)
    data["slices"] = dict(sorted(data["slices"].items(), key=lambda kv: int(kv[0])))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
