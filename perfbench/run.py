"""The aggfix benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload solve-sweep --seed 3 --seconds 25 --trace 0

Drives ``aggfix.cli.main`` in this process, one op at a time in a closed
loop with one client, on the inputs of the seed's slice (see
``workloads.py``).  Every op's exit code and output are checked against
the committed records in ``expected/``.  The last line of stdout is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` runs the slice's ops in order, wrapping around, until
``--seconds`` have gone by.  The engine's caches are cleared before
every chunk of ``CHUNK_OPS`` ops: they start cold, as in a CLI
invocation, and their growth (the programs they keep alive) is bounded
by the chunk, not by how many ops a faster engine gets through.  It
reports the end-to-end metrics:

* ``ops_per_s``: completed ops per second of timed wall time;
* ``op_ms_p50`` and ``op_ms_tail``: the median op latency and the
  workload's fixed tail percentile (``TAIL_PERCENTILE``), chosen so that
  a run here has at least ten ops beyond it;
* ``setup_s``: the median, over ``SETUPS`` fresh interpreters, of the
  time from starting the interpreter until the first op is due (import,
  generation, writing the inputs, loading the expected records);
* ``peak_rss_mb``: this process's peak resident set size (``VmHWM``).

``--trace 1`` runs the first chunk twice untraced and twice traced (see
``layers.py``), checks that all passes print the same and that the two
traced passes count the same calls, and reports the per-layer metrics
with ``trace.overhead_ratio`` (traced wall / untraced wall).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import bench  # exits 2 when the checkout has no engine source
import layers
import workloads

TAIL_PERCENTILE = {
    "solve-sweep": 98,
    "check-large": 98,
    "solutions-enum": 95,
    "compare-corpus": 97,
}

# Ops between cache clears; also the traced prefix.  Even for
# check-large, so that a chunk never splits a check from its lfp check.
CHUNK_OPS = {
    "solve-sweep": 150,
    "check-large": 240,
    "solutions-enum": 60,
    "compare-corpus": 120,
}

SETUPS = 3  # fresh-interpreter set-ups timed for setup_s
SETUP_TIMEOUT_S = 120


def percentile(values, p: float) -> float:
    """Linear interpolation between closest ranks."""
    ordered = sorted(values)
    k = (len(ordered) - 1) * p / 100
    lo = int(k)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (k - lo)


class Run:
    """One slice's inputs written to a private directory, plus the
    expected records; ``close`` removes the directory."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.slice = seed % workloads.SLICES
        self.inputs = workloads.build(workload, seed)
        self.expected = bench.load_expected(workload, self.slice, self.inputs)
        self.dir = bench.WORK / f"{workload}-{seed}-{os.getpid()}"
        workloads.write(self.inputs, self.dir)
        self.failed = 0
        self.attempted = 0
        self.timed_out = False

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            bench.WORK.rmdir()
        except OSError:
            pass

    def pass_over(self, indices, deadline=None):
        """Run ops by index from cold caches; returns (wall seconds,
        latencies, records).  With a deadline, stops after the op during
        which it passes.  Runs nothing once an op has timed out."""
        if self.timed_out:
            return 0.0, [], []
        for cache in bench.engine_caches():
            cache.cache_clear()
        gc.collect()
        ops = self.inputs.ops
        latencies, records = [], []
        prev = None
        start = time.perf_counter()
        for i in indices:
            op = ops[i]
            code, out, seconds = bench.run_op(op, prev)
            prev = out
            latencies.append(seconds)
            rec = bench.record(code, out)
            records.append(rec)
            self.attempted += 1
            self.failed += bench.op_failed(op, code, rec, self.expected[i])
            if code == bench.TIMED_OUT:
                self.timed_out = True
                break
            if deadline is not None and time.perf_counter() >= deadline:
                break
        return time.perf_counter() - start, latencies, records


def peak_rss_kb() -> int:
    """This process's peak resident set size.

    ``VmHWM`` starts afresh at exec; ``ru_maxrss`` would carry over the
    size of whatever process forked this one.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def measure_setups(args) -> list[float]:
    """Set up ``SETUPS`` times, each in a fresh interpreter."""
    times = []
    cmd = [
        sys.executable, os.path.abspath(__file__), "--workload", args.workload,
        "--seed", str(args.seed), "--setup-only",
    ]
    for _ in range(SETUPS):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
            try:
                line = child.stdout.readline()
                ready = time.perf_counter() - start
                child.wait(timeout=SETUP_TIMEOUT_S)
            except BaseException:
                child.kill()
                child.wait()
                raise
        if line.strip() != "ready" or child.returncode != 0:
            raise RuntimeError(f"set-up run failed (exit {child.returncode})")
        times.append(ready)
    return times


def timed(run: Run, seconds: float):
    n, chunk = len(run.inputs.ops), CHUNK_OPS[run.workload]
    latencies, wall, chunks = [], 0.0, 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline and not run.timed_out:
        first = len(latencies)
        indices = [(first + j) % n for j in range(chunk)]
        elapsed, lat, _ = run.pass_over(indices, deadline)
        wall += elapsed
        latencies += lat
        chunks += 1
    return wall, latencies, chunks


def traced(run: Run):
    """Passes over the first chunk: untraced (warming the interpreter
    up), traced, untraced, traced.  The overhead ratio compares the two
    traced passes with the untraced pass between them."""
    prefix = range(min(CHUNK_OPS[run.workload], len(run.inputs.ops)))

    def traced_pass():
        tracer = layers.Tracer()
        tracer.install()
        try:
            wall, _, recs = run.pass_over(prefix)
        finally:
            tracer.uninstall()
        return tracer, wall, recs

    _, _, plain = run.pass_over(prefix)
    t1, w1, recs1 = traced_pass()
    wall_plain, _, recs2 = run.pass_over(prefix)
    t2, w2, recs3 = traced_pass()
    if run.timed_out:
        return {}, ["an op timed out"], len(prefix)
    problems = []
    if not plain == recs1 == recs2 == recs3:
        problems.append("traced output differs from untraced output")
    if t1.calls != t2.calls or t1.counters != t2.counters:
        problems.append("call counts differ between the two traced passes")
    if run.workload == "check-large" and t1.calls["fixpoint.least_fixpoint"] != len(prefix):
        problems.append("least_fixpoint calls differ from the number of checks")
    m1, m2 = t1.metrics(), t2.metrics()
    metrics = {
        k: (m1[k] + m2[k]) / 2 if k.endswith("self_ms") else m1[k] for k in m1
    }
    metrics["trace.overhead_ratio"] = (w1 + w2) / 2 / wall_plain
    return metrics, problems, len(prefix)


def sizes_line(run: Run) -> str:
    inp = run.inputs

    def span(xs):
        return f"{min(xs)}-{statistics.median(xs):g}-{max(xs)}"

    return (
        f"inputs: slice {run.slice}, generator seeds [{inp.gen_seeds[0]}, "
        f"{inp.gen_seeds[1]}), {len(inp.files)} files, {len(inp.ops)} ops per pass, "
        f"base atoms min-median-max {span(inp.base_atoms)}, rules {span(inp.rules)}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="aggfix benchmark run")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        run = Run(args.workload, args.seed)
    except ValueError as exc:  # missing or stale expected records
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    try:
        os.chdir(run.dir)
        if args.setup_only:
            print("ready", flush=True)
            return 0
        if args.trace:
            metrics, problems, n = traced(run)
            wanted = {name: unit for name, unit, _ in layers.per_layer_names()}
            report = {k: {"value": metrics.get(k, 0), "unit": u} for k, u in wanted.items()}
            print(sizes_line(run))
            print(f"first chunk: {n} ops, twice untraced and twice traced")
            for name, entry in report.items():
                print(f"{name} {entry['value']:g} {entry['unit']}")
        else:
            setups = measure_setups(args)
            wall, lat, chunks = timed(run, args.seconds)
            problems = []
            p = TAIL_PERCENTILE[args.workload]
            beyond = sum(x > percentile(lat, p) for x in lat)
            rss_kb = peak_rss_kb()
            report = {
                "ops_per_s": {"value": len(lat) / wall, "unit": "1/s"},
                "op_ms_p50": {"value": percentile(lat, 50) * 1e3, "unit": "ms"},
                "op_ms_tail": {"value": percentile(lat, p) * 1e3, "unit": "ms"},
                "setup_s": {"value": statistics.median(setups), "unit": "s"},
                "peak_rss_mb": {"value": rss_kb / 1024, "unit": "MB"},
            }
            print(sizes_line(run))
            print(f"closed loop, 1 client: {len(lat)} ops in {wall:.3f} s, "
                  f"{chunks} chunks of up to {CHUNK_OPS[args.workload]} ops from cold caches")
            for name, entry in report.items():
                print(f"{name} {entry['value']:.6g} {entry['unit']}")
            print(f"  op_ms_tail is p{p} of {len(lat)} ops ({beyond} beyond it)")
            print(f"  setup_s samples {[round(s, 4) for s in setups]}")
            print(f"fail_frac {run.failed / run.attempted:g} "
                  f"({run.failed} of {run.attempted} ops)")
        for problem in problems:
            print(f"self-check failed: {problem}")
        result = {
            "correct": run.failed == 0 and not problems,
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": report,
        }
        print(json.dumps(result))
        return 0
    finally:
        os.chdir(bench.ROOT)
        run.close()


if __name__ == "__main__":
    sys.exit(main())
