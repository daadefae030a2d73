"""Shared plumbing: find the engine's source, run ops, check outputs.

Importing this module puts the checkout's ``src`` first on ``sys.path``
and exits with status 2 when the checkout has no engine source, so the
benchmark never measures some other installed copy.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected"
WORK = ROOT / ".perfbench_work"

if not (SRC / "aggfix" / "__init__.py").is_file():
    print(f"perfbench: no engine source at {SRC / 'aggfix'}", file=sys.stderr)
    raise SystemExit(2)
sys.path.insert(0, str(SRC))

import aggfix  # noqa: E402
from aggfix import altsem, cli, evaluate, fixpoint, harness, solutions, syntax  # noqa: E402

if Path(aggfix.__file__).resolve().parent != SRC / "aggfix":
    print(f"perfbench: imported aggfix from {aggfix.__file__}", file=sys.stderr)
    raise SystemExit(2)

MODULES = (syntax, evaluate, solutions, fixpoint, altsem, harness, cli)
EXPECTED_CODES = {"solve": (0, 1), "check": (0, 1), "compare": (0,), "solutions": (0,)}
DIGEST_CHARS = 6
OP_TIMEOUT_S = 60
TIMED_OUT = -2  # exit code recorded for an op stopped after OP_TIMEOUT_S


class OpTimeout(Exception):
    """Raised inside an op that runs past OP_TIMEOUT_S."""


def _alarm(signum, frame):
    raise OpTimeout(f"op ran longer than {OP_TIMEOUT_S} s")


def engine_caches() -> list:
    """Every ``functools`` cache in the engine's module namespaces."""
    found = {}
    for module in MODULES:
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                found[id(value)] = value
    return list(found.values())


def run_op(op, prev_stdout: str | None):
    """Run one op in-process; returns (exit code, stdout, seconds).

    An op that raises counts as exit code -1 with the exception as its
    output, so the run goes on and the failure is counted.  An op still
    running after OP_TIMEOUT_S is stopped and gets exit code TIMED_OUT,
    so that a non-terminating engine cannot hang the benchmark.
    """
    argv = list(op.argv)
    if op.from_lfp:
        try:
            argv.append(",".join(json.loads(prev_stdout)["lfp"]))
        except (ValueError, KeyError, TypeError):
            return -1, "preceding op printed no lfp", 0.0
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except OpTimeout as exc:
        return TIMED_OUT, str(exc), time.perf_counter() - start
    except Exception as exc:  # a traceback is a failed op, not a dead run
        return -1, f"{type(exc).__name__}: {exc}", time.perf_counter() - start
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue(), time.perf_counter() - start


def record(code: int, stdout: str) -> str:
    """Fixed-width record of an op's result: exit code, then a digest."""
    digest = hashlib.sha256(stdout.encode()).hexdigest()[:DIGEST_CHARS]
    return f"{code if 0 <= code <= 9 else 9}{digest}"


RECORD_CHARS = 1 + DIGEST_CHARS


def op_failed(op, code: int, rec: str, expected: str) -> bool:
    """An op fails when it raised, exited 2 (bad input) or 3 (a budget
    hit), exited with a code its subcommand never uses, or printed other
    output than expected."""
    return code not in EXPECTED_CODES[op.argv[0]] or rec != expected


def inputs_digest(inputs) -> str:
    """Digest of a slice's files and ops, to tell stale expectations."""
    h = hashlib.sha256()
    for name in sorted(inputs.files):
        h.update(name.encode() + b"\0" + inputs.files[name].encode() + b"\0")
    for op in inputs.ops:
        h.update(repr((op.key, op.argv, op.from_lfp)).encode())
    return h.hexdigest()[:16]


def expected_path(workload: str) -> Path:
    return EXPECTED / f"{workload}.json"


def load_expected(workload: str, slice_no: int, inputs) -> list[str]:
    """The committed per-op records of one slice; raises ValueError when
    they are missing or were made from other inputs."""
    data = json.loads(expected_path(workload).read_text(encoding="utf-8"))
    entry = data["slices"].get(str(slice_no))
    if entry is None:
        raise ValueError(f"no expected outputs for {workload} slice {slice_no}")
    if entry["inputs"] != inputs_digest(inputs):
        raise ValueError(
            f"{workload} slice {slice_no}: inputs differ from those the "
            "expected outputs were made from"
        )
    text = entry["records"]
    records = [text[i:i + RECORD_CHARS] for i in range(0, len(text), RECORD_CHARS)]
    if len(records) != len(inputs.ops):
        raise ValueError(f"{workload} slice {slice_no}: record count mismatch")
    return records
