"""One benchmark worker: a fresh process running one workload as a closed
loop (one client, one job at a time, no threads).

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``, and keeps itself and every process it starts on one core.  It
times the reference task (``reference.py``), imports the library,
generates the seeded inputs, times the reference task again and prints a
``ready`` line carrying both reference times, then runs the job set in
passes until ``--seconds`` is used up (at least two passes, so a run whose
pass is longer than half of ``--seconds`` takes longer).  Every finished job and pass is one JSON line on
stdout; the last line carries peak memory and, when traced, the per-layer
totals.  The ``verify_biquandle`` cache is cleared before each pass so
that every pass starts as a fresh process would.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference

# One core for the worker and every process it starts, so that the
# reference task and the jobs, CLI children included, share a core's speed.
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

REF_CALLS = 5  # reference calls on each side of the set-up


def reference_ms():
    """Time (ms) of one call of the fixed reference task, which gauges the
    host's speed at that moment (see ``reference.py``)."""
    t0 = time.perf_counter()
    result = reference.run()
    ms = (time.perf_counter() - t0) * 1000.0
    if result != reference.EXPECTED:
        raise RuntimeError(f"reference task returned {result}")
    return ms


def setup_reference():
    """Fastest of ``REF_CALLS`` reference calls (the first calls in a fresh
    interpreter run cold) and the seconds they took."""
    t0 = time.perf_counter()
    best = min(reference_ms() for _ in range(REF_CALLS))
    return best, time.perf_counter() - t0


# Gauge the host before the library loads, so that set-up time can be put
# at the reference speed like the jobs are.
REF_BEFORE_SETUP = setup_reference()

import biquandles as bq  # noqa: E402
from biquandles import cli  # noqa: E402
from biquandles.axioms import verify_biquandle  # noqa: E402

import inputs  # noqa: E402
from tracer import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
MIN_PASSES = 2
CLI_MAIN_ROUNDS = 3
CHILD_TIMEOUT_S = 60


def emit(obj):
    sys.stdout.write(json.dumps(obj, separators=(",", ":")) + "\n")
    sys.stdout.flush()


# --------------------------------------------------------------------------
# workloads: prepare(inputs) -> run(job) returning a JSON-ready output

def prepare_knot_count(data):
    targets = {}
    for name, spec in data["targets"].items():
        if spec["kind"] == "switch":
            targets[name] = bq.make_switch_biquandle(
                spec["m"], spec["k"], spec["A"], spec["B"], spec["c"]).table
        else:
            targets[name] = bq.make_alexander(bq.make_module(
                spec["m"], spec["k"], spec["s"], spec["t"]))

    def run(job):
        diagram = bq.build_diagram(bq.parse_gauss_code(job["code"]))
        return {"count": bq.count_homs(diagram, targets[job["target"]]).count}
    return run


def prepare_module_iso(data):
    """Decide each pair as ``iso --method both`` does: build both tables,
    verify them, run the brute-force decider, then the structural one."""
    def run(job):
        a, b = (bq.make_module(mod["m"], mod["k"], mod["s"], mod["t"])
                for mod in (job["a"], job["b"]))
        ta, tb = bq.make_alexander(a), bq.make_alexander(b)
        for table in (ta, tb):
            if not bq.verify_biquandle(table).passed:
                raise ValueError("module table fails the axioms")
        brute, _ = bq.brute_force_iso(ta, tb)
        witness, _ = bq.structural_iso(a, b)
        return {"brute": list(brute) if brute else None,
                "structural": list(witness.perm) if witness else None}
    return run


def prepare_enumerate(data):
    def run(job):
        result = bq.enumerate_biquandles(job["order"])
        return {"tables": [[e for blk in (t.up, t.down, t.upbar, t.downbar)
                            for row in blk for e in row]
                           for t in result.tables],
                "classes": [list(c) for c in result.classes]}
    return run


def cli_argv(job, files_dir):
    cmd = job["cmd"]
    argv = [cmd]
    if cmd == "check":
        argv.append(str(files_dir / job["file"]))
    elif cmd in ("alexander", "orbits"):
        argv += ["--zn", *map(str, job["zn"])]
    elif cmd == "switch":
        argv += [str(job["m"]), str(job["k"]), "--A", job["A"],
                 "--B", job["B"]]
        if job.get("c"):
            argv += ["--c", job["c"]]
    elif cmd == "iso":
        for zn in job["zn"]:
            argv += ["--zn", *map(str, zn)]
    elif cmd == "count":
        argv += ["--gauss", job["code"],
                 "--target", str(files_dir / job["target"])]
    elif cmd == "enumerate":
        argv.append(str(job["n"]))
    if job.get("json"):
        argv.append("--json")
    return argv


def prepare_cli_cold(data):
    """Write the input files, then run each call as its own interpreter."""
    import oracle
    files_dir = OUT / f"cli-files-{os.getpid()}"
    files_dir.mkdir(parents=True, exist_ok=True)
    for name, spec in data["files"].items():
        (files_dir / name).write_text(oracle.file_text(spec))

    def run(job):
        proc = subprocess.run(
            [sys.executable, "-m", "biquandles.cli",
             *cli_argv(job, files_dir)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        return {"code": proc.returncode, "stdout": proc.stdout}
    run.files_dir = files_dir
    return run


PREPARE = {
    "knot_count": prepare_knot_count,
    "module_iso": prepare_module_iso,
    "enumerate": prepare_enumerate,
    "cli_cold": prepare_cli_cold,
}


# --------------------------------------------------------------------------
# the closed loop

def clear_caches():
    verify_biquandle.cache_clear()


def run_passes(jobs, run, seconds, tracer=None):
    """Run the job set pass after pass until the next pass would overrun
    ``seconds``, but at least ``MIN_PASSES`` times, so that every job has a
    repeat to take its median from.  The reference task runs after every
    job, and each job line carries the reference times just before and
    just after it.  Returns (pass durations, verify cache hits and misses
    over all passes)."""
    start = time.perf_counter()
    durations = []
    hits = misses = 0
    p = 0
    ref_before = reference_ms()
    while True:
        clear_caches()
        t_pass = time.perf_counter()
        for i, job in enumerate(jobs):
            span = contextlib.nullcontext()
            if tracer is not None:
                tracer.job = i
                span = tracer.span("bench.job")
            t0 = time.perf_counter()
            try:
                with span:
                    out, err = run(job), None
            except Exception as exc:  # a failed job is reported, not fatal
                out, err = None, f"{type(exc).__name__}: {exc}"
            ms = (time.perf_counter() - t0) * 1000.0
            ref_after = reference_ms()
            emit({"job": i, "pass": p, "ms": ms, "out": out, "err": err,
                  "ref": [ref_before, ref_after]})
            ref_before = ref_after
        durations.append(time.perf_counter() - t_pass)
        info = verify_biquandle.cache_info()
        hits += info.hits
        misses += info.misses
        emit({"pass_done": p, "s": durations[-1]})
        p += 1
        elapsed = time.perf_counter() - start
        if len(durations) >= MIN_PASSES and \
                elapsed + statistics.median(durations) > seconds:
            return durations, hits, misses


def cli_main_rounds(jobs, files_dir, tracer):
    """Warm, in-process ``cli.main(argv)`` calls, traced; one untimed
    warm-up round, then ``CLI_MAIN_ROUNDS`` timed rounds."""
    times = []
    for rnd in range(CLI_MAIN_ROUNDS + 1):
        clear_caches()
        for i, job in enumerate(jobs):
            argv = cli_argv(job, files_dir)
            buf = io.StringIO()
            tracer.job = i
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(buf), \
                    contextlib.redirect_stderr(io.StringIO()):
                with tracer.span("cli.main"):
                    code = cli.main(argv)
            ms = (time.perf_counter() - t0) * 1000.0
            if rnd:
                times.append(ms)
                emit({"job": i, "pass": "main", "ms": ms,
                      "out": {"code": code, "stdout": buf.getvalue()},
                      "err": None})
    return statistics.median(times)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-file", default=None)
    args = parser.parse_args()

    data = inputs.generate(args.workload, args.seed)
    run = PREPARE[args.workload](data)
    try:
        measure(args, data, run)
    finally:
        files_dir = getattr(run, "files_dir", None)
        if files_dir is not None:
            shutil.rmtree(files_dir, ignore_errors=True)


def measure(args, data, run):
    ref_after = setup_reference()
    emit({"ready": True, "backend": bq.BACKEND, "digest": data["digest"],
          "ref": [REF_BEFORE_SETUP[0], ref_after[0]],
          "ref_s": REF_BEFORE_SETUP[1] + ref_after[1],
          "jobs": len(data["jobs"])})
    if args.setup_only:
        return

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    try:
        durations, hits, misses = run_passes(
            data["jobs"], run, args.seconds, tracer)
        extra = {}
        if tracer is not None and args.workload == "cli_cold":
            extra["main_ms"] = cli_main_rounds(data["jobs"], run.files_dir,
                                               tracer)
            extra["main_rounds"] = CLI_MAIN_ROUNDS
    finally:
        if tracer is not None:
            tracer.uninstall()
    usage = resource.RUSAGE_CHILDREN if args.workload == "cli_cold" \
        else resource.RUSAGE_SELF
    done = {"done": True, "passes": len(durations),
            "peak_rss_kb": resource.getrusage(usage).ru_maxrss,
            "verify_hits": hits, "verify_misses": misses, **extra}
    if tracer is not None:
        done["layers"] = tracer.layer_totals()
        done["counts"] = tracer.counts
        done["spans"] = len(tracer.start_col)
        if args.trace_file:
            tracer.write(args.trace_file)
    emit(done)


if __name__ == "__main__":
    main()
