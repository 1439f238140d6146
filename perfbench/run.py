#!/usr/bin/env python3
"""Layered benchmark of the biquandles library and CLI.

    python3 perfbench/run.py --workload knot_count --seed 1 --seconds 20 \
        --trace 0
    python3 perfbench/run.py --workload all      # every workload, both ways

Each run starts fresh worker processes (``worker.py``) from the checkout's
``src``, checks every output against the independent oracles in
``oracle.py``, and prints one JSON object as its last stdout line:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones from
a separate traced worker.  A record of each run (commit, kernel backend,
Python version, core count, all figures) goes to ``perfbench/out/``.

End-to-end figures: ``setup_s`` is the median start-to-ready time of nine
fresh workers (import plus input generation); ``wall_s`` is the time of
one pass of the job set and ``job_p50_ms`` and ``job_p90_ms`` are
percentiles of the per-job latencies.  All four are at the reference host
speed: each time is divided by the time of a fixed reference task run
next to it (``reference.py``), so that a host running at half speed for a
whole run does not double the figures (see ``normalized_setup_s`` and
``normalized_latencies``);
``peak_rss_mb`` is the worker's peak resident memory, on ``cli_cold`` the
largest CLI child's.  The run record also keeps the raw set-up times, the
raw best-pass job-set time and the median reference time.
"""

import argparse
import hashlib
import json
import os
import platform
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
import inputs  # noqa: E402
import layers  # noqa: E402

SETUP_PROBES = 8          # extra set-up-only workers per untraced run
RUN_BUDGET_S = 165.0      # whole run, kept under the 180 s limit
WORKER_BUDGET_S = 120.0   # one worker; past it the worker is killed
PROBE_SAMPLES = 5         # interpreter and import probes per traced run
REF_MS = 1.0              # nominal time of one reference task


# --------------------------------------------------------------------------
# workers

class WorkerResult:
    def __init__(self):
        self.ready_s = None
        self.ready_ref = None  # reference ms before and after set-up
        self.backend = None
        self.digest = None
        self.jobs = []        # (pass, index, ms, out, err)
        self.refs = {}        # (pass, index) -> reference ms before, after
        self.passes = []      # pass durations, seconds
        self.done = None
        self.killed = False
        self.stderr = ""


def _env():
    env = dict(os.environ)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    return env


def run_worker(workload, seed, seconds, trace, deadline, setup_only=False,
               trace_file=None):
    """Start one worker and collect its lines until it ends or ``deadline``
    (perf_counter time) passes, in which case it is killed."""
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(int(trace))]
    if setup_only:
        argv.append("--setup-only")
    if trace_file:
        argv += ["--trace-file", str(trace_file)]
    res = WorkerResult()
    err_path = OUT / f"worker-stderr-{os.getpid()}.log"
    with open(err_path, "w+b") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err,
                                cwd=ROOT, env=_env(), start_new_session=True)
        try:
            for now, msg in _lines(proc, deadline):
                if "ready" in msg:
                    # set-up time, less the reference calls around it
                    res.ready_s = now - t0 - msg["ref_s"]
                    res.ready_ref = msg["ref"]
                    res.backend = msg["backend"]
                    res.digest = msg["digest"]
                elif "job" in msg:
                    res.jobs.append((msg["pass"], msg["job"], msg["ms"],
                                     msg["out"], msg["err"]))
                    if "ref" in msg:
                        res.refs[msg["pass"], msg["job"]] = msg["ref"]
                elif "pass_done" in msg:
                    res.passes.append(msg["s"])
                elif "done" in msg:
                    res.done = msg
            try:
                proc.wait(timeout=max(deadline - time.perf_counter(), 0.1))
            except subprocess.TimeoutExpired:
                res.killed = True
        finally:
            _stop(proc)
            shutil.rmtree(OUT / f"cli-files-{proc.pid}", ignore_errors=True)
        err.seek(0)
        res.stderr = err.read().decode(errors="replace")
    err_path.unlink()
    if proc.returncode and res.done is None:
        res.killed = True  # crashed: treated like a kill
    return res


def _lines(proc, deadline):
    """Yield (arrival time, decoded JSON) per stdout line until EOF or the
    deadline."""
    sel = selectors.DefaultSelector()
    sel.register(proc.stdout, selectors.EVENT_READ)
    fd = proc.stdout.fileno()
    buf = b""
    try:
        while True:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                return
            if not sel.select(timeout=remaining):
                continue
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                return
            buf += chunk
            now = time.perf_counter()
            while b"\n" in buf:
                line, buf = buf.split(b"\n", 1)
                yield now, json.loads(line)
    finally:
        sel.close()


def _stop(proc):
    """Kill the worker's whole process group if it still runs, then wait."""
    if proc.poll() is None:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    proc.wait()
    proc.stdout.close()


def probe_ms(argv, samples):
    """Median wall time (ms) of fresh interpreters running ``argv``."""
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, *argv], check=True, cwd=ROOT,
                       env=_env(), capture_output=True, timeout=60)
        times.append((time.perf_counter() - t0) * 1000.0)
    return statistics.median(times)


def import_probe_ms(samples):
    """Median time (ms) of ``import biquandles.cli`` inside fresh
    interpreters, interpreter start excluded."""
    code = ("import time; t = time.perf_counter(); import biquandles.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(samples):
        proc = subprocess.run([sys.executable, "-c", code], check=True,
                              cwd=ROOT, env=_env(), capture_output=True,
                              text=True, timeout=60)
        times.append(float(proc.stdout) * 1000.0)
    return statistics.median(times)


# --------------------------------------------------------------------------
# checking outputs

def check_jobs(workload, data, results):
    """Check every job output; returns (attempted, failed, reasons).

    A job fails if it raised, gave a wrong output, or never finished
    because its worker was killed or crashed.
    """
    import checks
    n_jobs = len(data["jobs"])
    attempted = 0
    bad = {}
    for w, res in enumerate(results):
        checker = checks.CHECKERS[workload](data)
        for pass_id, i, ms, out, err in res.jobs:
            attempted += 1
            reason = err or checker.check(pass_id, i, out)
            if reason:
                bad[(w, pass_id, i)] = reason
        for pass_id, i, reason in checker.finish():
            bad.setdefault((w, pass_id, i), reason)
        if res.killed or res.done is None:
            current = len(res.passes)
            in_progress = sum(1 for job in res.jobs if job[0] == current)
            missing = n_jobs - in_progress
            attempted += missing
            for i in range(missing):
                bad[(w, current, f"unfinished-{i}")] = \
                    "worker killed or crashed before the job finished"
    reasons = [f"worker {w} pass {p} job {i}: {r}"
               for (w, p, i), r in sorted(bad.items(), key=str)]
    return attempted, len(bad), reasons


# --------------------------------------------------------------------------
# one run

def quantile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def best_latencies(res):
    """Each job's fastest latency (ms) over the passes it ran in."""
    best = {}
    for pass_id, i, ms, out, err in res.jobs:
        if isinstance(pass_id, int):
            best[i] = min(ms, best.get(i, ms))
    return best


def job_set_s(res):
    """Time to finish the job set once, each job at its best pass."""
    return sum(best_latencies(res).values()) / 1000.0


def normalized_setup_s(res):
    """Start-to-ready time (s) at the reference host speed, by the
    reference times the worker took before importing the library and just
    before it was ready (the fastest of a few calls each)."""
    before, after = res.ready_ref
    return res.ready_s * 2.0 * REF_MS / (before + after)


def normalized_latencies(res):
    """Each job's latency (ms) at the reference host speed: the median over
    passes of its time divided by the mean of the reference times just
    before and after it, times ``REF_MS``.

    A shared host's speed drifts by half or more for tens of seconds, which
    no choice of pass hides; the reference task (``reference.py``) slows
    down with it, so the quotient tracks the program rather than the
    neighbours.
    """
    ratios = {}
    for pass_id, i, ms, out, err in res.jobs:
        if (pass_id, i) in res.refs:
            before, after = res.refs[pass_id, i]
            ratios.setdefault(i, []).append(ms * 2.0 / (before + after))
    return {i: statistics.median(r) * REF_MS for i, r in ratios.items()}


def normalized_wall_s(res):
    """Time (s) of one pass of the job set at the reference host speed."""
    return sum(normalized_latencies(res).values()) / 1000.0


def run_once(workload, seed, seconds, trace):
    t_start = time.perf_counter()
    deadline = t_start + RUN_BUDGET_S
    OUT.mkdir(exist_ok=True)
    data = inputs.generate(workload, seed)

    def worker_deadline():
        return min(deadline, time.perf_counter() + WORKER_BUDGET_S)

    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": int(trace), "inputs_digest": data["digest"],
              **environment()}
    if not trace:
        def probe_setup(count):
            for _ in range(count):
                probe = run_worker(workload, seed, seconds, 0,
                                   worker_deadline(), setup_only=True)
                if probe.ready_s is None:
                    raise RuntimeError("set-up probe failed:\n" +
                                       probe.stderr)
                setup.append(probe)

        # Probes on both sides of the measuring worker, so that one slow
        # spell of the host does not set the median.
        setup = []
        probe_setup(SETUP_PROBES // 2)
        res = run_worker(workload, seed, seconds, 0, worker_deadline())
        results = [res]
        if res.ready_s is not None:
            setup.append(res)
        probe_setup(SETUP_PROBES - SETUP_PROBES // 2)
        timed = sorted(normalized_latencies(res).values())
        metrics = {
            "setup_s": statistics.median(map(normalized_setup_s, setup)),
            "wall_s": normalized_wall_s(res) if res.passes
            else time.perf_counter() - t_start,
            "job_p50_ms": quantile(timed, 50) if timed else 0.0,
            "job_p90_ms": quantile(timed, 90) if timed else 0.0,
            "peak_rss_mb": (res.done or {}).get("peak_rss_kb", 0) / 1024.0,
        }
        every = [ms for p, _, ms, _, _ in res.jobs]
        refs = [r for pair in res.refs.values() for r in pair]
        record.update(
            job_samples=len(every), passes=len(res.passes),
            raw_setup_s=[w.ready_s for w in setup],
            setup_reference_ms=[w.ready_ref for w in setup],
            reference_median_ms=statistics.median(refs) if refs else None,
            raw_best_wall_s=job_set_s(res),
            pass_median_s=statistics.median(res.passes) if res.passes
            else None,
            all_samples_p50_ms=quantile(every, 50) if every else None,
            all_samples_p90_ms=quantile(every, 90) if every else None)
    else:
        base = run_worker(workload, seed, seconds / 2, 0, worker_deadline())
        trace_file = OUT / f"trace-{workload}-seed{seed}.json.gz"
        traced = run_worker(workload, seed, seconds / 2, 1,
                            worker_deadline(), trace_file=trace_file)
        results = [base, traced]
        probes = {"interp_ms": probe_ms(["-c", "pass"], PROBE_SAMPLES),
                  "import_ms": import_probe_ms(PROBE_SAMPLES)}
        metrics, shares = layers.per_layer(
            workload, traced, probes, normalized_wall_s(base),
            normalized_wall_s(traced))
        record["self_time_shares"] = shares
        record["trace_file"] = str(trace_file.relative_to(ROOT))
    for res in results:
        if res.digest is not None and res.digest != data["digest"]:
            raise RuntimeError("worker generated different inputs")
    record["backend"] = next((r.backend for r in results if r.backend), None)
    attempted, failed, reasons = check_jobs(workload, data, results)
    record.update(attempted=attempted, failed=failed,
                  fail_ratio=failed / attempted if attempted else 1.0,
                  failures=reasons[:20], metrics=metrics)
    record["run_s"] = time.perf_counter() - t_start
    name = f"run-{workload}-seed{seed}-trace{int(trace)}.json"
    (OUT / name).write_text(json.dumps(record, indent=1, sort_keys=True))
    for res in results:
        if res.killed and res.stderr:
            print(res.stderr[-2000:], file=sys.stderr)
    return record


def environment():
    return {"commit": git_commit(), "source_digest": source_digest(),
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0))}


def git_commit():
    """HEAD's commit read from .git without running git; None outside a
    repository (the benchmark may run in a plain export)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    """Digest of every file under src/, so runs of one tree can be told
    apart from runs of another even without git."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def result_line(record, trace):
    units = layers.UNITS_LAYER if trace else layers.UNITS_E2E
    return {"correct": record["failed"] == 0,
            "attempted": record["attempted"], "failed": record["failed"],
            "metrics": {k: {"value": record["metrics"][k], "unit": units[k]}
                        for k in units}}


def print_record(record):
    trace = record["trace"]
    units = layers.UNITS_LAYER if trace else layers.UNITS_E2E
    print(f"{record['workload']} seed={record['seed']} trace={trace} "
          f"backend={record['backend']} python={record['python']} "
          f"nproc={record['nproc']} commit={record['commit']}")
    print(f"  attempted={record['attempted']} failed={record['failed']} "
          f"fail_ratio={record['fail_ratio']:.4f}", end="")
    if not trace:
        print(f" job_samples={record['job_samples']} "
              f"passes={record['passes']}", end="")
    print()
    for key, unit in units.items():
        print(f"  {key} = {record['metrics'][key]:.6g} {unit}")
    if trace:
        top = sorted(record["self_time_shares"].items(),
                     key=lambda kv: -kv[1])[:4]
        print("  largest self-time shares: " +
              ", ".join(f"{k} {v:.1%}" for k, v in top))
    for reason in record["failures"]:
        print(f"  FAILED {reason}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*inputs.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run unwinds, so every worker it started is killed and
    # waited for.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "biquandles" / "__init__.py").is_file():
        print(f"error: no library source under {SRC}", file=sys.stderr)
        return 2
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())[
            "run_seconds"]

    if args.workload != "all":
        record = run_once(args.workload, args.seed, seconds, args.trace)
        print_record(record)
        print(json.dumps(result_line(record, args.trace)))
        return 0

    summary = {}
    for workload in inputs.WORKLOADS:
        plain = run_once(workload, args.seed, seconds, 0)
        traced = run_once(workload, args.seed, seconds, 1)
        print_record(plain)
        print_record(traced)
        summary[workload] = (plain, traced)
    print("\nworkload    fail_ratio  " +
          "  ".join(f"{k} [{u}]" for k, u in layers.UNITS_E2E.items()) +
          "  trace_overhead [s]")
    for workload, (plain, traced) in summary.items():
        failed = plain["failed"] + traced["failed"]
        attempted = plain["attempted"] + traced["attempted"]
        cells = "  ".join(f"{plain['metrics'][k]:.4g}"
                          for k in layers.UNITS_E2E)
        print(f"{workload:<11} {failed / attempted:<10.4f}  {cells}  "
              f"{traced['metrics']['trace.overhead_s']:.4g}")
    ok = all(p["failed"] == 0 and t["failed"] == 0
             for p, t in summary.values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
