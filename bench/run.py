"""acmoment benchmark: one seeded workload per run, checked against oracles.

    python3 bench/run.py --workload ff_ir --seed 1 --seconds 18 --trace 0

Run from the root of a source checkout; the package is imported from
``src`` (nothing needs installing).  With ``--trace 0`` the run reports
the end-to-end metrics of BENCHMARK.json, measured on unmodified
modules and with times calibrated to a reference speed (README.md,
"Noise"); with ``--trace 1`` it reports the per-layer metrics from a
separate traced pass over a fixed number of requests (``--seconds`` is
not used there).  ``--workload all`` runs the four workloads in
turn and writes a summary.  Every printed line before the last is a
human-readable report (including the environment record); the last line
is one JSON object with the keys correct, attempted, failed, metrics.
Results and span files go to ``.bench_out/`` in the checkout.

Load is a closed loop with a single client: one request at a time in
one process (one child process at a time on cli_batch).  See README.md
in this directory for why each workload exists and what each metric
should move.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen
import meter
import oracle
import selfcheck
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("ff_ir", "ff_mild", "phase_paths", "cli_batch")

# Fresh interpreters timed for set-up in a run; the reported value is
# their median at the reference speed.
SETUP_SAMPLES = 7
# Meter samples taken right before and right after each set-up
# interpreter; the mean of all of them calibrates the set-up times.
SETUP_BURST = 8
IMPORTTIME_SAMPLES = 3
TAIL_BEYOND = 10  # samples above the reported tail latency
# A fixed round figure near the time of meter.kernel on the machine this
# was built on while it ran at full speed.  End-to-end times are reported
# at that reference speed: each raw time is scaled by REFERENCE_MS over
# the mean meter time taken around it (see README.md, "Noise").
REFERENCE_MS = 0.5
# A request's latency is calibrated by the meter samples taken from
# NEAR_S before it starts until NEAR_S after it ends.
NEAR_S = 0.5

UNITS = {
    "setup_s": "s", "latency_p50_ms": "ms", "latency_tail_ms": "ms",
    "throughput_rps": "1/s", "peak_rss_mb": "MB",
    "import.total_ms": "ms", "import.scipy_ms": "ms", "import.numpy_ms": "ms",
    "import.acmoment_self_ms": "ms",
    "cli.main_ms": "ms", "cli.self_ms": "ms",
    "formfactor.params_calls": "count", "formfactor.params_rejected": "count",
    "formfactor.params_us": "us", "formfactor.params_share": "%",
    "formfactor.solve_calls": "count", "formfactor.solve_self_ms": "ms",
    "formfactor.integrand_calls": "count", "formfactor.integrand_points": "count",
    "formfactor.integrand_points_per_call": "count",
    "formfactor.integrand_ns_per_point": "ns", "formfactor.self_ms": "ms",
    "quadrature.solves": "count", "quadrature.evaluations": "count",
    "quadrature.cells": "count", "quadrature.cells_per_solve_p50": "count",
    "quadrature.cells_per_solve_max": "count", "quadrature.self_us_per_cell": "us",
    "quadrature.mc_calls": "count", "quadrature.mc_samples": "count",
    "quadrature.mc_self_ms": "ms", "quadrature.mc_ns_per_sample": "ns",
    "quadrature.self_ms": "ms",
    "field.efield_calls": "count", "field.points": "count",
    "field.point_charge_pairs": "count", "field.ns_per_pair": "ns", "field.self_ms": "ms",
    "phase.calls": "count", "phase.segments": "count",
    "phase.segment_charge_pairs": "count", "phase.field_points_per_segment": "count",
    "phase.line_self_ms": "ms", "phase.winding_calls": "count", "phase.winding_ms": "ms",
    "phase.self_ms": "ms",
    "trace.overhead_pct": "%", "trace.requests": "count", "trace.request_ms": "ms",
    "trace.unattributed_ms": "ms", "trace.unattributed_pct": "%",
}


class BenchError(Exception):
    """The benchmark itself could not run (as opposed to a wrong result)."""


def _pin():
    """Pin this process, and so every process it starts, to one CPU.

    The host's speed changes per CPU and independently between CPUs, so
    the meter must run on the CPU the measured process runs on.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


class Meter:
    """A running meter.py process and the pipe ends that drive it."""

    def __init__(self, out_path):
        self.out_path = out_path
        cmd_r, self.cmd_w = os.pipe()
        self.reply_r, reply_w = os.pipe()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "meter.py"), str(cmd_r), str(reply_w), str(out_path)],
            pass_fds=(cmd_r, reply_w), env=_child_env(), cwd=ROOT)
        os.close(cmd_r)
        os.close(reply_w)
        self.client = meter.Client(self.cmd_w, self.reply_r)

    def fds(self):
        return self.cmd_w, self.reply_r

    def stop(self):
        """End the meter and return its samples, ``[start, seconds]`` pairs."""
        try:
            os.close(self.cmd_w)
            self.proc.wait(timeout=60)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            os.close(self.reply_r)
        if self.proc.returncode != 0:
            raise BenchError(f"reference meter failed (exit {self.proc.returncode})")
        return json.loads(self.out_path.read_text())


THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _child_env():
    """Environment of every measured process: `src` first on the path and,
    unless the caller set them, single-threaded BLAS/OpenMP pools.

    The program's work is serial; a multi-threaded OpenBLAS pool only
    adds threads that spin on the second CPU after each large dot
    product, which makes timings depend on whatever else runs there.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env.setdefault(var, "1")
    return env


def _spawn_worker(mode, workload, seed, seconds, out_path, workdir, timeout, fds=()):
    """Start worker.py; return seconds from spawn until it printed ready."""
    cmd = [sys.executable, str(HERE / "worker.py"), mode, workload, str(seed),
           str(seconds), str(out_path), str(workdir), *map(str, fds)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=_child_env(), cwd=ROOT,
                            pass_fds=fds)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {mode} {workload} still running after {timeout} s") from exc
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"worker {mode} {workload} failed (exit {proc.returncode})")
    return ready


def _import_times():
    """Median -X importtime split of `import acmoment` in fresh processes."""
    samples = []
    for _ in range(IMPORTTIME_SAMPLES):
        p = subprocess.run([sys.executable, "-X", "importtime", "-c", "import acmoment"],
                           capture_output=True, text=True, env=_child_env(), cwd=ROOT,
                           timeout=120)
        if p.returncode != 0:
            raise BenchError(f"import acmoment failed: {p.stderr[-500:]}")
        split = {"total": 0.0, "scipy": 0.0, "numpy": 0.0, "acmoment": 0.0}
        for line in p.stderr.splitlines():
            parts = line.removeprefix("import time:").split("|")
            if len(parts) != 3 or not parts[0].strip().isdigit():
                continue
            self_us, cum_us, name = int(parts[0]), int(parts[1]), parts[2].strip()
            top = name.split(".")[0]
            if top in split:
                split[top] += self_us / 1e3
            if name == "acmoment":
                split["total"] = cum_us / 1e3
        samples.append(split)
    return {f"import.{k}_ms" if k != "acmoment" else "import.acmoment_self_ms":
            statistics.median(s[k] for s in samples) for k in samples[0]}


def environment():
    import numpy
    import platform
    import scipy
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for f in sorted((SRC / "acmoment").glob("*.py")):
        digest.update(f.name.encode() + b"\0" + f.read_bytes())
    child = _child_env()
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "pinned_to": sorted(os.sched_getaffinity(0)), "cpu": cpu,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "thread_env_measured": {k: child[k] for k in THREAD_VARS},
        "git_commit": commit, "source_sha256": digest.hexdigest(),
    }


def _check(reqs, outputs):
    failures = []
    for i, (req, out) in enumerate(zip(reqs, outputs)):
        reason = oracle.check(req, out)
        if reason is not None:
            failures.append({"index": i, "request": req, "reason": reason})
    return failures


def _setup_samples(count, workload, seed, workdir, client):
    """`count` set-up times, with meter samples right before and after each."""
    out = []
    for _ in range(count):
        client.sample(SETUP_BURST)
        setup = _spawn_worker("setup", workload, seed, 0, workdir / "setup.json", workdir, 120)
        client.sample(SETUP_BURST)
        out.append(setup)
    return out


def _read_loop(path):
    lines = path.read_text().splitlines()
    summary = json.loads(lines[-1])["summary"]
    records = [json.loads(line) for line in lines[:-1]]
    if len(records) != summary["requests"]:
        raise BenchError(f"worker wrote {len(records)} of {summary['requests']} requests")
    return records, summary


def _calibrated(records, samples):
    """Each request's latency at the reference speed of the samples near it."""
    starts = [t for t, _ in samples]
    out = []
    for r in records:
        i = bisect.bisect_left(starts, r["t"] - NEAR_S)
        j = bisect.bisect_right(starts, r["t"] + r["latency"] + NEAR_S)
        near = samples[i:j] or samples
        out.append(r["latency"] * REFERENCE_MS / (1e3 * statistics.fmean(d for _, d in near)))
    return out


def _end_to_end(workload, seed, seconds, workdir):
    out_path = workdir / "worker.jsonl"
    mtr = Meter(workdir / "meter.json")
    try:
        # Set-up samples are taken before and after the timed run, so that
        # their median spans the run instead of one short stretch of time.
        before = SETUP_SAMPLES // 2
        setup = _setup_samples(before, workload, seed, workdir, mtr.client)
        _spawn_worker("run", workload, seed, seconds, out_path, workdir, seconds + 120, mtr.fds())
        setup += _setup_samples(SETUP_SAMPLES - before, workload, seed, workdir, mtr.client)
    finally:
        samples = mtr.stop()
    records, summary = _read_loop(out_path)
    # The meter's samples come in order: bursts around the set-up
    # interpreters before the run, the worker's, bursts after the run.
    n_setup = 2 * SETUP_BURST * SETUP_SAMPLES
    if len(samples) != n_setup + summary["samples"]:
        raise BenchError(f"meter took {len(samples)} samples, expected "
                         f"{n_setup} + {summary['samples']}")
    cut = 2 * SETUP_BURST * before
    loop_samples = samples[cut:cut + summary["samples"]]
    setup_refs = samples[:cut] + samples[cut + summary["samples"]:]
    setup_ms = 1e3 * statistics.fmean(d for _, d in setup_refs)
    burst = 2 * SETUP_BURST
    setup_burst_ms = [1e3 * statistics.fmean(d for _, d in setup_refs[i:i + burst])
                      for i in range(0, len(setup_refs), burst)]

    n = len(records)
    failures = _check(gen.requests(workload, seed, n), [r["output"] for r in records])
    lat = sorted(r["latency"] for r in records)
    cal = sorted(_calibrated(records, loop_samples))
    raw = {
        "latency_p50_ms": 1e3 * statistics.median(lat),
        "latency_tail_ms": 1e3 * lat[n - 1 - TAIL_BEYOND],
        "throughput_rps": n / math.fsum(lat),
    }
    metrics = {
        "latency_p50_ms": 1e3 * statistics.median(cal),
        "latency_tail_ms": 1e3 * cal[n - 1 - TAIL_BEYOND],
        "throughput_rps": n / math.fsum(cal),
        "setup_s": statistics.median(setup) * REFERENCE_MS / setup_ms,
    }
    metrics["peak_rss_mb"] = summary["peak_rss_mb"]
    raw["setup_s"] = statistics.median(setup)
    detail = {
        "raw": raw, "reference_ms": 1e3 * statistics.fmean(d for _, d in loop_samples),
        "references": len(loop_samples), "reference_setup_ms": setup_ms,
        "setup_samples_s": setup, "setup_reference_ms": setup_burst_ms,
        "latency_tail_percentile": 100.0 * (n - TAIL_BEYOND) / n,
        "latency_samples": n, "busy_s": summary["busy_s"],
        "error_rate": len(failures) / n,
    }
    return n, failures, metrics, detail


def _traced(workload, seed, workdir):
    out_path = OUT / f"{workload}-seed{seed}-spans.json"
    imports = _import_times()
    _spawn_worker("trace", workload, seed, 0, out_path, workdir, 150)
    res = json.loads(out_path.read_text())
    reqs = gen.requests(workload, seed, gen.TRACE_REQUESTS[workload]) + gen.PROBES
    failures = _check(reqs, res["outputs"])
    if not res["outputs_match"]:
        failures.append({"index": None, "request": None,
                         "reason": "traced outputs differ from untraced outputs"})
    metrics = dict(imports)
    metrics.update(spans.derive(res["spans"]))
    metrics["trace.overhead_pct"] = 100.0 * (res["traced_s"] / res["plain_s"] - 1.0)
    detail = {"plain_s": res["plain_s"], "traced_s": res["traced_s"],
              "spans_file": str(out_path.relative_to(ROOT)), "spans": len(res["spans"]),
              "error_rate": len(failures) / len(reqs)}
    return len(reqs), failures, metrics, detail


def _declared(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_one(workload, seed, seconds, trace):
    """Run one workload; return its result record (metrics, checks, env)."""
    selfcheck.quick(workload, seed)
    declared = _declared(trace)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    try:
        if trace:
            attempted, failures, metrics, detail = _traced(workload, seed, workdir)
        else:
            attempted, failures, metrics, detail = _end_to_end(workload, seed, seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if set(metrics) != set(declared) or any(UNITS[k] != declared[k] for k in metrics):
        raise BenchError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {declared}")
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "attempted": attempted, "failed": len(failures),
        "metrics": {k: {"value": metrics[k], "unit": UNITS[k]} for k in declared},
        "detail": detail, "failures": failures[:20], "env": environment(), "claim": None,
    }


def _report(rec):
    print(f"workload {rec['workload']}  seed {rec['seed']}  trace {rec['trace']}:  "
          f"{rec['attempted']} requests, {rec['failed']} failed, "
          f"error_rate {rec['detail']['error_rate']:.4g}")
    detail = rec["detail"]
    if "reference_ms" in detail:
        print(f"  host speed: reference kernel {detail['reference_ms']:.4g} ms mean over "
              f"{detail['references']} samples; times below are at {REFERENCE_MS} ms")
    for name, m in rec["metrics"].items():
        note = ""
        if name in detail.get("raw", {}):
            note = f"  (raw {detail['raw'][name]:.6g})"
        if name == "latency_tail_ms":
            note += (f"  (p{detail['latency_tail_percentile']:.1f}: {TAIL_BEYOND} of "
                     f"{detail['latency_samples']} samples above)")
        if name == "setup_s":
            note += f"  (median of {SETUP_SAMPLES} fresh interpreters)"
        print(f"  {name:38s} {m['value']:14.6g} {m['unit']}{note}")
    for f in rec["failures"]:
        print(f"  FAILED request {f['index']}: {f['reason']}")
    print("env " + json.dumps(rec["env"], sort_keys=True))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "acmoment" / "__init__.py").is_file():
        print(f"error: no acmoment source tree at {SRC}", file=sys.stderr)
        return 2
    _pin()
    try:
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        records = [run_one(w, args.seed, args.seconds, args.trace) for w in names]
    except (BenchError, oracle.OracleError, selfcheck.SelfCheckError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for rec in records:
        _report(rec)
        OUT.joinpath(f"{rec['workload']}-seed{rec['seed']}-trace{rec['trace']}.json").write_text(
            json.dumps(rec, indent=1))
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
        OUT.joinpath(f"summary-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps({"claim": None, "runs": records}, indent=1))
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
