"""Closed-loop client for one workload, run in a fresh interpreter.

    python worker.py MODE WORKLOAD SEED SECONDS OUT_PATH WORKDIR [CMD_FD REPLY_FD]

The parent (run.py) starts this with ``src`` on PYTHONPATH and times it
from process start until the line ``ready`` appears on stdout: that
interval is the set-up time (interpreter start, ``import acmoment`` and
the workload's fixed warm-up request).  MODE is

* ``setup``: print ``ready`` and exit;
* ``run``: then send requests one at a time for SECONDS of busy time,
  asking the reference meter (meter.py, over the inherited pipe ends
  CMD_FD and REPLY_FD) for a sample between requests, and write one JSON
  line per request (start time, latency, output) to OUT_PATH as it goes,
  then a summary line;
* ``trace``: then run the workload's fixed traced request count twice,
  once plain and once with every layer wrapped (spans.py), and write
  both timings, the outputs and the spans to OUT_PATH.

On ``cli_batch`` a request is one child process (``run``) or one
in-process ``acmoment.cli.main`` call (``trace``, so that spans can be
recorded); input files are written to WORKDIR before the clock starts.
"""

import json
import sys
import time

import acmoment  # noqa: F401  (the import is part of the measured set-up)
import acmoment.field as field
import acmoment.formfactor as ff
import acmoment.phase as phase
import acmoment.quadrature as quadrature
from acmoment.errors import DomainError, InfraredDivergent, SingularPath

import gen

REFUSALS = (DomainError, InfraredDivergent, SingularPath)
MIN_REQUESTS = 21
REFERENCE_PERIOD_S = 0.05

# The console-script entry point, spelled out so the checkout's source
# tree (on PYTHONPATH) is what runs.
CLI_ENTRY = "import sys; from acmoment.cli import main; sys.exit(main(sys.argv[1:]))"


def _charges(req):
    return field.FieldConfig([field.LineCharge(x, y, lam) for x, y, lam in req["charges"]])


def run_library(req):
    """One library request; module attributes are looked up per call."""
    kind = req["kind"]
    try:
        if kind == "susy":
            r = ff.susy_form_factor(ff.SusyParams(req["q2"], req["mcs2"]), req["tol"])
            return {"ok": [r.integral, r.error_estimate, r.evaluations]}
        if kind == "yukawa":
            p = ff.YukawaParams(req["q2"], req["m1"], req["m2"], req["e1"], req["e2"])
            r = ff.yukawa_form_factor(p, req["tol"])
            return {"ok": [r.integral, r.error_estimate, r.evaluations]}
        if kind == "mc":
            p = ff.SusyParams(req["q2"], req["mcs2"])
            r = quadrature.mc_integrate_triangle(
                lambda x, y: ff.susy_integrand(x, y, p), req["samples"], req["seed"])
            return {"ok": [r.value, r.error_estimate, r.evaluations]}
        if kind == "ring":
            path = phase.PolylinePath(req["vertices"], closed=True)
            r = phase.ac_phase(path, _charges(req), req["g"], req["species"], req["tol"])
            return {"ok": [r.phase, list(r.windings), r.error_estimate]}
        if kind == "fringe":
            a = phase.PolylinePath(req["arm_a"])
            b = phase.PolylinePath(req["arm_b"])
            r = phase.fringe_shift(a, b, _charges(req), req["g"], req["species"], req["tol"])
            return {"ok": [r.delta_phase, r.contrast]}
    except REFUSALS as exc:
        return {"refused": type(exc).__name__}
    except Exception as exc:  # a program failure: recorded, checked and counted
        return {"error": f"{type(exc).__name__}: {exc}"}
    raise ValueError(f"unknown request kind {kind!r}")


def run_cli_inprocess(req):
    import contextlib
    import io
    from acmoment import cli  # not imported by the package itself
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(req["argv"]))
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()[-2000:]}


def run_cli_process(req):
    import subprocess
    try:
        p = subprocess.run([sys.executable, "-c", CLI_ENTRY, *req["argv"]],
                           capture_output=True, text=True, timeout=60)
    except subprocess.TimeoutExpired:  # the child has been killed and reaped
        return {"exit": None, "stdout": "", "stderr": "no exit within 60 s"}
    return {"exit": p.returncode, "stdout": p.stdout, "stderr": p.stderr[-2000:]}


def _write_files(req):
    for name, text in req.get("files", {}).items():
        with open(name, "w") as fh:
            fh.write(text)


def _peak_rss_mb(children):
    import resource
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def closed_loop(workload, seed, seconds, meter, out):
    """Send requests back to back until `seconds` of busy time have passed.

    Generating a request, writing its input files and its output line,
    and one meter sample per REFERENCE_PERIOD_S of busy time happen
    between requests and are excluded from the busy time.  Only the
    current block of requests is kept, and each output goes to `out`
    as soon as it is known, so the worker's memory does not grow with
    the number of requests sent.  At least MIN_REQUESTS are sent, so
    that the tail latency (ten samples beyond it) is never below the
    median.
    """
    send = run_cli_process if workload == "cli_batch" else run_library
    sent = samples = 0
    block, k = [], 0
    idle = 0.0
    t0 = time.perf_counter()
    while time.perf_counter() - t0 - idle < seconds or sent < MIN_REQUESTS:
        t_idle = time.perf_counter()
        while samples <= (t_idle - t0 - idle) / REFERENCE_PERIOD_S:
            meter.sample()
            samples += 1
        if not block:
            block = gen.block(workload, seed, k)
            k += 1
        req = block.pop(0)
        _write_files(req)
        start = time.monotonic()
        t = time.perf_counter()
        idle += t - t_idle
        output = send(req)
        latency = time.perf_counter() - t
        t_idle = time.perf_counter()
        out.write(json.dumps({"t": start, "latency": latency, "output": output}) + "\n")
        sent += 1
        idle += time.perf_counter() - t_idle
    busy = time.perf_counter() - t0 - idle
    return {"requests": sent, "samples": samples, "busy_s": busy,
            "peak_rss_mb": _peak_rss_mb(workload == "cli_batch")}


def _send_inprocess(req):
    return run_cli_inprocess(req) if req["kind"] == "cli" else run_library(req)


def traced_passes(workload, seed):
    import spans
    reqs = gen.requests(workload, seed, gen.TRACE_REQUESTS[workload]) + gen.PROBES
    for req in reqs:
        _write_files(req)
    t = time.perf_counter()
    plain = [_send_inprocess(req) for req in reqs]
    plain_s = time.perf_counter() - t
    rec = spans.Recorder()
    spans.install(rec)
    t = time.perf_counter()
    traced = []
    for i, req in enumerate(reqs):
        with rec.request(i):
            traced.append(_send_inprocess(req))
    traced_s = time.perf_counter() - t
    return {"plain_s": plain_s, "traced_s": traced_s, "outputs": traced,
            "outputs_match": plain == traced, "spans": rec.spans}


def main():
    import os
    mode, workload, seed, seconds, out_path, workdir = sys.argv[1:7]
    _send_inprocess(gen.WARMUP[workload])
    print("ready", flush=True)
    if mode == "setup":
        return
    os.chdir(workdir)
    with open(out_path, "w") as fh:
        if mode == "run":
            import meter
            client = meter.Client(int(sys.argv[7]), int(sys.argv[8]))
            summary = closed_loop(workload, int(seed), float(seconds), client, fh)
            fh.write(json.dumps({"summary": summary}) + "\n")
        else:
            json.dump(traced_passes(workload, int(seed)), fh)


if __name__ == "__main__":
    main()
