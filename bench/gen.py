"""Seeded request generator for the acmoment benchmark.

Pure Python (no numpy): the same (workload, seed) gives byte-identical
requests on every platform, because block k of a workload draws from
``random.Random("<workload>:<seed>:<k>")`` (string seeds hash with
SHA-512, independent of PYTHONHASHSEED) and every request is plain JSON.

Each workload is an endless sequence of blocks.  A block stratifies its
parameters over the workload's ranges (a Latin hypercube per block), so
a run of a few hundred requests sees nearly the same cost distribution
for every seed while no request ever repeats.  The program under test
receives only these generated inputs.

In-domain and out-of-domain kinematics stay clearly away from the
threshold (see ``oracle.gauge_threshold`` and ``yukawa_margin`` below),
so the current 64x64 grid domain check and an exact check give the same
verdict.  Ranges are set by the cost a request should have, never to
keep a known defect out of sight; README.md says why each workload
exists and where the ranges stop.
"""

from __future__ import annotations

import json
import math
import random

# Requests per block; a block holds one draw from each stratum.
BLOCK = {"ff_ir": 16, "ff_mild": 20, "phase_paths": 10, "cli_batch": 10}

# Requests in the traced pass (a fixed count, so every per-layer count
# repeats exactly for a given seed).  Each is a whole number of blocks.
TRACE_REQUESTS = {"ff_ir": 32, "ff_mild": 160, "phase_paths": 60, "cli_batch": 30}

TOL = 1e-8
PHASE_TOL = 1e-10
MC_SAMPLES = 1_000_000

# One fixed warm-up request per workload: it is part of set-up, the
# same for every seed, and never counted as a timed request.
WARMUP = {
    "ff_ir": {"kind": "susy", "q2": -1.0, "mcs2": 1e-3, "tol": TOL, "expect": "ok"},
    "ff_mild": {"kind": "susy", "q2": -1.0, "mcs2": 1.0, "tol": TOL, "expect": "ok"},
    "phase_paths": {
        "kind": "ring", "g": 2.0, "species": "spinor", "tol": PHASE_TOL,
        "vertices": [[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]],
        "charges": [[0.0, 0.0, 3.0]], "expect": "ok",
    },
    "cli_batch": {"kind": "cli", "argv": ["mdm", "--q2", "-0.5,-1", "--mcs2", "1.0"], "files": {}},
}

# Fixed requests appended to every traced pass, one per layer family, so
# that every per-layer metric is measured on every workload.  They add
# the same small counts to every traced run.
PROBES = [
    {"kind": "susy", "q2": -1.0, "mcs2": 1e-2, "tol": TOL, "expect": "ok"},
    {"kind": "mc", "q2": -1.0, "mcs2": 1.0, "samples": 10_000, "seed": 1, "expect": "ok"},
    dict(WARMUP["phase_paths"], charges=[[0.0, 0.0, 3.0], [0.3, 0.95, -1.0]]),
    {"kind": "cli", "argv": ["mdm", "--q2", "-1", "--mcs2", "1.0"], "files": {},
     "expect_exit": 0, "check": {"cmd": "mdm", "q2": [-1.0], "mcs2": 1.0, "tol": TOL}},
]


def _strata(rng, n):
    """One uniform draw in each of n equal strata of [0, 1), shuffled."""
    u = [(k + rng.random()) / n for k in range(n)]
    rng.shuffle(u)
    return u


def _lerp(a, b, u):
    return a + (b - a) * u


def _log_lerp(a, b, u):
    return 10.0 ** _lerp(math.log10(a), math.log10(b), u)


def yukawa_margin(q2, m1, m2):
    """Exact minimum of the Yukawa denominator over the triangle.

    For fixed y the denominator c(y) - q2 x (y - x) is smallest at
    x = y/2 when q2 > 0 and on the edges otherwise, which leaves a
    quadratic in y per mass ordering; both orderings are checked.
    """
    a = 1.0 - max(q2, 0.0) / 4.0
    best = math.inf
    for ma, mb in ((m1, m2), (m2, m1)):
        b = -(1.0 - ma * ma + mb * mb)
        c = mb * mb
        ys = [0.0, 1.0]
        if 0.0 < -b / (2.0 * a) < 1.0:
            ys.append(-b / (2.0 * a))
        best = min(best, min(a * y * y + b * y + c for y in ys))
    return best


# --- form factors -------------------------------------------------------

def _ff_ir_block(rng):
    # Mostly gauge requests, the model whose infrared limit this workload
    # is about; the shares are a stated choice, not measured from real use.
    n_g, n_y = 12, 4
    out = []
    for lm, uq in zip(_strata(rng, n_g), _strata(rng, n_g)):
        out.append({"kind": "susy", "q2": _lerp(-3.0, 3.0, uq),
                    "mcs2": _log_lerp(1e-6, 1e-3, lm), "tol": TOL, "expect": "ok"})
    # Yukawa near m2 = 0, m1 = 1, spacelike q2 (timelike q2 puts these
    # masses out of the domain).  m2 >= 0.01 keeps a request near the
    # cost of the gauge requests; see README for what lies below.
    for lm2, um1, uq, ue in zip(*(_strata(rng, n_y) for _ in range(4))):
        e2 = 0.0 if ue < 0.5 else _lerp(0.25, 1.0, rng.random())
        out.append({"kind": "yukawa", "q2": _lerp(-3.0, -0.1, uq),
                    "m1": _lerp(1.0, 1.05, um1), "m2": _log_lerp(0.01, 0.05, lm2),
                    "e1": 1.0, "e2": e2, "tol": TOL, "expect": "ok"})
    rng.shuffle(out)
    return out


def _mild_yukawa(rng, u_q):
    """Generic Yukawa kinematics at least 0.05 inside the domain."""
    while True:
        m1 = _lerp(0.6, 1.6, rng.random())
        m2 = _lerp(0.6, 1.6, rng.random())
        q2 = _lerp(-3.0, 1.0, u_q)
        if yukawa_margin(q2, m1, m2) >= 0.05:
            return q2, m1, m2
        u_q = rng.random()


def _charge(rng):
    return math.copysign(_lerp(0.5, 1.5, rng.random()), rng.random() - 0.5)


def _ff_mild_block(rng):
    # A parameter sweep over both models: equal shares of gauge and
    # Yukawa points (8 each), a tenth of points past the threshold (2
    # refusals) and a tenth cross-checked by Monte Carlo (2).  These
    # shares are a stated choice, not measured from real use.
    out = []
    for lm, uq in zip(_strata(rng, 8), _strata(rng, 8)):
        out.append({"kind": "susy", "q2": _lerp(-3.0, 3.0, uq),
                    "mcs2": _log_lerp(0.1, 10.0, lm), "tol": TOL, "expect": "ok"})
    for uq in _strata(rng, 8):
        q2, m1, m2 = _mild_yukawa(rng, uq)
        out.append({"kind": "yukawa", "q2": q2, "m1": m1, "m2": m2,
                    "e1": _charge(rng), "e2": _charge(rng), "tol": TOL,
                    "expect": "ok"})
    # Out of domain by a wide margin: the gauge threshold is below 5.85
    # for mcs2 <= 1, and m1 + m2 <= 0.8 lets the scalar decay.
    out.append({"kind": "susy", "q2": _lerp(7.5, 10.0, rng.random()),
                "mcs2": _log_lerp(0.1, 1.0, rng.random()), "tol": TOL,
                "expect": "DomainError"})
    out.append({"kind": "yukawa", "q2": _lerp(-3.0, 0.0, rng.random()),
                "m1": _lerp(0.1, 0.4, rng.random()),
                "m2": _lerp(0.1, 0.4, rng.random()),
                "e1": 1.0, "e2": 1.0, "tol": TOL, "expect": "DomainError"})
    for lm, uq in zip(_strata(rng, 2), _strata(rng, 2)):
        out.append({"kind": "mc", "q2": _lerp(-3.0, 2.0, uq),
                    "mcs2": _log_lerp(0.1, 10.0, lm), "samples": MC_SAMPLES,
                    "seed": rng.randrange(2 ** 32), "expect": "ok"})
    rng.shuffle(out)
    return out


# --- phases -------------------------------------------------------------

_PER_TURN = 36


def _ring(rng, turns):
    """Closed polyline winding `turns` times; turn t has radius 1 + 0.02 t."""
    cx, cy = _lerp(-0.1, 0.1, rng.random()), _lerp(-0.1, 0.1, rng.random())
    phi0 = rng.random() * 2.0 * math.pi / _PER_TURN
    verts = []
    for t in range(turns):
        r = 1.0 + 0.02 * t
        for j in range(_PER_TURN):
            a = phi0 + 2.0 * math.pi * j / _PER_TURN
            verts.append([cx + r * math.cos(a), cy + r * math.sin(a)])
    return verts, (cx, cy)


def _near_segment(rng, verts, first, last, side):
    """A point 0.02..0.05 segment lengths to one side of a segment.

    The segment is drawn from indices first..last and the point lies at
    2-5% of its length on the left (side = +1) or right (side = -1).
    That is inside the 10% at which the line integral splits a segment
    on geometry, and a factor of three above the distance (about 1e-3
    at tol 1e-10) below which its refinement stops terminating; see
    README.md.
    """
    j = rng.randint(first, last)
    (px, py), (qx, qy) = verts[j], verts[(j + 1) % len(verts)]
    dx, dy = qx - px, qy - py
    t = _lerp(0.2, 0.8, rng.random())
    off = side * _lerp(0.02, 0.05, rng.random())
    return [px + t * dx - dy * off, py + t * dy + dx * off]


def _ring_charges(rng, n, verts, center):
    """n charges: a fifth next to a segment, the rest inside or outside.

    Near-segment charges sit inside the innermost turn or outside the
    outermost one (rings run counter-clockwise, so left is inside), away
    from the neighbouring turns and from the first and last segments of a
    turn, near which the closing segment crosses between turns.
    """
    out = []
    n_near = max(1, n // 5)
    outer = len(verts) - _PER_TURN
    for k in range(n):
        if k < n_near:
            if rng.random() < 0.5:
                x, y = _near_segment(rng, verts, 1, _PER_TURN - 3, +1)
            else:
                x, y = _near_segment(rng, verts, outer + 1, outer + _PER_TURN - 3, -1)
        else:
            r = _lerp(0.1, 0.8, rng.random()) if rng.random() < 0.5 else _lerp(1.2, 2.0, rng.random())
            a = rng.random() * 2.0 * math.pi
            x, y = center[0] + r * math.cos(a), center[1] + r * math.sin(a)
        out.append([x, y, _charge(rng) * 1.5])
    return out


def _ring_request(rng, turns, n_charges):
    verts, center = _ring(rng, turns)
    return {"kind": "ring", "vertices": verts,
            "charges": _ring_charges(rng, n_charges, verts, center),
            "g": _lerp(0.5, 3.0, rng.random()),
            "species": "spinor" if rng.random() < 0.5 else "scalar",
            "tol": PHASE_TOL, "expect": "ok"}


def _arms(rng):
    """Two open arms from (-1, 0) to (1, 0), one above and one below."""
    def arm(height, n):
        pts = [[-1.0, 0.0]]
        for i in range(1, n):
            t = math.pi * (1.0 - i / n)
            pts.append([math.cos(t), height * math.sin(t)])
        pts.append([1.0, 0.0])
        return pts
    return (arm(_lerp(0.5, 1.0, rng.random()), 12 + rng.randrange(25)),
            arm(-_lerp(0.5, 1.0, rng.random()), 12 + rng.randrange(25)))


def _fringe_request(rng, n_charges):
    arm_a, arm_b = _arms(rng)
    charges = []
    for k in range(n_charges):
        if k < max(1, n_charges // 5):
            arm = arm_a if k % 2 == 0 else arm_b
            x, y = _near_segment(rng, arm, 1, len(arm) - 3, 1 if rng.random() < 0.5 else -1)
        elif rng.random() < 0.5:  # between the arms
            x, y = _lerp(-0.5, 0.5, rng.random()), _lerp(-0.3, 0.3, rng.random())
        else:  # outside the loop
            x, y = _lerp(-2.0, 2.0, rng.random()), math.copysign(_lerp(1.2, 2.0, rng.random()), rng.random() - 0.5)
        charges.append([x, y, _charge(rng) * 1.5])
    return {"kind": "fringe", "arm_a": arm_a, "arm_b": arm_b, "charges": charges,
            "g": _lerp(0.5, 3.0, rng.random()),
            "species": "spinor" if rng.random() < 0.5 else "scalar",
            "tol": PHASE_TOL, "expect": "ok"}


def _phase_block(rng):
    # Shares (7 rings, 2 arm pairs, 1 refusal) are a stated choice, not
    # measured from real use.
    out = []
    u_turns, u_n = _strata(rng, 7), _strata(rng, 7)
    for ut, un in zip(u_turns, u_n):
        out.append(_ring_request(rng, 1 + int(3 * ut), 5 + int(46 * un)))
    for un in _strata(rng, 2):
        out.append(_fringe_request(rng, 5 + int(46 * un)))
    # A ring through one of its charges: the line integral is singular.
    bad = _ring_request(rng, 1 + rng.randrange(3), 5 + rng.randrange(16))
    bad["charges"][-1][:2] = list(bad["vertices"][rng.randrange(len(bad["vertices"]))])
    bad["expect"] = "SingularPath"
    out.append(bad)
    rng.shuffle(out)
    return out


# --- command line -------------------------------------------------------

def _fmt_list(values):
    return ",".join(repr(v) for v in values)


def _charges_json(charges):
    return json.dumps({"charges": [{"x": x, "y": y, "lambda": lam} for x, y, lam in charges]})


def _path_json(verts, closed):
    return json.dumps({"closed": closed, "vertices": verts})


def _cli_block(rng, k):
    # One invocation of each README command and of each documented
    # failure class per block: a stated choice, not measured from real use.
    tag = f"b{k}"
    out = []

    q2s = sorted(_lerp(-3.0, 3.0, rng.random()) for _ in range(1 + rng.randrange(3)))
    mcs2 = _log_lerp(0.1, 10.0, rng.random())
    out.append({"argv": ["mdm", "--q2", _fmt_list(q2s), "--mcs2", repr(mcs2)],
                "expect_exit": 0,
                "check": {"cmd": "mdm", "q2": q2s, "mcs2": mcs2, "tol": TOL}})

    q2, mcs2, seed = _lerp(-3.0, 2.0, rng.random()), _log_lerp(0.1, 10.0, rng.random()), rng.randrange(2 ** 31)
    out.append({"argv": ["mdm", "--q2", repr(q2), "--mcs2", repr(mcs2), "--method", "mc",
                         "--samples", str(MC_SAMPLES), "--seed", str(seed)],
                "expect_exit": 0,
                "check": {"cmd": "mdm-mc", "q2": [q2], "mcs2": mcs2}})

    q2s = sorted(_lerp(-3.0, 1.0, rng.random()) for _ in range(1 + rng.randrange(2)))
    while True:
        m1, m2 = _lerp(0.6, 1.6, rng.random()), _lerp(0.6, 1.6, rng.random())
        if all(yukawa_margin(q, m1, m2) >= 0.05 for q in q2s):
            break
    e1, e2 = _charge(rng), _charge(rng)
    out.append({"argv": ["yukawa", "--q2", _fmt_list(q2s), "--m1", repr(m1), "--m2", repr(m2),
                         "--e1", repr(e1), "--e2", repr(e2)],
                "expect_exit": 0,
                "check": {"cmd": "yukawa", "q2": q2s, "m1": m1, "m2": m2, "e1": e1, "e2": e2,
                          "tol": TOL}})

    ring = _ring_request(rng, 1 + rng.randrange(2), 5 + rng.randrange(16))
    files = {f"{tag}_ring_charges.json": _charges_json(ring["charges"]),
             f"{tag}_ring_path.json": _path_json(ring["vertices"], True)}
    out.append({"argv": ["phase", "--charges", f"{tag}_ring_charges.json",
                         "--path", f"{tag}_ring_path.json", "--g", repr(ring["g"]),
                         "--species", ring["species"]],
                "files": files, "expect_exit": 0,
                "check": {"cmd": "phase", "request": ring}})

    fr = _fringe_request(rng, 5 + rng.randrange(16))
    files = {f"{tag}_fr_charges.json": _charges_json(fr["charges"]),
             f"{tag}_fr_a.json": _path_json(fr["arm_a"], False),
             f"{tag}_fr_b.json": _path_json(fr["arm_b"], False)}
    out.append({"argv": ["fringe", "--charges", f"{tag}_fr_charges.json",
                         "--path-a", f"{tag}_fr_a.json", "--path-b", f"{tag}_fr_b.json",
                         "--g", repr(fr["g"]), "--species", fr["species"]],
                "files": files, "expect_exit": 0,
                "check": {"cmd": "fringe", "request": fr}})

    if rng.random() < 0.5:
        mcs2 = _log_lerp(0.5, 2.0, rng.random())
        q2s = [-_log_lerp(1e-3, 1.0, u) for u in sorted(rng.random() for _ in range(3))][::-1]
        q2s = sorted(q2s)
        argv = ["ir-scan", "--q2", _fmt_list(q2s), "--mcs2", repr(mcs2)]
        check = {"cmd": "ir-scan", "param": "q2", "points": [[q, mcs2] for q in q2s],
                 "x": [math.log(1.0 / abs(q)) for q in q2s]}
    else:
        q2 = _lerp(-1.0, 0.0, rng.random())
        ms = sorted((_log_lerp(0.1, 2.0, rng.random()) for _ in range(3)), reverse=True)
        argv = ["ir-scan", "--param", "mcs2", "--mcs2-list", _fmt_list(ms), "--q2-fixed", repr(q2)]
        check = {"cmd": "ir-scan", "param": "mcs2", "points": [[q2, m] for m in ms],
                 "x": [math.log(1.0 / m) for m in ms]}
    check["tol"] = TOL
    out.append({"argv": argv, "expect_exit": 0, "check": check})

    # Invalid invocations, one per documented failure class.
    q2 = _lerp(-3.0, -0.1, rng.random())
    bad_usage = [
        ["mdm", "--q2", repr(q2), "--mcs2", "1.0", "--tol", "-1e-8"],
        ["yukawa", "--q2", repr(q2), "--m1", "0", "--m2", "1.0"],
        ["mdm", "--mcs2", "1.0"],
    ][rng.randrange(3)]
    out.append({"argv": bad_usage, "expect_exit": 2, "check": {"cmd": "exit"}})
    out.append({"argv": ["mdm", "--q2", repr(_lerp(7.5, 10.0, rng.random())),
                         "--mcs2", repr(_log_lerp(0.1, 1.0, rng.random()))],
                "expect_exit": 3, "check": {"cmd": "exit"}})
    out.append({"argv": ["mdm", "--q2", repr(q2)], "expect_exit": 4, "check": {"cmd": "exit"}})
    files = {f"{tag}_bad_charges.json": json.dumps({"charges": [{"x": 0.0, "y": 0.0}]}),
             f"{tag}_bad_path.json": _path_json(ring["vertices"], True)}
    out.append({"argv": ["phase", "--charges", f"{tag}_bad_charges.json",
                         "--path", f"{tag}_bad_path.json", "--g", "1.0", "--species", "spinor"],
                "files": files, "expect_exit": 6, "check": {"cmd": "exit"}})

    for r in out:
        r["kind"] = "cli"
        r.setdefault("files", {})
    rng.shuffle(out)
    return out


def block(workload, seed, k):
    """Block k of a workload: one stratified draw of its request mix."""
    rng = random.Random(f"{workload}:{seed}:{k}")
    if workload == "ff_ir":
        return _ff_ir_block(rng)
    if workload == "ff_mild":
        return _ff_mild_block(rng)
    if workload == "phase_paths":
        return _phase_block(rng)
    if workload == "cli_batch":
        return _cli_block(rng, k)
    raise ValueError(f"unknown workload {workload!r}")


def requests(workload, seed, count):
    """The first `count` requests of a workload for a seed."""
    out = []
    k = 0
    while len(out) < count:
        out.extend(block(workload, seed, k))
        k += 1
    return out[:count]


def dumps(reqs):
    """Canonical byte form of a request list (used by the determinism check)."""
    return json.dumps(reqs, sort_keys=True, separators=(",", ":")).encode()
