"""Independent oracles for every request the benchmark sends.

Nothing here imports acmoment.  Form factors are checked against the
exact 1-D reductions of the triangle integrals (the inner x integral
done in closed form) evaluated with QUADPACK; phases against the exact
topological value built from pure-Python winding numbers and angle
sums.  All checks run after the timed loop.

Gauge model.  For fixed y the denominator D = y^2 + (1-x) m - x(y-x) q2
is quadratic in x, and the standard antiderivative of D^(-3/2)
(Gradshteyn-Ryzhik 2.264) gives

    Int_0^y y D^(-3/2) dx = 2 y^2 s / (sqrt(R0) sqrt(R1) (s^2 - q2 y^2)),
    R0 = y^2 + m,  R1 = y^2 + (1-y) m,  s = sqrt(R0) + sqrt(R1),

a rationalised form of the textbook result in which the discriminant
(zero for some admissible timelike kinematics) cancels exactly, so it
stays accurate everywhere below threshold.

Yukawa model.  With c(y) = y^2 + mb^2 - y(1 - ma^2 + mb^2),

    Int_0^y D^(-3/2) dx = 4 y / ((4c - q2 y^2) sqrt(c)).
"""

from __future__ import annotations

import json
import math
import warnings

from scipy.integrate import IntegrationWarning, quad

_EPS = 1e-13  # QUADPACK target; the cubature is checked at tol >= 1e-8
# Largest QUADPACK error estimate an oracle value may carry: a hundredth
# of the tightest tolerance (1e-8) a result is checked against.
MAX_ORACLE_ERROR = 1e-10
MC_SIGMAS = 5.0


class OracleError(Exception):
    """An oracle could not certify its own value (a benchmark fault)."""


def _quad(f, args, points=None):
    with warnings.catch_warnings():
        # Every QUADPACK warning is an error here, except the roundoff
        # one: it only means 1e-13 was not certified, and the error
        # estimate below still bounds the value.
        warnings.simplefilter("error", IntegrationWarning)
        warnings.filterwarnings("ignore", message="The occurrence of roundoff error",
                                category=IntegrationWarning)
        try:
            value, abserr = quad(f, 0.0, 1.0, args=args, epsabs=_EPS, epsrel=_EPS,
                                 limit=500, points=points)
        except IntegrationWarning as exc:
            raise OracleError(f"{f.__name__}{args}: {exc}") from exc
    if not abserr <= MAX_ORACLE_ERROR:
        raise OracleError(f"{f.__name__}{args}: QUADPACK error estimate {abserr:.3g}")
    return value


def _gauge_inner(y, q2, m):
    r0 = y * y + m
    r1 = y * y + (1.0 - y) * m
    s0 = math.sqrt(r0)
    s1 = math.sqrt(r1)
    s = s0 + s1
    return 2.0 * y * y * s / (s0 * s1 * (s * s - q2 * y * y))


def gauge_integral(q2, mcs2):
    """Gauge-model triangle integral at (q2, mcs2 > 0)."""
    knee = math.sqrt(mcs2)
    return _quad(_gauge_inner, (q2, mcs2), [knee] if knee < 1.0 else None)


def _yukawa_inner(y, q2, ma, mb):
    c = y * y + mb * mb - y * (1.0 - ma * ma + mb * mb)
    return ((ma + mb) * y - mb) * 4.0 * y / ((4.0 * c - q2 * y * y) * math.sqrt(c))


def yukawa_integral(q2, m1, m2, e1, e2):
    """Charge-weighted Yukawa integral e1 I(m1, m2) + e2 I(m2, m1)."""
    total = 0.0
    for charge, ma, mb in ((e1, m1, m2), (e2, m2, m1)):
        if charge != 0.0:
            total += charge * _quad(_yukawa_inner, (q2, ma, mb))
    return total


def gauge_min(q2, mcs2, n=400):
    """Minimum of the gauge denominator over the triangle (exact in x)."""
    best = math.inf
    for i in range(1, n + 1):
        y = i / n
        xs = [0.0, y]
        if q2 > 0.0 and 0.0 < (mcs2 + q2 * y) / (2.0 * q2) < y:
            xs.append((mcs2 + q2 * y) / (2.0 * q2))
        for x in xs:
            best = min(best, y * y + (1.0 - x) * mcs2 - x * (y - x) * q2)
    return best


def gauge_threshold(mcs2):
    """Smallest q2 at which the gauge denominator stops being positive."""
    lo, hi = 0.0, 64.0
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        if gauge_min(mid, mcs2) > 0.0:
            lo = mid
        else:
            hi = mid
    return lo


# --- phases -------------------------------------------------------------

def _angles(verts, closed, px, py):
    """Signed angles subtended at (px, py) by each segment of a polyline."""
    n = len(verts)
    out = []
    for i in range(n if closed else n - 1):
        ax, ay = verts[i][0] - px, verts[i][1] - py
        bx, by = verts[(i + 1) % n][0] - px, verts[(i + 1) % n][1] - py
        out.append(math.atan2(ax * by - ay * bx, ax * bx + ay * by))
    return out


def winding(verts, px, py):
    return round(math.fsum(_angles(verts, True, px, py)) / (2.0 * math.pi))


def _sign(species):
    return 1.0 if species == "spinor" else -1.0


def ring_exact(req):
    """(phase, windings) of a closed ring: spinor phase = +g sum lambda w."""
    w = [winding(req["vertices"], x, y) for x, y, _ in req["charges"]]
    phase = _sign(req["species"]) * req["g"] * math.fsum(
        lam * wi for (_, _, lam), wi in zip(req["charges"], w))
    return phase, w


def fringe_exact(req):
    """(delta, contrast): each arm contributes -lambda/2pi times its angle."""
    terms = []
    for x, y, lam in req["charges"]:
        ta = math.fsum(_angles(req["arm_a"], False, x, y))
        tb = math.fsum(_angles(req["arm_b"], False, x, y))
        terms.append(lam * (ta - tb))
    delta = _sign(req["species"]) * req["g"] * math.fsum(terms) / (2.0 * math.pi)
    return delta, math.cos(0.5 * delta) ** 2


def _phase_bound(req):
    # The line integral is adaptive to absolute tol on the loop value;
    # add rounding of order eps per segment-charge pair.
    pairs = len(req["charges"]) * (len(req.get("vertices", ())) + len(req.get("arm_a", ()))
                                   + len(req.get("arm_b", ())))
    scale = math.fsum(abs(c[2]) for c in req["charges"])
    return abs(req["g"]) * (req["tol"] + 64.0 * 2.2e-16 * scale * pairs)


# --- checks -------------------------------------------------------------

def _close(got, want, bound, what):
    if not abs(got - want) <= bound:
        return f"{what}: got {got!r}, oracle {want!r}, bound {bound:.3g}"
    return None


def check_library(req, out):
    """None when a library request's output is correct, else a reason."""
    if req["expect"] != "ok":
        if out.get("refused") == req["expect"]:
            return None
        return f"expected {req['expect']}, got {out}"
    if "ok" not in out:
        return f"expected a result, got {out}"
    res = out["ok"]
    kind = req["kind"]
    if kind == "susy":
        return _close(res[0], gauge_integral(req["q2"], req["mcs2"]), req["tol"], "gauge integral")
    if kind == "yukawa":
        bound = req["tol"] * (abs(req["e1"]) + abs(req["e2"]))
        want = yukawa_integral(req["q2"], req["m1"], req["m2"], req["e1"], req["e2"])
        return _close(res[0], want, bound, "yukawa integral")
    if kind == "mc":
        want = gauge_integral(req["q2"], req["mcs2"])
        return _close(res[0], want, MC_SIGMAS * res[1], "monte carlo integral")
    if kind == "ring":
        phase, w = ring_exact(req)
        if list(res[1]) != w:
            return f"windings {res[1]} != oracle {w}"
        return _close(res[0], phase, _phase_bound(req), "ring phase")
    if kind == "fringe":
        delta, contrast = fringe_exact(req)
        bound = _phase_bound(req)
        return (_close(res[0], delta, bound, "fringe delta")
                or _close(res[1], contrast, bound, "fringe contrast"))
    return f"unknown request kind {kind!r}"


def _csv_rows(text):
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
    footer = {}
    for ln in text.splitlines():
        if ln.startswith("# "):
            key, _, val = ln[2:].partition(" = ")
            footer[key] = float(val)
    return rows, footer


def _line_fit(xs, ys):
    n = len(xs)
    mx = math.fsum(xs) / n
    my = math.fsum(ys) / n
    sxx = math.fsum((x - mx) ** 2 for x in xs)
    slope = math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx
    intercept = my - slope * mx
    ss_tot = math.fsum((y - my) ** 2 for y in ys)
    ss_res = math.fsum((y - slope * x - intercept) ** 2 for x, y in zip(xs, ys))
    return slope, intercept, 1.0 - ss_res / ss_tot


def check_cli(req, out):
    """None when a CLI request's exit code and stdout are correct."""
    if out.get("exit") != req["expect_exit"]:
        return f"exit code {out.get('exit')} != expected {req['expect_exit']}: {out.get('stderr', '')[-300:]}"
    chk = req["check"]
    cmd = chk["cmd"]
    text = out.get("stdout", "")
    try:
        if cmd == "exit":
            return None
        if cmd in ("mdm", "mdm-mc"):
            rows, _ = _csv_rows(text)
            if [r[0] for r in rows] != chk["q2"]:
                return f"mdm rows {rows} do not match q2 {chk['q2']}"
            for q2, _, integral, err, _ in rows:
                want = gauge_integral(q2, chk["mcs2"])
                bound = chk["tol"] if cmd == "mdm" else MC_SIGMAS * err
                bad = _close(integral, want, bound, f"mdm q2={q2!r}")
                if bad:
                    return bad
            return None
        if cmd == "yukawa":
            rows, _ = _csv_rows(text)
            if [r[0] for r in rows] != chk["q2"]:
                return f"yukawa rows {rows} do not match q2 {chk['q2']}"
            bound = chk["tol"] * (abs(chk["e1"]) + abs(chk["e2"]))
            for row in rows:
                want = yukawa_integral(row[0], chk["m1"], chk["m2"], chk["e1"], chk["e2"])
                bad = _close(row[5], want, bound, f"yukawa q2={row[0]!r}")
                if bad:
                    return bad
            return None
        if cmd == "phase":
            data = json.loads(text)
            return check_library(chk["request"], {"ok": [data["phase"], data["windings"]]})
        if cmd == "fringe":
            data = json.loads(text)
            return check_library(chk["request"], {"ok": [data["delta_phase"], data["contrast"]]})
        if cmd == "ir-scan":
            rows, fit = _csv_rows(text)
            if len(rows) != len(chk["points"]):
                return f"ir-scan printed {len(rows)} rows for {len(chk['points'])} points"
            for (q2, mcs2), row in zip(chk["points"], rows):
                bad = _close(row[1], gauge_integral(q2, mcs2), chk["tol"], f"ir-scan {q2!r},{mcs2!r}")
                if bad:
                    return bad
            want = _line_fit(chk["x"], [r[1] for r in rows])
            for key, w in zip(("slope", "intercept", "r_squared"), want):
                bad = _close(fit[key], w, 1e-9 * max(1.0, abs(w)), f"ir-scan fit {key}")
                if bad:
                    return bad
            return None
    except (ValueError, KeyError, IndexError) as exc:
        return f"unparsable {cmd} output ({exc}): {text[:300]!r}"
    return f"unknown cli check {cmd!r}"


def check(req, out):
    if req["kind"] == "cli":
        return check_cli(req, out)
    return check_library(req, out)
