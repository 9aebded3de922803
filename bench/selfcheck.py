"""Self-checks of the benchmark's own generator and oracles.

`quick` runs at the start of every benchmark run (well under a second);
``python3 bench/selfcheck.py`` runs it for every workload and adds
the slower exact domain check of each generated form-factor request and
the metric/unit cross-check against BENCHMARK.json.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import gen
import oracle

# Gauge requests expected in domain have q2 <= 3 and mcs2 >= 1e-6;
# those expected out of domain have q2 >= 7.5 and mcs2 <= 1.
_IN_Q2_MAX, _OUT_Q2_MIN, _OUT_MCS2_MAX = 3.0, 7.5, 1.0
_MARGIN = 0.5  # required distance in q2 from the threshold
_YUKAWA_IN, _YUKAWA_OUT = 1e-5, -0.05  # denominator minimum (floor is 1e-9)


class SelfCheckError(AssertionError):
    pass


def _require(cond, what):
    if not cond:
        raise SelfCheckError(what)


def _closed_forms():
    want = math.log(3.0) - 2.0 * (math.sqrt(2.0) - 1.0)
    got = oracle.gauge_integral(0.0, 1.0)
    _require(abs(got - want) <= 1e-13, f"gauge oracle at q2=0, mcs2=1: {got!r} != {want!r}")
    ring = {"vertices": [[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]],
            "charges": [[0.0, 0.0, 0.7]], "g": 3.0}
    for species, sign in (("spinor", 1.0), ("scalar", -1.0)):
        phase, w = oracle.ring_exact(dict(ring, species=species))
        _require(w == [1] and phase == sign * 3.0 * 0.7,
                 f"{species} phase for one CCW turn: {phase!r}, windings {w}")


def _thresholds():
    t_in = oracle.gauge_threshold(1e-6)
    t_out = oracle.gauge_threshold(_OUT_MCS2_MAX)
    # The threshold grows with mcs2, so the range ends bound every request.
    _require(t_in < oracle.gauge_threshold(1e-2) < t_out, "gauge threshold not increasing in mcs2")
    _require(t_in >= _IN_Q2_MAX + _MARGIN, f"in-domain q2 <= 3 too close to threshold {t_in}")
    _require(t_out <= _OUT_Q2_MIN - _MARGIN, f"out-of-domain q2 >= 7.5 too close to threshold {t_out}")


def _ranges(req):
    if req["kind"] in ("susy", "mc"):
        if req["expect"] == "ok":
            _require(req["q2"] <= _IN_Q2_MAX and req["mcs2"] >= 1e-6, f"gauge request {req}")
        else:
            _require(req["q2"] >= _OUT_Q2_MIN and req["mcs2"] <= _OUT_MCS2_MAX, f"gauge request {req}")
    elif req["kind"] == "yukawa":
        margin = gen.yukawa_margin(req["q2"], req["m1"], req["m2"])
        if req["expect"] == "ok":
            _require(margin >= _YUKAWA_IN, f"yukawa request {req} margin {margin}")
        else:
            _require(margin <= _YUKAWA_OUT, f"yukawa request {req} margin {margin}")


def quick(workload, seed):
    """Determinism, oracle closed forms and domain ranges for one workload."""
    count = 2 * gen.BLOCK[workload]
    first = gen.dumps(gen.requests(workload, seed, count))
    _require(first == gen.dumps(gen.requests(workload, seed, count)),
             f"{workload}: generator not deterministic for seed {seed}")
    _require(first == gen.dumps(gen.block(workload, seed, 0) + gen.block(workload, seed, 1)),
             f"{workload}: requests() and block() disagree")
    _require(first != gen.dumps(gen.requests(workload, seed + 1, count)),
             f"{workload}: seeds {seed} and {seed + 1} give the same requests")
    _closed_forms()
    _thresholds()
    for req in gen.requests(workload, seed, count):
        _ranges(req)


def full(seeds=(0, 1, 2)):
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    from run import UNITS, WORKLOADS
    for section in ("end_to_end", "per_layer"):
        for m in spec[section]:
            _require(UNITS.get(m["name"]) == m["unit"], f"metric {m['name']} unit {m['unit']}")
    for workload in WORKLOADS:
        for seed in seeds:
            quick(workload, seed)
            for req in gen.block(workload, seed, 0):
                if req["kind"] in ("susy", "mc"):
                    t = oracle.gauge_threshold(req["mcs2"])
                    ok = req["q2"] <= t - _MARGIN
                    _require(ok if req["expect"] == "ok" else req["q2"] >= t + _MARGIN,
                             f"{req} vs exact threshold {t}")
    print("selfcheck ok")


if __name__ == "__main__":
    try:
        full()
    except SelfCheckError as exc:
        print(f"selfcheck FAILED: {exc}", file=sys.stderr)
        sys.exit(1)
