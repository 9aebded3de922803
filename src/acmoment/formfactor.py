"""One-loop anomalous magnetic-moment form factors in 2+1 dimensions.

Two super-renormalisable models are covered.  Both reduce the one-loop
vertex to a dimensionless double integral over the Feynman-parameter
triangle 0 <= x <= y <= 1, reported together with a symbolic prefactor
tag (couplings in 2+1 dimensions carry dimension (mass)^(1/2), so the
prefactor is never multiplied in numerically):

* gauge model with a Chern-Simons photon mass,

      I = Int dx Int_x^1 dy  y / (y^2 + (1-x)*Mcs^2/m^2
                                       - x(y-x)*q^2/m^2)^(3/2),

  prefactor e^3/(16 pi m^2);

* two-spinor Yukawa model (masses m1, m2, scalar mass m_phi, spinor
  charges e1, e2),

      I = e1 * I(m1, m2) + e2 * I(m2, m1),
      I(ma, mb) = Int dx Int_x^1 dy [ (ma^ + mb^) y - mb^ ]
                  / (y^2 - x(y-x) q^2/m_phi^2 + mb^2
                            - y (1 - (ma^2 - mb^2)))^(3/2),

  with hatted masses in units of m_phi and prefactor
  |a|^2/(16 pi^2 m_phi^2).  Setting m1 = m_phi, m2 = e2 = 0 makes the
  first-term integrand identical to the gauge-model integrand at
  Mcs = 0, exactly, point by point.

Infrared behaviour
------------------
With Mcs = 0 the gauge-model denominator is homogeneous: substituting
x = t*y gives  D = y^2 (1 - t(1-t) q^2/m^2)  exactly, so the double
integral factorizes into

      I = [4 / (4 - q^2/m^2)] * Int_0^1 dy/y,

which diverges logarithmically for *every* admissible q^2, not only at
q^2 = 0.  Such inputs are therefore refused with `InfraredDivergent`
instead of burning the evaluation budget on a quantity that has no
finite value.  A positive Chern-Simons mass regulates the corner, and
I(q^2=0, Mcs^2) = (1/2) ln(m^2/Mcs^2) + ln 2 - 1 + O(Mcs/m) as Mcs -> 0
(from the closed form in `susy_q0_reference`), which `cs_mass_scan`
exposes.  The same corner reappears in the Yukawa model exactly at the
degenerate kinematics m2 = 0, m1 = m_phi.

Kinematic domain
----------------
The denominator must be positive on the triangle.  For the gauge model
positivity fails at the two-body threshold q^2/m^2 = (1 + sqrt(1 +
Mcs^2/m^2))^2; for the Yukawa model when the scalar can decay.  Both
are rejected with `DomainError` at construction, from the exact
minimum of the denominator over the triangle (each edge and the
interior stationary point are quadratics with closed-form minima).
Spacelike q^2 < 0 and sub-threshold timelike q^2 are both supported.

Evaluation
----------
For fixed y the denominator is quadratic in x, so the inner x integral
has a closed form (Gradshteyn-Ryzhik 2.264):

* gauge model, with R0 = y^2 + m, R1 = y^2 + (1-y) m,
  s = sqrt(R0) + sqrt(R1) and m = Mcs^2/m^2,

      Int_0^y y D^(-3/2) dx = 2 y^2 s / (sqrt(R0) sqrt(R1) (s^2 - q^2 y^2)),

  rationalised so that the discriminant cancels exactly and the form
  stays accurate where it vanishes;

* Yukawa model, with c(y) = y^2 + mb^2 - y (1 - ma^2 + mb^2),

      Int_0^y N(y) D^(-3/2) dx = 4 y N(y) / ((4c - q^2 y^2) sqrt(c)).

The remaining y integral is done by the pure-Python adaptive driver
`quadrature.integrate_unit_interval`.  The 2-D cubature
(`integrate_triangle`) and Monte Carlo over the triangle, both applied
to `susy_integrand`/`yukawa_integrand`, are independent checks of these
reductions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, InfraredDivergent, NonConvergence
# integrate_triangle is no longer used here; it stays importable under
# this name because the benchmark's tracer wraps it.
from .quadrature import DEFAULT_BUDGET, integrate_triangle, integrate_unit_interval  # noqa: F401

SUSY_PREFACTOR = "e^3 / (16*pi*m^2)"
YUKAWA_PREFACTOR = "|a|^2 / (16*pi^2*m_phi^2); charges e1, e2 folded into the integral"

# A denominator minimum at or below this value counts as a positivity
# failure (above-threshold kinematics, or too close to it to integrate).
DENOMINATOR_FLOOR = 1e-9


def _edge_min(a, b, c, end, boundary_zeros=()):
    """Minimum of a t^2 + b t + c over 0 <= t <= 1, whose value at t = 1 is end.

    Endpoints listed in boundary_zeros (0 and/or 1) are known zeros on
    the boundary of the triangle and are left out.  The vertex counts
    when the quadratic is convex and the vertex lies strictly inside.
    """
    values = [v for t, v in ((0, c), (1, end)) if t not in boundary_zeros]
    if a > 0.0 and 0.0 < -b < 2.0 * a:
        values.append(c - b * b / (4.0 * a))
    return min(values, default=math.inf)


def _gauge_min(q2, m):
    """Exact minimum of D = y^2 + (1-x) m - x(y-x) q2 over 0 <= x <= y <= 1.

    The edge x = y gives t^2 - m t + m (the edge x = 0, t^2 + m, never
    goes lower), the edge y = 1 gives q2 t^2 - (q2 + m) t + 1 + m, and
    for 0 < q2 < 4 the one stationary point is x = 2m/(q2 (4 - q2)),
    y = q2 x / 2, where D = m - m x / 2.  At m = 0 the corner x = y = 0
    is a boundary zero and is left out.
    """
    corner = (0,) if m == 0.0 else ()
    best = min(_edge_min(1.0, -m, m, 1.0, corner), _edge_min(q2, -(q2 + m), 1.0 + m, 1.0))
    if 0.0 < q2 < 4.0 and m > 0.0:
        x = 2.0 * m / (q2 * (4.0 - q2))
        if x < 0.5 * q2 * x < 1.0:
            best = min(best, m - 0.5 * m * x)
    return best


def _yukawa_min(q2, ma, mb):
    """Exact minimum of c(y) - q2 x (y - x) over the triangle, one mass ordering.

    For fixed y the minimum over x is c(y) on the edges when q2 <= 0 and
    c(y) - q2 y^2 / 4 at x = y/2 when q2 > 0: a quadratic in y that is
    mb^2 at y = 0 and ma^2 - max(q2, 0)/4 at y = 1.  Boundary zeros are
    left out: the corner y = 0 when mb = 0, and the edge y = 1 when
    ma = 0 and q2 <= 0.
    """
    q2_pos = max(q2, 0.0)
    zeros = ((0,) if mb == 0.0 else ()) + ((1,) if ma == 0.0 and q2 <= 0.0 else ())
    return _edge_min(1.0 - 0.25 * q2_pos, -(1.0 - ma * ma + mb * mb), mb * mb,
                     ma * ma - 0.25 * q2_pos, zeros)


def _require_finite(name, value):
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class SusyParams:
    """Dimensionless kinematics of the gauge-model form factor.

    q_hat2 is q^2/m^2 and mcs_hat2 is Mcs^2/m^2.  Construction rejects
    above-threshold kinematics (denominator not positive) with
    `DomainError`.
    """

    q_hat2: float
    mcs_hat2: float = 0.0

    def __post_init__(self):
        _require_finite("q_hat2", self.q_hat2)
        _require_finite("mcs_hat2", self.mcs_hat2)
        if self.mcs_hat2 < 0.0:
            raise ValueError("mcs_hat2 must be >= 0")
        mcs2 = self.mcs_hat2
        floor = _gauge_min(self.q_hat2, mcs2)
        if floor <= DENOMINATOR_FLOOR:
            threshold = (1.0 + math.sqrt(1.0 + mcs2)) ** 2
            if self.q_hat2 >= threshold:
                raise DomainError(
                    f"q_hat2 = {self.q_hat2:g} is at or above the two-body "
                    f"threshold q_hat2 = (1 + sqrt(1 + mcs_hat2))^2 = "
                    f"{threshold:.10g} for mcs_hat2 = {mcs2:g}: the denominator "
                    f"is not positive on the triangle (minimum {floor:.3g})"
                )
            raise DomainError(
                f"denominator minimum {floor:.3g} is at or below the regulator "
                f"floor {DENOMINATOR_FLOOR:g} for q_hat2 = {self.q_hat2:g}, "
                f"mcs_hat2 = {mcs2:g}: a regulator mass this small, or a q_hat2 "
                "this close to the edge of the domain, cannot be integrated reliably"
            )


@dataclass(frozen=True)
class YukawaParams:
    """Dimensionless kinematics and charges of the Yukawa-model form factor.

    Masses are in units of the scalar mass m_phi; q_hat2 is
    q^2/m_phi^2.  e1, e2 are the spinor charges and a_abs2 = |a|^2 is
    carried for reporting only (it sits in the symbolic prefactor).
    Denominator positivity is checked for both mass orderings.
    """

    q_hat2: float
    m1_hat: float
    m2_hat: float
    e1: float
    e2: float
    a_abs2: float = 1.0

    def __post_init__(self):
        for name in ("q_hat2", "m1_hat", "m2_hat", "e1", "e2", "a_abs2"):
            _require_finite(name, getattr(self, name))
        if not self.m1_hat > 0.0:
            raise ValueError("m1_hat must be > 0")
        if self.m2_hat < 0.0:
            raise ValueError("m2_hat must be >= 0")
        if self.a_abs2 < 0.0:
            raise ValueError("a_abs2 must be >= 0")
        for ma, mb, tag in (
            (self.m1_hat, self.m2_hat, "first"),
            (self.m2_hat, self.m1_hat, "swapped"),
        ):
            floor = _yukawa_min(self.q_hat2, ma, mb)
            if floor <= DENOMINATOR_FLOOR:
                kinematics = (f"q_hat2 = {self.q_hat2:g}, m1_hat = {self.m1_hat:g}, "
                              f"m2_hat = {self.m2_hat:g}")
                if floor <= 0.0:
                    raise DomainError(
                        f"denominator of the {tag} mass ordering not positive on "
                        f"the triangle (min {floor:.3g}); kinematics "
                        f"{kinematics} are outside the supported domain"
                    )
                raise DomainError(
                    f"denominator minimum {floor:.3g} of the {tag} mass ordering "
                    f"is at or below the safety floor {DENOMINATOR_FLOOR:g} "
                    f"for {kinematics}: a mass this small, or kinematics this "
                    "close to the edge of the domain, cannot be integrated reliably"
                )


@dataclass(frozen=True)
class FormFactorResult:
    """Dimensionless integral I with its error estimate and prefactor tag.

    The physical moment is prefactor * I; the prefactor stays symbolic.
    """

    integral: float
    error_estimate: float
    prefactor_note: str
    evaluations: int

    def __post_init__(self):
        if not math.isfinite(self.integral):
            raise ValueError("integral must be finite")


def susy_integrand(x, y, params: SusyParams):
    """Gauge-model integrand y / (y^2 + (1-x) Mcs^2 - x(y-x) q^2)^(3/2).

    Accepts scalars or numpy arrays; requires 0 <= x <= y <= 1.  Raises
    `DomainError` if the denominator is not positive at any point.
    """
    import numpy as np

    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    den = y * y + (1.0 - x) * params.mcs_hat2 - x * (y - x) * params.q_hat2
    if np.any(den <= 0.0):
        raise DomainError("denominator <= 0 at an evaluation point")
    # den * sqrt(den), not den ** 1.5: both operations are correctly
    # rounded, so every numpy build gives the same bits.
    out = y / (den * np.sqrt(den))
    return float(out) if out.ndim == 0 else out


def yukawa_integrand(x, y, params: YukawaParams, term: str = "first"):
    """Yukawa-model integrand for one mass ordering (charges not applied).

    term = "first" uses (ma, mb) = (m1_hat, m2_hat); term = "swapped"
    exchanges the two masses.  The charge weights e1/e2 are applied by
    `yukawa_form_factor`, not here.
    """
    if term == "first":
        ma, mb = params.m1_hat, params.m2_hat
    elif term == "swapped":
        ma, mb = params.m2_hat, params.m1_hat
    else:
        raise ValueError(f"term must be 'first' or 'swapped', got {term!r}")
    import numpy as np

    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    num = (ma + mb) * y - mb
    den = y * y - x * (y - x) * params.q_hat2 + mb * mb - y * (1.0 - (ma * ma - mb * mb))
    if np.any(den <= 0.0):
        raise DomainError("denominator <= 0 at an evaluation point")
    out = num / (den * np.sqrt(den))
    return float(out) if out.ndim == 0 else out


def _gauge_inner(params: SusyParams):
    """Closed-form x integral of `susy_integrand`, as (value, scale) in y.

    See the module docstring for the formula.  The one subtraction,
    s^2 - q2 y^2, cancels near threshold; the scale multiplies the value
    by its cancellation factor (s^2 + |q2| y^2) / (s^2 - q2 y^2).
    """
    q2 = params.q_hat2
    q2_abs = abs(q2)
    m = params.mcs_hat2

    def inner(y):
        y2 = y * y
        s0 = math.sqrt(y2 + m)
        s1 = math.sqrt(y2 + (1.0 - y) * m)
        s = s0 + s1
        s2 = s * s
        den = s2 - q2 * y2
        value = 2.0 * y2 * s / (s0 * s1 * den)
        return value, value * (s2 + q2_abs * y2) / den

    return inner


def _yukawa_inner(q2, ma, mb):
    """Closed-form x integral of one Yukawa term, as (value, scale) in y.

    value = 4 y N / ((4c - q2 y^2) sqrt(c)) with N = (ma + mb) y - mb and
    c(y) = y^2 - (1 - ma^2 + mb^2) y + mb^2.  c is expanded about the
    nearer end of [0, 1], c(1 - z) = z^2 - (1 + ma^2 - mb^2) z + ma^2 for
    y > 1/2, so that it does not cancel where it vanishes at an end.  The
    scale adds the cancellation factors of c, 4c - q2 y^2 and N, taken
    from the same sums with every term made positive.
    """
    ma2 = ma * ma
    mb2 = mb * mb
    lin0 = 1.0 - ma2 + mb2
    lin1 = 1.0 + ma2 - mb2
    lin_abs = 1.0 + ma2 + mb2
    msum = ma + mb
    q2_abs = abs(q2)

    def inner(y):
        y2 = y * y
        if y <= 0.5:
            c = y2 + mb2 - y * lin0
            c_abs = y2 + mb2 + y * lin_abs
        else:
            z = 1.0 - y
            c = z * z + ma2 - z * lin1
            c_abs = z * z + ma2 + z * lin_abs
        den = 4.0 * c - q2 * y2
        weight = 4.0 * y / (den * math.sqrt(c))
        num = msum * y - mb
        cancel = c_abs / c + (4.0 * c_abs + q2_abs * y2) / den
        return num * weight, weight * (msum * y + mb + abs(num) * cancel)

    return inner


def _graded(t, stop):
    """t, 4t, 16t, ... below stop: a starting mesh graded away from a
    feature at distance t, so that no starting interval is longer than
    three times its distance to the feature."""
    points = []
    while 0.0 < t < stop:
        points.append(t)
        t *= 4.0
    return points


def _zero_points(b, c):
    """Points of (0, 1/2] that resolve the zeros of t^2 + b t + c near t = 0.

    For each zero (real or complex) take the point p of [0, 1] nearest
    to it and its distance d from the interval: p - d, p and p + d.  The
    stable quadratic formula puts a zero at c = 0 exactly on t = 0.
    """
    disc = b * b - 4.0 * c
    if disc < 0.0:
        zeros = [(-0.5 * b, 0.5 * math.sqrt(-disc))]
    else:
        root = -0.5 * (b + math.copysign(math.sqrt(disc), b))
        zeros = [(root, 0.0), (c / root, 0.0)] if root != 0.0 else [(0.0, 0.0)]
    points = []
    for re, im in zeros:
        p = min(max(re, 0.0), 1.0)
        d = math.sqrt((re - p) * (re - p) + im * im)
        points += [t for t in (p - d, p, p + d) if 0.0 < t <= 0.5]
    return points


def _yukawa_breakpoints(ma, mb):
    """Graded breakpoints for the zeros of c(y), the branch points of sqrt(c).

    Zeros near y = 0 come from c(y) = y^2 - (1 - ma^2 + mb^2) y + mb^2,
    zeros near y = 1 from c(1 - z) = z^2 - (1 + ma^2 - mb^2) z + ma^2.
    """
    near0 = _zero_points(-(1.0 - ma * ma + mb * mb), mb * mb)
    near1 = _zero_points(-(1.0 + ma * ma - mb * mb), ma * ma)
    return ([t for p in near0 for t in _graded(p, 0.5)]
            + [1.0 - z for p in near1 for z in _graded(p, 0.5)])


def susy_form_factor(
    params: SusyParams,
    tol: float,
    *,
    budget: int = DEFAULT_BUDGET,
    initial_depth: int = 2,
) -> FormFactorResult:
    """Dimensionless gauge-model integral to absolute tolerance tol.

    mcs_hat2 = 0 is refused with `InfraredDivergent` for every q_hat2:
    the integral factorizes near the x = y = 0 corner into
    4/(4 - q_hat2) * Int dy/y and has no finite value (see module
    docstring), so any number produced under a budget would be a
    truncation artifact.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    if params.mcs_hat2 == 0.0:
        coeff = 4.0 / (4.0 - params.q_hat2)
        raise InfraredDivergent(
            f"integral is infrared divergent for mcs_hat2 = 0: the x = y = 0 "
            f"corner contributes {coeff:.6g} * ln(1/corner-cutoff) at "
            f"q_hat2 = {params.q_hat2:g}; set mcs_hat2 > 0 to regulate"
        )
    res = integrate_unit_interval(
        _gauge_inner(params),
        tol,
        budget=budget,
        initial_depth=initial_depth,
        breakpoints=_graded(math.sqrt(params.mcs_hat2), 1.0),
    )
    return FormFactorResult(
        integral=res.value,
        error_estimate=res.error_estimate,
        prefactor_note=SUSY_PREFACTOR,
        evaluations=res.evaluations,
    )


def yukawa_form_factor(
    params: YukawaParams,
    tol: float,
    *,
    budget: int = DEFAULT_BUDGET,
    initial_depth: int = 2,
) -> FormFactorResult:
    """Charge-weighted sum e1 * I_first + e2 * I_swapped.

    Terms with zero charge are skipped without evaluation.  Each active
    term is integrated to absolute tolerance tol; the reported error is
    the |charge|-weighted sum of term errors.  The degenerate massless
    kinematics m2_hat = 0, m1_hat = 1 make the first-term corner
    non-integrable (identical to the gauge model at mcs_hat2 = 0) and
    are refused with `InfraredDivergent` when e1 != 0.  If a term does
    not converge, the other term is still integrated and the raised
    `NonConvergence` carries the charge-weighted partial sum, its
    |charge|-weighted error and the evaluations of both terms (value and
    error are None when a term stopped before any estimate).
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    total = 0.0
    error = 0.0
    evaluations = 0
    failure = None
    degenerate = params.m2_hat == 0.0 and params.m1_hat == 1.0
    m1, m2 = params.m1_hat, params.m2_hat
    for term, charge, ma, mb in (
        ("first", params.e1, m1, m2),
        ("swapped", params.e2, m2, m1),
    ):
        if charge == 0.0:
            continue
        if term == "first" and degenerate:
            raise InfraredDivergent(
                "first-term integral is infrared divergent at m2_hat = 0, "
                "m1_hat = 1: its corner behaviour coincides with the "
                "unregulated gauge-model integral; give m2 a mass or move "
                "m1_hat off the scalar mass"
            )
        if term == "swapped" and degenerate:
            # denominator (1-y)^2 - x(y-x) q_hat2 against numerator y - 1:
            # the y = 1 edge makes this term non-integrable as well.
            raise InfraredDivergent(
                "swapped-term integral diverges along the y = 1 edge at "
                "m2_hat = 0, m1_hat = 1; give m2 a mass or move m1_hat off "
                "the scalar mass"
            )
        try:
            res = integrate_unit_interval(
                _yukawa_inner(params.q_hat2, ma, mb),
                tol,
                budget=budget,
                initial_depth=initial_depth,
                breakpoints=_yukawa_breakpoints(ma, mb),
            )
        except NonConvergence as exc:
            failure = failure or exc
            res = exc  # carries the same three fields as a result
        evaluations += res.evaluations
        if total is None or res.value is None:
            total = error = None
        else:
            total += charge * res.value
            error += abs(charge) * res.error_estimate
    if failure is not None:
        estimate = "no estimate" if total is None else f"estimate {total:.6g} +- {error:.2g}"
        raise NonConvergence(
            f"{failure} (charge-weighted sum: {estimate} after {evaluations} evaluations)",
            value=total,
            error_estimate=error,
            evaluations=evaluations,
        ) from failure
    return FormFactorResult(
        integral=total,
        error_estimate=error,
        prefactor_note=YUKAWA_PREFACTOR,
        evaluations=evaluations,
    )


def susy_q0_reference(mcs_hat2: float) -> float:
    """Closed form of the gauge-model integral at q_hat2 = 0.

    Both Feynman-parameter integrals are elementary at q_hat2 = 0:

        I(0, m) = ln(1 + 2/sqrt(m)) - 2 / (1 + sqrt(1 + m)),   m = mcs_hat2,

    so that I = ln 3 - 2 (sqrt 2 - 1) at m = 1, I ~ (1/2) ln(1/m) +
    ln 2 - 1 as m -> 0 and I ~ (5/3) m^(-3/2) as m -> infinity.  For
    m > 16 the two terms cancel; there, with t = 2/sqrt(m) <= 1/2,

        I = [ln(1 + t) - t + t^2/2] - t^3 / (4 (1 + sqrt(1 + t^2/4))),

    with the bracket summed as its alternating series sum_{k>=3}
    -(-t)^k / k up to k = 59 (the first term left out is below 1e-18 of
    the sum).  It is independent of the y quadrature in
    `susy_form_factor`, which it checks.
    """
    if not mcs_hat2 > 0.0:
        raise ValueError("mcs_hat2 must be > 0 (the massless case diverges)")
    if mcs_hat2 <= 16.0:
        return math.log1p(2.0 / math.sqrt(mcs_hat2)) - 2.0 / (1.0 + math.sqrt(1.0 + mcs_hat2))
    t = 2.0 / math.sqrt(mcs_hat2)
    log_tail = -math.fsum((-t) ** k / k for k in range(3, 60))
    return log_tail - t ** 3 / (4.0 * (1.0 + math.sqrt(1.0 + 0.25 * t * t)))


def reduction_integrand_deviation(
    q_hat2: float = -1.0,
    n_points: int = 10_000,
    seed: int = 0,
) -> float:
    """Max |yukawa_integrand - susy_integrand| at the reduction kinematics.

    With m1_hat = 1, m2_hat = 0 the first Yukawa term is algebraically
    identical to the gauge-model integrand at mcs_hat2 = 0; the maximum
    is taken over n_points random points of the open triangle.
    """
    if not q_hat2 < 0.0:
        raise ValueError("q_hat2 must be negative (spacelike)")
    import numpy as np

    rng = np.random.default_rng(seed)
    a = rng.random(n_points)
    b = rng.random(n_points)
    x = np.minimum(a, b)
    y = np.maximum(a, b)
    sp = SusyParams(q_hat2=q_hat2, mcs_hat2=0.0)
    yp = YukawaParams(q_hat2=q_hat2, m1_hat=1.0, m2_hat=0.0, e1=1.0, e2=0.0)
    dev = np.abs(
        yukawa_integrand(x, y, yp, "first") - susy_integrand(x, y, sp)
    )
    return float(dev.max())


def reduction_check(q_hat2_grid, tol: float) -> float:
    """Max |I_yukawa - I_susy| over a grid of spacelike q_hat2 values.

    The Yukawa side is evaluated at the reduction kinematics
    (m1_hat = 1, m2_hat = 0, e1 = 1, e2 = 0) and compared with the
    gauge model at mcs_hat2 = 0.  Note both sides are infrared
    divergent at exactly these kinematics, so this raises
    `InfraredDivergent`; the identity that *is* finite-checkable is the
    pointwise one, see `reduction_integrand_deviation`.
    """
    grid = [float(q) for q in q_hat2_grid]
    if not grid:
        raise ValueError("q_hat2 grid must be non-empty")
    if any(not (math.isfinite(q) and q < 0.0) for q in grid):
        raise ValueError("every q_hat2 in the grid must be finite and negative")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    worst = 0.0
    for q2 in grid:
        yk = yukawa_form_factor(
            YukawaParams(q_hat2=q2, m1_hat=1.0, m2_hat=0.0, e1=1.0, e2=0.0), tol
        )
        su = susy_form_factor(SusyParams(q_hat2=q2, mcs_hat2=0.0), tol)
        worst = max(worst, abs(yk.integral - su.integral))
    return worst


@dataclass(frozen=True)
class ScanRow:
    parameter: float
    integral: float
    error_estimate: float
    evaluations: int


@dataclass(frozen=True)
class ScanResult:
    """Parameter sweep plus a least-squares line of I against ln(1/p).

    slope/intercept/r_squared are NaN when fewer than two points were
    scanned or when the integrals do not vary (degenerate fit).
    """

    parameter_name: str
    rows: tuple
    slope: float
    intercept: float
    r_squared: float


def _line_fit(xs, ys):
    """Least-squares line through (xs, ys) and its R^2, from fsum sums."""
    n = len(xs)
    if n < 2:
        return math.nan, math.nan, math.nan
    mx = math.fsum(xs) / n
    my = math.fsum(ys) / n
    sxx = math.fsum((x - mx) ** 2 for x in xs)
    if sxx == 0.0:
        return math.nan, math.nan, math.nan
    slope = math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx
    intercept = my - slope * mx
    ss_tot = math.fsum((y - my) ** 2 for y in ys)
    if ss_tot == 0.0:
        return slope, intercept, math.nan
    ss_res = math.fsum((y - slope * x - intercept) ** 2 for x, y in zip(xs, ys))
    return slope, intercept, 1.0 - ss_res / ss_tot


def ir_scan(
    q_hat2_list,
    mcs_hat2: float,
    tol: float,
    *,
    budget: int = DEFAULT_BUDGET,
) -> ScanResult:
    """Sweep I over spacelike q_hat2 and fit I against ln(1/|q_hat2|).

    Requires a strictly ascending list of negative q_hat2 (towards the
    infrared).  Form-factor errors propagate; in particular
    mcs_hat2 = 0 raises `InfraredDivergent` on the first point because
    the unregulated integral has no finite value at any q_hat2.
    """
    qs = [float(q) for q in q_hat2_list]
    if not qs:
        raise ValueError("q_hat2 list must be non-empty")
    if any(not (math.isfinite(q) and q < 0.0) for q in qs):
        raise ValueError("every q_hat2 must be finite and negative")
    if any(b <= a for a, b in zip(qs, qs[1:])):
        raise ValueError("q_hat2 list must be strictly ascending")
    rows = []
    for q2 in qs:
        res = susy_form_factor(
            SusyParams(q_hat2=q2, mcs_hat2=mcs_hat2), tol, budget=budget
        )
        rows.append(ScanRow(q2, res.integral, res.error_estimate, res.evaluations))
    xs = [math.log(1.0 / abs(r.parameter)) for r in rows]
    slope, intercept, r2 = _line_fit(xs, [r.integral for r in rows])
    return ScanResult("q_hat2", tuple(rows), slope, intercept, r2)


def cs_mass_scan(
    mcs_hat2_list,
    q_hat2: float,
    tol: float,
    *,
    budget: int = DEFAULT_BUDGET,
) -> ScanResult:
    """Sweep I over the Chern-Simons mass and fit I against ln(1/mcs_hat2).

    This is the regulator scan that exposes the logarithmic infrared
    divergence directly: at q_hat2 = 0 the integral behaves as
    (1/2) ln(1/mcs_hat2) + const as mcs_hat2 -> 0, so the fitted slope
    tends to 1/2.  Requires a strictly descending positive list.
    """
    ms = [float(m) for m in mcs_hat2_list]
    if not ms:
        raise ValueError("mcs_hat2 list must be non-empty")
    if any(not (math.isfinite(m) and m > 0.0) for m in ms):
        raise ValueError("every mcs_hat2 must be finite and positive")
    if any(b >= a for a, b in zip(ms, ms[1:])):
        raise ValueError("mcs_hat2 list must be strictly descending")
    rows = []
    for m2 in ms:
        res = susy_form_factor(
            SusyParams(q_hat2=q_hat2, mcs_hat2=m2), tol, budget=budget
        )
        rows.append(ScanRow(m2, res.integral, res.error_estimate, res.evaluations))
    xs = [math.log(1.0 / r.parameter) for r in rows]
    slope, intercept, r2 = _line_fit(xs, [r.integral for r in rows])
    return ScanResult("mcs_hat2", tuple(rows), slope, intercept, r2)
