"""Synthesis of whirl curves from an arbitrary positive curvature function.

Given kappa(s) > 0, a nonzero constant lam, an offset ``bound`` and a base
point s0, the construction produces a unit-speed curve whose whirl axis is
(0, 0, +-1).  Everything is driven by the exponent

    E(s) = lam * int_{s0}^{s} kappa - bound,

valid while E(s) < 0.  Torsion, the spherical tangent angles and the closed
azimuth form all follow from E; positions come from quadrature of the
closed-form tangent (no Frenet-system integration, hence no frame drift).
The integral of kappa is the family's closed form for the built-in
curvature families, and windowed quadrature for any other kappa.
A curve lives on one window, checked on every query.  Given one, it samples
each panel of the window once and reads every position off that panel's
Legendre series: a sample costs no tangent evaluation of its own.
:func:`synthesize` samples such a curve.  A curve without a window has
kappa's domain as its window and answers the closed forms only.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError
from .frenet import trace
from .numerics import EPS, STENCILS, ScalarFn, SmoothCumulative
from .rectifying import RectifyingSpec, branch_ratio
from .traceio import CurveTrace
from .whirl import check_lam, intrinsic_residual

EXPONENT_CEIL = -1e-12   # requests with exponent above this are rejected
INTRINSIC_NODES = 2049   # the grid of intrinsic_residual_max

# How far a verification stencil of a synthesized curve probes from its node:
# two steps of at most EPS**0.2 (ratio_rate; frenet_at given the tangent).
REACH = 2.0 * EPS ** 0.2


@dataclass(frozen=True)
class WhirlSpec:
    """Parameters defining one synthesized whirl curve.

    ``kappa`` must be positive on its domain and is expected to accept numpy
    arrays.  ``lam`` must pass :func:`~whirlcurves.whirl.check_lam`, and
    ``bound`` and ``s0`` must be finite.  ``bound`` caps lam * int kappa; use
    :func:`bound_from_ratio` to derive it from an initial torsion-to-curvature
    ratio.  The two sign switches select among the four congruent branches of
    the construction.
    """

    kappa: ScalarFn
    lam: float
    bound: float
    s0: float = 0.0
    z_sign: int = 1
    tau_sign: int = 1

    def __post_init__(self):
        check_lam(self.lam)
        if not isinstance(self.kappa, ScalarFn):   # a bare callable: on the whole line
            object.__setattr__(self, "kappa", ScalarFn(self.kappa))
        for name, value in (("exponent offset bound", self.bound), ("s0", self.s0)):
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.z_sign not in (1, -1) or self.tau_sign not in (1, -1):
            raise ValueError("z_sign and tau_sign must be +1 or -1")


def bound_from_ratio(h0: float, lam: float) -> float:
    """Offset that anchors the construction to ratio tau/kappa = h0 at s0.

    Equals 0.5*log1p((1+lam^2)/h0^2), > 0 until it underflows, or, where that
    ratio overflows (|h0| < ~1e-154), the equal 0.5*ln(1+lam^2+h0^2) - ln|h0|.
    """
    if h0 == 0.0:
        raise ValueError("initial ratio h0 must be nonzero")
    c = 1.0 + lam * lam
    with np.errstate(over="ignore"):
        q = (np.sqrt(c) / abs(h0)) ** 2   # c/h0^2, where h0*h0 would underflow
    return 0.5 * np.log1p(q) if np.isfinite(q) else 0.5 * np.log(c + h0 * h0) - np.log(abs(h0))


def axis_bound(bound: float, lam: float) -> float:
    """Companion constant C with (1+lam^2) e^(-2C) = e^(-2*bound)."""
    return bound + 0.5 * np.log(1.0 + lam * lam)


class WhirlCurve:
    """Evaluator for one synthesized whirl curve on one window.

    All methods accept floats or numpy arrays.  The window is ``window=(lo,
    hi)`` or, without one, kappa's domain; it is checked before any sample:
    ValueError unless lo < hi and kappa's domain covers the hull of the
    window and ``spec.s0``.  Every query is checked against it: an ``s``
    that is not finite or lies farther than ``REACH``, plus 4 ulps of the
    window's larger finite end, outside it raises DomainError, so a stencil
    reaching REACH from any point of the window, its ends included, with
    rounded steps (ratio_rate's, frenet_at's given the tangent) is answered.
    The cumulative curvature from ``spec.s0`` is ``spec.kappa.cumulative`` when
    kappa has that closed form, else a :class:`SmoothCumulative` over the
    hull of the window and ``s0``, widened by ``REACH`` and clipped to
    kappa's domain (a query past the domain reads F at its end); a kappa
    without the closed form needs a window (ValueError).  A curve without a
    window answers the closed forms only.

    With a window the curve is callable for positions, which integrate the
    closed-form tangent from ``origin`` (default ``lo``, where the position
    is the zero vector), read off one Legendre series per panel of the
    window, so they are smooth enough for difference stencils; the window's
    ends must keep the exponent bound, else DomainError.
    """

    def __init__(self, spec: WhirlSpec, origin: float = None, window=None):
        self.spec = spec
        closed = spec.kappa.cumulative
        if closed is None and window is None:
            raise ValueError("a kappa without a closed-form cumulative needs a window")
        lo, hi = map(float, spec.kappa.domain if window is None else window)
        if not lo < hi:
            raise ValueError("need s_lo < s_hi")
        hull = min(lo, spec.s0), max(hi, spec.s0)
        if not spec.kappa.contains(*hull):
            raise ValueError(
                f"kappa domain {spec.kappa.domain} does not cover [{hull[0]}, {hull[1]}]")
        if closed is None:
            reach = (max(hull[0] - REACH, spec.kappa.domain[0]),
                     min(hull[1] + REACH, spec.kappa.domain[1]))
            table = SmoothCumulative(spec.kappa, anchor=spec.s0, window=reach)
            # a stencil REACH inside the window may probe an ulp past it
            # (rounded steps), and so past a domain that ends there
            kcum = lambda s: table(np.clip(s, *reach))
        else:
            kcum = closed(spec.s0)
        self._kcum = _window_queries(kcum, lo, hi)
        if origin is None:
            origin = spec.s0 if window is None else lo
        self.origin = float(origin)
        self._pos = None
        if window is not None:
            self._pos = SmoothCumulative(self.tangent, anchor=self.origin, window=window)
            self.exponent(np.array([lo, hi]))   # E is monotone in int(kappa): its ends bound it

    # -- scalar machinery -------------------------------------------------

    def exponent(self, s):
        """lam * int_{s0}^{s} kappa - bound; must stay below zero."""
        with np.errstate(all="ignore"):   # checked below
            val = self.spec.lam * self._kcum(s) - self.spec.bound
            # 2E (in w) and the tangent's azimuth, about -E/lam, must be finite;
            # below the ceiling a NaN or the least E decides, so the mask is
            # formed only when one fails
            low = np.min(val, initial=0.0)   # 0.0: an empty query
            far = (False if np.isfinite((low + low) / self.spec.lam)
                   else ~np.isfinite((val + val) / self.spec.lam))
        for bad, why in ((val > EXPONENT_CEIL, "domain bound lam*int(kappa) < bound violated"),
                         (far, "the exponent E = lam*int(kappa) - bound, over lam, overflows")):
            bad = np.atleast_1d(bad)
            if bad.any():
                raise DomainError(f"{why} at s={np.atleast_1d(s)[bad][0]}")
        return val

    @staticmethod
    def _qw(e):
        """E, e^E and w = sqrt(1 - e^(2E)) from the exponent E."""
        return e, np.exp(e), np.sqrt(-np.expm1(2.0 * e))

    def _ratio(self, s):
        """tau/kappa = tau_sign * sqrt(1+lam^2) * e^E / w."""
        _, q, w = self._qw(self.exponent(s))
        return self.spec.tau_sign * np.sqrt(1.0 + self.spec.lam ** 2) * q / w

    def torsion(self, s):
        """Torsion of the synthesized curve (sign = tau_sign)."""
        return self._ratio(s) * self.spec.kappa(s)   # the window check speaks first

    def cos_polar(self, s):
        """<t, d>, the tangent's component along the axis d = (0, 0, 1):
        z_sign * e^E / sqrt(1+lam^2), that is z_sign * e^(lam*int kappa - C)
        with C = axis_bound(bound, lam)."""
        _, q, _ = self._qw(self.exponent(s))
        return self.spec.z_sign * q / np.sqrt(1.0 + self.spec.lam ** 2)

    def azimuth(self, s):
        """Closed azimuth form arctan(w/lam) - arctanh(w)/lam, w = sqrt(1-e^{2E}).

        arctanh(w) is evaluated as log1p(w) - E, which is exact in the
        w -> 1 limit where the naive form loses all precision.
        """
        e, _, w = self._qw(self.exponent(s))
        lam = self.spec.lam
        return np.arctan(w / lam) - (np.log1p(w) - e) / lam

    def azimuth_rate(self, s):
        """Derivative of the closed azimuth form (positive for kappa > 0)."""
        e, _, w = self._qw(self.exponent(s))
        lam2 = self.spec.lam ** 2
        return (1.0 + lam2) * self.spec.kappa(s) * w / (1.0 + lam2 - np.exp(2.0 * e))

    def spherical_tangent(self, s):
        """Tangent direction as (polar, azimuth) angles (phi, theta), arrays
        shaped like ``s``: t = (sin(phi) cos(theta), sin(phi) sin(theta),
        cos(phi)), with phi in (0, pi) since |cos_polar| < 1."""
        theta = self.spec.z_sign * self.spec.tau_sign * self.azimuth(s)
        return np.arccos(self.cos_polar(s)), theta

    # -- curve ------------------------------------------------------------

    def tangent(self, s):
        """Closed-form unit tangent; rows of shape (3,) for array input.

        The tangent of :meth:`spherical_tangent`'s angles, without forming
        them: the azimuth is arctan(w/lam) - psi with psi = arctanh(w)/lam, so
        t = (sg (lam cos psi + w sin psi), sg z_sign tau_sign (w cos psi -
        lam sin psi), z_sign e^E) / sqrt(1+lam^2), where sg = sign(lam)."""
        e, q, w = self._qw(self.exponent(s))
        lam, z_sign = self.spec.lam, self.spec.z_sign
        root = np.sqrt(1.0 + lam * lam)
        psi = (np.log1p(w) - e) / lam
        sg = 1.0 if lam > 0 else -1.0
        x = sg * (lam * np.cos(psi) + w * np.sin(psi)) / root
        y = sg * z_sign * self.spec.tau_sign * (w * np.cos(psi) - lam * np.sin(psi)) / root
        return np.stack(np.broadcast_arrays(x, y, z_sign * q / root), axis=-1)

    def position(self, s):
        if self._pos is None:
            raise ValueError("positions need a window: build the curve with window=(lo, hi)")
        return self._pos(s)

    __call__ = position

    def ratio_rate(self, s):
        """d(tau/kappa)/ds from a five-point (fourth-order) stencil whose step,
        EPS**0.2 over the ratio's growth rate |lam|*kappa*(1+lam^2+3h^2)/(1+lam^2)
        when above 1, is the curve's own length scale whatever s is: it resolves
        the derivative to ~1e-9 across the valid window, even at |lam| = 20 near
        the domain edge, and keeps every probe within REACH of s."""
        return self._ratio_and_rate(s)[1]

    def _ratio_and_rate(self, s):
        s = np.asarray(s, dtype=float)
        lam2 = self.spec.lam ** 2
        ratio = self._ratio(s)
        with np.errstate(over="ignore"):   # an infinite rate leaves no step: refused below
            rate = np.maximum(1.0, np.abs(self.spec.lam * np.asarray(self.spec.kappa(s)))
                              * (1.0 + lam2 + 3.0 * ratio * ratio) / (1.0 + lam2))
        step = (s + 0.5 * REACH / rate) - s   # exactly representable
        zero = np.atleast_1d(step == 0.0)
        if zero.any():
            at = float(np.atleast_1d(s)[zero][0])
            raise DomainError(f"tau/kappa changes too fast to difference at s={at!r}: "
                              f"its stencil step underflows to zero")
        w = STENCILS[5][0]   # offsets -2..2; the centre's weight is zero
        return ratio, sum(w[k + 2] * self._ratio(s + k * step) for k in (-2, -1, 1, 2)) / step


def _window_queries(integral, lo, hi):
    """``integral``, raising DomainError at the first query that is not
    finite or lies farther than REACH, plus 4 ulps of the window's larger
    finite end, outside [lo, hi]: a stencil's rounded steps and node can
    overshoot REACH by an ulp or two."""
    ends = [abs(e) for e in (lo, hi) if np.isfinite(e)]
    reach = REACH + 4.0 * np.spacing(max([REACH] + ends))

    def checked(s):
        s_arr = np.atleast_1d(s)
        bad = ~(np.isfinite(s_arr) & (s_arr >= lo - reach) & (s_arr <= hi + reach))
        if bad.any():
            raise DomainError(f"s={float(s_arr[bad][0])!r} is not finite or lies farther "
                              f"than {reach:.3g} outside the curve's window [{lo!r}, {hi!r}]")
        return integral(s)
    return checked


def synthesize(spec: WhirlSpec, s_lo: float, s_hi: float, n: int) -> CurveTrace:
    """Sample the curve with window [s_lo, s_hi] on a uniform n-point grid.

    The trace starts at the origin.  Raises what the windowed
    :class:`WhirlCurve` raises, and ValueError when n < 2.
    """
    curve = WhirlCurve(spec, window=(s_lo, s_hi))
    return trace(curve.position, s_lo, s_hi, n, meta=trace_meta(curve))


def trace_meta(curve: WhirlCurve) -> dict:
    """Metadata of a trace of ``curve``: its spec's constants, and the
    ``"form"`` key of older traces, always ``"spherical"``."""
    spec = curve.spec
    return {"param": "s", "kind": "whirl_synth", "form": "spherical",
            "lam": float(spec.lam), "bound": float(spec.bound), "s0": float(spec.s0),
            "z_sign": int(spec.z_sign), "tau_sign": int(spec.tau_sign)}


# -- curvature families ----------------------------------------------------

def _domain_ends(domain):
    """The ends of ``domain`` as floats, finite with lo < hi, else ValueError."""
    lo, hi = float(domain[0]), float(domain[1])
    if not np.isfinite([lo, hi]).all():
        raise ValueError(f"domain ends must be finite, got {tuple(domain)}")
    if not lo < hi:
        raise ValueError("empty domain")
    return lo, hi


def _kappa_on(ev, s, domain):
    """``ev(s)``, kappa on the points ``s`` of ``domain``; ValueError where a
    step of it overflows, so numpy neither warns nor returns what is left."""
    with np.errstate(over="raise", invalid="raise"):
        try:
            return ev(s)
        except FloatingPointError:
            raise ValueError(f"kappa overflows on the requested domain "
                             f"[{domain[0]!r}, {domain[1]!r}]") from None


def kappa_constant(value: float) -> ScalarFn:
    """Constant curvature function on the whole line; a narrower domain is
    ``dataclasses.replace(kappa_constant(value), domain=(lo, hi))``."""
    value = float(value)
    if not 0 < value < np.inf:
        raise ValueError(f"curvature value must be positive and finite, got {value}")

    def ev(s):
        return np.full(np.shape(s), value) if np.ndim(s) else value

    def cumulative(s0):
        return lambda s: value * (np.asarray(s, dtype=float) - s0)

    return ScalarFn(ev, (-np.inf, np.inf), cumulative)


def kappa_linear_ratio(lam: float, a: float, b: float,
                       domain) -> ScalarFn:
    """Curvature whose whirl curve has torsion/curvature = a*s + b.

    kappa(s) = (1+lam^2) a / (lam (a s + b) (1 + lam^2 + (a s + b)^2)).
    (a, b, lam) must make a :class:`~whirlcurves.rectifying.RectifyingSpec`,
    and the domain must keep kappa positive (sign(a s + b) = sign(a / lam))
    and away from the a*s + b = 0 pole.  kappa and its cumulative answer
    only the domain's side of the pole, the spec's branch there: at an s on
    or past it, :func:`~whirlcurves.rectifying.branch_ratio` raises
    DomainError.
    """
    lam, a, b = float(lam), float(a), float(b)
    spec = RectifyingSpec(a=a, b=b, lam=lam)
    lo, hi = _domain_ends(domain)

    # the pole first: kappa at an end on it would divide by zero
    side = np.sign(a * lo + b)
    if not side * np.sign(a * hi + b) > 0:   # a product may over- or underflow
        raise ValueError("domain crosses the a*s + b = 0 pole")
    spec = replace(spec, branch=int(side))

    def ev(s):
        h = branch_ratio(spec, s)
        return (1.0 + lam * lam) * a / (lam * h * (1.0 + lam * lam + h * h))

    for edge in (lo, hi):
        if not _kappa_on(ev, edge, (lo, hi)) > 0:
            raise ValueError(
                "kappa is not positive on the requested domain "
                "(need sign(a*s+b) = sign(a/lam) throughout)")
    c = 1.0 + lam * lam

    def cumulative(s0):
        # (ln|h/h0| - ln sqrt((c + h^2)/(c + h0^2)))/lam as one log1p of
        # c (h^2 - h0^2) / (h0^2 (c + h^2)), whose factors share one sign
        h0 = branch_ratio(spec, s0)

        def integral(s):
            branch_ratio(spec, s)
            delta = a * (np.asarray(s, dtype=float) - s0)
            h = h0 + delta
            with np.errstate(over="ignore"):
                arg = (delta / h0) * ((h0 + h) / h0) * (c / (c + h * h))
            out = np.log1p(arg) / (2.0 * lam)
            over = ~np.isfinite(arg)
            if over.any():   # a tiny h0 overflows the quotients: the logs apart
                logs = (np.log(np.abs(h)) - np.log(abs(h0))
                        - 0.5 * (np.log(c + h * h) - np.log(c + h0 * h0))) / lam
                out = np.where(over, logs, out)[()]
            return out

        return integral

    return ScalarFn(ev, (lo, hi), cumulative)


def kappa_polynomial(coeffs, domain) -> ScalarFn:
    """Polynomial curvature sum(coeffs[k] * s^k), checked positive at 1001
    evenly spaced points of the domain and at the real part of each finite
    root of kappa' (scaled by the largest |coeffs[k]|, terms below 1e-300
    dropped) clipped to it, so at every interior minimum; ValueError names
    the point where kappa is least."""
    coeffs = [float(c) for c in coeffs]
    if not coeffs:
        raise ValueError("a polynomial curvature needs at least one coefficient")
    if not np.all(np.isfinite(coeffs)):
        raise ValueError(f"coeffs must be finite, got {coeffs}")
    lo, hi = _domain_ends(domain)

    def ev(s):
        s = np.asarray(s, dtype=float)
        out = np.zeros(s.shape)
        for c in reversed(coeffs):
            out = out * s + c
        return out if out.ndim else float(out)

    npp = np.polynomial.polynomial
    with np.errstate(all="ignore"):   # an overflowing root is dropped below
        crit = npp.polyroots(npp.polytrim(npp.polyder(
            np.divide(coeffs, np.max(np.abs(coeffs)) or 1.0)), 1e-300)).real
    points = np.append(np.linspace(lo, hi, 1001), np.clip(crit[np.isfinite(crit)], lo, hi))
    probe = _kappa_on(ev, points, (lo, hi))
    if np.min(probe) <= 0:
        i = int(np.argmin(probe))
        raise ValueError(f"polynomial curvature is not positive on the requested domain "
                         f"[{lo!r}, {hi!r}]: kappa({float(points[i])!r}) = {probe[i]:.3g}")

    def cumulative(s0):
        # the antiderivative in powers of u = s - s0 (shifted once per curve),
        # so no large terms cancel near s0 and u = 0 gives 0 exactly
        poly = np.polynomial.Polynomial
        anti = poly(coeffs)(poly([s0, 1.0])).integ().coef[:0:-1].tolist()

        def integral(s):
            u, out = np.asarray(s, dtype=float) - s0, 0.0
            for e in anti:
                out = (out + e) * u
            return out

        return integral

    return ScalarFn(ev, (lo, hi), cumulative)


# -- intrinsic-equation residual ---------------------------------------------

def intrinsic_residual_max(curve: WhirlCurve, s_lo: float, s_hi: float) -> float:
    """Max |intrinsic residual| of ``curve`` over a grid of ``INTRINSIC_NODES``
    nodes spanning [s_lo, s_hi].  Nodes are kept REACH clear of the window
    ends; a ratio-derivative probe reaches REACH from its node, or an ulp
    more for a rounded step, which the curve's widened window admits.
    """
    grid = np.linspace(s_lo + REACH, s_hi - REACH, INTRINSIC_NODES)
    kv = np.asarray(curve.spec.kappa(grid), dtype=float)
    ratio, rate = curve._ratio_and_rate(grid)
    resid = intrinsic_residual(kv, kv * ratio, rate, curve.spec.lam)
    return float(np.max(np.abs(resid)))
