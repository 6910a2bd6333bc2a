"""Synthesis of whirl curves from an arbitrary positive curvature function.

Given kappa(s) > 0, a nonzero constant lam, an offset ``bound`` and a base
point s0, the construction produces a unit-speed curve whose whirl axis is
(0, 0, +-1).  Everything is driven by the exponent

    E(s) = lam * int_{s0}^{s} kappa - bound,

valid while E(s) < 0.  Torsion, the spherical tangent angles and the closed
azimuth form all follow from E; positions come from quadrature of the
closed-form tangent (no Frenet-system integration, hence no frame drift).
A curve built with a window validates it, samples each panel of the window
once and reads every position off that panel's Legendre series: a sample
costs no tangent evaluation of its own.  :func:`synthesize` samples such a
curve.  A curve without a window integrates one 24-node panel per position.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .frenet import trace
from .numerics import EPS, ScalarFn, SmoothCumulative, as_scalar_fn, diff_weights
from .traceio import CurveTrace
from .whirl import LAMBDA_FLOOR, intrinsic_residual

EXPONENT_CEIL = -1e-12   # requests with exponent above this are rejected

# How far a verification stencil of a synthesized curve probes from its node:
# two steps of at most EPS**0.2 (ratio_rate; frenet_at given the tangent).
REACH = 2.0 * EPS ** 0.2

# Two congruent tangent arrangements: "combined" folds the arctan phase of
# the (polar, azimuth) angles into the cos/sin coefficients; "spherical"
# follows the angles, which is the same tangent turned a half turn about the
# vertical axis when lam < 0, so traces agree up to a rigid motion.
_FORMS = ("spherical", "combined")


@dataclass(frozen=True)
class WhirlSpec:
    """Parameters defining one synthesized whirl curve.

    ``kappa`` must be positive on its domain and is expected to accept numpy
    arrays.  ``lam``, ``bound`` and ``s0`` must be finite.  ``bound`` caps
    lam * int kappa; use :func:`bound_from_ratio` to derive it from an initial
    torsion-to-curvature ratio.  The two sign switches select among the four
    congruent branches of the construction.
    """

    kappa: ScalarFn
    lam: float
    bound: float
    s0: float = 0.0
    z_sign: int = 1
    tau_sign: int = 1

    def __post_init__(self):
        object.__setattr__(self, "kappa", as_scalar_fn(self.kappa))
        for name, value in (("lam", self.lam), ("exponent offset bound", self.bound),
                            ("s0", self.s0)):
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if abs(self.lam) < LAMBDA_FLOOR:
            raise ValueError("lam must be nonzero")
        if self.z_sign not in (1, -1) or self.tau_sign not in (1, -1):
            raise ValueError("z_sign and tau_sign must be +1 or -1")


def bound_from_ratio(h0: float, lam: float) -> float:
    """Offset that anchors the construction to ratio tau/kappa = h0 at s0.

    Equals -ln[(|h0|/sqrt(1+lam^2)) / sqrt(1 + h0^2/(1+lam^2))], always > 0.
    """
    if h0 == 0.0:
        raise ValueError("initial ratio h0 must be nonzero")
    lam2 = lam * lam
    return 0.5 * np.log(1.0 + lam2 + h0 * h0) - np.log(abs(h0))


def axis_bound(bound: float, lam: float) -> float:
    """Companion constant C with (1+lam^2) e^(-2C) = e^(-2*bound)."""
    return bound + 0.5 * np.log(1.0 + lam * lam)


class WhirlCurve:
    """Evaluator for one synthesized whirl curve.

    Callable for positions; all methods accept floats or numpy arrays.
    Positions integrate the closed-form tangent from ``origin`` (where the
    position is the zero vector) on fixed-node panels, so they are smooth
    enough for difference stencils.  The curve owns its panel tables: the
    cumulative curvature from ``spec.s0`` and the position from ``origin``
    (default ``spec.s0``), whose integrand is :meth:`tangent`.  Given a
    ``window=(lo, hi)``, ``origin`` defaults to ``lo``, positions are read
    off one Legendre series per panel of the window and are defined only
    there, and the window is checked before any sample: ValueError unless
    lo < hi and kappa's domain covers the hull of the window and ``s0``,
    then DomainError if the exponent bound fails at an end.
    """

    def __init__(self, spec: WhirlSpec, origin: float = None,
                 form: str = "spherical", window=None):
        if form not in _FORMS:
            raise ValueError(f"form must be one of {_FORMS}")
        self.spec = spec
        self.form = form
        self._kcum = SmoothCumulative(spec.kappa, anchor=spec.s0)
        if window is not None:
            lo, hi = window
            if not lo < hi:
                raise ValueError("need s_lo < s_hi")
            hull = min(lo, spec.s0), max(hi, spec.s0)
            if not spec.kappa.contains(*hull):
                raise ValueError(
                    f"kappa domain {spec.kappa.domain} does not cover [{hull[0]}, {hull[1]}]")
        if origin is None:
            origin = spec.s0 if window is None else lo
        self.origin = float(origin)
        self._pos = SmoothCumulative(self.tangent, anchor=self.origin, window=window)
        if window is not None:   # E is monotone in int(kappa): its ends bound it
            self.exponent(np.array([lo, hi]))

    # -- scalar machinery -------------------------------------------------

    def exponent(self, s):
        """lam * int_{s0}^{s} kappa - bound; must stay below zero."""
        val = self.spec.lam * self._kcum(s) - self.spec.bound
        over = np.atleast_1d(val > EXPONENT_CEIL)
        if over.any():
            raise DomainError("domain bound lam*int(kappa) < bound violated at "
                              f"s={np.atleast_1d(s)[over][0]}")
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
        return self.spec.kappa(s) * self._ratio(s)

    def cos_polar(self, s):
        """z-component of the unit tangent, z_sign * e^E / sqrt(1+lam^2)."""
        _, q, _ = self._qw(self.exponent(s))
        return self.spec.z_sign * q / np.sqrt(1.0 + self.spec.lam ** 2)

    def axis_component(self, s):
        """Inner product of the tangent with the axis, +-e^(lam*int kappa - C)."""
        lam = self.spec.lam
        c = axis_bound(self.spec.bound, lam)
        return self.spec.z_sign * np.exp(lam * self._kcum(s) - c)

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

        The combined form, psi = arctanh(w)/lam; the spherical one is it
        turned a half turn about the vertical axis when lam < 0."""
        e, q, w = self._qw(self.exponent(s))
        lam, z_sign = self.spec.lam, self.spec.z_sign
        root = np.sqrt(1.0 + lam * lam)
        psi = (np.log1p(w) - e) / lam
        turn = -1.0 if self.form == "spherical" and lam < 0 else 1.0
        x = turn * (lam * np.cos(psi) + w * np.sin(psi)) / root
        y = turn * z_sign * self.spec.tau_sign * (w * np.cos(psi) - lam * np.sin(psi)) / root
        return np.stack(np.broadcast_arrays(x, y, z_sign * q / root), axis=-1)

    def position(self, s):
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
        rate = np.maximum(1.0, np.abs(self.spec.lam * np.asarray(self.spec.kappa(s)))
                          * (1.0 + lam2 + 3.0 * ratio * ratio) / (1.0 + lam2))
        step = (s + 0.5 * REACH / rate) - s   # exactly representable
        w = diff_weights(5, 4)[0]   # offsets -2..2; the centre's weight is zero
        return ratio, sum(w[k + 2] * self._ratio(s + k * step) for k in (-2, -1, 1, 2)) / step


def synthesize(spec: WhirlSpec, s_lo: float, s_hi: float, n: int,
               form: str = "spherical") -> CurveTrace:
    """Sample the curve with window [s_lo, s_hi] on a uniform n-point grid.

    The trace starts at the origin.  Raises what the windowed
    :class:`WhirlCurve` raises, and ValueError when n < 2.
    """
    curve = WhirlCurve(spec, form=form, window=(s_lo, s_hi))
    return trace(curve.position, s_lo, s_hi, n, meta=trace_meta(curve))


def trace_meta(curve: WhirlCurve) -> dict:
    """Metadata of a trace of ``curve``: its form and its spec's constants."""
    spec = curve.spec
    return {"param": "s", "kind": "whirl_synth", "form": curve.form,
            "lam": float(spec.lam), "bound": float(spec.bound), "s0": float(spec.s0),
            "z_sign": int(spec.z_sign), "tau_sign": int(spec.tau_sign)}


# -- curvature families ----------------------------------------------------

def kappa_constant(value: float,
                   domain=(-np.inf, np.inf)) -> ScalarFn:
    """Constant curvature function."""
    value = float(value)
    if not 0 < value < np.inf:
        raise ValueError(f"curvature value must be positive and finite, got {value}")

    def ev(s):
        return np.full(np.shape(s), value) if np.ndim(s) else value

    return ScalarFn(ev, domain)


def kappa_linear_ratio(lam: float, a: float, b: float,
                       domain) -> ScalarFn:
    """Curvature whose whirl curve has torsion/curvature = a*s + b.

    kappa(s) = (1+lam^2) a / (lam (a s + b) (1 + lam^2 + (a s + b)^2)); the
    domain must keep it positive (sign(a s + b) = sign(a / lam)) and away
    from the a*s + b = 0 pole.
    """
    lam, a, b = float(lam), float(a), float(b)
    if a == 0.0 or abs(lam) < LAMBDA_FLOOR:
        raise ValueError("need a != 0 and lam != 0")
    lo, hi = float(domain[0]), float(domain[1])
    if not lo < hi:
        raise ValueError("empty domain")

    def ev(s):
        h = a * np.asarray(s, dtype=float) + b
        return (1.0 + lam * lam) * a / (lam * h * (1.0 + lam * lam + h * h))

    for edge in (lo, hi):
        if not ev(edge) > 0:
            raise ValueError(
                "kappa is not positive on the requested domain "
                "(need sign(a*s+b) = sign(a/lam) throughout)")
    if (a * lo + b) * (a * hi + b) <= 0:
        raise ValueError("domain crosses the a*s + b = 0 pole")
    return ScalarFn(ev, (lo, hi))


def kappa_polynomial(coeffs, domain) -> ScalarFn:
    """Polynomial curvature sum(coeffs[k] * s^k); checked positive by sampling."""
    coeffs = [float(c) for c in coeffs]
    if not np.all(np.isfinite(coeffs)):
        raise ValueError(f"coeffs must be finite, got {coeffs}")
    lo, hi = float(domain[0]), float(domain[1])
    if not lo < hi:
        raise ValueError("empty domain")

    def ev(s):
        s = np.asarray(s, dtype=float)
        out = np.zeros(s.shape)
        for c in reversed(coeffs):
            out = out * s + c
        return out if out.ndim else float(out)

    probe = ev(np.linspace(lo, hi, 1001))
    if np.min(probe) <= 0:
        raise ValueError("polynomial curvature is not positive on the domain")
    return ScalarFn(ev, (lo, hi))


# -- intrinsic-equation residual ---------------------------------------------

def intrinsic_residual_max(curve: WhirlCurve, s_lo: float, s_hi: float,
                           n: int = 2049) -> float:
    """Max |intrinsic residual| of ``curve`` over an n-node grid spanning
    [s_lo, s_hi].  Nodes are kept REACH clear of the window ends so the
    ratio-derivative probes never leave the validated window.
    """
    grid = np.linspace(s_lo + REACH, s_hi - REACH, n)
    kv = np.asarray(curve.spec.kappa(grid), dtype=float)
    ratio, rate = curve._ratio_and_rate(grid)
    resid = intrinsic_residual(kv, kv * ratio, rate, curve.spec.lam)
    return float(np.max(np.abs(resid)))
