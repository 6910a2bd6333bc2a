"""Shared fixtures and random-model generators for the test suite."""

import numpy as np
import pytest

import whirlcurves as wc


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def unit_speed_helix(a=1.0, b=1.0):
    """Arc-length helix with kappa = a/(a^2+b^2), tau = b/(a^2+b^2)."""
    c = np.hypot(a, b)

    def curve(s):
        s = np.asarray(s, dtype=float)
        u = s / c
        return np.stack(np.broadcast_arrays(a * np.cos(u), a * np.sin(u), b * u),
                        axis=-1)

    return curve


def random_rotation(rng):
    """Haar-ish random rotation matrix from a QR factorization."""
    m = rng.normal(size=(3, 3))
    q, r = np.linalg.qr(m)
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def random_frame(rng, kappa=None, tau=None):
    """Random orthonormal Frenet frame with optional kappa/tau overrides."""
    q = random_rotation(rng)
    t, n = q[:, 0], q[:, 1]
    kappa = float(rng.uniform(0.2, 3.0)) if kappa is None else kappa
    tau = float(rng.uniform(0.2, 3.0) * rng.choice([-1.0, 1.0])) if tau is None else tau
    return wc.Frames(s=0.0, t=t, n=n, kappa=kappa, tau=tau)


def random_whirl_model(rng, family=None):
    """Random synthesizable whirl model with a well-conditioned window.

    Keeps kappa in [0.3, min(1.5, 8/|lam|)] and the exponent swing below
    ~0.8 so difference-stencil verification resolves every tolerance in the
    acceptance criteria.  Returns (spec, s_lo, s_hi, family).
    """
    lam = float(rng.choice([-1.0, 1.0]) * np.exp(rng.uniform(np.log(0.2), np.log(20.0))))
    family = family or ("const" if rng.random() < 0.5 else "linear-ratio")
    h0 = float(rng.uniform(0.8, 1.5))
    # cap |lam|*kappa: difference-stencil truncation grows with its cube
    # (the linear-ratio family roughly doubles kappa along its window)
    k_hi = min(1.5, (5.0 if family == "const" else 2.3) / abs(lam))
    k_lo = min(0.3, 0.75 * k_hi)
    k0 = float(rng.uniform(k_lo, k_hi))
    z_sign = int(rng.choice([1, -1]))
    if family == "const":
        tau_sign = int(rng.choice([1, -1]))
        bound = wc.bound_from_ratio(h0, lam)
        swing = 0.8 * min(1.0, bound)   # |lam * int kappa| stays below this
        # cap the window so positions stay O(1); far-out positions inflate
        # third-derivative roundoff
        win = min(4.0, swing / (abs(lam) * k0))
        spec = wc.WhirlSpec(kappa=wc.kappa_constant(k0), lam=lam, bound=bound,
                            s0=0.0, z_sign=z_sign, tau_sign=tau_sign)
        return spec, 0.0, win, family
    # linear-ratio: torsion/curvature ratio is a*s + b on the consistent branch
    sgn_h = float(rng.choice([1.0, -1.0]))
    h0 = sgn_h * h0
    a = k0 * lam * h0 * (1.0 + lam * lam + h0 * h0) / (1.0 + lam * lam)
    b = h0   # anchor the ratio at s0 = 0
    h_end = h0 * float(rng.uniform(0.45, 0.75))
    s_end = (h_end - b) / a
    if abs(s_end) > 4.0:
        s_end = 4.0 * np.sign(s_end)
        h_end = a * s_end + b
    lo, hi = (0.0, s_end) if s_end > 0 else (s_end, 0.0)
    dom_pad = 0.2 * abs(s_end) + 10.0 * np.finfo(float).eps
    h_lo = a * (lo - dom_pad) + b
    h_hi = a * (hi + dom_pad) + b
    # widen only while the domain stays on one side of the ratio pole
    if np.sign(h_lo) != np.sign(h0) or np.sign(h_hi) != np.sign(h0):
        dom_pad = 0.0
    kappa = wc.kappa_linear_ratio(lam, a, b, (lo - dom_pad, hi + dom_pad))
    spec = wc.WhirlSpec(kappa=kappa, lam=lam, bound=wc.bound_from_ratio(h0, lam),
                        s0=0.0, z_sign=z_sign, tau_sign=1 if h0 > 0 else -1)
    return spec, lo, hi, family


def stencil_window(spec, lo, hi):
    """[lo, hi] widened by the reach of frenet_at's seven-point position
    stencil, 3 * EPS**(1/7), as far as kappa's domain allows: a window for a
    curve whose positions are differentiated at nodes up to lo and hi."""
    pad = 3.0 * wc.EPS ** (1.0 / 7.0)
    return max(lo - pad, spec.kappa.domain[0]), min(hi + pad, spec.kappa.domain[1])


def random_rectifying_spec(rng, consistent=True):
    """Random closed-form spec; branch chosen consistent with (a, lam)."""
    a = float(rng.uniform(0.4, 2.0) * rng.choice([-1.0, 1.0]))
    b = float(rng.uniform(-1.5, 1.5))
    lam = float(rng.uniform(0.3, 5.0) * rng.choice([-1.0, 1.0]))
    spec = wc.RectifyingSpec(a=a, b=b, lam=lam)
    branch = spec.consistent_branch() if consistent else spec.branch
    return wc.RectifyingSpec(a=a, b=b, lam=lam, branch=branch)


def branch_grid(spec, n=65, h_lo=0.3, h_hi=2.2):
    """s-grid on spec.branch with |a*s+b| spanning [h_lo, h_hi]."""
    h_vals = spec.branch * np.linspace(h_lo, h_hi, n)
    s = (h_vals - spec.b) / spec.a
    return np.sort(s)


def congruent_distances(points_a, points_b, atol):
    """Assert equal pairwise-distance matrices (rigid-motion invariant)."""
    pa = np.asarray(points_a)
    pb = np.asarray(points_b)
    da = np.linalg.norm(pa[:, None, :] - pa[None, :, :], axis=-1)
    db = np.linalg.norm(pb[:, None, :] - pb[None, :, :], axis=-1)
    return float(np.max(np.abs(da - db))) <= atol


# the tolerances each subcommand compares against: the keys of cli.TOLERANCES,
# and fit_rms and chen_rms for whirl.FIT_RMS_TOL and rectifying.CHEN_RMS_TOL
TOLERANCES_READ = {"synth": ("unit_speed", "intrinsic", "axis"),
                   "rect": ("unit_speed", "hyperboloid", "chen_rms"),
                   "extend": ("hyperboloid", "sphere"),
                   "verify": ("fit_rms", "chen_rms"),
                   "figure1": ("hyperboloid", "sphere")}
