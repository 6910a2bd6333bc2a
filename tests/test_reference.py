"""Unit tests of the adaptive Simpson reference in ``reference.py``."""

import numpy as np
import pytest

from reference import integrate
from whirlcurves.errors import QuadratureError


def test_integrate_constant():
    r = integrate(lambda s: np.ones_like(np.asarray(s, dtype=float)), 0.0, 2.0)
    assert abs(r.value - 2.0) <= 1e-12
    assert r.converged
    assert r.evaluations >= 1


def test_integrate_cosine_symmetry():
    r = integrate(np.cos, 0.0, np.pi)
    assert abs(r.value) <= 1e-10


def test_integrate_vs_midpoint_oracle():
    # integrand 1/(s(2+s^2)): the reciprocal-cubic shape that drives the
    # linear-ratio curvature family
    def f(s):
        return 1.0 / (s * (2.0 + s * s))

    # brute-force midpoint oracle, 1e6 panels
    mids = np.linspace(0.5, 1.5, 2_000_001)[1::2]
    oracle = float(np.sum(f(mids))) * (1.0 / 1_000_000)
    r = integrate(f, 0.5, 1.5)
    assert abs(r.value - oracle) <= 1e-8


def test_integrate_linearity(rng):
    pa = rng.normal(size=4)
    pb = rng.normal(size=4)
    alpha, beta = rng.normal(size=2)

    fa = lambda s: np.polyval(pa, s)
    fb = lambda s: np.polyval(pb, s)
    combo = lambda s: alpha * fa(s) + beta * fb(s)
    ia = integrate(fa, -1.0, 2.0)
    ib = integrate(fb, -1.0, 2.0)
    ic = integrate(combo, -1.0, 2.0)
    tol = abs(alpha) * ia.error_estimate + abs(beta) * ib.error_estimate \
        + ic.error_estimate + 1e-10
    assert abs(ic.value - alpha * ia.value - beta * ib.value) <= tol


def test_integrate_error_contract(rng):
    # |value - truth| <= max(abs_tol, error_estimate)
    cases = [
        (np.sin, 0.0, 2.0, 1.0 - np.cos(2.0)),
        (lambda s: np.exp(-s), 0.0, 3.0, 1.0 - np.exp(-3.0)),
        (lambda s: s ** 5, -1.0, 2.0, (2.0 ** 6 - 1.0) / 6.0),
    ]
    for f, lo, hi, truth in cases:
        for tol in (1e-6, 1e-10, 1e-12):
            r = integrate(f, lo, hi, abs_tol=tol)
            assert abs(r.value - truth) <= max(tol, r.error_estimate)


def test_integrate_antisymmetric_on_swap():
    fwd = integrate(np.sin, 0.2, 1.7)
    bwd = integrate(np.sin, 1.7, 0.2)
    assert fwd.value == -bwd.value


def test_integrate_rejects_bad_tol():
    with pytest.raises(ValueError):
        integrate(np.sin, 0.0, 1.0, abs_tol=0.0)


def test_integrate_nonfinite_sample():
    with pytest.raises(QuadratureError):
        integrate(lambda s: np.nan if abs(s - 0.5) < 0.3 else 1.0, 0.0, 1.0)


def test_integrate_nonconvergence_flag():
    r = integrate(np.cos, 0.0, 3.0, abs_tol=1e-18, max_depth=2)
    assert not r.converged
    assert np.isfinite(r.value)
