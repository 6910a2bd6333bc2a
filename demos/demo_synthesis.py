# Build a whirl curve from a prescribed curvature function and check the
# advertised properties numerically.

import numpy as np

import whirlcurves as wc

# A whirl curve is pinned down by a positive curvature function kappa(s), a
# nonzero proportionality constant lam, and an exponent offset ("bound").
# Anchoring the offset to an initial torsion/curvature ratio h0 is the most
# convenient entry point.
lam = -1.0
h0 = 1.0
spec = wc.WhirlSpec(kappa=wc.kappa_constant(1.0), lam=lam,
                    bound=wc.bound_from_ratio(h0, lam), s0=0.0)
print("offset bound B =", spec.bound, "(always > 0)")

# Sample the curve on [0, 2].  The trace starts at the origin.
tr = wc.synthesize(spec, 0.0, 2.0, 201)
print("trace:", len(tr), "samples, first", tr.points[0], "last", np.round(tr.points[-1], 4))

# The same curve as a callable, for pointwise work.  Its window is checked
# as synthesize checks it, and its positions come off the same series table.
curve = wc.WhirlCurve(spec, window=(0.0, 2.0))

# 1. arc-length parametrization
print("unit-speed residual:",
      wc.unit_speed_residual(curve.position, np.linspace(0.1, 1.9, 33)))

# 2. curvature/torsion of the realized curve against the construction
for s in (0.5, 1.0, 1.5):
    f = wc.frenet_at(curve.position, s)
    print(f"s={s}: kappa={f.kappa:.8f} (input 1), "
          f"tau={f.tau:.8f} (formula {curve.torsion(s):.8f})")

# 3. the defining property: <n, d> = lam <t, d> with a constant unit axis
report = wc.verify_whirl(curve.position, np.linspace(0.2, 1.8, 17),
                         lam=lam, deriv=curve.tangent)
print("axis:", np.round(report.d, 8), " max deviation:", report.max_deviation)

# 4. the intrinsic equation linking kappa and tau holds along the trace
print("max intrinsic residual:", wc.intrinsic_residual_max(curve, 0.0, 2.0))

# 5. inverse problem: recover lam and the axis from positions alone
fit = wc.fit_lambda_axis(wc.frenet_at(curve.position, np.linspace(0.1, 1.9, 15)))
print(f"fitted lam = {fit.lam:.6f} (true {lam}), rms = {fit.rms:.2e}")

# Export for plotting elsewhere.
wc.write_csv(tr, "whirl_demo.csv")
print("wrote whirl_demo.csv")
