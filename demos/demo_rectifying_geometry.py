# The closed-form whirl-rectifying family and its surface geometry:
# hyperboloid membership, the cone factorization, and the geodesic property.

import numpy as np

import whirlcurves as wc

a, b, lam = 0.65, 0.0, -1.0
spec = wc.RectifyingSpec(a=a, b=b, lam=lam)          # a*s + b > 0 branch
print("consistent branch for (a, lam):", spec.consistent_branch())

s_grid = np.linspace(0.2, 1.2, 9)
pts = wc.curve_point(spec, s_grid)

# every point sits on one sheet of z^2 - (x^2+y^2)/lam^2 = 1/a^2
res = wc.hyperboloid_residual(pts, lam, a)
print("hyperboloid residual:", np.max(np.abs(res)))

# the curve factors through the cone X(t, u) = u * w(t) over a unit-speed
# spherical curve w; cone_coords and cone_point take whole grids
s = np.array([0.3, 0.8])
t, u = wc.cone_coords(spec, s)
err = np.linalg.norm(wc.cone_point(spec, t, u) - wc.curve_point(spec, s), axis=1)
for row in zip(s, t, u, err):
    print("s={}: cone coords (t={:.4f}, u={:.4f}), factorization err {:.1e}".format(*row))

w = wc.sphere_point(spec, 0.5)
dw = wc.derivative(lambda q: wc.sphere_point(spec, q), 0.5, 1)
print("|w| =", np.linalg.norm(w), " |dw/dt| =", np.linalg.norm(dw))

# geodesic property: the curve normal is parallel to the cone normal
print("geodesic residuals:",
      [float(f"{wc.geodesic_residual(spec, s):.2e}") for s in (0.3, 0.6, 1.0)])

# the ratio criterion: tau/kappa is a nonconstant linear function of arc
# length.  On the branch matching sign(a*lam) the fitted line is exactly
# (a, b); the mirror branch carries the mirrored line.
cons = wc.RectifyingSpec(a=a, b=b, lam=lam, branch=spec.consistent_branch())
grid = np.sort((cons.branch * np.linspace(0.3, 2.0, 33) - cons.b) / cons.a)
frames = wc.frenet_at(lambda s: wc.curve_point(cons, s), grid,
                      deriv=lambda s: wc.curve_velocity(cons, s), strict_unit_speed=False)
fit = wc.chen_ratio_fit(frames)
print(f"ratio line fit: c1={fit.c1:.6f} (a={a}), c2={fit.c2:.2e} (b={b}), "
      f"rectifying={fit.is_rectifying}")

# and the curve is a whirl curve as well: fit the proportionality constant
wf = wc.fit_lambda_axis(frames)
print(f"whirl fit: lam={wf.lam:.6f}, axis={np.round(wf.axis, 6)}, rms={wf.rms:.1e}")
