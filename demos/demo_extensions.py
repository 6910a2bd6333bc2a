# Continuous extensions across the a*s + b = 0 seam, and the reference
# parameter sweep (six lambda values, curve + spherical projection each).

import numpy as np

import whirlcurves as wc
from whirlcurves.cli import main as cli

a = 0.65
spec = wc.RectifyingSpec(a=a, b=0.0, lam=-1.0)

# the closed form degenerates at s = -b/a, but the extension is continuous
# with the pointwise value (0, 0, 1/a)
print("seam value:", wc.extended_point(spec, 0.0), "= (0, 0, 1/0.65)")
for h in (1e-2, 1e-4, 1e-6, 1e-8):
    gap = np.linalg.norm(wc.extended_point(spec, h) - [0, 0, 1 / a])
    print(f"  |extension({h:g}) - seam| = {gap:.3e}")

# same story for the spherical projection at t = -d
print("sphere seam value:", wc.extended_sphere_point(spec, 0.0))

# radial factorization ties the two extensions together: u(s) * sphere(t(s))
# reproduces the curve extension on both branches; cone_coords maps a whole
# grid of s to arrays of (t, u) at once
s = np.array([-0.9, 0.7])
t, u = wc.cone_coords(spec, s)
err = np.linalg.norm(u[:, None] * wc.extended_sphere_point(spec, t)
                     - wc.extended_point(spec, s), axis=1)
for si, ei in zip(s, err):
    print(f"s={si}: factorization err {ei:.1e}")

# the reference sweep writes 12 deterministic trace files (CSV, header
# s,x,y,z for the curve and t,x,y,z for the sphere projection)
code = cli(["figure1", "--out", "figure1_out"])
print("figure1 exit code:", code, "(files in ./figure1_out)")
