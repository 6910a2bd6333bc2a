# File-level round trip: synthesize a curve, export it, read it back as a
# bare point list, and recover its whirl/rectifying character from samples.

import numpy as np

import whirlcurves as wc

spec = wc.WhirlSpec(kappa=wc.kappa_constant(1.0), lam=-0.5,
                    bound=wc.bound_from_ratio(1.0, -0.5))
tr = wc.synthesize(spec, 0.0, 1.5, 301)
wc.write_json(tr, "roundtrip.json")

back = wc.read_json("roundtrip.json")
print("read", len(back), "samples; meta:", back.meta)

# frames from the discrete samples (local least-squares polynomials; the
# three outermost samples on each side carry no frame)
frames = wc.trace_frames(back)
print("frames at", len(frames), "interior nodes")

fit = wc.fit_lambda_axis(frames)
print(f"whirl fit from file: lam={fit.lam:.6f} (true -0.5), "
      f"axis={np.round(fit.axis, 6)}, verdict={fit.is_whirl}")

chen = wc.chen_ratio_fit(frames)
print(f"ratio line fit: c1={chen.c1:.4f}, c2={chen.c2:.4f}, "
      f"rectifying={chen.is_rectifying} ({chen.note or 'linear ratio'})")

# a constant-curvature whirl curve is not rectifying: the ratio decays
# exponentially rather than linearly, so the verdict above is negative.
ratio = [f.tau / f.kappa for f in frames[:: len(frames) // 6]]
print("ratio along the curve:", np.round(ratio, 4))
