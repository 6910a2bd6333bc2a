"""Whirl curves: synthesis, verification and closed-form rectifying geometry.

A whirl curve is a unit-speed space curve with positive curvature and nonzero
torsion whose normal makes a fixed-proportionality angle pattern with some
constant axis: <n, d> = lam * <t, d>.  This package synthesizes such curves
from an arbitrary positive curvature function, verifies the defining property
and its intrinsic curvature/torsion equation on arbitrary curves, and
implements the closed-form whirl-rectifying family together with its
hyperboloid/cone/sphere geometry and continuous extensions.
"""

from .errors import DomainError, FrameError, QuadratureError
from .numerics import (EPS, ScalarFn, SmoothCumulative, as_scalar_fn, derivative,
                       diff_weights, grid_derivatives)
from .traceio import CurveTrace, read_csv, read_json, read_trace, write_csv, write_json
from .frenet import Frames, frenet_at, trace, trace_frames, unit_speed_residual
from .whirl import (AxisReport, WhirlFit, fit_lambda_axis, intrinsic_residual,
                    intrinsic_residual_grid, proportionality_residual,
                    ratio_derivative, verify_whirl, whirl_axis)
from .synthesis import (WhirlCurve, WhirlSpec, axis_bound, bound_from_ratio,
                        intrinsic_residual_max, kappa_constant, kappa_linear_ratio,
                        kappa_polynomial, synthesize, trace_meta)
from .rectifying import (ChenFit, RectifyingSpec, chen_ratio_fit, cone_coords, cone_point,
                         curve_point, curve_velocity, extended_point, extended_sphere_point,
                         geodesic_residual, hyperboloid_residual, sphere_point)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
