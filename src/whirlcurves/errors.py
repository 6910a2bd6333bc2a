"""Exception types shared across the library; each is a ValueError."""


class DomainError(ValueError):
    """A parameter or evaluation point lies outside the valid domain."""


class FrameError(ValueError):
    """A Frenet frame or frame-derived quantity is undefined or degenerate."""


class QuadratureError(ValueError):
    """A sampled function, such as an integrand, produced non-finite values."""
