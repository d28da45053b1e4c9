"""Exception types shared across the package."""


class VortexLabError(Exception):
    """Base class for all package errors."""


class ConfigurationError(VortexLabError):
    """Invalid geometry, source set, or run configuration."""


class NonZeroMean(VortexLabError):
    """Poisson right-hand side has a nonzero mean; no periodic solution exists."""

    def __init__(self, mean_value, tolerance):
        self.mean_value = float(mean_value)
        self.tolerance = float(tolerance)
        super().__init__(
            f"right-hand side mean {self.mean_value:.3e} exceeds "
            f"solvability tolerance {self.tolerance:.3e}"
        )


class SigmaTooSmall(VortexLabError):
    """Mollifier width below one grid cell; spectral content unresolvable."""

    def __init__(self, sigma, h_max):
        self.sigma = float(sigma)
        self.h_max = float(h_max)
        super().__init__(
            f"mollifier width {self.sigma:.3e} under grid cell {self.h_max:.3e}"
        )


class BradlowViolation(VortexLabError):
    """Area bound for the vortex-only model fails; no solution exists.

    Carries the margin |S| - 2*pi*(N1 + 2*N2), which is <= 0 here.
    """

    def __init__(self, margin):
        self.margin = float(margin)
        super().__init__(f"Bradlow bound violated, margin {self.margin:.6g}")


class Inadmissible(VortexLabError):
    """Difference bounds for the vortex/anti-vortex model fail.

    Carries both margins 1 - |a| and 1 - |b|; a negative or zero margin
    marks the violated inequality.
    """

    def __init__(self, margin_a, margin_b):
        self.margin_a = float(margin_a)
        self.margin_b = float(margin_b)
        super().__init__(
            f"inadmissible source counts, margins "
            f"1-|a| = {self.margin_a:.6g}, 1-|b| = {self.margin_b:.6g}"
        )


class SolverError(VortexLabError):
    """Base class for solver failures; carries the iteration trace."""

    def __init__(self, message, trace=None):
        self.trace = list(trace) if trace is not None else []
        super().__init__(message)


class MaxIterExceeded(SolverError):
    """Iteration budget exhausted before reaching the requested tolerance."""


class DivergedIterate(SolverError):
    """Newton iterates diverged: the overflow guard tripped twice, an iterate
    became non-finite, or the line search found no descent in 40 halvings."""


class Stagnation(SolverError):
    """Fixed-point residual stopped decreasing; existence does not imply
    convergence of the damped iteration, so this is a reportable outcome."""


class BracketFailure(VortexLabError):
    """Constraint-shift root not bracketed; signals saturated or
    inadmissible data."""
