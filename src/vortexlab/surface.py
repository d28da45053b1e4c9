"""Flat-torus geometry, grid fields, and spectral calculus.

The domain is the rectangle [0, L1) x [0, L2) with periodic identification
and the flat metric, sampled on an n1 x n2 node grid. All differential
operators are spectral: a field is transformed with the FFT, the symbol of
the operator is applied mode by mode, and the result is transformed back.
Quadrature is the periodic trapezoidal rule h1*h2*sum, which is exact for
trigonometric polynomials resolved by the grid.
"""

import math
from dataclasses import dataclass, field
from numbers import Integral, Real

import numpy as np

from .errors import ConfigurationError, NonZeroMean


class TorusGeometry:
    """Periodic rectangle with its grid and cached spectral symbols.

    Parameters
    ----------
    L1, L2 : float
        Side lengths (dimensionless length units), both positive.
    n1, n2 : int
        Grid node counts per direction; even and at least 8 so the Nyquist
        mode is unambiguous.

    Nodes sit at (i*h1, j*h2) for 0 <= i < n1, 0 <= j < n2 with
    h1 = L1/n1, h2 = L2/n2; index (i, j) of a value array corresponds to
    that node.
    """

    def __init__(self, L1, L2, n1, n2):
        L1 = float(L1)
        L2 = float(L2)
        if not (np.isfinite(L1) and np.isfinite(L2)) or L1 <= 0.0 or L2 <= 0.0:
            raise ConfigurationError(f"side lengths must be positive, got {L1}, {L2}")
        for n in (n1, n2):
            if int(n) != n or n < 8 or n % 2 != 0:
                raise ConfigurationError(
                    f"grid counts must be even integers >= 8, got {n1}, {n2}"
                )
        self.L1 = L1
        self.L2 = L2
        self.n1 = int(n1)
        self.n2 = int(n2)
        self.h1 = L1 / self.n1
        self.h2 = L2 / self.n2
        self.area = L1 * L2
        self.x1 = np.arange(self.n1) * self.h1
        self.x2 = np.arange(self.n2) * self.h2
        k1 = 2.0 * np.pi * np.fft.fftfreq(self.n1, d=self.h1)
        k2 = 2.0 * np.pi * np.fft.fftfreq(self.n2, d=self.h2)
        self._ksq = k1[:, None] ** 2 + k2[None, :] ** 2
        # -1/|k|^2 with the zero mode removed: the spectral inverse Laplacian.
        inv = np.zeros_like(self._ksq)
        nz = self._ksq > 0.0
        inv[nz] = -1.0 / self._ksq[nz]
        self._inv_sym = inv

    def __eq__(self, other):
        if not isinstance(other, TorusGeometry):
            return NotImplemented
        return (self.L1, self.L2, self.n1, self.n2) == (
            other.L1,
            other.L2,
            other.n1,
            other.n2,
        )

    def __hash__(self):
        return hash((self.L1, self.L2, self.n1, self.n2))

    def __repr__(self):
        return (
            f"TorusGeometry(L1={self.L1}, L2={self.L2}, "
            f"n1={self.n1}, n2={self.n2})"
        )

    def nodes(self):
        """Node coordinate arrays (X1, X2), each of shape (n1, n2)."""
        return np.meshgrid(self.x1, self.x2, indexing="ij")

    # ---- array-level spectral core (used by the solvers) ----

    def lap(self, a):
        """Laplacian of a sample array; the result has zero mean to rounding."""
        return np.fft.ifft2(-self._ksq * np.fft.fft2(a)).real

    def lap_pair(self, a, b):
        """Laplacians of two real arrays with one complex transform pair.

        Valid because the symbol is real: packing b into the imaginary part
        keeps the two fields exactly separated.
        """
        w = np.fft.ifft2(-self._ksq * np.fft.fft2(a + 1j * b))
        return w.real, w.imag

    def inv_lap(self, a, mean_tol=1e-10):
        """Unique mean-zero solution w of Lap(w) = a.

        The right-hand side must have (numerically) zero mean for a periodic
        solution to exist; `mean_tol` is relative to the sup-norm of `a`.
        """
        m = float(a.mean())
        tol = mean_tol * float(np.abs(a).max())
        if abs(m) > tol:
            raise NonZeroMean(m, tol)
        return np.fft.ifft2(self._inv_sym * np.fft.fft2(a)).real

    def inv_lap_projected(self, a):
        """inv_lap after removing the mean; for right-hand sides that are
        zero-mean by construction up to rounding."""
        return np.fft.ifft2(self._inv_sym * np.fft.fft2(a - a.mean())).real

    def inv_lap_pair_projected(self, a, b):
        """Projected inverse Laplacian of two arrays via one transform pair."""
        z = (a - a.mean()) + 1j * (b - b.mean())
        w = np.fft.ifft2(self._inv_sym * np.fft.fft2(z))
        return w.real, w.imag

    def helmholtz_pair(self, a, b, gamma):
        """Solve (-Lap + gamma) x = rhs for two arrays at once, gamma > 0."""
        w = np.fft.ifft2(np.fft.fft2(a + 1j * b) / (self._ksq + gamma))
        return w.real, w.imag

    def quad(self, a):
        """Trapezoidal integral h1*h2*sum over the grid."""
        return self.h1 * self.h2 * float(a.sum())

    def grad_sq(self, a):
        """Integral of |grad a|^2 via Parseval on the mode coefficients."""
        ah = np.fft.fft2(a)
        power = ah.real**2 + ah.imag**2
        return (
            self.h1
            * self.h2
            / (self.n1 * self.n2)
            * float((self._ksq * power).sum())
        )

    # ---- field constructors ----

    def field(self, values):
        """Wrap a sample array as a ScalarField on this geometry."""
        return ScalarField(self, values)

    def zeros(self):
        return ScalarField(self, np.zeros((self.n1, self.n2)))


@dataclass(frozen=True)
class ScalarField:
    """Real-valued function sampled on the grid of a TorusGeometry.

    Values are copied on construction, checked finite, and frozen; fields are
    immutable after construction and all operations on them are pure.
    """

    geometry: TorusGeometry
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.array(self.values, dtype=np.float64, copy=True, order="C")
        if vals.shape != (self.geometry.n1, self.geometry.n2):
            raise ConfigurationError(
                f"values shape {vals.shape} does not match grid "
                f"({self.geometry.n1}, {self.geometry.n2})"
            )
        if not np.all(np.isfinite(vals)):
            raise ConfigurationError("field values must be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


def _same_geometry(*fields):
    geom = fields[0].geometry
    for f in fields[1:]:
        if f.geometry != geom:
            raise ConfigurationError("fields live on different geometries")
    return geom


def start_pair(geom: TorusGeometry, x0):
    """Solver start arrays: copies of the finite pair x0, or zeros when x0 is None."""
    shape = (geom.n1, geom.n2)
    if x0 is None:
        return np.zeros(shape), np.zeros(shape)
    a = np.array(x0[0], dtype=np.float64, copy=True)
    b = np.array(x0[1], dtype=np.float64, copy=True)
    if a.shape != shape or b.shape != shape:
        raise ConfigurationError("x0 arrays do not match the grid")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ConfigurationError("x0 arrays must be finite")
    return a, b


def check_solver_settings(tol, max_iter):
    """Refuse settings no solve can meet: `tol` must be a finite positive
    number and `max_iter`, unless None (the method's default), an integer >= 1."""
    if not (isinstance(tol, Real) and 0.0 < tol < math.inf):
        raise ConfigurationError(f"tol must be a finite positive number, got {tol!r}")
    if max_iter is not None and not (isinstance(max_iter, Integral) and max_iter >= 1):
        raise ConfigurationError(f"max_iter must be a positive integer, got {max_iter!r}")


def laplacian(f: ScalarField) -> ScalarField:
    """Spectral Laplacian of a field."""
    return f.geometry.field(f.geometry.lap(f.values))


def inv_laplacian(f: ScalarField, mean_tol=1e-10) -> ScalarField:
    """Unique mean-zero field w with laplacian(w) = f.

    Raises NonZeroMean when the input violates the compact-surface
    solvability condition |mean| <= mean_tol * sup-norm.
    """
    return f.geometry.field(f.geometry.inv_lap(f.values, mean_tol=mean_tol))


def integrate(f: ScalarField) -> float:
    """Surface integral of the field (periodic trapezoidal rule)."""
    return f.geometry.quad(f.values)


def mean(f: ScalarField) -> float:
    """Average value, integrate(f)/area."""
    return float(f.values.mean())


def grad_energy(f: ScalarField) -> float:
    """Integral of |grad f|^2, computed mode-wise; nonnegative, and zero
    exactly for constants."""
    return f.geometry.grad_sq(f.values)
