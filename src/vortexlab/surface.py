"""Flat-torus geometry, grid fields, and spectral calculus.

The domain is the rectangle [0, L1) x [0, L2) with periodic identification
and the flat metric, sampled on an n1 x n2 node grid. All differential
operators are spectral: a field is transformed with the FFT, the symbol of
the operator is applied mode by mode, and the result is transformed back.
Quadrature is the periodic trapezoidal rule h1*h2*sum, which is exact for
trigonometric polynomials resolved by the grid.

The Newton solvers work on pairs of real arrays, and most of their FFTs are
spent in the inner CG solve. There a pair (a, b) is carried as one packed
spectrum P = fft2(a + i*b) (`pack_pair`; `unpack_pair` inverts it), on
which the -Lap symbol acts mode by mode, and the pair inner product is
Re vdot(A, B) = N*(<a1,b1> + <a2,b2>) by Parseval, N = n1*n2, summed
without BLAS so that it wakes no BLAS thread and its bits do not depend on
the thread count (see `_linalg._dot`). The inverse of
a constant-coefficient operator -Lap + M, M a symmetric 2x2 matrix, is
pointwise on the packed spectrum too, through the -k mode
(`elliptic_inverse_packed`): it is the CG preconditioner of both solvers.
Only the pointwise (variable-coefficient) part of an operator needs a
transform back to the grid and forward again, so one CG iteration costs
two FFT2s. The Dirichlet energies
of both arrays come from one packed spectrum (`grad_sq_packed`), because
the symbol |k|^2 is even in k.

Every 2-D transform in the package goes through one of the four seam
functions below: the complex pair `fft2`/`ifft2` and the real-data pair
`rfft2`/`irfft2`. They are numpy's own transforms, bit for bit; `fft2`,
`ifft2` and `rfft2` write both axis passes into one fresh output array
instead of one each. An operator from one real array to one real array
(`lap`, `inv_lap`, `inv_lap_projected`) uses the real pair on the half
spectrum, about half the work of a complex pair, with a view of the
symbol's first n2/2 + 1 columns, and so does `solve_pair_projected`, one
pair per array. The operators on pairs and `grad_sq` use the packed
complex spectrum above.
"""

import math
import sys
from dataclasses import dataclass, field
from functools import cached_property
from numbers import Integral, Real

import numpy as np

from .errors import ConfigurationError, NonZeroMean

# The largest |mean| of an inv_lap right-hand side, relative to its sup-norm,
# that counts as the zero mean a periodic solution needs.
SOLVABILITY_TOL = 1e-10


def fft2(x):
    """np.fft.fft2(x), with both axis passes writing into one new array.

    numpy gives each pass a fresh output of its own; sharing one saves an
    array of the grid's size per transform and gives the same bits, since
    fft2 is these two passes in this order. The input is not modified.
    """
    w = np.fft.fft(x, axis=-1)
    return np.fft.fft(w, axis=-2, out=w)


def ifft2(x):
    """np.fft.ifft2(x), with both axis passes writing into one new array.

    The passes are spelled out because np.fft.ifft2 does not hand its
    `out` argument on to them (numpy 2.4.6) and allocates one per pass.
    """
    w = np.fft.ifft(x, axis=-1)
    return np.fft.ifft(w, axis=-2, out=w)


def rfft2(x):
    """np.fft.rfft2(x) of a real array: the half spectrum, columns
    0..n2/2, with both axis passes writing into one new array.

    About half the work of fft2 on the same grid. The input is not modified.
    """
    w = np.fft.rfft(x, axis=-1)
    return np.fft.fft(w, axis=-2, out=w)


def irfft2(X, n2):
    """np.fft.irfft2(X, s=(X.shape[0], n2)): the real array of n2 columns
    whose half spectrum is X. The input is not modified."""
    return np.fft.irfft(np.fft.ifft(X, axis=-2), n2, axis=-1)


@dataclass(unsafe_hash=True)
class TorusGeometry:
    """Periodic rectangle with its grid and the Laplacian's spectral symbol.

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

    L1: float
    L2: float
    n1: int
    n2: int

    def __post_init__(self):
        L1 = self.L1 = _real(self.L1, "L1")
        L2 = self.L2 = _real(self.L2, "L2")
        if L1 <= 0.0 or L2 <= 0.0:
            raise ConfigurationError(f"side lengths must be positive, got {L1}, {L2}")
        n1 = self.n1 = _integer(self.n1, "n1")
        n2 = self.n2 = _integer(self.n2, "n2")
        if min(n1, n2) < 8 or n1 % 2 or n2 % 2:
            raise ConfigurationError(f"grid counts must be even integers >= 8, got {n1}, {n2}")
        self.area = L1 * L2
        # the area and every |k|^2 of the symbol, from scalars: finite, and positive off k = 0
        k_low, k1, k2 = 2.0 * math.pi / max(L1, L2), math.pi * n1 / L1, math.pi * n2 / L2
        if not (0.0 < self.area < math.inf and k_low * k_low > 0 and k1 * k1 + k2 * k2 < math.inf):
            raise ConfigurationError(f"the area or a |k|^2 of {self} overflows or underflows")
        self.h1 = L1 / n1
        self.h2 = L2 / n2
        self.x1 = np.arange(n1) * self.h1
        self.x2 = np.arange(n2) * self.h2
        k1 = 2.0 * np.pi * np.fft.fftfreq(n1, d=self.h1)
        k2 = 2.0 * np.pi * np.fft.fftfreq(n2, d=self.h2)
        # -|k|^2, the Laplacian's symbol: the one grid-sized array kept
        self._lap_sym = -(k1[:, None] ** 2 + k2[None, :] ** 2)

    @cached_property
    def _neg(self):
        """Flat index of the mode -k for each mode k (see _conj_mix); built
        on first use, so that geometries no Newton solve uses stay small."""
        neg1 = -np.arange(self.n1) % self.n1
        neg2 = -np.arange(self.n2) % self.n2
        return neg1[:, None] * self.n2 + neg2[None, :]

    def nodes(self):
        """Node coordinate arrays (X1, X2), each of shape (n1, n2)."""
        return np.meshgrid(self.x1, self.x2, indexing="ij")

    # ---- array-level spectral core (used by the solvers) ----

    def _apply_real(self, sym, a):
        """The real array with spectrum sym * fft2(a), for a real array a and
        a real symbol sym even in k: one real transform pair on the half
        spectrum, through a view of sym's first n2/2 + 1 columns."""
        X = rfft2(a)
        X *= sym[:, : X.shape[1]]
        return irfft2(X, self.n2)

    def _inv_lap_sym(self, width):
        """-1/|k|^2 on the first `width` columns, as a new array with the
        zero mode 0: the mean-zero inverse of Lap."""
        sym = self._lap_sym[:, :width].copy()
        sym[0, 0] = -1.0
        np.divide(1.0, sym, out=sym)
        sym[0, 0] = 0.0
        return sym

    def lap(self, a):
        """Laplacian of a sample array; the result has zero mean to rounding."""
        return self._apply_real(self._lap_sym, a)

    def lap_pair(self, a, b):
        """Laplacians of two real arrays with one complex transform pair.

        Valid because the symbol is real: packing b into the imaginary part
        keeps the two fields exactly separated.
        """
        return unpack_pair(self._lap_sym * pack_pair(a, b))

    def inv_lap(self, a):
        """Unique mean-zero solution w of Lap(w) = a.

        The right-hand side must have (numerically) zero mean for a periodic
        solution to exist: NonZeroMean is raised when |mean| exceeds
        SOLVABILITY_TOL times the sup-norm of `a`.
        """
        m = float(a.mean())
        tol = SOLVABILITY_TOL * float(np.abs(a).max())
        if abs(m) > tol:
            raise NonZeroMean(m, tol)
        return self._apply_real(self._inv_lap_sym(self.n2 // 2 + 1), a)

    def inv_lap_projected(self, a):
        """inv_lap without the mean check: d mean-zero with Lap(d) = a - mean(a),
        as the symbol is 0 on the zero mode. `sources.background` calls it,
        as its right-hand side has zero mean by construction."""
        return self._apply_real(self._inv_lap_sym(self.n2 // 2 + 1), a)

    def inv_lap_pair_projected(self, a, b):
        """inv_lap_projected of two arrays via one transform pair. The
        symbol is 0 on the zero mode, so the means need no subtracting first."""
        return unpack_pair(self._inv_lap_sym(self.n2) * pack_pair(a, b))

    def solve_pair_projected(self, a, b, M):
        """The mean-zero solution (x, y) of (Lap - M)(x, y) = (a - mean(a),
        b - mean(b)) for a constant 2x2 matrix M, not necessarily symmetric:
        mode by mode (|k|^2 I + M)(X, Y) = -(A, B), solved by Cramer's rule
        with d = -1/det, on the half spectrum, one real transform pair per
        array. det must not vanish on a nonzero mode; the zero mode is 0."""
        (m11, m12), (m21, m22) = M
        A, B = rfft2(a), rfft2(b)
        sym = self._lap_sym[:, : A.shape[1]]
        k11, k22 = m11 - sym, m22 - sym
        d = k11 * k22 - m12 * m21
        d[0, 0] = 1.0
        np.divide(-1.0, d, out=d)
        d[0, 0] = 0.0
        X = (k22 * d) * A
        X -= (m12 * d) * B
        B *= k11 * d
        B -= (m21 * d) * A
        return irfft2(X, self.n2), irfft2(B, self.n2)

    def helmholtz_pair(self, a, b, gamma):
        """Solve (-Lap + gamma) x = rhs for two arrays at once, gamma > 0;
        no solver calls it, and the benchmark times it as a transform pair."""
        return unpack_pair(pack_pair(a, b) / (gamma - self._lap_sym))

    def quad(self, a):
        """Trapezoidal integral h1*h2*sum over the grid."""
        return self.h1 * self.h2 * float(a.sum())

    @property
    def quad_floor(self):
        """The least defect of a quad of O(1) values: the sum rounds at
        O(eps*area) (Higham, 2002, ch. 4), so max(1e-12, 8*eps*area)."""
        return max(1e-12, 8.0 * np.finfo(np.float64).eps * self.area)

    def grad_sq(self, a):
        """Integral of |grad a|^2 via Parseval on the mode coefficients."""
        return self.grad_sq_packed(fft2(a))

    # ---- packed spectra P = fft2(a + i*b) of array pairs (a, b) ----

    def lap_packed(self, P, out=None):
        """Packed spectrum of the pair's Laplacians, written into `out`, a
        complex array of the grid's shape, when one is given."""
        return np.multiply(self._lap_sym, P, out=out)

    def _conj_mix(self, P, alpha, beta):
        """alpha*P + beta*conj(P(-k)), alpha and beta mode arrays.

        With C(k) = conj(P(-k)), the spectra of the pair (a, b) packed in P
        are (P + C)/2 and (P - C)/(2i); so a real symmetric 2x2 matrix G(k)
        even in k maps the pair to the packed spectrum alpha*P + beta*C with
        alpha = (g11 + g22)/2 and beta = (g11 - g22)/2 + i*g12.
        """
        C = P.take(self._neg)
        np.conjugate(C, out=C)
        C *= beta
        C += alpha * P
        return C

    def elliptic_inverse_packed(self, M):
        """The map from the packed spectrum of a pair to that of the solution
        x of (-Lap + M) x = pair, for a constant symmetric 2x2 M.

        Mode by mode this is the inverse G(k) of K(k) = |k|^2 I + M, a real
        symmetric 2x2 matrix even in k, applied by `_conj_mix`. Its two mode
        arrays are built here once; the map makes no transform. K(k) must
        be positive definite with positive diagonal; its determinant is kept
        at least COEFF_FLOOR*k11*k22, so that rounding in a nearly singular
        block cannot divide by zero.

        Built in place, in four real arrays and the complex beta.
        beta = (x - i*k12)/det, x = (k22 - k11)/2, is written as x*(1/det)
        and -k12*(1/det): numpy divides a complex number by a real one
        through the reciprocal, so these are its bits, where x/det is not.
        """
        (m11, k12), (_, m22) = M
        s = self._lap_sym
        k11 = m11 - s
        k22 = m22 - s
        det = k11 * k22
        det -= k12 * k12
        alpha = COEFF_FLOOR * k11
        alpha *= k22
        np.maximum(det, alpha, out=det)
        np.add(k11, k22, out=alpha)
        alpha *= 0.5
        alpha /= det
        k22 -= k11
        k22 *= 0.5
        np.divide(1.0, det, out=det)
        beta = np.empty(s.shape, dtype=np.complex128)
        np.multiply(k22, det, out=beta.real)
        np.multiply(-k12, det, out=beta.imag)
        return lambda P: self._conj_mix(P, alpha, beta)

    def grad_sq_packed(self, P):
        """grad_sq(a) + grad_sq(b) from the packed spectrum of (a, b).

        Exact, since the cross terms of |P|^2 cancel between k and -k when
        the symbol is even: sum |k|^2 |P|^2 = sum |k|^2 (|A|^2 + |B|^2).
        """
        power = P.real**2 + P.imag**2
        return (
            self.h1
            * self.h2
            / (self.n1 * self.n2)
            * -float((self._lap_sym * power).sum())
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


# Mean coefficients a preconditioner is built from are kept within
# [COEFF_FLOOR, 1/COEFF_FLOOR]. Only a degenerate iterate leaves that range
# (exponentials that underflow or are clamped, a saturated tanh), and there
# the bounds keep every 2x2 block of the inverse finite and invertible.
COEFF_FLOOR = 1e-12


def bounded_means(*arrays):
    """The means of the arrays, each clipped to [COEFF_FLOOR, 1/COEFF_FLOOR]."""
    return [min(max(float(a.mean()), COEFF_FLOOR), 1.0 / COEFF_FLOOR) for a in arrays]


def _same_geometry(*fields):
    """The one geometry of `fields`, which must all be ScalarFields."""
    if not all(isinstance(f, ScalarField) for f in fields):
        raise ConfigurationError("fields must be ScalarFields, not bare arrays or other values")
    geom = fields[0].geometry
    for f in fields[1:]:
        if f.geometry != geom:
            raise ConfigurationError("fields live on different geometries")
    return geom


def pack_pair(a, b):
    """Packed spectrum fft2(a + i*b) of two real arrays: one FFT2."""
    z = np.empty(np.shape(a), dtype=np.complex128)
    z.real = a
    z.imag = b
    # Not a transform of z in place (out=z), although that saves one array
    # of the grid's size: on the cli-io-256 benchmark workload that variant
    # raised the peak resident memory from about 76 MB to 86 MB in most runs.
    return fft2(z)


def unpack_pair(P):
    """The real arrays (a, b) whose packed spectrum is P: one inverse FFT2."""
    w = ifft2(P)
    return w.real, w.imag


def start_pair(geom: TorusGeometry, x0):
    """Solver start arrays: copies of x0, exactly two finite real arrays on
    the grid, or zeros when x0 is None."""
    shape = (geom.n1, geom.n2)
    if x0 is None:
        return np.zeros(shape), np.zeros(shape)
    try:
        pair = [np.asarray(x) for x in x0]
    except (TypeError, ValueError):  # not iterable, or a ragged nested list
        pair = []
    # a string gives str arrays, and a solution's ScalarFields object arrays
    if len(pair) != 2 or any(x.dtype.kind not in "biuf" for x in pair):
        raise ConfigurationError("x0 must be two real arrays, like (sol.U.values, sol.V.values)")
    a, b = (np.array(x, dtype=np.float64, copy=True) for x in pair)
    if a.shape != shape or b.shape != shape:
        raise ConfigurationError("x0 arrays do not match the grid")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ConfigurationError("x0 arrays must be finite")
    return a, b


def _real(value, where):
    # json.load accepts NaN, Infinity and integers beyond the float range
    if isinstance(value, bool) or not (
        isinstance(value, Real) and abs(value) <= sys.float_info.max
    ):
        raise ConfigurationError(f"{where} must be a finite number, got {value!r}")
    return float(value)


def _integer(value, where, minimum=None):
    """`value` as an int; it must be an integer or an integral float, and at
    least `minimum` when that is given."""
    if isinstance(value, bool) or not (
        isinstance(value, Integral) or isinstance(value, float) and value.is_integer()
    ):
        raise ConfigurationError(f"{where} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigurationError(f"{where} must be at least {minimum}, got {value!r}")
    return int(value)


def check_solver_settings(tol, max_iter):
    """Refuse settings no solve can meet: `tol` must be a finite positive
    number and `max_iter`, unless None (the method's default), an integer >= 1; no bools."""
    if isinstance(tol, bool) or not (isinstance(tol, Real) and 0.0 < tol < math.inf):
        raise ConfigurationError(f"tol must be a finite positive number, got {tol!r}")
    if max_iter is not None and (
        isinstance(max_iter, bool) or not (isinstance(max_iter, Integral) and max_iter >= 1)
    ):
        raise ConfigurationError(f"max_iter must be a positive integer, got {max_iter!r}")


def laplacian(f: ScalarField) -> ScalarField:
    """Spectral Laplacian of a field."""
    return f.geometry.field(f.geometry.lap(f.values))


def inv_laplacian(f: ScalarField) -> ScalarField:
    """Unique mean-zero field w with laplacian(w) = f.

    Raises NonZeroMean when the input violates the compact-surface
    solvability condition |mean| <= SOLVABILITY_TOL * sup-norm.
    """
    return f.geometry.field(f.geometry.inv_lap(f.values))


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
