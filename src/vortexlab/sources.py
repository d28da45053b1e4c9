"""Prescribed vortex/anti-vortex configurations and singular backgrounds.

Point sources enter the field equations as Dirac measures. On the grid they
are realized as normalized periodic Gaussians of width sigma tied to the
grid spacing; the explicit rescale to unit mass keeps every count-based
integral identity exact at the discrete level. The background field for a
weighted point set is the mean-zero solution of

    Lap(w) = -4*pi*N/|S| + 4*pi * sum_j m_j * delta_sigma(z_j),

whose right-hand side has exactly zero discrete mean by construction.
"""

from collections import namedtuple
from collections.abc import Iterable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, SigmaTooSmall
from .surface import ScalarField, TorusGeometry, _integer, _real

TWO_PI = 2.0 * np.pi
FOUR_PI = 4.0 * np.pi


def _normalize_points(points, label):
    """(x, y, multiplicity) tuples of finite floats and a positive int, or
    ConfigurationError."""
    # a string is iterable too, but one character at a time
    if isinstance(points, (str, bytes)) or not isinstance(points, Iterable):
        raise ConfigurationError(
            f"{label}: expected a list of (x, y, multiplicity) sources, got {points!r}"
        )
    out = []
    for entry in points:
        try:
            x, y, m = entry
        except (TypeError, ValueError):
            raise ConfigurationError(
                f"{label}: each source is (x, y, multiplicity), got {entry!r}"
            ) from None
        m = _integer(m, f"{label}: multiplicity", minimum=1)
        out.append((_real(x, f"{label}: coordinate"), _real(y, f"{label}: coordinate"), m))
    return tuple(out)


@dataclass(frozen=True)
class VortexConfiguration:
    """The four point multisets: zeros and poles of the two sections.

    Each entry is (x, y, multiplicity). A point may not appear as both a
    zero and a pole of the same section: such a pair cancels analytically
    and must be reduced by the caller.
    """

    zeros_q: tuple = ()
    poles_q: tuple = ()
    zeros_p: tuple = ()
    poles_p: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "zeros_q", _normalize_points(self.zeros_q, "zeros_q"))
        object.__setattr__(self, "poles_q", _normalize_points(self.poles_q, "poles_q"))
        object.__setattr__(self, "zeros_p", _normalize_points(self.zeros_p, "zeros_p"))
        object.__setattr__(self, "poles_p", _normalize_points(self.poles_p, "poles_p"))
        for zeros, poles, tag in (
            (self.zeros_q, self.poles_q, "q"),
            (self.zeros_p, self.poles_p, "p"),
        ):
            zpos = {(x, y) for x, y, _ in zeros}
            ppos = {(x, y) for x, y, _ in poles}
            shared = zpos & ppos
            if shared:
                raise ConfigurationError(
                    f"section {tag}: point {sorted(shared)[0]} is both a zero "
                    "and a pole; the pair cancels and must be pre-reduced"
                )

    @property
    def N1(self):
        return sum(m for _, _, m in self.zeros_q)

    @property
    def P1(self):
        return sum(m for _, _, m in self.poles_q)

    @property
    def N2(self):
        return sum(m for _, _, m in self.zeros_p)

    @property
    def P2(self):
        return sum(m for _, _, m in self.poles_p)

    def counts(self):
        return self.N1, self.P1, self.N2, self.P2


# What the counts force on one torus, for one model's kernel (see `forced`).
Forced = namedtuple("Forced", "n p k t")


def forced(config: VortexConfiguration, area, kernel) -> Forced:
    """What the counts force on a torus of area |S| for a `kernel` affine in
    its grid value t, phi(t) = phi0 - s*t with s its `scale`: n = (N1 - P1,
    N2 - P2), the pinned integrals p = 2*pi*(n1 + n2, n1 + 2*n2) of phi(u) and
    phi(v), k = 4*pi*n/|S| and the integrals t = (phi0*|S| - p)/s of the kernel
    values. phi0 = phi(0.0) is -0.0 for "vav"'s -2t: balanced counts force -0.0."""
    N1, P1, N2, P2 = config.counts()
    n1, n2 = N1 - P1, N2 - P2
    p = (TWO_PI * (n1 + n2), TWO_PI * (n1 + 2 * n2))
    t = tuple((kernel.phi(0.0) * area - x) / kernel.scale for x in p)
    return Forced((n1, n2), p, (FOUR_PI * n1 / area, FOUR_PI * n2 / area), t)


class Admissibility(NamedTuple):
    """A model's existence test for one configuration on one torus.

    `forced` is what the counts force, `constants` the model's values of it,
    `margins` the slack of the two bounds (a solution exists iff both are
    positive), and `report` the "admissibility" entry of a run report.
    """

    constants: tuple
    margins: tuple
    satisfied: bool
    report: dict
    forced: Forced

    def admitted(self, refusal):
        """The constants, or refusal(*margins) raised when the test fails."""
        if not self.satisfied:
            raise refusal(*self.margins)
        return self.constants


def _checked_width(geom: TorusGeometry, sigma: float) -> float:
    """`sigma`, refused when under one grid cell (SigmaTooSmall): the grid
    cannot resolve it; and when over the shorter side (ConfigurationError):
    the image sum would take about 12*sigma/L terms per node along a side
    of length L."""
    h_max = max(geom.h1, geom.h2)
    if sigma < h_max:
        raise SigmaTooSmall(sigma, h_max)
    if sigma > min(geom.L1, geom.L2):
        raise ConfigurationError(
            f"mollifier width {sigma:.3e} over the torus side {min(geom.L1, geom.L2):.3e}"
        )
    return sigma


def mollifier_width(geom: TorusGeometry, kappa) -> float:
    """Source width sigma = kappa*max(h1, h2) for a finite kappa, bounded by `_checked_width`."""
    return _checked_width(geom, _real(kappa, "kappa") * max(geom.h1, geom.h2))


def _wrap(d, L):
    """Reduce displacements to the symmetric fundamental interval [-L/2, L/2)."""
    return (d + 0.5 * L) % L - 0.5 * L


def _image_profile(x_nodes, z, L, sigma):
    """Sum of Gaussian images along one axis, truncated where terms can no
    longer reach radius 6*sigma."""
    d = _wrap(x_nodes - z, L)
    n_img = int(np.floor(6.0 * sigma / L + 0.5))
    offsets = np.arange(-n_img, n_img + 1) * L
    r = d[None, :] + offsets[:, None]
    return np.exp(-(r * r) / (2.0 * sigma * sigma)).sum(axis=0)


def mollified_delta(geom: TorusGeometry, point, sigma) -> ScalarField:
    """Normalized periodic Gaussian approximation of a unit Dirac measure.

    The periodized Gaussian sum exp(-|x - z - image|^2 / (2 sigma^2)) /
    (2 pi sigma^2) is evaluated analytically at the nodes and then rescaled
    so that integrate(result) = 1 exactly. A width under one grid cell or
    over the shorter side is refused (`_checked_width`).
    """
    sigma = _checked_width(geom, _real(sigma, "sigma"))
    zx, zy = float(point[0]), float(point[1])
    gx = _image_profile(geom.x1, zx, geom.L1, sigma)
    gy = _image_profile(geom.x2, zy, geom.L2, sigma)
    vals = np.outer(gx, gy) / (TWO_PI * sigma * sigma)
    vals /= geom.quad(vals)
    return geom.field(vals)


def background(geom: TorusGeometry, points, sigma) -> ScalarField:
    """Mean-zero background absorbing the Dirac sources of a weighted point set.

    `points` is an iterable of (x, y, multiplicity); an empty set gives the
    zero field. Multiplicity m enters as the coefficient m on one mollified
    delta, not as m stacked points.
    """
    points = _normalize_points(points, "background points")
    if not points:
        return geom.zeros()
    total = sum(m for _, _, m in points)
    rhs = np.full((geom.n1, geom.n2), -FOUR_PI * total / geom.area)
    for x, y, m in points:
        rhs += FOUR_PI * m * mollified_delta(geom, (x, y), sigma).values
    return geom.field(geom.inv_lap(rhs))


@dataclass(frozen=True)
class BackgroundSet:
    """The four normalized singular backgrounds of a configuration."""

    u01: ScalarField
    u02: ScalarField
    v01: ScalarField
    v02: ScalarField


def build_backgrounds(
    geom: TorusGeometry, config: VortexConfiguration, sigma
) -> BackgroundSet:
    """Backgrounds for all four source sets of a configuration."""
    return BackgroundSet(
        u01=background(geom, config.zeros_q, sigma),
        u02=background(geom, config.poles_q, sigma),
        v01=background(geom, config.zeros_p, sigma),
        v02=background(geom, config.poles_p, sigma),
    )
