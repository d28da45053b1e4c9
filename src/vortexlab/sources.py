"""Prescribed vortex/anti-vortex configurations and singular backgrounds.

Point sources enter the field equations as Dirac measures. On the grid they
are realized as normalized periodic Gaussians of width sigma tied to the
grid spacing; the explicit rescale to unit mass keeps every count-based
integral identity exact at the discrete level. The background field for a
weighted point set is the mean-zero solution of

    Lap(w) = -4*pi*N/|S| + 4*pi * sum_j m_j * delta_sigma(z_j),

whose right-hand side has exactly zero discrete mean by construction.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, SigmaTooSmall
from .surface import ScalarField, TorusGeometry

TWO_PI = 2.0 * np.pi
FOUR_PI = 4.0 * np.pi


def _normalize_points(points, label):
    out = []
    for entry in points:
        if len(entry) != 3:
            raise ConfigurationError(
                f"{label}: each source is (x, y, multiplicity), got {entry!r}"
            )
        x, y, m = entry
        if int(m) != m or m <= 0:
            raise ConfigurationError(
                f"{label}: multiplicity must be a positive integer, got {m!r}"
            )
        out.append((float(x), float(y), int(m)))
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


class Admissibility(NamedTuple):
    """A model's existence test for one configuration on one torus.

    `constants` are the values the integrated equations force, `margins`
    the slack of the two bounds (a solution exists iff both are positive),
    and `report` the "admissibility" entry of a run report.
    """

    constants: tuple
    margins: tuple
    satisfied: bool
    report: dict


def mollifier_width(geom: TorusGeometry, kappa) -> float:
    """Source width sigma = kappa*max(h1, h2): kappa grid cells."""
    return float(kappa) * max(geom.h1, geom.h2)


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
    so that integrate(result) = 1 exactly. Widths under one grid cell are
    rejected (SigmaTooSmall): the grid cannot resolve them.
    """
    sigma = float(sigma)
    h_max = max(geom.h1, geom.h2)
    if sigma < h_max:
        raise SigmaTooSmall(sigma, h_max)
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
    """The four normalized singular backgrounds plus the source counts."""

    u01: ScalarField
    u02: ScalarField
    v01: ScalarField
    v02: ScalarField
    N1: int
    P1: int
    N2: int
    P2: int
    sigma: float


def build_backgrounds(
    geom: TorusGeometry, config: VortexConfiguration, sigma
) -> BackgroundSet:
    """Backgrounds for all four source sets of a configuration."""
    return BackgroundSet(
        u01=background(geom, config.zeros_q, sigma),
        u02=background(geom, config.poles_q, sigma),
        v01=background(geom, config.zeros_p, sigma),
        v02=background(geom, config.poles_p, sigma),
        N1=config.N1,
        P1=config.P1,
        N2=config.N2,
        P2=config.P2,
        sigma=float(sigma),
    )
