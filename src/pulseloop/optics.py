"""Paraxial ray and Gaussian-beam analysis of the beam-delivery optics.

ABCD matrices propagate ray coordinates (height, angle) and the complex
Gaussian beam parameter through lens trains; from the composed matrix
follow the alignment sensitivities at the modulator plane, aperture and
Bragg-angle margins under thermal pointing drift, and the waist-position
behavior versus input beam size. Design helpers solve the lens spacings
of the single-lens reference and the three-lens trains in closed form.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .envelope import InvalidSpecError

DESIGN_WAVELENGTH = 405e-9
DESIGN_INPUT_WAIST = 1200e-6
DESIGN_TARGET_WAIST = 63e-6
APERTURE = 0.6e-3            # active aperture of the modulator, m
BRAGG_TOLERANCE = 125e-6     # acceptance half-width, rad
PARAXIAL_LIMIT = 0.1         # rad; warn beyond this angle

# Three-lens delivery: Galilean telescope (200 mm / -50 mm) feeding the
# 70 mm focusing lens that doubles as the cat-eye element.
F1, F2, F3 = 0.2, -0.05, 0.07


@dataclass(frozen=True)
class RayState:
    """Paraxial ray: height above the axis and slope angle."""

    L: float
    theta: float

    def __post_init__(self):
        if not (np.isfinite(self.L) and np.isfinite(self.theta)):
            raise InvalidSpecError("ray coordinates must be finite")
        if abs(self.theta) > PARAXIAL_LIMIT:
            warnings.warn(
                f"|theta| = {abs(self.theta):.3g} rad exceeds the paraxial "
                f"regime ({PARAXIAL_LIMIT} rad)", stacklevel=2)


@dataclass(frozen=True)
class ABCDElement:
    """One optical element: free-space gap or thin lens."""

    kind: str
    parameter: float

    KINDS = ("free-space", "thin-lens")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise InvalidSpecError(f"unknown element kind {self.kind!r}")
        if self.kind == "free-space" and self.parameter < 0:
            raise InvalidSpecError("free-space distance must be >= 0")
        if self.kind == "thin-lens" and self.parameter == 0:
            raise InvalidSpecError("lens focal length must be nonzero")

    @property
    def matrix(self) -> np.ndarray:
        if self.kind == "free-space":
            return np.array([[1.0, self.parameter], [0.0, 1.0]])
        return np.array([[1.0, 0.0], [-1.0 / self.parameter, 1.0]])


def free_space(d: float) -> ABCDElement:
    return ABCDElement("free-space", d)


def thin_lens(f: float) -> ABCDElement:
    return ABCDElement("thin-lens", f)


@dataclass(frozen=True)
class OpticalTrain:
    """Ordered elements with named marker planes.

    A marker maps a name to a boundary index: marker ``i`` designates
    the plane after the first ``i`` elements. ``k`` records the tuned
    inter-lens spacing when the train came out of a design helper.
    """

    elements: tuple
    markers: dict = field(default_factory=dict)
    k: float | None = None

    def __post_init__(self):
        elems = tuple(self.elements)
        for e in elems:
            if not isinstance(e, ABCDElement):
                raise InvalidSpecError("elements must be ABCDElement")
        for name, b in self.markers.items():
            if not 0 <= b <= len(elems):
                raise InvalidSpecError(
                    f"marker {name!r} boundary {b} outside the train")
        object.__setattr__(self, "elements", elems)
        object.__setattr__(self, "markers", dict(self.markers))

    def boundary(self, marker: str | None) -> int:
        """Boundary index of a marker; None selects the train end."""
        if marker is None:
            return len(self.elements)
        try:
            return self.markers[marker]
        except KeyError:
            raise InvalidSpecError(f"unknown marker {marker!r}") from None

    def matrix(self, marker: str | None = None) -> np.ndarray:
        """Composed ABCD matrix from the input plane to a marker."""
        m = np.eye(2)
        for e in self.elements[:self.boundary(marker)]:
            m = e.matrix @ m
        return m


@dataclass(frozen=True)
class GaussianBeam:
    """Gaussian beam described at a reference plane.

    ``waist_position`` locates the waist relative to the plane, positive
    downstream; the complex beam parameter at the plane follows as
    q = -waist_position + i * rayleigh.
    """

    wavelength: float
    w: float
    waist_position: float = 0.0

    def __post_init__(self):
        if self.wavelength <= 0 or self.w <= 0:
            raise InvalidSpecError("wavelength and waist must be positive")

    @property
    def rayleigh(self) -> float:
        return np.pi * self.w ** 2 / self.wavelength

    @property
    def q(self) -> complex:
        return complex(-self.waist_position, self.rayleigh)

    @property
    def spot(self) -> float:
        """1/e^2 radius at the reference plane."""
        return self.w * np.sqrt(1 + (self.waist_position / self.rayleigh) ** 2)


@dataclass(frozen=True)
class SensitivityReport:
    """Partial derivatives of the marker-plane ray coordinates.

    Entries are read off the composed ABCD matrix: L' = A L + B theta,
    theta' = C L + D theta.
    """

    dL_dL_in: float
    dL_dtheta_in: float
    dtheta_dL_in: float
    dtheta_dtheta_in: float
    marker: str | None


@dataclass(frozen=True)
class ApertureReport:
    """Result of the aperture / Bragg-tolerance check."""

    ok: bool
    position_margin: float
    angle_margin: float


def propagate_ray(train: OpticalTrain, ray: RayState,
                  marker: str | None = None) -> RayState:
    """Carry a ray through the train up to a marker plane."""
    m = train.matrix(marker)
    v = m @ np.array([ray.L, ray.theta])
    return RayState(L=float(v[0]), theta=float(v[1]))


def propagate_beam(train: OpticalTrain, beam: GaussianBeam,
                   marker: str | None = None) -> GaussianBeam:
    """Carry a Gaussian beam through the train up to a marker plane.

    Applies q' = (A q + B)/(C q + D) with the composed matrix and
    re-expresses the result as a waist plus its position relative to the
    marker plane.
    """
    m = train.matrix(marker)
    a, b, c, d = m[0, 0], m[0, 1], m[1, 0], m[1, 1]
    qp = (a * beam.q + b) / (c * beam.q + d)
    zr = qp.imag
    return GaussianBeam(wavelength=beam.wavelength,
                        w=float(np.sqrt(beam.wavelength * zr / np.pi)),
                        waist_position=float(-qp.real))


def sensitivity(train: OpticalTrain,
                marker: str | None = None) -> SensitivityReport:
    """Marker-plane sensitivities to input height and angle.

    Exact for paraxial systems: the four partial derivatives are the
    composed matrix entries themselves.
    """
    m = train.matrix(marker)
    return SensitivityReport(dL_dL_in=float(m[0, 0]),
                             dL_dtheta_in=float(m[0, 1]),
                             dtheta_dL_in=float(m[1, 0]),
                             dtheta_dtheta_in=float(m[1, 1]),
                             marker=marker)


def aperture_check(train: OpticalTrain, perturbation: RayState,
                   aperture: float = APERTURE,
                   bragg_tolerance: float = BRAGG_TOLERANCE,
                   marker: str | None = None) -> ApertureReport:
    """Check a perturbed ray against aperture and Bragg-angle limits.

    Passes (inclusively) when the marker-plane ray satisfies
    |L| <= aperture/2 and |theta| <= bragg_tolerance; the margins report
    the remaining headroom, negative when exceeded.
    """
    if aperture <= 0 or bragg_tolerance <= 0:
        raise InvalidSpecError("aperture and tolerance must be positive")
    out = propagate_ray(train, perturbation, marker)
    pos_margin = aperture / 2 - abs(out.L)
    ang_margin = bragg_tolerance - abs(out.theta)
    return ApertureReport(ok=pos_margin >= 0 and ang_margin >= 0,
                          position_margin=float(pos_margin),
                          angle_margin=float(ang_margin))


def max_temperature_drift(train: OpticalTrain, dL_dT: float, dtheta_dT: float,
                          aperture: float = APERTURE,
                          bragg_tolerance: float = BRAGG_TOLERANCE,
                          marker: str | None = None) -> float:
    """Largest temperature change the alignment tolerances admit.

    The input drifts linearly with temperature at the given coefficients
    (m/K and rad/K); the result is the ΔT at which the marker-plane ray
    first touches the aperture or Bragg limit.
    """
    s = sensitivity(train, marker)
    d_pos = abs(s.dL_dL_in * dL_dT + s.dL_dtheta_in * dtheta_dT)
    d_ang = abs(s.dtheta_dL_in * dL_dT + s.dtheta_dtheta_in * dtheta_dT)
    limits = []
    if d_pos > 0:
        limits.append(aperture / 2 / d_pos)
    if d_ang > 0:
        limits.append(bragg_tolerance / d_ang)
    return min(limits) if limits else float("inf")


def waist_vs_input_waist(train: OpticalTrain, wavelength: float,
                         w_in_values, marker: str | None = None) -> np.ndarray:
    """Waist size and position at a marker across input waist sizes.

    Returns a structured array with fields ``w_in``, ``waist``,
    ``offset`` (waist position relative to the marker, positive
    downstream) and ``within_rayleigh`` (true where the waist sits
    closer to the marker than one Rayleigh length).
    """
    w_in_values = np.atleast_1d(np.asarray(w_in_values, dtype=float))
    if len(w_in_values) == 0 or np.any(w_in_values <= 0):
        raise InvalidSpecError("sweep values must be positive and nonempty")
    rows = np.zeros(len(w_in_values),
                    dtype=[("w_in", float), ("waist", float),
                           ("offset", float), ("within_rayleigh", bool)])
    for i, w_in in enumerate(w_in_values):
        out = propagate_beam(train, GaussianBeam(wavelength, w_in), marker)
        rows[i] = (w_in, out.w, out.waist_position,
                   abs(out.waist_position) < out.rayleigh)
    return rows


def design_single_lens(wavelength: float = DESIGN_WAVELENGTH,
                       w_in: float = DESIGN_INPUT_WAIST,
                       w_target: float = DESIGN_TARGET_WAIST) -> OpticalTrain:
    """Single-lens reference train for the given demagnification.

    A waist-to-waist Fourier arrangement: the lens of focal length
    f = pi * w_in * w_target / wavelength sits one focal length from the
    input waist and produces the target waist one focal length behind
    it, at the marker "aom".
    """
    f = np.pi * w_in * w_target / wavelength
    return OpticalTrain(
        elements=(free_space(f), thin_lens(f), free_space(f)),
        markers={"aom": 3})


WAIST_MATCHED_D4 = 0.20  # fixed final gap of the waist-matched variant, m
_GAP = np.array([[0.0, 1.0], [0.0, 0.0]])  # free_space(x) = I + x * _GAP


def _in_box(k, d3, d4=WAIST_MATCHED_D4) -> bool:
    """Whether three-lens spacings lie in the admissible design box."""
    return 0.01 <= k <= 0.50 and 0.01 <= d3 <= 0.80 and 0.005 <= d4 <= 0.30


def _three_lens(k, d3, d4):
    return (thin_lens(F1), free_space(k), thin_lens(F2), free_space(d3),
            thin_lens(F3), free_space(d4))


def design_three_lens(wavelength: float = DESIGN_WAVELENGTH,
                      w_in: float = DESIGN_INPUT_WAIST,
                      w_target: float = DESIGN_TARGET_WAIST,
                      mode: str = "compact") -> OpticalTrain:
    """Three-lens delivery train solved for the target beam size.

    Fixed focal lengths 200 mm / -50 mm / 70 mm (Galilean telescope plus
    focusing lens); the ABCD q-law gives the telescope spacing k and the
    gaps d3 and d4 in closed form, each confined to its box: k in
    [0.01, 0.50] m, d3 in [0.01, 0.80] m, d4 in [0.005, 0.30] m. With no
    solution in the box, ``InvalidSpecError`` names the unmet target.
    Two variants:

    - "compact": the alignment-insensitive delivery design. Targets the
      1/e^2 spot radius ``w_target`` on the marker plane together with
      an angle sensitivity dL/dtheta_in 2.5 times below the single-lens
      reference and dtheta/dtheta_in of zero (thermal pointing drift
      neither walks the beam off the aperture nor off the Bragg angle).
      These fix k and d3; the spot then holds at two d4, with the waist
      upstream of the marker (taken when in the box) or downstream. A
      paraxial identity links exact waist placement to large
      |dtheta/dtheta_in|, so one train cannot have both.
    - "waist-matched": places an actual beam waist of size ``w_target``
      on the marker plane for the design input waist (the last gap is
      held at ``WAIST_MATCHED_D4``; k is a root of one quadratic, the
      larger of those in the box, and fixes the middle gap). Used for
      waist-position studies; alignment sensitivity is not constrained.
    """
    z_in = np.pi * w_in ** 2 / wavelength
    z_target = np.pi * w_target ** 2 / wavelength
    if mode == "compact":
        # D = 0 and B = b fix k and d3; det = 1 then makes C = -1/b, so d4
        # only moves the waist (z_out = b^2/z_in) relative to the marker.
        b = np.pi * w_in * w_target / wavelength / 2.5
        k = F2 * (1 - b / F3)
        d3 = F3 * (b - k) / b
        if not _in_box(k, d3):
            raise InvalidSpecError(
                f"compact design: dL/dtheta_in = {b:.4g} m at dtheta/dtheta_in"
                f" = 0 needs k = {k:.4g} m, d3 = {d3:.4g} m, outside the box")
        m = OpticalTrain(_three_lens(k, d3, 0.0)).matrix()
        z_out = b ** 2 / z_in
        excess = z_target / z_out - 1  # (w_target / w_out)^2 - 1
        offset = z_out * np.sqrt(excess) if excess >= 0 else np.nan
        # The waist lies d4 + A/C upstream of the marker; upstream first.
        a_c = m[0, 0] / m[1, 0]
        d4 = [x for x in (offset - a_c, -offset - a_c) if _in_box(k, d3, x)]
        if not d4:
            raise InvalidSpecError(f"compact design: no d4 in [0.005, 0.30] m"
                                   f" gives the {w_target:.4g} m spot")
        d4 = float(d4[0])
    elif mode == "waist-matched":
        k, d3 = _waist_matched_spacings(z_in, z_target, w_target)
        d4 = WAIST_MATCHED_D4
    else:
        raise InvalidSpecError(f"unknown design mode {mode!r}")
    return OpticalTrain(elements=_three_lens(k, d3, d4), markers={"aom": 6},
                        k=float(k))


def _waist_matched_spacings(z_in, z_target, w_target):
    # q_out = i z_target for q_in = i z_in where B + z_in z_target C and
    # z_in A - z_target D vanish: u(k) + d3 v(k) with u, v affine in k, so
    # a common d3 exists where det[u, v], a quadratic in k, is zero.
    g = free_space(WAIST_MATCHED_D4).matrix @ thin_lens(F3).matrix
    l1, l2 = thin_lens(F1).matrix, thin_lens(F2).matrix

    def conditions(m):
        return np.array([m[0, 1] + z_in * z_target * m[1, 0],
                         z_in * m[0, 0] - z_target * m[1, 1]])

    (u0, u1), (v0, v1) = [[conditions(g @ h @ l2 @ t @ l1)
                           for t in (np.eye(2), _GAP)]
                          for h in (np.eye(2), _GAP)]
    det = np.linalg.det
    roots = np.roots([det([u1, v1]), det([u0, v1]) + det([u1, v0]),
                      det([u0, v0])])
    for k in sorted(roots[np.isreal(roots)].real, reverse=True):
        u, v = u0 + k * u1, v0 + k * v1
        d3 = -(u @ v) / (v @ v)
        if _in_box(k, d3):
            return float(k), float(d3)
    raise InvalidSpecError(f"waist-matched design: no spacings in the box "
                           f"place a {w_target:.4g} m waist at the marker")
