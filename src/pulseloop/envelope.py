"""Complex-envelope containers, pulse library, and error metrics.

Everything downstream (demodulation, identification, the feedback loop)
works on uniformly sampled complex baseband envelopes s(t) = I(t) + iQ(t).
This module owns the time-grid bookkeeping, the parametric pulse shapes
used as targets, and the two error metrics the loop optimizes against.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np
import scipy.fft as sfft

DEFAULT_DT = 1e-9  # 1 ns working sample period for envelopes


class InvalidSpecError(ValueError):
    """Bad input: a setting, file or signal the package cannot use.

    Every error the package raises for bad input derives from it.
    """


class GridMismatchError(InvalidSpecError):
    """Two envelopes were combined but their time grids differ."""


class ZeroSignalError(InvalidSpecError):
    """An operation that needs a nonzero signal received all zeros."""


def _check_integer(name: str, value, least: int | None = None) -> None:
    """``value`` is an integer (not a bool) of at least ``least``, if set."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or (least is not None and value < least)):
        bound = "" if least is None else f" >= {least}"
        raise InvalidSpecError(
            f"{name} must be an integer{bound}, got {value!r}")


def _check_real(name: str, value, least: float | None = None,
                strict: bool = False) -> None:
    """``value`` is a finite real number (not a bool) of at least
    ``least``, or above it when ``strict``; no bound when ``least`` is
    None."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InvalidSpecError(f"{name} must be a real number, got {value!r}")
    try:
        bad = not math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        bad = True
    if least is not None and not bad:
        bad = value <= least if strict else value < least
    if bad:
        bound = ("" if least is None
                 else f" and {'>' if strict else '>='} {least}")
        raise InvalidSpecError(f"{name} must be finite{bound}, got {value}")


def _frozen_samples(samples, dtype, n: int) -> np.ndarray:
    """A read-only copy of ``samples`` as ``n`` finite ``dtype`` values."""
    arr = np.array(samples, dtype=dtype)
    if arr.ndim != 1 or len(arr) != n:
        raise InvalidSpecError(f"expected {n} samples, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidSpecError("samples must be finite")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class TimeGrid:
    """Uniform sampling grid t_k = t0 + k*dt for k = 0..n-1."""

    t0: float
    dt: float
    n: int

    def __post_init__(self):
        _check_real("t0", self.t0)
        _check_real("dt", self.dt, 0, strict=True)
        _check_integer("n", self.n, 2)

    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.n)

    @property
    def span(self) -> float:
        return self.dt * (self.n - 1)

    @property
    def center(self) -> float:
        return self.t0 + 0.5 * self.dt * (self.n - 1)


@dataclass(frozen=True)
class ComplexEnvelope:
    """A complex baseband signal together with its grid.

    Samples are held as an immutable complex array; ``amplitude`` and
    ``phase`` views correspond to A_k = |s_k| and P_k = arg(s_k). As the
    samples cannot change, work derived from them alone is kept in a
    memo, out of comparison and repr: the transform ``align_delay`` takes
    of a reference, per transform size, and what the kernel fits of an
    input keep, per memory (see ``sysid.estimate_kernel``).
    """

    grid: TimeGrid
    samples: np.ndarray
    _memo: dict = field(init=False, repr=False, compare=False,
                        default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "samples", _frozen_samples(
            self.samples, complex, self.grid.n))

    @property
    def amplitude(self) -> np.ndarray:
        return np.abs(self.samples)

    @property
    def phase(self) -> np.ndarray:
        return np.angle(self.samples)

    def norm(self) -> float:
        return float(np.linalg.norm(self.samples))

    def with_samples(self, samples) -> "ComplexEnvelope":
        return ComplexEnvelope(self.grid, samples)

    def _reversed_amplitude_spectrum(self, size: int) -> np.ndarray:
        """Read-only length-``size`` ``rfft`` of the reversed amplitude."""
        key = ("reversed_amplitude_spectrum", size)
        spec = self._memo.get(key)
        if spec is None:
            spec = sfft.rfft(self.amplitude[::-1], size)
            spec.setflags(write=False)
            self._memo[key] = spec
        return spec


@dataclass(frozen=True)
class PulseSpec:
    """Parametric description of a library pulse.

    ``kind`` selects the shape; ``fwhm`` applies to the gaussian kinds,
    which require it, and must be None for the others;
    ``phase_jump_rad``/``phase_width_frac`` apply to the gate-standin.
    Explicit samples need no spec: ``ComplexEnvelope(grid, samples)``.
    """

    kind: str
    duration: float
    fwhm: float | None = None
    peak: float = 1.0
    phase_jump_rad: float = np.pi
    phase_width_frac: float = 0.05

    KINDS = ("truncated-gaussian", "gaussian", "gate-standin", "constant")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise InvalidSpecError(f"unknown pulse kind {self.kind!r}")
        _check_real("duration", self.duration, 0, strict=True)
        _check_real("peak", self.peak, 0, strict=True)
        if self.peak > 1:
            raise InvalidSpecError(f"peak must lie in (0, 1], got {self.peak}")
        if self.kind in ("truncated-gaussian", "gaussian"):
            if self.fwhm is None:
                raise InvalidSpecError(f"{self.kind} requires a fwhm")
            _check_real("fwhm", self.fwhm, 0, strict=True)
            # make_pulse divides by fwhm**2: it must not over- or underflow.
            if not 0 < float(self.fwhm) * float(self.fwhm) < math.inf:
                raise InvalidSpecError(
                    f"fwhm must have a finite square > 0, got {self.fwhm}")
        elif self.fwhm is not None:
            raise InvalidSpecError(
                f"fwhm does not apply to a {self.kind} pulse, got {self.fwhm}")
        # The sign of the phase step is phase_jump_rad's; a width of zero
        # or below would divide by zero or reverse the step.
        _check_real("phase_jump_rad", self.phase_jump_rad)
        _check_real("phase_width_frac", self.phase_width_frac, 0, strict=True)


def default_grid(duration: float, dt: float = DEFAULT_DT,
                 margin_frac: float = 0.5) -> TimeGrid:
    """Grid sized to hold a pulse of the given duration, centered, with
    near-zero margin of ``margin_frac * duration`` on each side.

    The grid has at least the samples whose span holds the pulse, as
    ``make_pulse`` asks, so a margin below half a sample (zero, say)
    gives duration / dt + 1 samples, the first and last at the pulse's
    ends."""
    _check_real("duration", duration, 0, strict=True)
    _check_real("dt", dt, 0, strict=True)
    _check_real("margin_frac", margin_frac, 0)
    n = duration * (1 + 2 * margin_frac) / dt
    if not np.isfinite(n):
        raise InvalidSpecError(f"grid length {n} is not finite")
    held = int(np.ceil(duration / dt - 0.5)) + 1
    return TimeGrid(t0=0.0, dt=dt, n=max(int(round(n)), held))


def make_pulse(spec: PulseSpec, grid: TimeGrid) -> ComplexEnvelope:
    """Generate a library pulse on the given grid.

    Parameters
    ----------
    spec : PulseSpec
        Shape selection and parameters. The pulse is centered on the grid.
    grid : TimeGrid
        Output sampling grid; ``spec.duration`` must fit in its span.

    Returns
    -------
    ComplexEnvelope
        Pure-amplitude envelope for all kinds except the gate-standin,
        which additionally carries a smooth sigmoidal phase jump whose
        gradient peaks at mid-pulse.
    """
    if spec.kind != "constant" and spec.duration > grid.span + grid.dt / 2:
        raise InvalidSpecError(
            f"duration {spec.duration} exceeds grid span {grid.span}")
    t = grid.times() - grid.center
    if spec.kind == "constant":
        samples = np.full(grid.n, spec.peak, dtype=complex)
    elif spec.kind == "gaussian":
        samples = spec.peak * np.exp(
            -4 * np.log(2) * t**2 / spec.fwhm**2).astype(complex)
    elif spec.kind == "truncated-gaussian":
        amp = spec.peak * np.exp(-4 * np.log(2) * t**2 / spec.fwhm**2)
        amp[np.abs(t) > spec.duration / 2] = 0.0
        samples = amp.astype(complex)
    elif spec.kind == "gate-standin":
        samples = _gate_standin(t, spec)
    else:  # pragma: no cover - guarded by PulseSpec
        raise InvalidSpecError(spec.kind)
    return ComplexEnvelope(grid, samples)


def _gate_standin(t: np.ndarray, spec: PulseSpec) -> np.ndarray:
    # Flat top with raised-cosine edges over the outer 15% of the duration
    # on each side, plus one smooth phase jump centered mid-pulse.
    half = spec.duration / 2
    edge = 0.15 * spec.duration
    amp = np.zeros_like(t)
    amp[np.abs(t) <= half - edge] = 1.0
    ramp = (np.abs(t) > half - edge) & (np.abs(t) <= half)
    amp[ramp] = 0.5 * (1 + np.cos(np.pi * (np.abs(t[ramp]) - (half - edge))
                                  / edge))
    width = spec.phase_width_frac * spec.duration
    phase = spec.phase_jump_rad / (1 + np.exp(-t / width))
    return spec.peak * amp * np.exp(1j * phase)


def _check_grids(a: ComplexEnvelope, b: ComplexEnvelope):
    if a.grid != b.grid:
        raise GridMismatchError(f"grids differ: {a.grid} vs {b.grid}")


def mase(measured: ComplexEnvelope, target: ComplexEnvelope) -> float:
    """Mean absolute scaled error between normalized amplitude profiles.

    Each envelope's amplitude is scaled by its own Euclidean norm before
    the per-sample absolute differences are averaged, so the metric is
    invariant under positive rescaling of either argument.
    """
    _check_grids(measured, target)
    return _mase_to(measured, _unit_amplitude(target))


def _unit_amplitude(env: ComplexEnvelope) -> np.ndarray:
    """The profile ``mase`` compares: the amplitude over the norm."""
    norm = env.norm()
    if norm == 0:
        raise ZeroSignalError("mase undefined for an all-zero envelope")
    return env.amplitude / norm


def _mase_to(measured: ComplexEnvelope, unit_target: np.ndarray) -> float:
    """``mase`` of ``measured`` against a target's ``_unit_amplitude``, so
    a loop scoring every shot against one target scales it once."""
    return float(np.mean(np.abs(_unit_amplitude(measured) - unit_target)))


def mse_cost(a: ComplexEnvelope, b: ComplexEnvelope) -> float:
    """Mean squared error (1/N) sum |a_k - b_k|^2."""
    _check_grids(a, b)
    return float(np.mean(np.abs(a.samples - b.samples) ** 2))


def align_delay(measured: ComplexEnvelope,
                reference: ComplexEnvelope) -> tuple[ComplexEnvelope, float]:
    """Remove the bulk delay between a measured envelope and a reference.

    The integer-sample lag maximizing the amplitude cross-correlation
    (computed by FFT) is found and the measured envelope is shifted back
    by that lag (zeros fill the vacated samples). Grids may differ in
    length but must share the sample period. Applying the function to
    its own output returns a zero delay. The reference's transform is
    kept on the reference, per transform size, so aligning each shot of
    a loop to one target transforms only the measurement.

    Returns
    -------
    (ComplexEnvelope, float)
        The shifted envelope on the measured grid, and the removed delay
        in seconds (positive when the measurement lags the reference).
    """
    if not math.isclose(measured.grid.dt, reference.grid.dt, rel_tol=1e-9):
        raise GridMismatchError("sample periods differ")
    if measured.norm() == 0 or reference.norm() == 0:
        raise ZeroSignalError("cannot align an all-zero envelope")
    # The real-input transforms scipy.signal.fftconvolve runs, called
    # directly to skip its generic wrapper.
    full = measured.grid.n + reference.grid.n - 1
    size = sfft.next_fast_len(full, True)
    corr = sfft.irfft(sfft.rfft(measured.amplitude, size)
                      * reference._reversed_amplitude_spectrum(size),
                      size)[:full]
    lag = int(np.argmax(corr)) - (reference.grid.n - 1)
    shifted = shift_samples(measured.samples, -lag)
    return measured.with_samples(shifted), lag * measured.grid.dt


def shift_samples(samples: np.ndarray, k: int) -> np.ndarray:
    """Shift right by k samples (left for negative k), zero-filling."""
    _check_integer("k", k)
    out = np.zeros_like(samples)
    if k == 0:
        out[:] = samples
    elif k > 0:
        if k < len(samples):
            out[k:] = samples[:-k]
    else:
        if -k < len(samples):
            out[:k] = samples[-k:]
    return out


def _support(x: np.ndarray) -> tuple[int, int]:
    """First and one past the last index of x's nonzero samples.

    ``(0, 0)`` when every sample is zero, so ``x[lo:hi]`` is then empty.
    """
    nz = np.flatnonzero(x)
    return (int(nz[0]), int(nz[-1]) + 1) if len(nz) else (0, 0)


def embed(env: ComplexEnvelope, pad_before: int,
          pad_after: int) -> ComplexEnvelope:
    """Zero-pad an envelope on both sides, extending its grid."""
    _check_integer("pad_before", pad_before, 0)
    _check_integer("pad_after", pad_after, 0)
    g = env.grid
    grid = TimeGrid(t0=g.t0 - pad_before * g.dt, dt=g.dt,
                    n=g.n + pad_before + pad_after)
    samples = np.zeros(grid.n, dtype=complex)
    samples[pad_before:pad_before + g.n] = env.samples
    return ComplexEnvelope(grid, samples)
