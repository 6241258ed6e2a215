"""Heterodyne beat-note synthesis and zero-phase IQ demodulation.

The measurement chain represents an envelope as the real voltage
v(t) = Re[s(t) e^{i 2 pi f_beat t}] on a fast detector grid, and recovers
it by mixing back down, low-pass filtering both quadratures with a
forward-backward Butterworth filter, and resampling to the working grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .envelope import (ComplexEnvelope, InvalidSpecError, TimeGrid)

# scipy.signal is imported inside its four users: with the scipy.optimize
# it loads, it is about half of ``import pulseloop``, and commands that
# never filter or resample should not pay for it.

DEFAULT_FS = 2e9        # trace sample rate, 2 GS/s
DEFAULT_F_BEAT = 200e6  # beat at twice the 100 MHz modulator drive
DEFAULT_ORDER = 4
DEFAULT_CUTOFF = 20e6


class AliasingError(ValueError):
    """Sample rate too low to resolve the beat note."""


@dataclass(frozen=True)
class BeatTrace:
    """Real-valued detector record on a high-rate grid."""

    grid: TimeGrid
    samples: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=float)
        if arr.ndim != 1 or len(arr) != self.grid.n:
            raise InvalidSpecError(
                f"expected {self.grid.n} samples, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise InvalidSpecError("trace samples must be finite")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)


@dataclass(frozen=True)
class FilterSpec:
    """Low-pass filter as a stable cascade of second-order sections.

    ``zi`` is the steady-state step response of each section
    (``scipy.signal.sosfilt_zi``), computed once here; ``filtfilt``
    scales it by the edge value of each pass.
    """

    order: int
    cutoff: float
    fs: float
    sos: np.ndarray
    zi: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        arr = np.asarray(self.sos, dtype=float)
        arr.setflags(write=False)
        object.__setattr__(self, "sos", arr)
        from scipy.signal import sosfilt_zi
        zi = sosfilt_zi(arr)
        zi.setflags(write=False)
        object.__setattr__(self, "zi", zi)


@lru_cache(maxsize=32)
def design_lowpass(order: int, cutoff: float, fs: float) -> FilterSpec:
    """Design a Butterworth low-pass as second-order sections.

    Memoized on the arguments: a ``FilterSpec`` is frozen with read-only
    arrays, so every caller with the same settings shares one.

    Parameters
    ----------
    order : int
        Filter order, 1 through 12.
    cutoff : float
        -3 dB frequency in Hz; must be below fs/2.
    fs : float
        Sample rate the filter will run at.
    """
    if not 1 <= order <= 12:
        raise InvalidSpecError(f"order must be in [1, 12], got {order}")
    if not 0 < cutoff < fs / 2:
        raise InvalidSpecError(
            f"cutoff {cutoff} must lie in (0, fs/2={fs / 2})")
    from scipy.signal import butter
    sos = butter(order, cutoff, btype="low", fs=fs, output="sos")
    return FilterSpec(order=order, cutoff=cutoff, fs=fs, sos=sos)


def filtfilt(filt: FilterSpec, x) -> np.ndarray:
    """Forward-backward filtering with reflective edge padding.

    Zero net phase in the passband; the effective magnitude response is
    |H|^2. Padding is odd-reflection of length 3x(filter order) at both
    ends, extended automatically when the cutoff transient is longer.
    Each pass starts from the filter's stored steady state ``filt.zi``
    scaled by its first sample: the recipe of
    ``scipy.signal.sosfiltfilt`` with ``padtype="odd"``, whose output
    this equals bit for bit. Complex input is filtered as one sequence;
    the coefficients are real, so that equals filtering the real and
    imaginary parts apart.
    """
    x = np.asarray(x)
    x = x.astype(complex if np.iscomplexobj(x) else float, copy=False)
    min_len = 3 * filt.order
    if len(x) <= min_len:
        raise InvalidSpecError(
            f"sequence length {len(x)} too short for order {filt.order}")
    # Transient of a cutoff-limited filter spans ~fs/cutoff samples; pad
    # generously so edge effects stay out of the record interior.
    padlen = min(len(x) - 1, max(min_len, int(3 * filt.fs / filt.cutoff)))
    ext = np.concatenate((2 * x[:1] - x[padlen:0:-1], x,
                          2 * x[-1:] - x[-2:-(padlen + 2):-1]))
    from scipy.signal import sosfilt
    # copy: scipy's section filter needs a writable coefficient buffer
    sos = filt.sos.copy()
    y, _ = sosfilt(sos, ext, zi=filt.zi * ext[:1])
    y, _ = sosfilt(sos, y[::-1], zi=filt.zi * y[-1:])
    return y[::-1][padlen:-padlen]


def suggested_cutoff(duration: float) -> float:
    """Low-pass cutoff matched to a pulse duration.

    Scales inversely with duration so shorter pulses keep their edge and
    phase-jump bandwidth, clipped to [20 MHz, 120 MHz]; the upper clip
    keeps the 2x beat image rejected after forward-backward filtering.
    """
    return float(np.clip(12.0 / duration, DEFAULT_CUTOFF, 120e6))


def synthesize_beat(env: ComplexEnvelope, f_beat: float = DEFAULT_F_BEAT,
                    fs: float = DEFAULT_FS, noise_sigma: float = 0.0,
                    seed: int = 0) -> BeatTrace:
    """Render an envelope as a noisy detector beat-note trace.

    Parameters
    ----------
    env : ComplexEnvelope
        Baseband envelope; internally resampled to ``fs`` by Fourier
        interpolation (the envelope is treated as band-limited to its
        own Nyquist frequency).
    f_beat : float
        Beat frequency in Hz.
    fs : float
        Output trace sample rate; must exceed 2*f_beat.
    noise_sigma : float
        Standard deviation of additive white Gaussian noise per trace
        sample, in the same normalized units as the envelope; finite and
        >= 0.
    seed : int or numpy.random.Generator
        Noise generator seed, or a generator to draw from (used as is);
        identical seeds give identical traces.

    Returns
    -------
    BeatTrace
        v(t) = Re[s(t) e^{i 2 pi f_beat t}] + n(t) starting at env.grid.t0.
    """
    if fs <= 2 * f_beat:
        raise AliasingError(f"fs {fs} must exceed twice f_beat {f_beat}")
    if not (np.isfinite(noise_sigma) and noise_sigma >= 0):
        raise InvalidSpecError(
            f"noise_sigma must be finite and >= 0, got {noise_sigma}")
    up = fs * env.grid.dt
    up_int = int(round(up))
    if abs(up - up_int) > 1e-9 or up_int < 1:
        raise InvalidSpecError(
            f"fs {fs} must be an integer multiple of the envelope rate")
    n_hi = env.grid.n * up_int
    from scipy.signal import resample
    hi = resample(env.samples, n_hi)
    v = np.real(hi * _beat_carrier(env.grid.t0, fs, n_hi, f_beat))
    if noise_sigma > 0:
        rng = np.random.default_rng(seed)
        v = v + noise_sigma * rng.standard_normal(n_hi)
    grid = TimeGrid(t0=env.grid.t0, dt=1.0 / fs, n=n_hi)
    return BeatTrace(grid, v)


def demodulate(trace: BeatTrace, f_beat: float, filt: FilterSpec,
               out_grid: TimeGrid) -> ComplexEnvelope:
    """Recover the complex envelope from a beat-note trace.

    Mixes with e^{-i 2 pi f_beat t}, scales by 2 to undo the half lost
    to the negative-frequency image, filters the complex baseband with
    one zero-phase ``filtfilt``, and decimates onto ``out_grid``.

    The filter cutoff must stay below f_beat so the image at 2*f_beat is
    rejected, the filter must be designed for the trace's sample rate,
    and ``out_grid`` must be sample-aligned with the trace.
    """
    if filt.cutoff >= f_beat:
        raise InvalidSpecError(
            f"cutoff {filt.cutoff} must be below f_beat {f_beat}")
    if abs(filt.fs * trace.grid.dt - 1.0) > 1e-9:
        raise InvalidSpecError(
            f"filter designed at fs {filt.fs} but the trace is sampled at "
            f"{1.0 / trace.grid.dt}")
    z = filtfilt(filt, 2.0 * trace.samples * _mixer(trace.grid, f_beat))
    step = out_grid.dt / trace.grid.dt
    step_int = int(round(step))
    if abs(step - step_int) > 1e-6 or step_int < 1:
        raise InvalidSpecError("out_grid rate must divide the trace rate")
    offs = (out_grid.t0 - trace.grid.t0) / trace.grid.dt
    k0 = int(round(offs))
    if abs(offs - k0) > 1e-6:
        raise InvalidSpecError("out_grid is not sample-aligned with trace")
    idx = k0 + step_int * np.arange(out_grid.n)
    if idx[0] < 0 or idx[-1] >= trace.grid.n:
        raise InvalidSpecError("out_grid extends beyond the trace")
    return ComplexEnvelope(out_grid, z[idx])


# The carriers depend only on the grid and f_beat, which stay fixed over
# the shots of a loop, so each is computed once and shared read-only.
@lru_cache(maxsize=16)
def _beat_carrier(t0: float, fs: float, n: int, f_beat: float) -> np.ndarray:
    t = t0 + np.arange(n) / fs
    out = np.exp(2j * np.pi * f_beat * t)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=16)
def _mixer(grid: TimeGrid, f_beat: float) -> np.ndarray:
    out = np.exp(-2j * np.pi * f_beat * grid.times())
    out.setflags(write=False)
    return out
