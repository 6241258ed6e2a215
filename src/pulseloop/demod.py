"""Heterodyne beat-note synthesis and zero-phase IQ demodulation.

The measurement chain represents an envelope as the real voltage
v(t) = Re[s(t) e^{i 2 pi f_beat t}] on a fast detector grid, and recovers
it by mixing back down, low-pass filtering both quadratures with a
forward-backward Butterworth filter, and resampling to the working grid.

The Butterworth sections are designed in closed form, and each filter
pass runs as an exact block recursion on the cascade's state-space form
(C. S. Burrus, "Block realization of digital filters", IEEE Trans. Audio
Electroacoust. 20(4), 1972), so the module needs only ``scipy.fft`` and
``scipy.linalg``, which ``import pulseloop`` loads anyway.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.fft as sfft
from scipy.linalg import lapack, toeplitz

from .envelope import (ComplexEnvelope, InvalidSpecError, TimeGrid,
                       _check_integer, _check_real, _frozen_samples)

DEFAULT_FS = 2e9        # trace sample rate, 2 GS/s
DEFAULT_F_BEAT = 200e6  # beat at twice the 100 MHz modulator drive
DEFAULT_ORDER = 4
DEFAULT_CUTOFF = 20e6

# Samples per block of a filter pass: each block costs three small matrix
# products, and the states at the block edges one banded solve.
_BLOCK = 64


class AliasingError(InvalidSpecError):
    """Sample rate too low to resolve the beat note."""


@dataclass(frozen=True)
class BeatTrace:
    """Real-valued detector record on a high-rate grid."""

    grid: TimeGrid
    samples: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "samples", _frozen_samples(
            self.samples, float, self.grid.n))


@dataclass(frozen=True, eq=False)
class FilterSpec:
    """Low-pass filter as a stable cascade of second-order sections.

    Each row of ``sos`` is ``[b0, b1, b2, 1, a1, a2]``, run in transposed
    direct form II as ``scipy.signal.sosfilt`` runs it; a first-order
    section has b2 = a2 = 0. Computed once here, read-only: ``zi``, the
    steady-state response of each section to a unit step (the state
    ``scipy.signal.sosfilt_zi`` returns), which ``filtfilt`` scales by
    the edge value of each pass, and the block operators ``filtfilt``
    runs the cascade with. Compared and hashed by identity, so a filter
    can key a cache; ``design_lowpass`` shares one per setting.
    """

    order: int
    cutoff: float
    fs: float
    sos: np.ndarray
    zi: np.ndarray = field(init=False, repr=False, compare=False)
    _blocks: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        arr = np.array(self.sos, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 6 or len(arr) == 0:
            raise InvalidSpecError(
                f"sos must have shape (n_sections, 6), got {arr.shape}")
        if not np.all(arr[:, 3] == 1.0):
            raise InvalidSpecError("sos[:, 3] must be all ones")
        zi = _steady_state(arr)
        blocks = _block_operators(arr)
        for a in (arr, zi) + blocks:
            a.setflags(write=False)
        object.__setattr__(self, "sos", arr)
        object.__setattr__(self, "zi", zi)
        object.__setattr__(self, "_blocks", blocks)


def _steady_state(sos: np.ndarray) -> np.ndarray:
    # A section at rest under a constant input u holds z = u * zi_s with
    # [[1 + a1, -1], [a2, 1]] zi_s = [b1 - a1 b0, b2 - a2 b0]; its input
    # is the unit step scaled by the DC gain of the sections before it.
    b, a = sos[:, :3], sos[:, 3:]
    m = np.zeros((len(sos), 2, 2))
    m[:, 0, 0] = 1.0 + a[:, 1]
    m[:, 0, 1] = -1.0
    m[:, 1, 0] = a[:, 2]
    m[:, 1, 1] = 1.0
    zi = np.linalg.solve(m, (b[:, 1:] - a[:, 1:] * b[:, :1])[..., None])
    gain = np.cumprod(np.concatenate(([1.0], b.sum(1)[:-1] / a.sum(1)[:-1])))
    return zi[..., 0] * gain[:, None]


def _block_operators(sos: np.ndarray) -> tuple:
    """Operators of one ``_BLOCK``-sample step of the section cascade.

    With x_k the input block k and z_k the 2 x n_sections states before
    it, y_k = O z_k + T x_k and z_k+1 = A^L z_k + G x_k. They come from
    running the cascade's own recursion for L steps, from each unit state
    with no input and from rest on a unit impulse: products of the state
    matrix would round more on poles near the unit circle. Returned
    transposed for row-vector blocks, (T', O', G'), with A^L laid out as
    the band of the lower-triangular system that chains the states.
    """
    n_state = 2 * len(sos)
    z = np.zeros((len(sos), 2, n_state + 1))
    z.reshape(n_state, n_state + 1)[:, :n_state] = np.eye(n_state)
    out = np.empty((_BLOCK, n_state + 1))
    g = np.empty((_BLOCK, n_state))
    u = np.zeros(n_state + 1)
    u[-1] = 1.0
    for j in range(_BLOCK):
        for (b0, b1, b2, _, a1, a2), zs in zip(sos, z):
            y = b0 * u + zs[0]
            zs[0] = b1 * u - a1 * y + zs[1]
            zs[1] = b2 * u - a2 * y
            u = y
        out[j] = u
        g[_BLOCK - 1 - j] = z[:, :, -1].ravel()
        u = np.zeros(n_state + 1)
    power = z[:, :, :-1].reshape(n_state, n_state)
    # Column j of the system: 1 on the diagonal, -A^L[:, j] in the next
    # block's rows, n_state - j to 2 n_state - 1 - j below it.
    band = np.zeros((2 * n_state, n_state))
    band[0] = 1.0
    for j in range(n_state):
        band[n_state - j:2 * n_state - j, j] = -power[:, j]
    return np.triu(toeplitz(out[:, -1])), out[:, :-1].T.copy(), g, band


@lru_cache(maxsize=32, typed=True)
def design_lowpass(order: int, cutoff: float, fs: float) -> FilterSpec:
    """Design a Butterworth low-pass as second-order sections.

    The analog prototype's poles -exp(i pi m / 2 order) are mapped by the
    bilinear transform, prewarped so the -3 dB point lands on ``cutoff``;
    each conjugate pair makes one section with a double zero at z = -1
    and unit gain at DC, and an odd order adds one first-order section
    for the real pole. Sections run from the pole farthest from the unit
    circle to the nearest, as ``scipy.signal.butter`` orders them.

    Memoized on the arguments and their types, so ``4.0`` or ``True``
    never finds the filter of order ``4`` or ``1``: a ``FilterSpec`` is
    frozen with read-only arrays, so every caller with the same settings
    shares one.

    Parameters
    ----------
    order : int
        Filter order, an integer (not a bool) 1 through 12.
    cutoff : float
        -3 dB frequency in Hz; must be below fs/2.
    fs : float
        Sample rate the filter will run at; must be finite.
    """
    _check_integer("order", order, 1)
    if order > 12:
        raise InvalidSpecError(f"order must be in [1, 12], got {order}")
    _check_real("cutoff", cutoff, 0, strict=True)
    _check_real("fs", fs, 0, strict=True)
    if not cutoff < fs / 2:
        raise InvalidSpecError(
            f"cutoff {cutoff} must lie in (0, fs/2={fs / 2})")
    t = np.tan(np.pi * cutoff / fs)
    sos = []
    if order % 2:
        g = t / (1 + t)
        sos.append([g, g, 0.0, 1.0, -(1 - t) / (1 + t), 0.0])
    for m in range(1 + order % 2, order, 2):
        # s = -cos(phi) +- i sin(phi) maps to z = (1 + t s) / (1 - t s).
        c = np.cos(np.pi * m / (2 * order))
        d = 1 + 2 * t * c + t * t
        g = t * t / d
        sos.append([g, 2 * g, g, 1.0, -2 * (1 - t * t) / d,
                    (1 - 2 * t * c + t * t) / d])
    return FilterSpec(order=order, cutoff=cutoff, fs=fs, sos=np.array(sos))


def filtfilt(filt: FilterSpec, x) -> np.ndarray:
    """Forward-backward filtering with reflective edge padding.

    Zero net phase in the passband; the effective magnitude response is
    |H|^2. Padding is odd-reflection of length 3x(filter order) at both
    ends, extended automatically when the cutoff transient is longer.
    Each pass starts from the filter's stored steady state ``filt.zi``
    scaled by its first sample: the recipe of
    ``scipy.signal.sosfiltfilt`` with ``padtype="odd"``, which the
    output matches to rounding (1e-12 of max |x| for cutoffs down to
    fs/100). Complex input is filtered as its real and imaginary parts,
    two rows of one pass buffer with the same operations on each, so the
    result equals filtering them apart bit for bit. ``demodulate`` mixes
    its trace straight into the rows of the same buffer.
    """
    x = np.ascontiguousarray(x, complex if np.iscomplexobj(x) else float)
    rows = (x.view(float).reshape(len(x), 2).T if x.dtype == complex
            else x[None])
    y = _filtfilt_rows(filt, len(x), len(rows),
                       lambda dst: np.copyto(dst, rows))
    if x.dtype != complex:
        return y[0]
    out = np.empty(len(x), dtype=complex)
    out.real, out.imag = y
    return out


def _filtfilt_rows(filt: FilterSpec, n: int, n_rows: int,
                   fill) -> np.ndarray:
    """``filtfilt`` of ``n_rows`` real signals of ``n`` samples each.

    ``fill(dst)`` writes the signals into ``dst``, an (n_rows, n) view of
    the pass buffer, so a caller can compute them in place. Returns an
    (n_rows, n) view of the second pass's output.
    """
    min_len = 3 * filt.order
    if n <= min_len:
        raise InvalidSpecError(
            f"sequence length {n} too short for order {filt.order}")
    # Transient of a cutoff-limited filter spans ~fs/cutoff samples; pad
    # generously so edge effects stay out of the record interior. Rounded,
    # so a rate read back from a file 1 ulp low pads the same.
    padlen = min(n - 1, max(min_len, round(3 * filt.fs / filt.cutoff)))
    # Both passes run in one zero-filled buffer of whole blocks, so a call
    # allocates few large arrays: each costs fresh, page-faulted memory.
    n_ext = n + 2 * padlen
    buf = np.zeros((n_rows, -(-n_ext // _BLOCK) * _BLOCK))
    rows = buf[:, padlen:padlen + n]
    fill(rows)
    buf[:, :padlen] = 2 * rows[:, :1] - rows[:, padlen:0:-1]
    buf[:, padlen + n:n_ext] = 2 * rows[:, -1:] - rows[:, -2:-(padlen + 2):-1]
    zi = filt.zi.ravel()
    y = _block_pass(filt, buf, buf[:, :1] * zi)
    buf[:, :n_ext] = y[:, n_ext - 1::-1]
    y = _block_pass(filt, buf, buf[:, :1] * zi)
    return y[:, n_ext - 1 - padlen:padlen - 1:-1]


def _block_pass(filt: FilterSpec, buf: np.ndarray,
                z0: np.ndarray) -> np.ndarray:
    """Run the cascade over each row of ``buf`` from the states ``z0``.

    The rows hold whole blocks of ``_BLOCK`` samples. The states entering
    the blocks solve the recursion z_k+1 = A^L z_k + G x_k as one banded
    lower-triangular system; the outputs are then T x_k + O z_k. Every
    row takes the same operations, so a row's result does not depend on
    the rows beside it.
    """
    t_op, o_op, g_op, band = filt._blocks
    rows = len(buf)
    n_state = len(band[0])
    xb = buf.reshape(rows, -1, _BLOCK)
    k = xb.shape[1]
    rhs = np.empty((rows, k, n_state))
    rhs[:, 0] = z0
    np.matmul(xb[:, :-1], g_op, out=rhs[:, 1:])
    z, _ = lapack.dtbtrs(_chain_band(filt, k),
                         rhs.reshape(rows, k * n_state).T, uplo="L")
    y = xb @ t_op
    y += z.T.reshape(rows, k, n_state) @ o_op
    return y.reshape(rows, -1)


# The chain of k blocks depends only on the filter and k, which stay fixed
# over the shots of a loop, so it is built once and shared read-only by
# both passes of every shot.
@lru_cache(maxsize=16)
def _chain_band(filt: FilterSpec, k: int) -> np.ndarray:
    """Band of the system chaining the states of ``k`` blocks, in LAPACK's
    column-major layout."""
    out = np.asfortranarray(np.tile(filt._blocks[3], k))
    out.setflags(write=False)
    return out


def suggested_cutoff(duration: float) -> float:
    """Low-pass cutoff matched to a pulse duration.

    Scales inversely with duration so shorter pulses keep their edge and
    phase-jump bandwidth, clipped to [20 MHz, 120 MHz]; the upper clip
    keeps the 2x beat image rejected after forward-backward filtering.
    """
    _check_real("duration", duration, 0, strict=True)
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
    seed : int
        Noise generator seed, an integer >= 0; identical seeds give
        identical traces.

    Returns
    -------
    BeatTrace
        v(t) = Re[s(t) e^{i 2 pi f_beat t}] + n(t) starting at env.grid.t0.
    """
    _check_beat(f_beat, fs)
    _check_real("noise_sigma", noise_sigma, 0)
    _check_integer("seed", seed, 0)
    up = fs * env.grid.dt
    up_int = int(round(up))
    if abs(up - up_int) > 1e-9 or up_int < 1:
        raise InvalidSpecError(
            f"fs {fs} must be an integer multiple of the envelope rate")
    grid = TimeGrid(t0=env.grid.t0, dt=1.0 / fs, n=env.grid.n * up_int)
    hi = _upsample(env.samples, grid.n)
    hi *= _carrier(grid, f_beat)
    v = hi.real
    if noise_sigma > 0:
        noise = np.random.default_rng(seed).standard_normal(grid.n)
        noise *= noise_sigma
        v += noise
    return BeatTrace(grid, v)


def demodulate(trace: BeatTrace, f_beat: float, filt: FilterSpec,
               out_grid: TimeGrid) -> ComplexEnvelope:
    """Recover the complex envelope from a beat-note trace.

    Mixes with e^{-i 2 pi f_beat t}, the conjugate of the carrier
    ``synthesize_beat`` uses on the same grid, scales by 2 to undo the
    half lost to the negative-frequency image, filters the complex
    baseband with one zero-phase ``filtfilt``, and decimates onto
    ``out_grid``. The mix is written as its two real rows, 2v cos and
    -2v sin, straight into the filter's pass buffer, and the decimation
    is a strided slice of the filtered rows: no full-length complex
    array is made, and the result equals
    ``filtfilt(filt, conj(2 v carrier))`` decimated, bit for bit.

    The trace rate must exceed 2*f_beat (``AliasingError``), the filter
    cutoff must stay below f_beat so the image at 2*f_beat is rejected,
    the filter must be designed for the trace's sample rate, and
    ``out_grid`` must be sample-aligned with the trace, its period a
    whole multiple of the trace's.
    """
    _check_beat(f_beat, 1.0 / trace.grid.dt)
    _check_cutoff(filt.cutoff, f_beat)
    if abs(filt.fs * trace.grid.dt - 1.0) > 1e-9:
        raise InvalidSpecError(
            f"filter designed at fs {filt.fs} but the trace is sampled at "
            f"{1.0 / trace.grid.dt}")
    step = _decimation(out_grid.dt, trace.grid.dt)
    offs = (out_grid.t0 - trace.grid.t0) / trace.grid.dt
    k0 = int(round(offs))
    if abs(offs - k0) > 1e-6:
        raise InvalidSpecError("out_grid is not sample-aligned with trace")
    stop = k0 + step * (out_grid.n - 1) + 1
    if k0 < 0 or stop > trace.grid.n:
        raise InvalidSpecError("out_grid extends beyond the trace")
    v2 = 2.0 * trace.samples
    carrier = _carrier(trace.grid, f_beat)

    def mix(rows):
        np.multiply(v2, carrier.real, out=rows[0])
        np.negative(v2, out=v2)
        np.multiply(v2, carrier.imag, out=rows[1])

    y = _filtfilt_rows(filt, trace.grid.n, 2, mix)[:, k0:stop:step]
    z = np.empty(out_grid.n, dtype=complex)
    z.real, z.imag = y
    return ComplexEnvelope(out_grid, z)


def _decimation(out_dt: float, trace_dt: float) -> int:
    """Trace samples per output sample, ``out_dt / trace_dt``.

    The ratio must be a positive whole number to 1e-6, so the output
    samples fall on trace samples.
    """
    step = out_dt / trace_dt
    k = round(step) if np.isfinite(step) else 0
    if k < 1 or abs(step - k) > 1e-6:
        raise InvalidSpecError(
            f"output period {out_dt} s must be a positive whole multiple "
            f"of the trace period {trace_dt} s")
    return k


def _upsample(x: np.ndarray, num: int) -> np.ndarray:
    """Fourier interpolation of complex ``x`` onto ``num`` >= len(x) points.

    The two-sided branch of ``scipy.signal.resample``, operation for
    operation, so equal to it bit for bit: the spectrum is zero-padded,
    an even-length input's Nyquist bin split between +-fs/2.
    """
    n = len(x)
    spec = sfft.fft(x)
    half = n // 2 + 1
    out = np.zeros(num, dtype=spec.dtype)
    out[:half] = spec[:half]
    if half < n:
        out[half - n:] = spec[half - n:]
    if n % 2 == 0 and num > n:
        out[n // 2] /= 2
        out[num - n // 2] = out[n // 2]
    out /= n / num
    return sfft.ifft(out, overwrite_x=True)


# The carrier depends only on the trace grid and f_beat, which stay fixed
# over the shots of a loop, so it is computed once and shared read-only
# by the synthesis and the demodulation of each shot.
@lru_cache(maxsize=16)
def _carrier(grid: TimeGrid, f_beat: float) -> np.ndarray:
    """e^{i 2 pi f_beat t} on the trace grid's times."""
    out = np.exp(2j * np.pi * f_beat * grid.times())
    out.setflags(write=False)
    return out


def _check_beat(f_beat: float, fs: float) -> None:
    """Beat and rate are finite and > 0, and the rate resolves the beat."""
    _check_real("f_beat", f_beat, 0, strict=True)
    _check_real("fs", fs, 0, strict=True)
    if fs <= 2 * f_beat:
        raise AliasingError(f"fs {fs} must exceed twice f_beat {f_beat}")


def _check_cutoff(cutoff: float, f_beat: float) -> None:
    """The filter cutoff lies below the beat, so the 2 f_beat image is
    rejected."""
    if not cutoff < f_beat:
        raise InvalidSpecError(
            f"cutoff {cutoff} must be below f_beat {f_beat}")
