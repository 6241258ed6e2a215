"""Simulated acousto-optic modulator channel.

The device under test applies, in order: the bulk acoustic delay, a
complex offset-plus-FIR distortion (drive electronics and transducer
response), the quadrature phase distortion that a focused beam picks up
from the traveling acoustic wave, and additive noise. The module also
exposes the underlying reflectance integral and its phase extraction so
the distortion physics can be tested in isolation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.fft as sfft
import scipy.optimize as opt

from .envelope import (ComplexEnvelope, InvalidSpecError, TimeGrid,
                       ZeroSignalError, embed)
from .sysid import VolterraModel, volterra_forward
from . import demod as _demod

DEFAULT_DELAY = 1.4e-6          # acoustic propagation to the beam, s
DEFAULT_VELOCITY = 650.0        # shear-mode acoustic velocity, m/s
DEFAULT_F_ACOUSTIC = 100e6      # drive frequency, Hz
DEFAULT_WAVELENGTH = 405e-9     # optical wavelength, m
DEFAULT_WAIST = 63e-6           # beam waist at the crystal, m
DEFAULT_INDEX = 2.26            # refractive index
DEFAULT_ETA = 1e-5              # index-modulation amplitude

# Chirp coefficient of the phase-mismatch term, rad/m. Starting point is
# the far-field divergence scale 2*wavelength/(pi*w0^2) = 64.96 rad/m;
# the shipped value is that scale times 62.43, fixed by calibrate_kappa
# so a 0.3 us FWHM Gaussian pulse acquires a 0.25 rad peak phase.
KAPPA_CALIBRATED = 4055.3

MIN_QUADRATURE_STEPS = 64       # lattice points per acoustic transit
DEFAULT_REFINE = 3              # sub-lattice points per envelope sample


@dataclass(frozen=True)
class AcoustoOpticParams:
    """Geometry and material constants of the modulator interaction.

    ``theta0``, ``L1`` and ``L2`` may be passed as None to request the
    Bragg-matched angle and a +/- 3 waist interaction window.
    """

    v: float = DEFAULT_VELOCITY
    f_acoustic: float = DEFAULT_F_ACOUSTIC
    wavelength: float = DEFAULT_WAVELENGTH
    w0: float = DEFAULT_WAIST
    n0: float = DEFAULT_INDEX
    eta: float = DEFAULT_ETA
    theta0: float | None = None
    L1: float | None = None
    L2: float | None = None
    phi: float = 0.0

    def __post_init__(self):
        if self.v <= 0 or self.w0 <= 0:
            raise InvalidSpecError("v and w0 must be positive")
        if not 0 < self.eta < self.n0:
            raise InvalidSpecError("eta must satisfy 0 < eta << n0")
        if self.theta0 is None:
            bragg = np.arcsin(self.q * self.wavelength / (4 * np.pi * self.n0))
            object.__setattr__(self, "theta0", float(bragg))
        if self.L1 is None:
            object.__setattr__(self, "L1", -3.0 * self.w0)
        if self.L2 is None:
            object.__setattr__(self, "L2", 3.0 * self.w0)
        if self.L1 >= self.L2:
            raise InvalidSpecError(
                f"degenerate interaction region [{self.L1}, {self.L2}]")

    @property
    def q(self) -> float:
        """Acoustic wavenumber 2 pi f / v, rad/m."""
        return 2.0 * np.pi * self.f_acoustic / self.v

    @property
    def r0(self) -> float:
        """Incremental reflectance per unit length, 1/m."""
        return self.q * self.eta / (4.0 * self.n0 * np.sin(self.theta0) ** 2)

    @property
    def transit_time(self) -> float:
        """Acoustic travel time across the interaction region, s."""
        return (self.L2 - self.L1) / self.v


def divergence_kappa(params: AcoustoOpticParams) -> float:
    """Far-field divergence scale 2*wavelength/(pi*w0^2), rad/m."""
    return 2.0 * params.wavelength / (np.pi * params.w0 ** 2)


def reflectance_trace(p_env: ComplexEnvelope, params: AcoustoOpticParams,
                      kappa: float, refine: int = DEFAULT_REFINE) -> np.ndarray:
    """Complex reflectance r(t) of the traveling acoustic envelope.

    Evaluates r(t) = -i r0 e^{i phi} Integral_{L1}^{L2} w(z) P(t - z/v)
    e^{i kappa z^2 / w0} dz with Gaussian weighting w(z) = exp(-z^2/w0^2)
    by composite trapezoid quadrature. The z lattice is locked to the
    acoustic retardation: z = m * v * dt / refine, so P(t - z/v) is the
    envelope's linear interpolant evaluated without phase error. The
    interpolation is folded into the kernel (a polyphase decomposition),
    so the convolution runs at the envelope rate rather than on the
    refined lattice. That kernel depends only on the geometry (v, w0,
    L1, L2), ``dt``, ``kappa`` and ``refine``, not on the envelope, so
    it and its spectrum (per transform size) are memoized, and a repeat
    call transforms only the envelope.

    Parameters
    ----------
    p_env : ComplexEnvelope
        Drive envelope; its amplitude |s(t)| serves as P(t).
    params : AcoustoOpticParams
        Interaction geometry; bounds [L1, L2] truncate the integral.
    kappa : float
        Chirp coefficient of the phase mismatch, rad/m.
    refine : int
        Sub-lattice points per envelope sample; the default gives
        step-halving agreement below 1e-6 relative.

    Returns
    -------
    numpy.ndarray
        Complex r(t) with one entry per envelope sample.
    """
    if refine < 1:
        raise InvalidSpecError(f"refine must be >= 1, got {refine}")
    p = p_env.amplitude
    n = len(p)
    key = (params.v, params.w0, params.L1, params.L2, p_env.grid.dt, kappa,
           refine)
    kern, c1, d_lo = _polyphase_kernel(*key)
    # The transforms scipy.signal.fftconvolve runs, with the kernel's
    # spectrum taken from the cache instead of recomputed.
    length = n + len(kern) - 1
    size = sfft.next_fast_len(length, False)
    full = sfft.ifft(sfft.fft(p, size) * _kernel_spectrum(*key, size))[:length]
    # The moved c1 reads p[0] one step before the refined signal starts,
    # and misses np.interp's end clamp (p[-1] held one step past the end).
    full[:len(c1)] -= p[0] * c1
    full[n:] += p[-1] * c1
    k0 = d_lo - 1  # output sample of full[0]
    r = np.zeros(n, dtype=complex)
    lo = max(0, k0)
    hi = max(lo, min(n, len(full) + k0))
    r[lo:hi] = full[lo - k0:hi - k0]
    pref = -1j * params.r0 * np.exp(1j * params.phi)
    return pref * r


@lru_cache(maxsize=32)
def _polyphase_kernel(v: float, w0: float, L1: float, L2: float, dt: float,
                      kappa: float, refine: int):
    """Read-only envelope-rate kernel, its c1 part and d_lo."""
    dz = v * dt / refine
    m_lo = int(np.ceil(L1 / dz))
    m_hi = int(np.floor(L2 / dz))
    if m_hi - m_lo < MIN_QUADRATURE_STEPS:
        raise InvalidSpecError(
            f"only {m_hi - m_lo} quadrature steps across the interaction "
            f"region; need >= {MIN_QUADRATURE_STEPS} (reduce dt or refine)")
    m = np.arange(m_lo, m_hi + 1)
    z = m * dz
    g = np.exp(-(z / w0) ** 2) * np.exp(1j * kappa * z ** 2 / w0)
    w = np.full(len(z), dz)
    w[0] *= 0.5
    w[-1] *= 0.5
    ker = g * w
    # Lattice point m lies s = refine*d - m sub-steps before coarse sample
    # d = ceil(m / refine), so the interpolant weighs p[k-d] by 1 - s/refine
    # and p[k-d+1] by s/refine. Summing over each d gives two coarse
    # kernels c0 and c1 from d_lo = ceil(m_lo / refine); c1 moved one
    # sample earlier joins c0 in one kernel starting at d_lo - 1.
    d = -(-m // refine)
    frac = (refine * d - m) / refine
    d_lo = int(d[0])
    c0 = np.zeros(d[-1] - d_lo + 1, dtype=complex)
    c1 = np.zeros_like(c0)
    np.add.at(c0, d - d_lo, ker * (1.0 - frac))
    np.add.at(c1, d - d_lo, ker * frac)
    kern = np.append(0.0, c0) + np.append(c1, 0.0)
    kern.setflags(write=False)
    c1.setflags(write=False)
    return kern, c1, d_lo


@lru_cache(maxsize=32)
def _kernel_spectrum(v: float, w0: float, L1: float, L2: float, dt: float,
                     kappa: float, refine: int, size: int) -> np.ndarray:
    """Read-only length-``size`` FFT of ``_polyphase_kernel``'s kernel."""
    spec = sfft.fft(_polyphase_kernel(v, w0, L1, L2, dt, kappa, refine)[0],
                    size)
    spec.setflags(write=False)
    return spec


def quadrature_phase(r) -> np.ndarray:
    """Time-varying phase of a reflectance trace, offsets removed.

    Unwraps arg(r) over the samples where |r| is at least 1e-6 of its
    maximum; below that the phase is held at its nearest valid neighbor
    (the argument of a vanishing complex number carries no information).
    The static -pi/2 and acoustic-phase offsets are removed by
    referencing the phase to zero at the envelope maximum.
    """
    r = np.asarray(r, dtype=complex)
    a = np.abs(r)
    amax = float(a.max(initial=0.0))
    if amax == 0.0:
        raise ZeroSignalError("reflectance trace is identically zero")
    vidx = np.flatnonzero(a >= 1e-6 * amax)
    ph_valid = np.unwrap(np.angle(r[vidx]))
    idx = np.arange(len(r))
    right = np.clip(np.searchsorted(vidx, idx), 0, len(vidx) - 1)
    left = np.clip(right - 1, 0, len(vidx) - 1)
    use_left = np.abs(idx - vidx[left]) <= np.abs(vidx[right] - idx)
    ph = ph_valid[np.where(use_left, left, right)]
    return ph - ph[int(np.argmax(a))]


def peak_quadrature_phase(env: ComplexEnvelope, params: AcoustoOpticParams,
                          kappa: float, amp_floor: float = 0.01) -> float:
    """Peak |phase| of the quadrature distortion over the pulse support.

    The peak is taken where the reflectance amplitude is at least
    ``amp_floor`` of its maximum: outside that support the held phase
    reflects the validity boundary, not the envelope-tracking lobe.
    """
    r = reflectance_trace(env, params, kappa)
    th = quadrature_phase(r)
    a = np.abs(r)
    sel = a >= amp_floor * a.max()
    return float(np.max(np.abs(th[sel])))


def calibrate_kappa(params: AcoustoOpticParams, target_peak: float = 0.25,
                    fwhm: float = 0.3e-6, dt: float = 1e-9) -> float:
    """Chirp coefficient giving a chosen peak phase on a Gaussian pulse.

    Sweeps kappa along the rising branch of the peak-phase curve and
    root-finds the value at which a Gaussian pulse of the given FWHM
    acquires ``target_peak`` radians of quadrature phase (peak measured
    over the pulse support, see ``peak_quadrature_phase``).
    """
    n = int(round(8 * fwhm / dt))
    t = (np.arange(n) - (n - 1) / 2) * dt
    p = np.exp(-4 * np.log(2) * (t / fwhm) ** 2)
    env = ComplexEnvelope(TimeGrid(0.0, dt, n), p.astype(complex))

    def peak_phase(kappa):
        return peak_quadrature_phase(env, params, kappa)

    scale = divergence_kappa(params)
    hi = scale
    while peak_phase(hi) < target_peak:
        hi *= 2.0
        if hi > 1e6 * scale:
            raise InvalidSpecError("calibration target unreachable")
    lo = hi / 2.0 if hi > scale else 0.0
    return float(opt.brentq(lambda k: peak_phase(k) - target_peak, lo, hi,
                            xtol=1e-3))


def default_kernel(dt: float = 1e-9, memory: int = 64) -> VolterraModel:
    """Distortion kernel of the simulated drive chain.

    A direct-feedthrough tap plus a slow complex one-pole response
    (time constant 60 ns, launched at 1.5 rad), normalized so the DC
    response is exactly 0.95 * e^{0.15i}: a few-percent gain droop and a
    small static phase, with the pole shaping the passband smoothly
    enough that the channel stays invertible across the measurement
    band.
    """
    direct, pole_w, psi, tau = 0.45, 0.55, 1.5, 60e-9
    gain, phase0 = 0.95, 0.15
    j = np.arange(memory)
    a = np.exp(-dt / tau)
    h = np.zeros(memory, dtype=complex)
    h[0] += direct
    h += pole_w * np.exp(1j * psi) * (1 - a) * a ** j
    h = h / np.sum(h) * gain * np.exp(1j * phase0)
    return VolterraModel(h0=0.0, h1=h)


@dataclass(frozen=True)
class ChannelConfig:
    """Complete description of the simulated channel."""

    delay: float = DEFAULT_DELAY
    volterra: VolterraModel = field(default_factory=default_kernel)
    aom: AcoustoOpticParams = field(default_factory=AcoustoOpticParams)
    aom_enabled: bool = True
    mismatch_kappa: float = KAPPA_CALIBRATED
    noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not (np.isfinite(self.delay) and self.delay >= 0):
            raise InvalidSpecError(
                f"delay must be finite and >= 0, got {self.delay}")
        if not (np.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise InvalidSpecError(
                f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")
        if not np.isfinite(self.mismatch_kappa):
            raise InvalidSpecError(
                f"mismatch_kappa must be finite, got {self.mismatch_kappa}")


def apply_channel(env: ComplexEnvelope,
                  config: ChannelConfig) -> ComplexEnvelope:
    """Send an envelope through the simulated distorting channel.

    Stages: the bulk delay, offset-plus-FIR distortion, quadrature phase
    multiplication e^{i theta(t)} driven by the current amplitude (when
    enabled), then additive complex Gaussian noise of standard deviation
    ``noise_sigma`` per complex sample. The delay moves the grid origin
    instead of the samples: the output grid starts d = round(delay/dt)
    samples after ``env.grid.t0``, so no delay truncates the response.
    Repeat calls with the same config are bit-identical; the generator
    is created per call from ``config.seed`` and draws one value pair
    per output sample.
    """
    g = env.grid
    d = _delay_samples(config, g.dt)
    out = ComplexEnvelope(TimeGrid(g.t0 + d * g.dt, g.dt, g.n), env.samples)
    out = volterra_forward(config.volterra, out)
    if config.aom_enabled:
        r = reflectance_trace(out, config.aom, config.mismatch_kappa)
        theta = quadrature_phase(r)
        out = out.with_samples(out.samples * np.exp(1j * theta))
    if config.noise_sigma > 0:
        rng = np.random.default_rng(config.seed)
        noise = (rng.standard_normal(env.grid.n)
                 + 1j * rng.standard_normal(env.grid.n))
        out = out.with_samples(out.samples
                               + config.noise_sigma / np.sqrt(2) * noise)
    return out


def record_response(env: ComplexEnvelope, config: ChannelConfig,
                    cutoff: float = _demod.DEFAULT_CUTOFF) -> ComplexEnvelope:
    """Channel response to a request on the window it is recorded on.

    The window opens ``SimulatedChannel.PAD_PRE`` samples before the
    delayed response and closes ``post_pad`` samples behind the end of
    the request, counted on the request's own grid. The request is
    padded with ``PAD_PRE`` zeros ahead and ``post_pad - d`` behind, and
    ``apply_channel`` then moves the origin by the d delay samples, so
    none of the samples ahead of the response are computed.
    """
    dt = env.grid.dt
    tail = post_pad(config, dt, cutoff) - _delay_samples(config, dt)
    return apply_channel(embed(env, SimulatedChannel.PAD_PRE, tail), config)


class SimulatedChannel:
    """Measurement front end around the simulated channel.

    ``measure`` records the channel's response to a request on the
    window of ``record_response`` (from just before the delayed response
    to the end of its ringing and filter settling), renders it as a
    noisy heterodyne beat trace, and demodulates it back to an envelope
    on that window. Callers recover the bulk delay with ``align_delay``
    and crop to their working grid.

    Each call draws fresh trace noise from a per-instance seed sequence,
    so repeated measurements differ shot to shot but a rebuilt instance
    replays the identical sequence. The noise of each trace sample
    depends only on its time relative to the request, not on the delay:
    the draws for the delay's samples ahead of the window are skipped.
    The constructor rejects a cutoff at or above the beat, an
    undersampled beat and a trace noise sigma that is negative or not
    finite, so a bad setting fails before the first shot.
    """

    PAD_PRE = 500      # samples ahead of the delayed response
    PAD_POST = 2200    # least samples behind the request, see ``post_pad``

    def __init__(self, config: ChannelConfig | None = None,
                 cutoff: float = _demod.DEFAULT_CUTOFF,
                 trace_noise_sigma: float = 0.0, seed: int = 0,
                 f_beat: float = _demod.DEFAULT_F_BEAT,
                 fs: float = _demod.DEFAULT_FS, filter_order: int = 4):
        if fs <= 2 * f_beat:
            raise _demod.AliasingError(
                f"fs {fs} must exceed twice f_beat {f_beat}")
        if cutoff >= f_beat:
            raise InvalidSpecError(
                f"cutoff {cutoff} must be below f_beat {f_beat}")
        if not (np.isfinite(trace_noise_sigma) and trace_noise_sigma >= 0):
            raise InvalidSpecError(f"trace_noise_sigma must be finite and "
                                   f">= 0, got {trace_noise_sigma}")
        self.config = config if config is not None else ChannelConfig()
        self.cutoff = cutoff
        self.trace_noise_sigma = trace_noise_sigma
        self.seed = seed
        self.f_beat = f_beat
        self.fs = fs
        self.filter = _demod.design_lowpass(filter_order, cutoff, fs)
        self.calls = 0

    def measure(self, env: ComplexEnvelope) -> ComplexEnvelope:
        out = record_response(env, self.config, self.cutoff)
        rng = np.random.default_rng(self.seed + self.calls)
        skipped = _delay_samples(self.config, env.grid.dt)
        rng.standard_normal(skipped * int(round(self.fs * env.grid.dt)))
        trace = _demod.synthesize_beat(out, self.f_beat, self.fs,
                                       noise_sigma=self.trace_noise_sigma,
                                       seed=rng)
        self.calls += 1
        return _demod.demodulate(trace, self.f_beat, self.filter, out.grid)


def post_pad(config: ChannelConfig, dt: float,
             cutoff: float = _demod.DEFAULT_CUTOFF) -> int:
    """Samples from the end of a request to the end of its window.

    Counted on the request's grid: the response outlasts the request by
    the bulk delay, the kernel memory, one acoustic transit (when the
    modulator stage is on) and the settling of a demodulation filter at
    ``cutoff`` (three of its periods, as in ``filtfilt``'s padding);
    never less than ``SimulatedChannel.PAD_POST``.
    """
    need = (_delay_samples(config, dt) + len(config.volterra.h1)
            + int(np.ceil(3.0 / (cutoff * dt))))
    if config.aom_enabled:
        need += int(np.ceil(config.aom.transit_time / dt))
    return max(SimulatedChannel.PAD_POST, need)


def _delay_samples(config: ChannelConfig, dt: float) -> int:
    return int(round(config.delay / dt))
