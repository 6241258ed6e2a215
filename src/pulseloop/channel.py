"""Simulated acousto-optic modulator channel.

The device under test applies, in order: the bulk acoustic delay, a
complex offset-plus-FIR distortion (drive electronics and transducer
response), the quadrature phase distortion that a focused beam picks up
from the traveling acoustic wave, and additive noise. The module also
exposes the underlying reflectance integral and its phase extraction so
the distortion physics can be tested in isolation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np
import scipy.fft as sfft

from .envelope import (DEFAULT_DT, ComplexEnvelope, InvalidSpecError,
                       TimeGrid, ZeroSignalError, _check_integer, _check_real,
                       _support, embed)
from .optics import DESIGN_TARGET_WAIST, DESIGN_WAVELENGTH
from .sysid import DEFAULT_MEMORY, VolterraModel, _forward_samples
from . import demod as _demod

DEFAULT_DELAY = 1.4e-6          # acoustic propagation to the beam, s
DEFAULT_VELOCITY = 650.0        # shear-mode acoustic velocity, m/s

CALIBRATION_PEAK = 0.25         # calibration target: peak phase, rad,
CALIBRATION_FWHM = 0.3e-6       # of a Gaussian pulse of this FWHM, s

# Chirp coefficient of the phase-mismatch term, rad/m: the far-field
# divergence scale 2*wavelength/(pi*w0^2) = 64.96 rad/m times 62.43. It
# gives the calibration pulse a 0.2506 rad peak phase, 0.25 % above
# calibrate_kappa's 4045.0; the shipped value is kept because every
# simulated channel depends on it, and a test bounds the drift.
KAPPA_CALIBRATED = 4055.3

MIN_QUADRATURE_STEPS = 64       # lattice points per acoustic transit
DEFAULT_REFINE = 3              # sub-lattice points per envelope sample


@dataclass(frozen=True)
class AcoustoOpticParams:
    """Geometry of the modulator interaction.

    The acoustic velocity, the beam waist and the bounds of the
    interaction region; ``L1`` and ``L2`` may be passed as None to
    request a +/- 3 waist window.
    """

    v: float = DEFAULT_VELOCITY
    w0: float = DESIGN_TARGET_WAIST
    L1: float | None = None
    L2: float | None = None

    def __post_init__(self):
        _check_real("v", self.v, 0, strict=True)
        _check_real("w0", self.w0, 0, strict=True)
        if self.L1 is None:
            object.__setattr__(self, "L1", -3.0 * self.w0)
        if self.L2 is None:
            object.__setattr__(self, "L2", 3.0 * self.w0)
        _check_real("L1", self.L1)
        _check_real("L2", self.L2)
        if self.L1 >= self.L2:
            raise InvalidSpecError(
                f"degenerate interaction region [{self.L1}, {self.L2}]")

    @property
    def transit_time(self) -> float:
        """Acoustic travel time across the interaction region, s."""
        return (self.L2 - self.L1) / self.v


def reflectance_trace(p_env: ComplexEnvelope, params: AcoustoOpticParams,
                      kappa: float, refine: int = DEFAULT_REFINE) -> np.ndarray:
    """Complex reflectance r(t) of the traveling acoustic envelope.

    Evaluates r(t) = Integral_{L1}^{L2} w(z) P(t - z/v) e^{i kappa z^2 / w0}
    dz with Gaussian weighting w(z) = exp(-z^2/w0^2) by composite
    trapezoid quadrature. The physical reflectance's constant complex
    prefactor is left out: downstream only the phase relative to the
    peak and |r| relative to its maximum are used, and a constant factor
    cancels in both. The z lattice is locked to the acoustic
    retardation: z = m * v * dt / refine, so P(t - z/v) is the envelope's
    linear interpolant evaluated without phase error. The interpolation
    is folded into the kernel (a polyphase decomposition), so the
    convolution runs at the envelope rate rather than on the refined
    lattice. That kernel depends only on the geometry (v, w0, L1, L2),
    ``dt``, ``kappa`` and ``refine``, not on the envelope, so it and its
    spectrum (per transform size) are memoized, and a repeat call
    transforms only the envelope. Only the span from the first to the
    last nonzero amplitude sample is transformed: r is exactly zero
    beyond the kernel's reach of that span (the whole-window transform
    left FFT residue of about 1e-17 there, far below the 1e-6 validity
    floor of ``quadrature_phase``, so the valid samples are the same), and
    equal to the whole-window transform to rounding elsewhere.

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
    _check_integer("refine", refine, 1)
    p = p_env.amplitude
    n = len(p)
    key = (params.v, params.w0, params.L1, params.L2, p_env.grid.dt, kappa,
           refine)
    kern, c1, d_lo = _polyphase_kernel(*key)
    r = np.zeros(n, dtype=complex)
    lo, hi = _support(p)
    if hi == lo:
        return r
    # The transforms scipy.signal.fftconvolve runs on the nonzero span of
    # p, with the kernel's spectrum taken from the cache instead of
    # recomputed.
    length = hi - lo + len(kern) - 1
    size = sfft.next_fast_len(length, False)
    full = sfft.ifft(sfft.fft(p[lo:hi], size)
                     * _kernel_spectrum(*key, size))[:length]
    # The moved c1 reads p[0] one step before the refined signal starts,
    # and misses np.interp's end clamp (p[-1] held one step past the end);
    # both are zero unless the span reaches that end of the envelope.
    if lo == 0:
        full[:len(c1)] -= p[0] * c1
    if hi == n:
        full[n - lo:] += p[-1] * c1
    k0 = lo + d_lo - 1  # output sample of full[0]
    a = max(0, k0)
    b = max(a, min(n, length + k0))
    r[a:b] = full[a - k0:b - k0]
    return r


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
    Any constant phase offset is removed by referencing the phase to zero
    at the envelope maximum.
    """
    r = np.asarray(r, dtype=complex)
    a = np.abs(r)
    vidx = _valid_samples(a)
    ph = np.repeat(np.unwrap(np.angle(r[vidx])), _hold_runs(vidx, len(a)))
    return ph - ph[int(np.argmax(a))]


def _valid_samples(a: np.ndarray) -> np.ndarray:
    """Indices where an amplitude trace is at least 1e-6 of its maximum."""
    amax = float(a.max(initial=0.0))
    if amax == 0.0:
        raise ZeroSignalError("reflectance trace is identically zero")
    return np.flatnonzero(a >= 1e-6 * amax)


def _hold_runs(vidx: np.ndarray, n: int) -> np.ndarray:
    """Samples of an n-sample trace each valid sample is held over.

    For each valid index, the number of consecutive samples whose
    nearest valid sample it is (a tie goes to the earlier one), so
    ``np.repeat(x[vidx], runs)`` holds ``x`` at every sample's nearest
    valid sample.
    """
    # A valid sample holds through the midpoint to the next valid one, so
    # a sample midway between two goes to the earlier.
    ends = (vidx[:-1] + vidx[1:]) // 2
    return np.diff(ends, prepend=-1, append=n - 1)


def _phase_factor(r: np.ndarray) -> np.ndarray:
    """``exp(1j * quadrature_phase(r))``, without computing the phase.

    The unit phasor r/|r| held at each sample's nearest valid sample,
    times the conjugate of its value at the amplitude peak: the same
    factor in exact arithmetic, with no unwrap and no complex exp
    (within 1e-15 on the gate-standin record windows). When the valid
    samples form one run, as on the record window of a single pulse,
    the phasor is taken on that run in place and its end values are
    held outside it with two slice fills; several runs are gathered and
    held with ``np.repeat``. Both give the same factor bit for bit.
    """
    a = np.abs(r)
    vidx = _valid_samples(a)
    k = int(np.argmax(a))
    c = np.conj(r[k]) / a[k]
    lo, hi = int(vidx[0]), int(vidx[-1]) + 1
    if hi - lo == len(vidx):
        u = r.copy()
        u[lo:hi] *= c / a[lo:hi]
        u[:lo] = u[lo]
        u[hi:] = u[hi - 1]
        return u
    u = r[vidx]
    u *= c / a[vidx]
    return np.repeat(u, _hold_runs(vidx, len(r)))


def peak_quadrature_phase(env: ComplexEnvelope, params: AcoustoOpticParams,
                          kappa: float) -> float:
    """Peak |phase| of the quadrature distortion over the pulse support.

    The peak is taken where the reflectance amplitude is at least 1 % of
    its maximum: outside that support the held phase reflects the
    validity boundary, not the envelope-tracking lobe.
    """
    r = reflectance_trace(env, params, kappa)
    th = quadrature_phase(r)
    a = np.abs(r)
    sel = a >= 0.01 * a.max()
    return float(np.max(np.abs(th[sel])))


def calibrate_kappa(params: AcoustoOpticParams) -> float:
    """Chirp coefficient giving the calibration pulse its peak phase.

    Sweeps kappa along the rising branch of the peak-phase curve and
    root-finds the value at which a Gaussian pulse of FWHM
    ``CALIBRATION_FWHM``, sampled at ``DEFAULT_DT``, acquires
    ``CALIBRATION_PEAK`` radians of quadrature phase (peak measured over
    the pulse support, see ``peak_quadrature_phase``).
    """
    import scipy.optimize as opt  # deferred: no other command needs it
    fwhm, dt, target_peak = CALIBRATION_FWHM, DEFAULT_DT, CALIBRATION_PEAK
    n = int(round(8 * fwhm / dt))
    t = (np.arange(n) - (n - 1) / 2) * dt
    p = np.exp(-4 * np.log(2) * (t / fwhm) ** 2)
    env = ComplexEnvelope(TimeGrid(0.0, dt, n), p.astype(complex))

    def peak_phase(kappa):
        return peak_quadrature_phase(env, params, kappa)

    scale = 2.0 * DESIGN_WAVELENGTH / (np.pi * params.w0 ** 2)
    hi = scale
    while peak_phase(hi) < target_peak:
        hi *= 2.0
        if hi > 1e6 * scale:
            raise InvalidSpecError("calibration target unreachable")
    lo = hi / 2.0 if hi > scale else 0.0
    return float(opt.brentq(lambda k: peak_phase(k) - target_peak, lo, hi,
                            xtol=1e-3))


def default_kernel() -> VolterraModel:
    """Distortion kernel of the simulated drive chain.

    ``DEFAULT_MEMORY`` taps at ``DEFAULT_DT``: a direct-feedthrough tap
    plus a slow complex one-pole response (time constant 60 ns, launched
    at 1.5 rad), normalized so the DC response is exactly
    0.95 * e^{0.15i}: a few-percent gain droop and a small static phase,
    with the pole shaping the passband smoothly enough that the channel
    stays invertible across the measurement band.
    """
    direct, pole_w, psi, tau = 0.45, 0.55, 1.5, 60e-9
    gain, phase0 = 0.95, 0.15
    j = np.arange(DEFAULT_MEMORY)
    a = np.exp(-DEFAULT_DT / tau)
    h = np.zeros(DEFAULT_MEMORY, dtype=complex)
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
        _check_real("delay", self.delay, 0)
        _check_real("noise_sigma", self.noise_sigma, 0)
        _check_real("mismatch_kappa", self.mismatch_kappa)
        _check_integer("seed", self.seed, 0)


def apply_channel(env: ComplexEnvelope,
                  config: ChannelConfig) -> ComplexEnvelope:
    """Send an envelope through the simulated distorting channel.

    Stages: the bulk delay, offset-plus-FIR distortion, quadrature phase
    multiplication e^{i theta(t)} driven by the current amplitude (when
    enabled; applied as the reflectance's unit phasor, see
    ``_phase_factor``), then additive complex Gaussian noise of standard
    deviation ``noise_sigma`` per complex sample. The delay moves the grid
    origin instead of the samples: the output grid starts
    d = round(delay/dt) samples after ``env.grid.t0``, so no delay
    truncates the response.
    Repeat calls with the same config are bit-identical; the generator
    is created per call from the entropy ``[config.seed, 1]``, a stream
    apart from the trace noise that ``synthesize_beat`` draws from
    ``config.seed``, and draws one value pair per output sample.
    Each stage runs only where its input is nonzero: the kernel convolves
    the request's nonzero span (outside it the output is exactly ``h0``),
    the reflectance transforms the nonzero span of the kernel's output,
    and the phase factor is taken over r's nonzero span, held at its end
    values outside it. Zero padding therefore costs nothing, stays exact
    zeros when ``h0`` is zero, and the shot equals the whole-window
    composition to rounding; a kernel with ``h0`` != 0 or a request with
    no zero padding makes the span the whole window.
    """
    g = env.grid
    d = _delay_samples(config, g.dt)
    grid = TimeGrid(g.t0 + d * g.dt, g.dt, g.n)
    y = _forward_samples(config.volterra, env.samples)
    if config.aom_enabled:
        r = reflectance_trace(ComplexEnvelope(grid, y), config.aom,
                              config.mismatch_kappa)
        # Outside r's nonzero span every sample holds the phasor of the
        # span's first or last valid sample.
        lo, hi = _support(r)
        u = _phase_factor(r[lo:hi])
        y[:lo] *= u[0]
        y[lo:hi] *= u
        y[hi:] *= u[-1]
    if config.noise_sigma > 0:
        rng = np.random.default_rng([config.seed, 1])
        noise = rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n)
        y += config.noise_sigma / np.sqrt(2) * noise
    return ComplexEnvelope(grid, y)


def record_response(env: ComplexEnvelope, config: ChannelConfig,
                    cutoff: float = _demod.DEFAULT_CUTOFF) -> ComplexEnvelope:
    """Channel response to a request on the window it is recorded on.

    The window opens ``SimulatedChannel.PAD_PRE`` samples before the
    delayed response and closes at least ``post_pad`` samples behind the
    end of the request, counted on the request's own grid, its tail
    extended until the window's length is ``scipy.fft.next_fast_len`` of
    itself: the demodulator's Fourier upsampler then transforms a fast
    length whatever the delay, kernel, cutoff or pulse. The request is
    padded with ``PAD_PRE`` zeros ahead and that tail less d behind, and
    ``apply_channel`` then moves the origin by the d delay samples, so
    none of the samples ahead of the response are computed, and its
    stages skip the padding's zeros.
    """
    dt = env.grid.dt
    pre = SimulatedChannel.PAD_PRE
    tail = post_pad(config, dt, cutoff) - _delay_samples(config, dt)
    n = pre + env.grid.n + tail
    return apply_channel(embed(env, pre, tail + sfft.next_fast_len(n) - n),
                         config)


class SimulatedChannel:
    """Measurement front end around the simulated channel.

    ``measure`` records the channel's response to a request on the
    window of ``record_response`` (from just before the delayed response
    to the end of its ringing and filter settling, rounded up to a fast
    transform length), renders it as a noisy heterodyne beat trace, and
    demodulates it back to an envelope on that window. Callers recover
    the bulk delay with ``align_delay`` and crop to their working grid.

    Shot k draws its trace noise from ``seed + k``, from the window's
    first trace sample on, as ``pulseloop simulate`` does, and its
    envelope noise (``config.noise_sigma``) from ``[config.seed + k, 1]``:
    repeated measurements differ shot to shot, but a rebuilt instance
    replays the identical sequence, and shot 0 is the ``simulate`` shot.
    The trace runs at ``demod.DEFAULT_FS`` with its beat at
    ``demod.DEFAULT_F_BEAT``. The constructor designs the
    order-``DEFAULT_ORDER`` demodulation filter and runs ``demod``'s
    cutoff check, so a cutoff that is not finite or lies at or above the
    beat, a trace noise sigma that is not a finite real >= 0 and a seed
    that is not an integer >= 0 fail before the first shot.
    """

    PAD_PRE = 500      # samples ahead of the delayed response
    PAD_POST = 2200    # least samples behind the request, see ``post_pad``

    def __init__(self, config: ChannelConfig | None = None,
                 cutoff: float = _demod.DEFAULT_CUTOFF,
                 trace_noise_sigma: float = 0.0, seed: int = 0):
        self.filter = _demod.design_lowpass(_demod.DEFAULT_ORDER, cutoff,
                                            _demod.DEFAULT_FS)
        _demod._check_cutoff(cutoff, _demod.DEFAULT_F_BEAT)
        _check_real("trace_noise_sigma", trace_noise_sigma, 0)
        _check_integer("seed", seed, 0)
        self.config = config if config is not None else ChannelConfig()
        self.cutoff = cutoff
        self.trace_noise_sigma = trace_noise_sigma
        self.seed = seed
        self.calls = 0

    def measure(self, env: ComplexEnvelope) -> ComplexEnvelope:
        config = self.config
        if config.noise_sigma > 0:
            config = replace(config, seed=config.seed + self.calls)
        out = record_response(env, config, self.cutoff)
        trace = _demod.synthesize_beat(out, _demod.DEFAULT_F_BEAT,
                                       _demod.DEFAULT_FS,
                                       noise_sigma=self.trace_noise_sigma,
                                       seed=self.seed + self.calls)
        self.calls += 1
        return _demod.demodulate(trace, _demod.DEFAULT_F_BEAT, self.filter,
                                 out.grid)


def post_pad(config: ChannelConfig, dt: float,
             cutoff: float = _demod.DEFAULT_CUTOFF) -> int:
    """Least samples from the end of a request to the end of its window.

    Counted on the request's grid: the response outlasts the request by
    the bulk delay, the kernel memory, one acoustic transit (when the
    modulator stage is on) and the settling of a demodulation filter at
    ``cutoff`` (three of its periods, as in ``filtfilt``'s padding);
    never less than ``SimulatedChannel.PAD_POST``. ``record_response``
    extends the window past it to a fast transform length.
    """
    need = (_delay_samples(config, dt) + len(config.volterra.h1)
            + int(np.ceil(3.0 / (cutoff * dt))))
    if config.aom_enabled:
        need += int(np.ceil(config.aom.transit_time / dt))
    return max(SimulatedChannel.PAD_POST, need)


def _delay_samples(config: ChannelConfig, dt: float) -> int:
    return int(round(config.delay / dt))
