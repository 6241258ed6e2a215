"""Simulated distorting channel: delay, kernel, quadrature physics, noise."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.fft as sfft
import scipy.signal as sig

from pulseloop.channel import (CALIBRATION_FWHM, CALIBRATION_PEAK,
                               KAPPA_CALIBRATED, AcoustoOpticParams,
                               ChannelConfig, SimulatedChannel, apply_channel,
                               calibrate_kappa, default_kernel, post_pad,
                               peak_quadrature_phase, quadrature_phase,
                               record_response, reflectance_trace,
                               _kernel_spectrum, _phase_factor,
                               _polyphase_kernel)
from pulseloop.demod import (DEFAULT_F_BEAT, DEFAULT_FS, DEFAULT_ORDER,
                             demodulate, design_lowpass, filtfilt,
                             suggested_cutoff, synthesize_beat)
from pulseloop.envelope import (ComplexEnvelope, InvalidSpecError, PulseSpec,
                                TimeGrid, ZeroSignalError, align_delay,
                                default_grid, embed, make_pulse,
                                shift_samples)
from pulseloop.loop import LoopConfig, _align_to_target, closed_loop
from pulseloop.sysid import VolterraModel, volterra_forward

PARAMS = AcoustoOpticParams()


def _identity_config(**overrides):
    base = dict(delay=0.0, volterra=VolterraModel.identity(),
                aom_enabled=False, noise_sigma=0.0)
    base.update(overrides)
    return ChannelConfig(**base)


def _gaussian_p(fwhm=3e-7, duration=None, dt=1e-9):
    duration = duration or 2 * fwhm
    grid = default_grid(duration, dt=dt)
    return make_pulse(PulseSpec(kind="gaussian", duration=duration,
                                fwhm=fwhm), grid)


# -------------------------------------------------------- AcoustoOpticParams

def test_params_default_bounds_and_transit_time():
    p = PARAMS
    assert p.L1 == pytest.approx(-3 * p.w0)
    assert p.L2 == pytest.approx(3 * p.w0)
    assert p.transit_time == pytest.approx(6 * p.w0 / p.v)


def test_params_validation():
    with pytest.raises(InvalidSpecError):
        AcoustoOpticParams(w0=-1e-6)
    with pytest.raises(InvalidSpecError):
        AcoustoOpticParams(L1=1e-4, L2=-1e-4)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, "650", True])
@pytest.mark.parametrize("field", ["v", "w0", "L1", "L2"])
def test_params_name_a_geometry_that_is_not_a_finite_real(field, value):
    # A NaN used to surface in the first shot as a ValueError or an
    # IndexError, an infinite L2 as an OverflowError; an infinite w0 ran.
    with pytest.raises(InvalidSpecError, match=f"^{field} must be"):
        AcoustoOpticParams(**{field: value})


# -------------------------------------------------------------- ChannelConfig

@pytest.mark.parametrize("field, value", [
    ("delay", np.nan), ("delay", np.inf), ("delay", -1e-9),
    ("noise_sigma", np.nan), ("noise_sigma", np.inf), ("noise_sigma", -0.1),
    ("mismatch_kappa", np.nan), ("mismatch_kappa", np.inf),
    ("mismatch_kappa", -np.inf), ("seed", -1), ("seed", 1.5),
    ("seed", 2.0), ("seed", True),
    ("delay", "1e-6"), ("delay", True), ("noise_sigma", "0.1"),
    ("noise_sigma", True), ("mismatch_kappa", "4e3"),
    ("mismatch_kappa", True),
])
def test_channel_config_rejects_non_finite_values(field, value):
    with pytest.raises(InvalidSpecError, match=field):
        ChannelConfig(**{field: value})


# --------------------------------------------------------- reflectance_trace

def test_reflectance_zero_input_zero_output():
    grid = TimeGrid(0.0, 1e-9, 512)
    p = ComplexEnvelope(grid, np.zeros(512, dtype=complex))
    r = reflectance_trace(p, PARAMS, kappa=1000.0)
    np.testing.assert_array_equal(r, np.zeros(512, dtype=complex))


def test_reflectance_matched_constant_has_fixed_phase():
    # kappa = 0 removes the mismatch chirp; a constant drive then gives
    # constant |r| and phase 0 once the transit has filled.
    grid = TimeGrid(0.0, 1e-9, 2048)
    p = ComplexEnvelope(grid, np.ones(2048, dtype=complex))
    r = reflectance_trace(p, PARAMS, kappa=0.0)
    # The transit also rolls off at the end of the grid where the drive
    # runs out, so exclude one transit on both sides.
    transit = int(np.ceil(PARAMS.transit_time / grid.dt))
    core = r[transit + 8:-(transit + 8)]
    np.testing.assert_allclose(np.abs(core), np.abs(core[0]), rtol=1e-9)
    np.testing.assert_allclose(np.angle(core), 0.0, atol=1e-9)


def test_reflectance_rectangular_pulse_refinement_oracle():
    # Independent high-resolution quadrature: the same integral on a 4x
    # finer z-lattice must agree to 1e-6 of the trace scale. Relative
    # error is measured against max |r| because the rectangle's sharp
    # edges make pointwise ratios meaningless where r crosses zero.
    grid = TimeGrid(0.0, 1e-9, 4096)
    t = grid.times()
    p = np.where((t > 1e-6) & (t < 3e-6), 1.0, 0.0).astype(complex)
    env = ComplexEnvelope(grid, p)
    coarse = reflectance_trace(env, PARAMS, kappa=2000.0, refine=3)
    fine = reflectance_trace(env, PARAMS, kappa=2000.0, refine=12)
    scale = np.max(np.abs(fine))
    assert np.max(np.abs(coarse - fine)) / scale < 1e-6


def test_reflectance_step_halving_converges():
    env = _gaussian_p()
    a = reflectance_trace(env, PARAMS, KAPPA_CALIBRATED, refine=3)
    b = reflectance_trace(env, PARAMS, KAPPA_CALIBRATED, refine=6)
    scale = np.max(np.abs(b))
    assert np.max(np.abs(a - b)) / scale < 1e-6


def _fine_rate_reflectance(p_env, params, kappa, refine):
    # Oracle: interpolate the amplitude onto the refined z lattice and
    # convolve there directly, then keep every refine-th output.
    p = p_env.amplitude
    n = len(p)
    dz = params.v * p_env.grid.dt / refine
    m_lo = int(np.ceil(params.L1 / dz))
    m_hi = int(np.floor(params.L2 / dz))
    z = np.arange(m_lo, m_hi + 1) * dz
    ker = np.exp(-(z / params.w0) ** 2) * np.exp(1j * kappa * z ** 2
                                                 / params.w0) * dz
    ker[0] *= 0.5
    ker[-1] *= 0.5
    p_fine = np.interp(np.arange(n * refine) / refine, np.arange(n), p)
    full = np.convolve(p_fine, ker)
    r_fine = np.zeros(len(p_fine), dtype=complex)
    lo = max(0, m_lo)
    hi = min(len(p_fine), len(full) + m_lo)
    r_fine[lo:hi] = full[lo - m_lo:hi - m_lo]
    return r_fine[::refine]


def _reflectance_inputs():
    rng = np.random.default_rng(30)
    cases = {}
    # Uniform noise never vanishes, so the last sample exercises the
    # interpolant's end clamp.
    for n in (100, 3060):
        cases[f"noise-{n}"] = ComplexEnvelope(
            TimeGrid(0.0, 1e-9, n), 0.2 + rng.random(n)
            + 1j * rng.standard_normal(n))
    for duration in (1.8e-7, 2e-6):
        grid = default_grid(duration)
        cases[f"gate-{grid.n}"] = make_pulse(
            PulseSpec(kind="gate-standin", duration=duration), grid)
    # A drive still on at the window end, on a short grid.
    cases["ramp-200"] = ComplexEnvelope(
        TimeGrid(0.0, 1e-9, 200), np.linspace(0.0, 1.0, 200) + 0j)
    return cases


@pytest.mark.parametrize("refine", [1, 2, 3, 5])
@pytest.mark.parametrize("name", sorted(_reflectance_inputs()))
def test_reflectance_matches_fine_rate_oracle(refine, name):
    env = _reflectance_inputs()[name]
    got = reflectance_trace(env, PARAMS, KAPPA_CALIBRATED, refine=refine)
    want = _fine_rate_reflectance(env, PARAMS, KAPPA_CALIBRATED, refine)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_reflectance_rejects_degenerate_region_and_coarse_grid():
    env = _gaussian_p()
    with pytest.raises(InvalidSpecError):
        AcoustoOpticParams(L1=2e-4, L2=2e-4)
    # 50 ns samples put fewer than 64 quadrature steps across the
    # transit at refine=1.
    grid = TimeGrid(0.0, 5e-8, 128)
    coarse = ComplexEnvelope(grid, np.ones(128, dtype=complex))
    with pytest.raises(InvalidSpecError):
        reflectance_trace(coarse, PARAMS, kappa=0.0, refine=1)


@pytest.mark.parametrize("refine", [1.5, 0, True])
def test_reflectance_rejects_a_refine_that_is_not_a_positive_integer(refine):
    # 1.5 used to fail inside NumPy with a bare TypeError.
    with pytest.raises(InvalidSpecError, match="refine"):
        reflectance_trace(_gaussian_p(), PARAMS, KAPPA_CALIBRATED,
                          refine=refine)


# ---------------------------------------------------------- quadrature_phase

def test_phase_of_minus_i_constant_is_zero():
    r = -1j * 0.37 * np.ones(256)
    theta = quadrature_phase(r)
    np.testing.assert_allclose(theta, 0.0, atol=1e-12)


def test_conjugation_flips_the_phase():
    env = _gaussian_p()
    r = reflectance_trace(env, PARAMS, KAPPA_CALIBRATED)
    a = quadrature_phase(r)
    b = quadrature_phase(np.conj(r))
    valid = np.abs(r) >= 1e-6 * np.max(np.abs(r))
    np.testing.assert_allclose(a[valid], -b[valid], atol=1e-9)


def test_phase_rejects_zero_input():
    with pytest.raises(ZeroSignalError):
        quadrature_phase(np.zeros(16, dtype=complex))


def test_phase_held_at_nearest_valid_neighbor():
    env = _gaussian_p()
    r = reflectance_trace(env, PARAMS, KAPPA_CALIBRATED)
    theta = quadrature_phase(r)
    valid = np.where(np.abs(r) >= 1e-6 * np.max(np.abs(r)))[0]
    assert theta[0] == theta[valid[0]]
    assert theta[-1] == theta[valid[-1]]


def _held_oracle(r):
    # Each sample's nearest valid sample by brute force; np.argmin takes
    # the first of two equally near ones, the earlier.
    a = np.abs(r)
    vidx = np.flatnonzero(a >= 1e-6 * a.max())
    pos = np.argmin(np.abs(np.arange(len(r))[:, None] - vidx), axis=1)
    return vidx, pos


def test_phase_held_at_nearest_valid_sample_across_interior_gaps():
    rng = np.random.default_rng(11)
    n = 96
    base = np.exp(1j * np.cumsum(rng.uniform(-2.5, 2.5, n)))
    traces = []
    # Gaps of odd and even length inside the trace, and at both ends.
    for gaps in ([(10, 11), (20, 22), (30, 33), (40, 44)],
                 [(0, 5), (50, 57), (70, 78), (90, 96)],
                 [(i, i + 1) for i in range(1, n - 1, 2)]):
        r = base.copy()
        for lo, hi in gaps:
            r[lo:hi] *= 1e-9
        traces.append(r)
    for _ in range(200):
        m = int(rng.integers(1, 80))
        r = (rng.standard_normal(m) + 1j * rng.standard_normal(m))
        r[rng.random(m) < rng.uniform(0.1, 0.9)] *= 1e-8
        traces.append(r)
    for r in traces:
        vidx, pos = _held_oracle(r)
        ph = np.unwrap(np.angle(r[vidx]))[pos]
        expected = ph - ph[int(np.argmax(np.abs(r)))]
        np.testing.assert_array_equal(quadrature_phase(r), expected)


def test_phase_ignores_a_constant_factor_of_the_reflectance():
    # reflectance_trace leaves out the physical reflectance's constant
    # prefactor; this is why it may: the phasor and the phase depend on r
    # only relative to its peak. Scaling r by any c != 0 moves them by
    # rounding only, here under 1e-14 (they are of order 1; the largest
    # difference seen is 1.6e-15). c spans twelve decades and includes
    # the old prefactor's magnitude and phase (-i * 5627 at phi = 0).
    rng = np.random.default_rng(20)
    cs = [-5627.2j] + list(10 ** rng.uniform(-6, 6, 4)
                          * np.exp(2j * np.pi * rng.random(4)))
    for duration in (1.8e-7, 5e-7, 2e-6):
        r = reflectance_trace(_record_window(duration), PARAMS,
                              KAPPA_CALIBRATED)
        for c in cs:
            np.testing.assert_allclose(_phase_factor(c * r), _phase_factor(r),
                                       rtol=0, atol=1e-14)
            np.testing.assert_allclose(quadrature_phase(c * r),
                                       quadrature_phase(r), rtol=0,
                                       atol=1e-14)


def _gathered_phase_factor(r):
    # The phasor at the valid samples, gathered, then held with np.repeat
    # over the run of samples nearest each.
    a = np.abs(r)
    vidx = np.flatnonzero(a >= 1e-6 * a.max())
    ends = (vidx[:-1] + vidx[1:]) // 2
    runs = np.diff(ends, prepend=-1, append=len(a) - 1)
    k = int(np.argmax(a))
    u = r[vidx]
    u *= np.conj(r[k]) / a[k] / a[vidx]
    return np.repeat(u, runs)


def test_phase_factor_paths_equal_the_gathered_hold_bit_for_bit():
    # One run of valid samples takes the slice path, several take the
    # gather; both must give the gathered formula exactly. The record
    # windows' spans (as apply_channel passes them) have invalid samples
    # at both edges; the two pulses leave a gap of invalid samples.
    rng = np.random.default_rng(8)
    spans = []
    for duration in (1.8e-7, 5e-7, 2e-6):
        r = reflectance_trace(_record_window(duration), PARAMS,
                              KAPPA_CALIBRATED)
        nz = np.flatnonzero(r)
        spans.append(r[nz[0]:nz[-1] + 1])
    spans.append(reflectance_trace(_two_pulses(), PARAMS, KAPPA_CALIBRATED))
    for n in (1, 2, 7, 333):
        r = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        spans.append(r)
        for lo, hi in ((1, n), (0, n - 1), (n // 3, n - n // 4)):
            edged = r.copy()
            edged[:lo] *= 1e-9
            edged[hi:] *= 1e-9
            spans.append(edged)
    one_run = 0
    for r in spans:
        vidx = np.flatnonzero(np.abs(r) >= 1e-6 * np.abs(r).max())
        one_run += vidx[-1] - vidx[0] + 1 == len(vidx)
        assert np.array_equal(_phase_factor(r), _gathered_phase_factor(r))
    assert 0 < one_run < len(spans)


def test_gaussian_peak_phase_near_quarter_radian():
    env = _gaussian_p(fwhm=3e-7)
    peak = peak_quadrature_phase(env, PARAMS, KAPPA_CALIBRATED)
    assert peak == pytest.approx(0.25, abs=0.05)


def test_calibrate_kappa_reaches_the_target_peak():
    kappa = calibrate_kappa(PARAMS)
    peak = peak_quadrature_phase(_gaussian_p(fwhm=3e-7), PARAMS, kappa)
    assert peak == pytest.approx(0.25, abs=1e-3)


def test_shipped_kappa_stays_near_the_calibration_target():
    # KAPPA_CALIBRATED is not recomputed (every simulated channel depends
    # on it), so bound its distance from the calibration (0.2506 rad and
    # 0.25 % at the defaults).
    peak = peak_quadrature_phase(_gaussian_p(fwhm=CALIBRATION_FWHM), PARAMS,
                                 KAPPA_CALIBRATED)
    assert peak == pytest.approx(CALIBRATION_PEAK, abs=1e-3)
    assert KAPPA_CALIBRATED == pytest.approx(calibrate_kappa(PARAMS),
                                             rel=5e-3)


# ------------------------------------------------------------- apply_channel

def test_identity_config_is_identity():
    env = _gaussian_p()
    out = apply_channel(env, _identity_config())
    np.testing.assert_array_equal(out.samples, env.samples)


def test_pure_delay_shifts_by_fourteen_hundred_samples():
    # The delay moves the grid origin; the samples stay where they are.
    grid = TimeGrid(0.0, 1e-9, 4096)
    env = make_pulse(PulseSpec(kind="gaussian", duration=8e-7, fwhm=2e-7),
                     grid)
    out = apply_channel(env, _identity_config(delay=1.4e-6))
    np.testing.assert_array_equal(out.samples, env.samples)
    assert out.grid == TimeGrid(1400 * 1e-9, 1e-9, 4096)
    _, delay = align_delay(out, env)
    assert delay == 0.0


def _record_tail(cfg, env, cutoff):
    # Zeros record_response pads behind a request: post_pad less the
    # delay samples, extended until PAD_PRE + request + tail is a fast
    # transform length.
    dt = env.grid.dt
    least = (SimulatedChannel.PAD_PRE + env.grid.n + post_pad(cfg, dt, cutoff)
             - int(round(cfg.delay / dt)))
    return sfft.next_fast_len(least) - SimulatedChannel.PAD_PRE - env.grid.n


def _record_window(duration):
    # A gate-standin request padded to the window measure records it on.
    env = make_pulse(PulseSpec(kind="gate-standin", duration=duration),
                     default_grid(duration))
    tail = _record_tail(ChannelConfig(), env, suggested_cutoff(duration))
    return embed(env, SimulatedChannel.PAD_PRE, tail)


def test_aom_stage_matches_manual_composition():
    # The quadrature stage must equal reflectance + phase extraction
    # applied by hand to the post-kernel signal, on a Gaussian pulse and
    # on the record windows of the gate-standin pulses.
    kernel = default_kernel()
    config = ChannelConfig(delay=0.0, volterra=kernel, aom_enabled=True,
                           noise_sigma=0.0)
    for env in [_gaussian_p()] + [_record_window(duration)
                                  for duration in (1.8e-7, 5e-7, 2e-6)]:
        out = apply_channel(env, config)
        mid = volterra_forward(kernel, env)
        r = reflectance_trace(mid, config.aom, config.mismatch_kappa)
        theta = quadrature_phase(r)
        expected = mid.samples * np.exp(1j * theta)
        np.testing.assert_allclose(out.samples, expected, atol=1e-14)


def test_pure_amplitude_input_gains_time_varying_phase():
    env = _gaussian_p()
    config = ChannelConfig(delay=0.0, volterra=VolterraModel.identity(),
                           aom_enabled=True, noise_sigma=0.0)
    out = apply_channel(env, config)
    on = out.amplitude > 0.05 * np.max(out.amplitude)
    assert np.max(np.abs(out.phase[on])) > 0.1
    assert np.std(out.phase[on]) > 0.01
    # Amplitude profile stays Gaussian-like: single maximum, no ripple
    # above 1% of peak.
    np.testing.assert_allclose(out.amplitude, env.amplitude, rtol=0.02)


def test_phase_vanishes_where_amplitude_is_constant():
    # Long flat plateau: wherever the envelope has been constant for a
    # full transit, the quadrature phase returns to zero.
    grid = TimeGrid(0.0, 1e-9, 6000)
    t = grid.times()
    ramp = 5e-7
    amp = np.clip((t - 5e-7) / ramp, 0, 1) * np.clip((5.5e-6 - t) / ramp, 0, 1)
    env = ComplexEnvelope(grid, amp.astype(complex))
    config = ChannelConfig(delay=0.0, volterra=VolterraModel.identity(),
                           aom_enabled=True, noise_sigma=0.0)
    out = apply_channel(env, config)
    plateau = (t > 1.5e-6) & (t < 4.5e-6)
    assert np.max(np.abs(out.phase[plateau])) < 1e-3


def test_channel_noise_is_bit_deterministic():
    env = _gaussian_p()
    config = _identity_config(noise_sigma=0.05, seed=21)
    a = apply_channel(env, config)
    b = apply_channel(env, config)
    np.testing.assert_array_equal(a.samples, b.samples)
    c = apply_channel(env, _identity_config(noise_sigma=0.05, seed=22))
    assert not np.array_equal(a.samples, c.samples)


def test_envelope_noise_is_not_the_trace_noise_of_the_same_seed():
    # `pulseloop simulate` seeds the envelope and the trace noise from
    # one config seed; the two must still be independent draws.
    env = ComplexEnvelope(TimeGrid(0.0, 1e-9, 200),
                          np.full(200, 0.5, dtype=complex))
    config = _identity_config(noise_sigma=0.05, seed=5)
    clean = apply_channel(env, replace(config, noise_sigma=0.0))
    envelope = (apply_channel(env, config).samples
                - clean.samples).real / (0.05 / np.sqrt(2))
    trace = (synthesize_beat(clean, noise_sigma=0.02, seed=config.seed)
             .samples - synthesize_beat(clean).samples) / 0.02
    assert abs(np.corrcoef(envelope, trace[:200])[0, 1]) < 0.3


def test_channel_rejects_an_oversized_kernel_but_not_delay():
    grid = TimeGrid(0.0, 1e-9, 64)
    env = ComplexEnvelope(grid, np.ones(64, dtype=complex))
    # A delay longer than the window only moves its origin.
    out = apply_channel(env, _identity_config(delay=1e-7))
    assert out.grid.t0 == pytest.approx(1e-7, abs=1e-18)
    np.testing.assert_array_equal(out.samples, env.samples)
    long_kernel = VolterraModel(h0=0.0, h1=np.ones(65, dtype=complex))
    with pytest.raises(InvalidSpecError):
        apply_channel(env, _identity_config(volterra=long_kernel))


# ------------------------------------------------------------ default_kernel

def test_default_kernel_dc_response():
    kernel = default_kernel()
    assert kernel.memory == 64
    dc = kernel.h0 + np.sum(kernel.h1)
    assert abs(dc) == pytest.approx(0.95, abs=1e-12)
    assert np.angle(dc) == pytest.approx(0.15, abs=1e-12)


def test_default_kernel_band_is_well_conditioned():
    kernel = default_kernel()
    h = np.fft.fft(kernel.h1, 1024)
    freqs = np.fft.fftfreq(1024, 1e-9)
    band = np.abs(freqs) <= 120e6
    assert np.min(np.abs(h[band])) > 0.4


# ---------------------------------------------------------- SimulatedChannel

def test_simulated_channel_round_trip_recovers_pulse():
    grid = default_grid(5e-7)
    target = make_pulse(PulseSpec(kind="gaussian", duration=5e-7, fwhm=2e-7),
                        grid)
    chan = SimulatedChannel(ChannelConfig(noise_sigma=0.0), cutoff=24e6)
    out = chan.measure(target)
    assert chan.calls == 1
    aligned, lag = align_delay(out, target)
    # align_delay reports the array-position lag; converting to absolute
    # time by the grid offset recovers the acoustic delay plus a few ns
    # of kernel group delay.
    physical = lag + (out.grid.t0 - target.grid.t0)
    assert physical == pytest.approx(1.4e-6, abs=2e-8)
    # The channel distorts but does not destroy: the aligned output
    # still peaks where the input does, at the kernel's DC gain scale.
    k = int(np.argmax(target.amplitude))
    assert aligned.samples[:grid.n][k] == pytest.approx(
        0.95 * np.exp(0.15j) * target.samples[k], rel=0.2)


def test_simulated_channel_fresh_noise_per_call_replayable():
    grid = default_grid(5e-7)
    target = make_pulse(PulseSpec(kind="gaussian", duration=5e-7, fwhm=2e-7),
                        grid)
    a = SimulatedChannel(trace_noise_sigma=0.02, seed=5)
    first, second = a.measure(target), a.measure(target)
    assert not np.array_equal(first.samples, second.samples)
    b = SimulatedChannel(trace_noise_sigma=0.02, seed=5)
    np.testing.assert_array_equal(b.measure(target).samples, first.samples)
    np.testing.assert_array_equal(b.measure(target).samples, second.samples)


def test_envelope_noise_is_drawn_per_shot_and_replayable():
    # Shot k draws config.noise_sigma from config.seed + k; every shot
    # used to add the seed's one pattern, which the model-free loop then
    # learned. Shot 0 is the shot `pulseloop simulate` records.
    target = make_pulse(PulseSpec(kind="gate-standin", duration=5e-7),
                        default_grid(5e-7))
    config = ChannelConfig(noise_sigma=0.05, seed=3)

    def shot(k):
        out = record_response(target, replace(config, seed=3 + k), 24e6)
        trace = synthesize_beat(out)
        return demodulate(trace, 200e6, design_lowpass(4, 24e6, 2e9),
                          out.grid).samples

    a = SimulatedChannel(config, cutoff=24e6)
    first, second = a.measure(target), a.measure(target)
    assert not np.array_equal(first.samples, second.samples)
    assert np.array_equal(first.samples, shot(0))
    assert np.array_equal(second.samples, shot(1))
    b = SimulatedChannel(config, cutoff=24e6)
    assert np.array_equal(b.measure(target).samples, first.samples)
    assert np.array_equal(b.measure(target).samples, second.samples)
    # The channel's own config keeps its seed.
    assert a.config.seed == 3


def test_simulated_channel_filters_at_the_default_order():
    chan = SimulatedChannel(cutoff=24e6)
    assert chan.filter is design_lowpass(DEFAULT_ORDER, 24e6, 2e9)
    assert chan.filter.order == 4


def test_post_pad_keeps_the_default_window_and_grows_with_delay():
    assert post_pad(ChannelConfig(), 1e-9) == SimulatedChannel.PAD_POST
    assert post_pad(ChannelConfig(), 1e-9, cutoff=120e6) == 2200
    transit = int(np.ceil(PARAMS.transit_time / 1e-9))
    assert post_pad(ChannelConfig(delay=5e-6), 1e-9) == (
        5000 + 64 + transit + 150)
    assert post_pad(ChannelConfig(delay=5e-6, aom_enabled=False),
                    1e-9) == 5000 + 64 + 150


@pytest.mark.parametrize("delay", [0.0, 2.6e-6, 3.5e-6, 5e-6])
def test_measurement_window_holds_the_delayed_response(delay):
    # With a pass-through kernel and no modulator stage, a window long
    # enough for the delay returns the whole pulse energy.
    grid = default_grid(5e-7)
    target = make_pulse(PulseSpec(kind="gate-standin", duration=5e-7), grid)
    chan = SimulatedChannel(_identity_config(delay=delay), cutoff=24e6)
    out = chan.measure(target)
    # The window opens 500 samples before the delayed response and ends
    # at least post_pad samples behind the request, on a fast length.
    d = int(round(delay / 1e-9))
    least = 500 + grid.n + post_pad(chan.config, 1e-9, 24e6) - d
    assert out.grid.n == sfft.next_fast_len(least)
    assert out.grid.t0 == pytest.approx(grid.t0 + (d - 500) * 1e-9,
                                        abs=1e-15)
    assert out.norm() == pytest.approx(target.norm(), rel=1e-3)


@pytest.mark.parametrize("method", ["transfer-function",
                                    "transfer-function-free"])
@pytest.mark.parametrize("delay", [1.4e-6, 2.6e-6, 3.5e-6, 5e-6])
def test_closed_loop_converges_across_acoustic_delays(method, delay):
    # Delays past the fixed 2200-sample pad used to truncate the
    # response (2.6 us) or blank it entirely (3.5 us and beyond).
    duration = 5e-7
    target = make_pulse(PulseSpec(kind="gate-standin", duration=duration),
                        default_grid(duration))
    chan = SimulatedChannel(ChannelConfig(delay=delay),
                            cutoff=suggested_cutoff(duration),
                            trace_noise_sigma=0.02, seed=1)
    report = closed_loop(chan.measure, target, LoopConfig(method=method))
    assert report.converged
    assert len(report.records) <= 3


def test_simulated_channel_rejects_cutoff_at_or_above_the_beat():
    # Such a filter passes the 2 f_beat image; it used to fail only at
    # the first measurement.
    for cutoff in (200e6, 250e6):
        with pytest.raises(InvalidSpecError, match="f_beat"):
            SimulatedChannel(cutoff=cutoff)
    SimulatedChannel(cutoff=120e6)


@pytest.mark.parametrize("value", [-0.02, np.nan, np.inf, "0.02", True])
def test_simulated_channel_rejects_bad_trace_noise(value):
    # These used to give the noiseless measurement, bit for bit.
    with pytest.raises(InvalidSpecError, match="trace_noise_sigma"):
        SimulatedChannel(trace_noise_sigma=value)


def test_simulated_channel_rejects_a_negative_seed():
    # Shot k draws from seed + k; a negative seed used to fail only at
    # the first noisy shot, with NumPy's bare ValueError.
    with pytest.raises(InvalidSpecError, match="seed"):
        SimulatedChannel(trace_noise_sigma=0.02, seed=-1)
    SimulatedChannel(trace_noise_sigma=0.02, seed=0)


@pytest.mark.parametrize("seed", [1.5, 2.0, True])
def test_simulated_channel_rejects_a_seed_that_is_not_an_integer(seed):
    # A fractional seed used to fail only at the first noisy shot, with
    # NumPy's TypeError.
    with pytest.raises(InvalidSpecError, match="seed"):
        SimulatedChannel(trace_noise_sigma=0.02, seed=seed)
    SimulatedChannel(trace_noise_sigma=0.02, seed=np.int64(2))


def test_simulated_channel_rejects_a_non_finite_cutoff():
    # NaN fails every comparison, so it must be caught before the cutoff
    # check compares it.
    with pytest.raises(InvalidSpecError, match="cutoff"):
        SimulatedChannel(cutoff=float("nan"))


def test_simulated_channel_rejects_a_cutoff_that_is_not_a_number():
    # A string cutoff used to fail with a bare TypeError in the filter
    # design's window test.
    with pytest.raises(InvalidSpecError, match="cutoff"):
        SimulatedChannel(cutoff="2e7")


# ------------------------------------------- memoized shot-invariant work

def _uncached_kernel(params, dt, kappa, refine):
    # _polyphase_kernel rebuilt on every call: (kernel, c1, d_lo).
    dz = params.v * dt / refine
    m = np.arange(int(np.ceil(params.L1 / dz)),
                  int(np.floor(params.L2 / dz)) + 1)
    z = m * dz
    g = np.exp(-(z / params.w0) ** 2) * np.exp(1j * kappa * z ** 2
                                               / params.w0)
    w = np.full(len(z), dz)
    w[0] *= 0.5
    w[-1] *= 0.5
    ker = g * w
    d = -(-m // refine)
    frac = (refine * d - m) / refine
    d_lo = int(d[0])
    c0 = np.zeros(d[-1] - d_lo + 1, dtype=complex)
    c1 = np.zeros_like(c0)
    np.add.at(c0, d - d_lo, ker * (1.0 - frac))
    np.add.at(c1, d - d_lo, ker * frac)
    return np.append(0.0, c0) + np.append(c1, 0.0), c1, d_lo


def _composed_reflectance(p_env, params, kappa, refine, lo, hi):
    # fftconvolve of |p|[lo:hi] with the uncached kernel, the c1 end
    # corrections of the envelope's first and last samples, placed on the
    # envelope's samples.
    p = p_env.amplitude
    n = len(p)
    kern, c1, d_lo = _uncached_kernel(params, p_env.grid.dt, kappa, refine)
    full = sig.fftconvolve(p[lo:hi], kern)
    if lo == 0:
        full[:len(c1)] -= p[0] * c1
    if hi == n:
        full[n - lo:] += p[-1] * c1
    k0 = lo + d_lo - 1
    r = np.zeros(n, dtype=complex)
    a = max(0, k0)
    b = max(a, min(n, len(full) + k0))
    r[a:b] = full[a - k0:b - k0]
    return r


def _uncached_reflectance(p_env, params, kappa, refine=3):
    # reflectance_trace with its polyphase kernel rebuilt on every call:
    # the transform runs from the first to the last nonzero |p| sample.
    nz = np.flatnonzero(p_env.amplitude)
    return _composed_reflectance(p_env, params, kappa, refine, nz[0],
                                 nz[-1] + 1)


def _whole_window_reflectance(p_env, params, kappa, refine=3):
    # The composition over every sample of the envelope, zeros included.
    return _composed_reflectance(p_env, params, kappa, refine, 0,
                                 p_env.grid.n)


def _uncached_measure(chan, env, shot):
    # SimulatedChannel.measure with every shot-invariant quantity (the
    # reflectance kernel, both carriers, the filter and its operators)
    # recomputed. The window runs from PAD_PRE samples before the delayed
    # response to at least post_pad samples behind the request, rounded
    # up to a fast transform length; the kernel and the reflectance
    # transform the nonzero span of their inputs. Returns the shot,
    # the same shot filtered by scipy's Butterworth design and
    # sosfiltfilt instead, and max |z| of the filter input.
    cfg = chan.config
    assert cfg.noise_sigma == 0
    dt = env.grid.dt
    d = int(round(cfg.delay / dt))
    ext = embed(env, chan.PAD_PRE, _record_tail(cfg, env, chan.cutoff))
    # The kernel's convolution over the request's nonzero span.
    x = ext.samples
    nz = np.flatnonzero(x)
    y = np.full(len(x), cfg.volterra.h0)
    seg = np.convolve(x[nz[0]:nz[-1] + 1], cfg.volterra.h1)[:len(x) - nz[0]]
    y[nz[0]:nz[0] + len(seg)] += seg
    out = ComplexEnvelope(TimeGrid(ext.grid.t0 + d * dt, dt, ext.grid.n), y)
    if cfg.aom_enabled:
        # The unit phasor r/|r| at each sample's nearest valid sample,
        # referenced to the amplitude peak.
        r = _uncached_reflectance(out, cfg.aom, cfg.mismatch_kappa)
        vidx, pos = _held_oracle(r)
        a = np.abs(r)
        k = int(np.argmax(a))
        held = vidx[pos]
        u = r[held] * (np.conj(r[k]) / a[k] / a[held])
        out = out.with_samples(out.samples * u)
    up = int(round(DEFAULT_FS * dt))
    n_hi = out.grid.n * up
    # One time axis, the trace grid's, for the beat and the mixer.
    t = TimeGrid(out.grid.t0, 1.0 / DEFAULT_FS, n_hi).times()
    v = np.real(sig.resample(out.samples, n_hi)
                * np.exp(2j * np.pi * DEFAULT_F_BEAT * t))
    rng = np.random.default_rng(chan.seed + shot)
    v = v + chan.trace_noise_sigma * rng.standard_normal(n_hi)
    z = 2.0 * v * np.exp(-2j * np.pi * DEFAULT_F_BEAT * t)
    filt = design_lowpass.__wrapped__(chan.filter.order, chan.cutoff,
                                      DEFAULT_FS)
    padlen = min(n_hi - 1, max(3 * chan.filter.order,
                               int(3 * DEFAULT_FS / chan.cutoff)))
    sos = sig.butter(chan.filter.order, chan.cutoff, fs=DEFAULT_FS,
                     output="sos")
    ref = sig.sosfiltfilt(sos, z, padtype="odd", padlen=padlen)
    return filtfilt(filt, z)[::up], ref[::up], np.max(np.abs(z))


def test_measure_equals_the_uncached_pipeline_shot_by_shot():
    # Channels that differ in cutoff, pulse grid, grid origin, modulator
    # geometry and delay take turns, with reflectance calls on other
    # settings in between, so a cache keyed on too little would hand one
    # of them another's kernel or carrier.
    # Every shot draws its noise from the window's first trace sample.
    cases = []
    for duration in (1.8e-7, 5e-7, 2e-6):
        grid = default_grid(duration)
        target = make_pulse(PulseSpec(kind="gate-standin", duration=duration),
                            grid)
        cases.append((SimulatedChannel(cutoff=suggested_cutoff(duration),
                                       trace_noise_sigma=0.02, seed=1),
                      target))
    gate = cases[0][1]
    moved = ComplexEnvelope(TimeGrid(gate.grid.t0 + 37e-9, gate.grid.dt,
                                     gate.grid.n), gate.samples)
    narrow = ChannelConfig(aom=AcoustoOpticParams(w0=50e-6),
                           mismatch_kappa=2000.0)
    cases += [
        (SimulatedChannel(cutoff=40e6, trace_noise_sigma=0.02, seed=2),
         moved),
        (SimulatedChannel(narrow, cutoff=40e6, trace_noise_sigma=0.02,
                          seed=5), gate),
    ]
    cases += [(SimulatedChannel(ChannelConfig(delay=delay), cutoff=40e6,
                                trace_noise_sigma=0.02, seed=6), gate)
              for delay in (0.0, 2.6e-6, 5e-6)]
    fine = make_pulse(PulseSpec(kind="gate-standin", duration=1.8e-7),
                      default_grid(1.8e-7, dt=5e-10))
    others = [(gate, AcoustoOpticParams(v=600.0), KAPPA_CALIBRATED, 3),
              (gate, PARAMS, 0.0, 3),
              (gate, PARAMS, KAPPA_CALIBRATED, 2),
              (fine, PARAMS, KAPPA_CALIBRATED, 3)]
    for shot in range(3):
        for k, (chan, env) in enumerate(cases):
            got = chan.measure(env)
            want, ref, scale = _uncached_measure(chan, env, shot)
            assert np.array_equal(got.samples, want), (shot, k)
            # scipy's design and sosfiltfilt agree to rounding.
            assert np.max(np.abs(want - ref)) <= 1e-12 * scale, (shot, k)
            p_env, params, kappa, refine = others[k % len(others)]
            assert np.array_equal(
                reflectance_trace(p_env, params, kappa, refine=refine),
                _uncached_reflectance(p_env, params, kappa, refine)), k


def _gate_window(n):
    # A 500 ns gate pulse opened PAD_PRE samples ahead, as measure does.
    gate = make_pulse(PulseSpec(kind="gate-standin", duration=5e-7),
                      default_grid(5e-7))
    pre = SimulatedChannel.PAD_PRE
    return embed(gate, pre, n - gate.grid.n - pre)


@pytest.mark.parametrize("kappa", [KAPPA_CALIBRATED, 2000.0])
@pytest.mark.parametrize("refine", [1, 3])
@pytest.mark.parametrize("n", [1660, 2300, 5300, 1680, 2304, 5324])
def test_reflectance_equals_the_fftconvolve_composition(n, refine, kappa):
    # The measurement windows at 180 ns / 500 ns / 2 us, before and after
    # they were rounded up to fast transform lengths; the cached
    # kernel spectrum must reproduce fftconvolve's transforms of the
    # nonzero span exactly.
    env = _gate_window(n)
    for _ in range(2):
        assert np.array_equal(
            reflectance_trace(env, PARAMS, kappa, refine=refine),
            _uncached_reflectance(env, PARAMS, kappa, refine))


def _two_pulses():
    # Two 180 ns gates 1,000 zeros apart, farther than the reflectance
    # kernel (583 taps) reaches.
    gate = make_pulse(PulseSpec(kind="gate-standin", duration=1.8e-7),
                      default_grid(1.8e-7))
    x = np.concatenate([np.zeros(300), gate.samples, np.zeros(1000),
                        gate.samples, np.zeros(300)])
    return ComplexEnvelope(TimeGrid(0.0, 1e-9, len(x)), x)


def _constant(n):
    # A request with no zero padding: every sample is nonzero.
    return ComplexEnvelope(TimeGrid(0.0, 1e-9, n),
                           np.full(n, 0.7 + 0.2j, dtype=complex))


@pytest.mark.parametrize("refine", [1, 3])
def test_reflectance_matches_the_whole_window_composition(refine):
    # Transforming the nonzero span instead of the whole window moves r by
    # rounding only (bound: 1e-13 of max |r|), keeps the valid set
    # (|r| >= 1e-6 max |r|), and leaves exact zeros beyond the kernel's
    # reach, where the whole-window transform leaves FFT residue.
    reach = len(_polyphase_kernel(PARAMS.v, PARAMS.w0, PARAMS.L1, PARAMS.L2,
                                  1e-9, KAPPA_CALIBRATED, refine)[0])
    envs = [_gate_window(n) for n in (1680, 2304, 5324)]
    envs += [_two_pulses(), _constant(1200), _gaussian_p()]
    for env in envs:
        got = reflectance_trace(env, PARAMS, KAPPA_CALIBRATED, refine=refine)
        want = _whole_window_reflectance(env, PARAMS, KAPPA_CALIBRATED,
                                         refine)
        peak = np.max(np.abs(want))
        assert np.max(np.abs(got - want)) <= 1e-13 * peak
        assert np.array_equal(np.abs(got) >= 1e-6 * np.max(np.abs(got)),
                              np.abs(want) >= 1e-6 * peak)
        nz = np.flatnonzero(env.samples)
        outside = np.ones(env.grid.n, dtype=bool)
        outside[max(0, nz[0] - reach):nz[-1] + 1 + reach] = False
        assert not np.any(got[outside])


def _span_window(n):
    # n nonzero samples with zeros on both sides.
    return embed(_constant(n), 400, 700)


def test_kernel_spectrum_is_cached_read_only_per_transform_size():
    kappa = 1234.5  # a setting no other test caches
    key = (PARAMS.v, PARAMS.w0, PARAMS.L1, PARAMS.L2, 1e-9, kappa, 3)
    span = len(_polyphase_kernel(*key)[0]) - 1
    size = sfft.next_fast_len(1660 + span, False)
    longest = size - span  # the longest nonzero span on the same transform
    assert longest > 1660
    before = _kernel_spectrum.cache_info()
    for n in (1660, 1660, longest, 5300):
        reflectance_trace(_span_window(n), PARAMS, kappa)
    after = _kernel_spectrum.cache_info()
    assert after.misses - before.misses == 2
    assert after.hits - before.hits == 2
    spec = _kernel_spectrum(*key, size)
    assert spec is _kernel_spectrum(*key, size)
    assert not spec.flags.writeable
    with pytest.raises(ValueError):
        spec[0] = 0.0


def _whole_window_channel(env, config):
    # apply_channel as composed over the whole window: the full
    # convolution, the whole-window reflectance and its phase factor.
    d = int(round(config.delay / env.grid.dt))
    g = env.grid
    y = np.convolve(env.samples, config.volterra.h1)[:g.n] + config.volterra.h0
    grid = TimeGrid(g.t0 + d * g.dt, g.dt, g.n)
    if config.aom_enabled:
        r = _whole_window_reflectance(ComplexEnvelope(grid, y), config.aom,
                                      config.mismatch_kappa)
        y = y * _phase_factor(r)
    if config.noise_sigma > 0:
        rng = np.random.default_rng([config.seed, 1])
        y = y + config.noise_sigma / np.sqrt(2) * (
            rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n))
    return ComplexEnvelope(grid, y)


_SPAN_CONFIGS = {
    "h0": ChannelConfig(volterra=VolterraModel(h0=0.02 - 0.01j,
                                               h1=default_kernel().h1)),
    "noise": ChannelConfig(noise_sigma=0.05, seed=4),
    "aom-off": ChannelConfig(aom_enabled=False),
    "delay-0": ChannelConfig(delay=0.0),
    "delay-1.4us": ChannelConfig(delay=1.4e-6),
    "delay-5us": ChannelConfig(delay=5e-6),
}
_SPAN_REQUESTS = {
    "gate": lambda: make_pulse(PulseSpec(kind="gate-standin",
                                         duration=5e-7), default_grid(5e-7)),
    "no-padding": lambda: _constant(400),
    "two-pulses": _two_pulses,
    "zeros": lambda: ComplexEnvelope(TimeGrid(0.0, 1e-9, 500),
                                     np.zeros(500, dtype=complex)),
}


@pytest.mark.parametrize("request_name", sorted(_SPAN_REQUESTS))
@pytest.mark.parametrize("config_name", sorted(_SPAN_CONFIGS))
def test_channel_stages_match_the_whole_window_composition(config_name,
                                                           request_name):
    # apply_channel and record_response run each stage on its input's
    # nonzero span; the shot equals the whole-window composition to
    # 1e-13 of its peak, on the same grid, and an all-zero request
    # through the modulator stage still raises.
    config = _SPAN_CONFIGS[config_name]
    env = _SPAN_REQUESTS[request_name]()
    cutoff = suggested_cutoff(5e-7)
    padded = embed(env, SimulatedChannel.PAD_PRE,
                   _record_tail(config, env, cutoff))
    raises = (request_name == "zeros" and config.aom_enabled
              and config.volterra.h0 == 0)
    for shot, oracle in [
            (lambda: apply_channel(env, config),
             lambda: _whole_window_channel(env, config)),
            (lambda: record_response(env, config, cutoff),
             lambda: _whole_window_channel(padded, config))]:
        if raises:
            for call in (shot, oracle):
                with pytest.raises(ZeroSignalError):
                    call()
            continue
        got, want = shot(), oracle()
        assert got.grid == want.grid
        peak = np.max(np.abs(want.samples))
        assert np.max(np.abs(got.samples - want.samples)) <= 1e-13 * peak


# ----------------------------------------- window opened by the response

def _request_anchored_measure(chan, env):
    # The measurement as recorded from PAD_PRE samples before the
    # request: the delay shifts the samples right inside that window,
    # which ends where measure's does.
    cfg = chan.config
    dt = env.grid.dt
    d = int(round(cfg.delay / dt))
    ext = embed(env, chan.PAD_PRE, _record_tail(cfg, env, chan.cutoff) + d)
    shifted = ext.with_samples(shift_samples(ext.samples, d))
    out = apply_channel(shifted, replace(cfg, delay=0.0))
    trace = synthesize_beat(out, DEFAULT_F_BEAT, DEFAULT_FS)
    return demodulate(trace, DEFAULT_F_BEAT, chan.filter, ext.grid), d


@pytest.mark.parametrize("delay", [0.0, 1.4e-6, 2.6e-6, 5e-6])
@pytest.mark.parametrize("duration", [1.8e-7, 5e-7, 2e-6])
def test_measure_matches_the_request_anchored_window(duration, delay):
    # Opening the window PAD_PRE samples before the delayed response
    # drops only samples that hold no response.
    target = make_pulse(PulseSpec(kind="gate-standin", duration=duration),
                        default_grid(duration))
    chan = SimulatedChannel(ChannelConfig(delay=delay),
                            cutoff=suggested_cutoff(duration))
    pre = chan.PAD_PRE
    got = chan.measure(target)
    want, d = _request_anchored_measure(chan, target)
    dt = target.grid.dt
    assert got.grid.n == want.grid.n - d
    assert got.grid.t0 == pytest.approx(
        target.grid.t0 + (d - pre) * dt, abs=1e-6 * dt)
    peak = np.max(np.abs(want.samples))
    err = np.max(np.abs(got.samples[pre:] - want.samples[pre + d:]))
    assert err <= 1e-7 * peak, err / peak
    if d == 0:
        assert np.array_equal(got.samples, want.samples)


@pytest.mark.parametrize("duration", [1.8e-7, 5e-7, 2e-6])
def test_fast_length_window_keeps_the_old_window_shot(duration):
    # The reference shot is recorded on a window ending exactly
    # post_pad - d zeros behind the request. The fast-length window adds
    # zeros behind the response and trace noise behind that window's
    # draws, so the aligned, cropped shot moves only by rounding.
    target = make_pulse(PulseSpec(kind="gate-standin", duration=duration),
                        default_grid(duration))
    chan = SimulatedChannel(cutoff=suggested_cutoff(duration),
                            trace_noise_sigma=0.02, seed=11)
    raw = chan.measure(target)
    cfg = chan.config
    dt = target.grid.dt
    tail = post_pad(cfg, dt, chan.cutoff) - int(round(cfg.delay / dt))
    old = apply_channel(embed(target, chan.PAD_PRE, tail), cfg)
    assert old.grid.n < raw.grid.n
    trace = synthesize_beat(old, DEFAULT_F_BEAT, DEFAULT_FS,
                            noise_sigma=0.02, seed=11)
    want, _ = _align_to_target(
        demodulate(trace, DEFAULT_F_BEAT, chan.filter, old.grid), target)
    got, _ = _align_to_target(raw, target)
    peak = np.max(np.abs(want.samples))
    err = np.max(np.abs(got.samples - want.samples))
    assert err <= 1e-11 * peak, err / peak
