"""Simulated distorting channel: delay, kernel, quadrature physics, noise."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.fft as sfft
import scipy.signal as sig

from pulseloop.channel import (KAPPA_CALIBRATED, AcoustoOpticParams,
                               ChannelConfig, SimulatedChannel, apply_channel,
                               calibrate_kappa, default_kernel, post_pad,
                               peak_quadrature_phase, quadrature_phase,
                               reflectance_trace, _kernel_spectrum,
                               _polyphase_kernel)
from pulseloop.demod import (AliasingError, demodulate, suggested_cutoff,
                             synthesize_beat)
from pulseloop.envelope import (ComplexEnvelope, InvalidSpecError, PulseSpec,
                                TimeGrid, ZeroSignalError, align_delay,
                                default_grid, embed, make_pulse,
                                shift_samples)
from pulseloop.loop import LoopConfig, closed_loop
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

def test_params_derive_bragg_angle_and_bounds():
    p = PARAMS
    q = 2 * np.pi * p.f_acoustic / p.v
    assert p.q == pytest.approx(q)
    assert p.theta0 == pytest.approx(
        np.arcsin(q * p.wavelength / (4 * np.pi * p.n0)))
    assert p.L1 == pytest.approx(-3 * p.w0)
    assert p.L2 == pytest.approx(3 * p.w0)
    assert p.transit_time == pytest.approx(6 * p.w0 / p.v)


def test_params_validation():
    with pytest.raises(InvalidSpecError):
        AcoustoOpticParams(w0=-1e-6)
    with pytest.raises(InvalidSpecError):
        AcoustoOpticParams(eta=3.0)  # exceeds n0
    with pytest.raises(InvalidSpecError):
        AcoustoOpticParams(L1=1e-4, L2=-1e-4)


# -------------------------------------------------------------- ChannelConfig

@pytest.mark.parametrize("field, value", [
    ("delay", np.nan), ("delay", np.inf), ("delay", -1e-9),
    ("noise_sigma", np.nan), ("noise_sigma", np.inf), ("noise_sigma", -0.1),
    ("mismatch_kappa", np.nan), ("mismatch_kappa", np.inf),
    ("mismatch_kappa", -np.inf),
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
    # constant |r| and phase phi - pi/2 once the transit has filled.
    phi = 0.8
    params = AcoustoOpticParams(phi=phi)
    grid = TimeGrid(0.0, 1e-9, 2048)
    p = ComplexEnvelope(grid, np.ones(2048, dtype=complex))
    r = reflectance_trace(p, params, kappa=0.0)
    # The transit also rolls off at the end of the grid where the drive
    # runs out, so exclude one transit on both sides.
    transit = int(np.ceil(params.transit_time / grid.dt))
    core = r[transit + 8:-(transit + 8)]
    np.testing.assert_allclose(np.abs(core), np.abs(core[0]), rtol=1e-9)
    np.testing.assert_allclose(np.angle(core), phi - np.pi / 2, atol=1e-9)


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
    return -1j * params.r0 * np.exp(1j * params.phi) * r_fine[::refine]


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


def test_gaussian_peak_phase_near_quarter_radian():
    env = _gaussian_p(fwhm=3e-7)
    peak = peak_quadrature_phase(env, PARAMS, KAPPA_CALIBRATED)
    assert peak == pytest.approx(0.25, abs=0.05)


def test_calibrate_kappa_reaches_the_target_peak():
    kappa = calibrate_kappa(PARAMS, target_peak=0.25, fwhm=3e-7)
    peak = peak_quadrature_phase(_gaussian_p(fwhm=3e-7), PARAMS, kappa)
    assert peak == pytest.approx(0.25, abs=1e-3)


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


def test_aom_stage_matches_manual_composition():
    # The quadrature stage must equal reflectance + phase extraction
    # applied by hand to the post-kernel signal.
    env = _gaussian_p()
    kernel = default_kernel()
    config = ChannelConfig(delay=0.0, volterra=kernel, aom_enabled=True,
                           noise_sigma=0.0)
    out = apply_channel(env, config)

    from pulseloop.sysid import volterra_forward
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
    # post_pad samples behind the request.
    d = int(round(delay / 1e-9))
    tail = post_pad(chan.config, 1e-9, 24e6) - d
    assert out.grid.n == 500 + grid.n + tail
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


@pytest.mark.parametrize("value", [-0.02, np.nan, np.inf])
def test_simulated_channel_rejects_bad_trace_noise(value):
    # These used to give the noiseless measurement, bit for bit.
    with pytest.raises(InvalidSpecError, match="trace_noise_sigma"):
        SimulatedChannel(trace_noise_sigma=value)


def test_simulated_channel_rejects_an_undersampled_beat():
    for fs, f_beat in ((4e8, 200e6), (1e9, 600e6)):
        with pytest.raises(AliasingError):
            SimulatedChannel(fs=fs, f_beat=f_beat)


# ------------------------------------------- memoized shot-invariant work

def _uncached_reflectance(p_env, params, kappa, refine=3):
    # reflectance_trace with its polyphase kernel rebuilt on every call.
    p = p_env.amplitude
    n = len(p)
    dz = params.v * p_env.grid.dt / refine
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
    full = sig.fftconvolve(p, np.append(0.0, c0) + np.append(c1, 0.0))
    full[:len(c1)] -= p[0] * c1
    full[n:] += p[-1] * c1
    k0 = d_lo - 1
    r = np.zeros(n, dtype=complex)
    lo = max(0, k0)
    hi = max(lo, min(n, len(full) + k0))
    r[lo:hi] = full[lo - k0:hi - k0]
    return -1j * params.r0 * np.exp(1j * params.phi) * r


def _uncached_measure(chan, env, shot):
    # SimulatedChannel.measure with every shot-invariant quantity (the
    # reflectance kernel, both carriers, the filter state) recomputed.
    # The window runs from PAD_PRE samples before the delayed response
    # to post_pad samples behind the request.
    cfg = chan.config
    assert cfg.noise_sigma == 0
    dt = env.grid.dt
    d = int(round(cfg.delay / dt))
    ext = embed(env, chan.PAD_PRE, post_pad(cfg, dt, chan.cutoff) - d)
    out = volterra_forward(cfg.volterra, ComplexEnvelope(
        TimeGrid(ext.grid.t0 + d * dt, dt, ext.grid.n), ext.samples))
    if cfg.aom_enabled:
        theta = quadrature_phase(
            _uncached_reflectance(out, cfg.aom, cfg.mismatch_kappa))
        out = out.with_samples(out.samples * np.exp(1j * theta))
    up = int(round(chan.fs * dt))
    n_hi = out.grid.n * up
    t = out.grid.t0 + np.arange(n_hi) / chan.fs
    v = np.real(sig.resample(out.samples, n_hi)
                * np.exp(2j * np.pi * chan.f_beat * t))
    # Noise as if drawn from the request-anchored origin d samples ahead.
    rng = np.random.default_rng(chan.seed + shot)
    v = v + chan.trace_noise_sigma * rng.standard_normal(d * up + n_hi)[
        d * up:]
    t = out.grid.t0 + (1.0 / chan.fs) * np.arange(n_hi)
    z = 2.0 * v * np.exp(-2j * np.pi * chan.f_beat * t)
    padlen = min(n_hi - 1, max(3 * chan.filter.order,
                               int(3 * chan.fs / chan.cutoff)))
    sos = sig.butter(chan.filter.order, chan.cutoff, fs=chan.fs,
                     output="sos")
    z = sig.sosfiltfilt(sos, z, padtype="odd", padlen=padlen)
    return z[::up]


def test_measure_equals_the_uncached_pipeline_shot_by_shot():
    # Channels that differ in cutoff, pulse grid, grid origin, beat
    # frequency, trace rate and modulator geometry take turns, with
    # reflectance calls on other settings in between, so a cache keyed
    # on too little would hand one of them another's kernel or carrier.
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
        (SimulatedChannel(cutoff=40e6, f_beat=300e6, trace_noise_sigma=0.02,
                          seed=3), gate),
        (SimulatedChannel(cutoff=40e6, fs=4e9, trace_noise_sigma=0.02,
                          seed=4), gate),
        (SimulatedChannel(narrow, cutoff=40e6, trace_noise_sigma=0.02,
                          seed=5), gate),
    ]
    fine = make_pulse(PulseSpec(kind="gate-standin", duration=1.8e-7),
                      default_grid(1.8e-7, dt=5e-10))
    others = [(gate, AcoustoOpticParams(v=600.0), KAPPA_CALIBRATED, 3),
              (gate, PARAMS, 0.0, 3),
              (gate, PARAMS, KAPPA_CALIBRATED, 2),
              (fine, PARAMS, KAPPA_CALIBRATED, 3)]
    for shot in range(3):
        for k, (chan, env) in enumerate(cases):
            got = chan.measure(env)
            want = _uncached_measure(chan, env, shot)
            assert np.array_equal(got.samples, want), (shot, k)
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
@pytest.mark.parametrize("n", [1660, 2300, 5300])
def test_reflectance_equals_the_fftconvolve_composition(n, refine, kappa):
    # The measurement windows at 180 ns / 500 ns / 2 us; the cached
    # kernel spectrum must reproduce fftconvolve's transforms exactly.
    env = _gate_window(n)
    for _ in range(2):
        assert np.array_equal(
            reflectance_trace(env, PARAMS, kappa, refine=refine),
            _uncached_reflectance(env, PARAMS, kappa, refine))


def test_kernel_spectrum_is_cached_read_only_per_transform_size():
    kappa = 1234.5  # a setting no other test caches
    key = (PARAMS.v, PARAMS.w0, PARAMS.L1, PARAMS.L2, 1e-9, kappa, 3)
    span = len(_polyphase_kernel(*key)[0]) - 1
    size = sfft.next_fast_len(1660 + span, False)
    longest = size - span  # the longest window on the same transform
    assert longest > 1660
    before = _kernel_spectrum.cache_info()
    for n in (1660, 1660, longest, 5300):
        reflectance_trace(_gate_window(n), PARAMS, kappa)
    after = _kernel_spectrum.cache_info()
    assert after.misses - before.misses == 2
    assert after.hits - before.hits == 2
    spec = _kernel_spectrum(*key, size)
    assert spec is _kernel_spectrum(*key, size)
    assert not spec.flags.writeable
    with pytest.raises(ValueError):
        spec[0] = 0.0


# ----------------------------------------- window opened by the response

def _request_anchored_measure(chan, env, shot):
    # The measurement as recorded from PAD_PRE samples before the
    # request: the delay shifts the samples right inside that window and
    # the trace noise is drawn from its first trace sample on.
    cfg = chan.config
    dt = env.grid.dt
    ext = embed(env, chan.PAD_PRE, post_pad(cfg, dt, chan.cutoff))
    d = int(round(cfg.delay / dt))
    shifted = ext.with_samples(shift_samples(ext.samples, d))
    out = apply_channel(shifted, replace(cfg, delay=0.0))
    trace = synthesize_beat(out, chan.f_beat, chan.fs,
                            noise_sigma=chan.trace_noise_sigma,
                            seed=chan.seed + shot)
    return demodulate(trace, chan.f_beat, chan.filter, ext.grid), d


@pytest.mark.parametrize("delay", [0.0, 1.4e-6, 2.6e-6, 5e-6])
@pytest.mark.parametrize("duration", [1.8e-7, 5e-7, 2e-6])
def test_measure_matches_the_request_anchored_window(duration, delay):
    # Opening the window PAD_PRE samples before the delayed response
    # drops only samples that hold no response, and every trace sample
    # keeps the noise value it had in the request-anchored window.
    target = make_pulse(PulseSpec(kind="gate-standin", duration=duration),
                        default_grid(duration))
    chan = SimulatedChannel(ChannelConfig(delay=delay),
                            cutoff=suggested_cutoff(duration),
                            trace_noise_sigma=0.02, seed=7)
    pre = chan.PAD_PRE
    for shot in range(2):
        got = chan.measure(target)
        want, d = _request_anchored_measure(chan, target, shot)
        dt = target.grid.dt
        assert got.grid.n == want.grid.n - d
        assert got.grid.t0 == pytest.approx(
            target.grid.t0 + (d - pre) * dt, abs=1e-6 * dt)
        peak = np.max(np.abs(want.samples))
        err = np.max(np.abs(got.samples[pre:] - want.samples[pre + d:]))
        assert err <= 1e-7 * peak, (shot, err / peak)
        if d == 0:
            assert np.array_equal(got.samples, want.samples)
