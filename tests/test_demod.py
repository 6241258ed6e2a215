"""Beat-note synthesis, Butterworth filtering, and IQ demodulation."""

import numpy as np
import pytest
import scipy.signal as sig

from pulseloop.demod import (AliasingError, BeatTrace, FilterSpec,
                             _carrier, _chain_band, demodulate,
                             design_lowpass, filtfilt, suggested_cutoff,
                             synthesize_beat)
from pulseloop.envelope import (ComplexEnvelope, InvalidSpecError, PulseSpec,
                                TimeGrid, default_grid, make_pulse, mase)

F_BEAT = 200e6
FS = 2e9


def _constant_env(n=2000, value=1.0, dt=1e-9):
    grid = TimeGrid(0.0, dt, n)
    return ComplexEnvelope(grid, np.full(n, value, dtype=complex))


# --------------------------------------------------------- synthesize_beat

def test_constant_envelope_gives_pure_cosine():
    env = _constant_env()
    trace = synthesize_beat(env, f_beat=F_BEAT, fs=FS)
    t = trace.grid.times()
    np.testing.assert_allclose(trace.samples, np.cos(2 * np.pi * F_BEAT * t),
                               atol=1e-9)
    assert np.max(trace.samples) == pytest.approx(1.0, abs=1e-9)


def test_beat_default_is_twice_the_drive_frequency():
    env = _constant_env(512)
    trace = synthesize_beat(env)
    spectrum = np.abs(np.fft.rfft(trace.samples))
    freqs = np.fft.rfftfreq(trace.grid.n, trace.grid.dt)
    assert freqs[int(np.argmax(spectrum))] == pytest.approx(2 * 100e6,
                                                            rel=1e-2)


def test_phase_ramp_shifts_the_tone():
    # A linear phase ramp exp(i 2 pi df t) moves the beat line from
    # f_beat to f_beat + df; located via the discrete spectrum peak.
    df = 20e6
    grid = TimeGrid(0.0, 1e-9, 4096)
    env = ComplexEnvelope(grid, np.exp(2j * np.pi * df * grid.times()))
    trace = synthesize_beat(env, f_beat=F_BEAT, fs=FS)
    windowed = trace.samples * np.hanning(trace.grid.n)
    spectrum = np.abs(np.fft.rfft(windowed))
    freqs = np.fft.rfftfreq(trace.grid.n, trace.grid.dt)
    assert freqs[int(np.argmax(spectrum))] == pytest.approx(F_BEAT + df,
                                                            rel=1e-3)


@pytest.mark.parametrize("n", [127, 128, 1660])
@pytest.mark.parametrize("up", [1, 2, 3])
def test_beat_upsampling_equals_scipy_resample(n, up):
    # Odd and even lengths (an even one splits its Nyquist bin), and no
    # resampling at all, bit for bit.
    rng = np.random.default_rng(n + up)
    grid = TimeGrid(3e-9, up / FS, n)
    env = ComplexEnvelope(grid, rng.standard_normal(n)
                          + 1j * rng.standard_normal(n))
    trace = synthesize_beat(env, f_beat=F_BEAT, fs=FS)
    t = trace.grid.times()
    ref = np.real(sig.resample(env.samples, n * up)
                  * np.exp(2j * np.pi * F_BEAT * t))
    assert np.array_equal(trace.samples, ref)


def test_synthesize_rejects_aliasing():
    env = _constant_env(128)
    with pytest.raises(AliasingError):
        synthesize_beat(env, f_beat=F_BEAT, fs=2 * F_BEAT)


@pytest.mark.parametrize("fs, f_beat", [(np.nan, F_BEAT), (np.inf, F_BEAT),
                                        (FS, np.nan), (FS, -np.inf)])
def test_synthesize_rejects_non_finite_rates(fs, f_beat):
    # A NaN or infinite fs used to end in a bare ValueError or an
    # OverflowError; a NaN beat passed the aliasing check.
    name = "fs" if np.isfinite(f_beat) else "f_beat"
    with pytest.raises(InvalidSpecError, match=f"^{name} must be finite"):
        synthesize_beat(_constant_env(128), f_beat=f_beat, fs=fs)


@pytest.mark.parametrize("f_beat", [True, -1.0, 0.0, "2e8"])
def test_synthesize_and_demodulate_reject_a_beat_that_is_not_positive(
        f_beat):
    # Each used to return a trace, or to raise a bare TypeError from
    # np.isfinite.
    env = _constant_env(128)
    with pytest.raises(InvalidSpecError, match="^f_beat must be"):
        synthesize_beat(env, f_beat=f_beat)
    with pytest.raises(InvalidSpecError, match="^f_beat must be"):
        demodulate(synthesize_beat(env), f_beat,
                   design_lowpass(4, 20e6, FS), env.grid)


def test_synthesize_rejects_a_rate_off_the_envelope_rate_multiples():
    # The envelope runs at 1 GS/s; 2.5 GS/s is no whole multiple of it.
    with pytest.raises(InvalidSpecError, match="integer multiple"):
        synthesize_beat(_constant_env(128), fs=2.5e9)


@pytest.mark.parametrize("sigma", [-0.02, np.nan, np.inf, "0.02", True])
def test_synthesize_rejects_negative_or_non_finite_noise(sigma):
    with pytest.raises(InvalidSpecError, match="noise_sigma"):
        synthesize_beat(_constant_env(128), noise_sigma=sigma)


@pytest.mark.parametrize("seed", [1.5, 2.0, True, -1])
def test_synthesize_rejects_a_seed_that_is_not_a_natural_number(seed):
    # 1.5 used to fail in NumPy's SeedSequence, -1 with a bare ValueError.
    with pytest.raises(InvalidSpecError, match="seed"):
        synthesize_beat(_constant_env(128), F_BEAT, FS, noise_sigma=0.02,
                        seed=seed)


def test_trace_noise_is_seed_deterministic():
    env = _constant_env(256)
    a = synthesize_beat(env, noise_sigma=0.05, seed=9)
    b = synthesize_beat(env, noise_sigma=0.05, seed=9)
    c = synthesize_beat(env, noise_sigma=0.05, seed=10)
    np.testing.assert_array_equal(a.samples, b.samples)
    assert not np.array_equal(a.samples, c.samples)


def test_beat_trace_validates_samples():
    grid = TimeGrid(0.0, 5e-10, 8)
    with pytest.raises(InvalidSpecError):
        BeatTrace(grid, np.array([0.0, np.inf, 0, 0, 0, 0, 0, 0]))
    with pytest.raises(InvalidSpecError):
        BeatTrace(grid, np.zeros(7))


# ---------------------------------------------------------- design_lowpass

def test_lowpass_dc_gain_is_unity():
    filt = design_lowpass(4, FS / 4, FS)
    w, h = sig.sosfreqz(filt.sos, worN=[0.0], fs=FS)
    assert abs(h[0]) == pytest.approx(1.0, abs=1e-9)


def test_lowpass_minus_three_decibels_at_cutoff():
    filt = design_lowpass(4, 20e6, FS)
    w, h = sig.sosfreqz(filt.sos, worN=[20e6], fs=FS)
    level_db = 20 * np.log10(abs(h[0]))
    assert level_db == pytest.approx(-3.01, abs=0.01)


def test_lowpass_matches_analytic_butterworth_rolloff():
    # Far below Nyquist the bilinear transform is faithful: the order-4
    # response at 2x cutoff matches 1/sqrt(1 + (f/fc)^8), about -24.1 dB.
    cutoff = FS / 100
    filt = design_lowpass(4, cutoff, FS)
    w, h = sig.sosfreqz(filt.sos, worN=[2 * cutoff], fs=FS)
    measured_db = 20 * np.log10(abs(h[0]))
    analytic_db = -10 * np.log10(1 + 2.0 ** 8)
    assert analytic_db == pytest.approx(-24.1, abs=0.01)
    assert measured_db == pytest.approx(analytic_db, abs=0.1)


def test_lowpass_monotone_and_stable():
    filt = design_lowpass(6, 30e6, FS)
    w, h = sig.sosfreqz(filt.sos, worN=2048, fs=FS)
    mag = np.abs(h)
    assert np.all(np.diff(mag) <= 1e-12)
    _, poles, _ = sig.sos2zpk(filt.sos)
    assert np.all(np.abs(poles) < 1.0)


def test_lowpass_rejects_bad_parameters():
    with pytest.raises(InvalidSpecError):
        design_lowpass(0, 20e6, FS)
    with pytest.raises(InvalidSpecError):
        design_lowpass(13, 20e6, FS)
    with pytest.raises(InvalidSpecError):
        design_lowpass(4, FS / 2, FS)
    with pytest.raises(InvalidSpecError):
        design_lowpass(4, -1.0, FS)
    # An infinite rate would prewarp every pole to z = 1, where the
    # steady-state systems are singular.
    with pytest.raises(InvalidSpecError, match="fs must be finite"):
        design_lowpass(4, 20e6, float("inf"))


def test_lowpass_design_is_shared_read_only_and_bad_settings_keep_failing():
    filt = design_lowpass(4, 23e6, FS)
    assert design_lowpass(4, 23e6, FS) is filt
    assert design_lowpass(5, 23e6, FS) is not filt
    for arr in (filt.sos, filt.zi):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0, 0] = 1.0
    # A failed design is not memoized: every call raises again.
    for _ in range(3):
        with pytest.raises(InvalidSpecError, match="order"):
            design_lowpass(13, 23e6, FS)
        with pytest.raises(InvalidSpecError, match="cutoff"):
            design_lowpass(4, FS / 2, FS)


# ----------------------------------------------------------------- filtfilt

def test_filtfilt_zero_in_zero_out():
    filt = design_lowpass(4, 20e6, FS)
    out = filtfilt(filt, np.zeros(1024))
    np.testing.assert_array_equal(out, np.zeros(1024))


def test_filtfilt_preserves_in_band_tone():
    # At cutoff/10 the forward-backward pass leaves phase untouched and
    # attenuates by |H|^2, which is within 0.1% of unity there.
    filt = design_lowpass(4, 20e6, FS)
    f0 = 2e6
    t = np.arange(8192) / FS
    phase0 = 0.7
    x = np.cos(2 * np.pi * f0 * t + phase0)
    y = filtfilt(filt, x)
    core = slice(2048, 6144)
    basis = np.stack([np.cos(2 * np.pi * f0 * t[core]),
                      -np.sin(2 * np.pi * f0 * t[core])], axis=1)
    coef, *_ = np.linalg.lstsq(basis, y[core], rcond=None)
    amp = np.hypot(*coef)
    phase = np.arctan2(coef[1], coef[0])
    assert amp == pytest.approx(1.0, abs=1e-3)
    assert phase == pytest.approx(phase0, abs=1e-3)


def _filtfilt_inputs():
    rng = np.random.default_rng(12)
    step = np.zeros(2048)
    step[1024:] = 1.0
    noise = rng.standard_normal(2048) + 1j * rng.standard_normal(2048)
    # (order, cutoff, x): the padding is 3 fs / cutoff = 120 samples at
    # 50 MHz, clipped to len - 1 on the short inputs (13 samples is the
    # shortest an order-4 filter accepts), and 3 * order when the cutoff
    # transient is shorter than that (800 MHz).
    return {
        "step": (4, 50e6, step),
        "complex-noise": (4, 50e6, noise),
        "clipped": (4, 50e6, rng.standard_normal(100)),
        "clipped-complex": (4, 50e6, noise[:100]),
        "minimum-length": (4, 50e6, noise[:13]),
        "minimum-length-real": (4, 50e6, step[1018:1031]),
        "order-padding": (4, 800e6, noise[:300]),
        "order-7": (7, 20e6, noise),
    }


def test_filtfilt_matches_reference_padding_rule():
    # scipy's forward-backward filter with the same odd-reflection
    # padding is the oracle, to 1e-12 of the input's peak: the block
    # recursion rounds differently from a sample-by-sample cascade.
    inputs = _filtfilt_inputs()
    for name, (order, cutoff, x) in inputs.items():
        filt = design_lowpass(order, cutoff, FS)
        y = filtfilt(filt, x)
        padlen = min(len(x) - 1, max(3 * order, int(3 * FS / cutoff)))
        ref = sig.sosfiltfilt(filt.sos.copy(), x, padtype="odd",
                               padlen=padlen)
        assert y.dtype == ref.dtype, name
        assert np.max(np.abs(y - ref)) <= 1e-12 * np.max(np.abs(x)), name
    # Symmetry: y(step + k) - 0.5 == 0.5 - y(step - k) near the step.
    y = filtfilt(design_lowpass(4, 50e6, FS), inputs["step"][2])
    k = np.arange(1, 200)
    np.testing.assert_allclose(y[1024 + k - 1] - 0.5, 0.5 - y[1024 - k],
                               atol=1e-9)


def test_filter_spec_runs_any_valid_sections():
    # scipy's odd-order designs pair a double zero with the real pole and
    # keep the whole gain in the first section; a FilterSpec built by hand
    # on them filters as sosfiltfilt does.
    x = _filtfilt_inputs()["complex-noise"][2]
    for order in (3, 5, 6):
        sos = sig.butter(order, 30e6, fs=FS, output="sos")
        filt = FilterSpec(order=order, cutoff=30e6, fs=FS, sos=sos)
        padlen = min(len(x) - 1, max(3 * order, int(3 * FS / 30e6)))
        ref = sig.sosfiltfilt(sos, x, padtype="odd", padlen=padlen)
        assert np.max(np.abs(filtfilt(filt, x) - ref)) <= 1e-12 * np.max(
            np.abs(x)), order
    with pytest.raises(InvalidSpecError, match="shape"):
        FilterSpec(order=4, cutoff=30e6, fs=FS, sos=np.ones((2, 5)))
    bad = sig.butter(4, 30e6, fs=FS, output="sos")
    bad[1, 3] = 2.0
    with pytest.raises(InvalidSpecError, match="ones"):
        FilterSpec(order=4, cutoff=30e6, fs=FS, sos=bad)


@pytest.mark.parametrize("warm", [False, True])
@pytest.mark.parametrize("order", [4.0, True, 0, np.int64(0)])
def test_lowpass_order_must_be_an_integer_cold_or_cached(order, warm):
    # 4.0 used to raise a bare TypeError on a cold cache, and to return
    # the order-4 filter once design_lowpass(4, ...) had run; True built
    # a first-order filter.
    design_lowpass.cache_clear()
    if warm:
        design_lowpass(4, 20e6, FS)
        design_lowpass(1, 20e6, FS)
    with pytest.raises(InvalidSpecError, match="order must be an integer"):
        design_lowpass(order, 20e6, FS)


@pytest.mark.parametrize("container, dtype", [(ComplexEnvelope, complex),
                                              (BeatTrace, float)])
def test_samples_are_a_read_only_copy_and_finite(container, dtype):
    grid = TimeGrid(0.0, 1e-9, 4)
    source = np.arange(4, dtype=dtype)
    held = container(grid, source).samples
    source[0] = 7
    assert held.dtype == dtype and held[0] == 0
    assert not held.flags.writeable
    with pytest.raises(InvalidSpecError, match="finite"):
        container(grid, [0.0, np.nan, 1.0, 2.0])
    with pytest.raises(InvalidSpecError, match="expected 4 samples"):
        container(grid, np.zeros((2, 2)))


def test_filter_initial_state_is_stored_read_only():
    filt = design_lowpass(4, 20e6, FS)
    assert np.array_equal(filt.zi, sig.sosfilt_zi(filt.sos))
    assert not filt.zi.flags.writeable
    with pytest.raises(ValueError):
        filt.zi[0, 0] = 1.0


def test_block_chain_is_built_once_per_filter_and_block_count():
    # Both passes of a filtfilt, and a repeat call on as many blocks, share
    # one read-only band; a filter built apart from it keeps its own.
    filt = design_lowpass(4, 21e6, FS)  # a setting no other test uses
    x = np.random.default_rng(3).standard_normal(3000)
    k = -(-(3000 + 2 * round(3 * FS / 21e6)) // 64)  # padded, in blocks
    before = _chain_band.cache_info()
    first = filtfilt(filt, x)
    assert np.array_equal(filtfilt(filt, x), first)
    after = _chain_band.cache_info()
    assert (after.misses - before.misses, after.hits - before.hits) == (1, 3)
    band = _chain_band(filt, k)
    assert np.array_equal(band, np.tile(filt._blocks[3], k))
    assert band.flags.f_contiguous and not band.flags.writeable
    apart = FilterSpec(order=4, cutoff=21e6, fs=FS, sos=filt.sos)
    assert apart != filt and _chain_band(apart, k) is not band


def test_filtfilt_rejects_short_sequences():
    filt = design_lowpass(4, 20e6, FS)
    with pytest.raises(InvalidSpecError):
        filtfilt(filt, np.zeros(10))


# --------------------------------------------------------------- demodulate

def _round_trip(env, cutoff=20e6, order=4):
    trace = synthesize_beat(env, f_beat=F_BEAT, fs=FS)
    filt = design_lowpass(order, cutoff, FS)
    return demodulate(trace, F_BEAT, filt, env.grid)


def test_round_trip_constant_envelope():
    env = _constant_env(4000)
    rec = _round_trip(env)
    interior = slice(400, 3600)
    np.testing.assert_allclose(rec.samples[interior], 1.0 + 0.0j, atol=1e-6)


def test_round_trip_100ns_gaussian_below_1e4():
    grid = default_grid(1e-7)
    env = make_pulse(PulseSpec(kind="gaussian", duration=1e-7, fwhm=1e-7 / 3),
                     grid)
    rec = _round_trip(env, cutoff=suggested_cutoff(1e-7))
    assert mase(rec, env) < 1e-4


def test_round_trip_recovers_quarter_radian_phase_peak():
    grid = default_grid(5e-7)
    t = grid.times() - grid.center
    amp = np.exp(-4 * np.log(2) * t ** 2 / (2e-7) ** 2)
    phase = 0.25 * np.exp(-4 * np.log(2) * t ** 2 / (1e-7) ** 2)
    env = ComplexEnvelope(grid, amp * np.exp(1j * phase))
    rec = _round_trip(env, cutoff=suggested_cutoff(5e-7))
    core = env.amplitude > 0.05
    recovered_peak = np.max(np.abs(rec.phase[core]))
    assert recovered_peak == pytest.approx(0.25, abs=1e-3)


def test_demodulate_is_linear():
    grid = default_grid(3e-7)
    rng = np.random.default_rng(31)
    x = make_pulse(PulseSpec(kind="gaussian", duration=3e-7, fwhm=1e-7), grid)
    y = ComplexEnvelope(grid, (rng.standard_normal(grid.n)
                               + 1j * rng.standard_normal(grid.n)) * 0.1)
    alpha, beta = 0.6, -0.3 + 0.2j
    filt = design_lowpass(4, 20e6, FS)

    def dm(env):
        trace = synthesize_beat(env, f_beat=F_BEAT, fs=FS)
        return demodulate(trace, F_BEAT, filt, grid)

    mix = ComplexEnvelope(grid, alpha * x.samples + beta * y.samples)
    lhs = dm(mix).samples
    # The trace mixer takes the real part, so complex-linearity holds
    # per quadrature: synthesize the two parts separately.
    rhs = alpha * dm(x).samples + dm(
        ComplexEnvelope(grid, beta * y.samples)).samples
    np.testing.assert_allclose(lhs, rhs, atol=1e-9)


@pytest.mark.parametrize("duration", [1.8e-7, 5e-7, 2e-6])
def test_demodulate_equals_separate_i_and_q_filtering(duration):
    # One complex forward-backward pass with real coefficients must be
    # bit-identical to filtering the in-phase and quadrature parts apart.
    env = make_pulse(PulseSpec(kind="gate-standin", duration=duration),
                     default_grid(duration))
    trace = synthesize_beat(env, F_BEAT, FS, noise_sigma=0.02, seed=9)
    filt = design_lowpass(4, suggested_cutoff(duration), FS)
    out = demodulate(trace, F_BEAT, filt, env.grid)
    t = trace.grid.times()
    z = 2.0 * trace.samples * np.exp(-2j * np.pi * F_BEAT * t)
    ref = filtfilt(filt, z.real) + 1j * filtfilt(filt, z.imag)
    assert np.array_equal(out.samples, ref[::2])


@pytest.mark.parametrize("step", [1, 2, 4])
def test_demodulate_equals_filtfilt_of_the_mix_decimated(step):
    # The mix written straight into the filter's rows and the strided
    # decimation give filtfilt(filt, conj(2 v c)) sampled at k0, k0 + step,
    # ..., bit for bit: the path of ``pulseloop demod --out-dt``.
    env = make_pulse(PulseSpec(kind="gate-standin", duration=5e-7),
                     default_grid(5e-7, dt=5e-10))
    trace = synthesize_beat(env, F_BEAT, FS, noise_sigma=0.02, seed=4)
    filt = design_lowpass(4, 40e6, FS)
    carrier = _carrier(trace.grid, F_BEAT)
    z = filtfilt(filt, np.conjugate(2.0 * trace.samples * carrier))
    for k0 in (0, 3, 11):
        # The most output samples that fit: the last on or before the
        # trace's last sample.
        n_out = (trace.grid.n - 1 - k0) // step + 1
        out_grid = TimeGrid(trace.grid.t0 + k0 * trace.grid.dt,
                            step * trace.grid.dt, n_out)
        got = demodulate(trace, F_BEAT, filt, out_grid)
        assert got.grid == out_grid
        assert np.array_equal(got.samples, z[k0::step]), k0
        with pytest.raises(InvalidSpecError, match="beyond"):
            demodulate(trace, F_BEAT, filt,
                       TimeGrid(out_grid.t0, out_grid.dt, n_out + 1))


def test_demodulate_rejects_high_cutoff():
    env = _constant_env(512)
    trace = synthesize_beat(env)
    filt = design_lowpass(4, 250e6, FS)
    with pytest.raises(InvalidSpecError):
        demodulate(trace, F_BEAT, filt, env.grid)


def test_demodulate_rejects_filter_for_another_sample_rate():
    # A 24 MHz filter designed at 4 GS/s would act at 12 MHz on a
    # 2 GS/s trace.
    env = _constant_env(512)
    trace = synthesize_beat(env, f_beat=F_BEAT, fs=FS)
    with pytest.raises(InvalidSpecError, match="fs"):
        demodulate(trace, F_BEAT, design_lowpass(4, 24e6, 2 * FS), env.grid)
    demodulate(trace, F_BEAT, design_lowpass(4, 24e6, FS * (1 + 1e-12)),
               env.grid)


@pytest.mark.parametrize("f_beat", [float("nan"), float("inf")])
def test_demodulate_rejects_a_non_finite_beat_by_name(f_beat):
    env = _constant_env(512)
    trace = synthesize_beat(env)
    with pytest.raises(InvalidSpecError, match="f_beat"):
        demodulate(trace, f_beat, design_lowpass(4, 20e6, FS), env.grid)


@pytest.mark.parametrize("f_beat", [FS / 2, 1.5e9])
def test_demodulate_rejects_an_undersampled_beat(f_beat):
    # The rule synthesize_beat applies; demodulate used to mix and
    # filter such a beat without complaint.
    env = _constant_env(512)
    trace = synthesize_beat(env)
    with pytest.raises(AliasingError, match="f_beat"):
        demodulate(trace, f_beat, design_lowpass(4, 20e6, FS), env.grid)


def test_demodulate_rejects_misaligned_grid():
    env = _constant_env(512)
    trace = synthesize_beat(env)
    off_grid = TimeGrid(1.3e-10, 1e-9, 256)
    filt = design_lowpass(4, 20e6, FS)
    with pytest.raises(InvalidSpecError):
        demodulate(trace, F_BEAT, filt, off_grid)


# --------------------------------------------------------- suggested_cutoff

def test_suggested_cutoff_scaling_and_clipping():
    assert suggested_cutoff(3e-7) == pytest.approx(40e6)
    assert suggested_cutoff(1e-6) == pytest.approx(20e6)   # clipped low
    assert suggested_cutoff(5e-8) == pytest.approx(120e6)  # clipped high


def test_round_trip_across_library_durations():
    for duration in (1e-7, 1.8e-7, 5e-7, 1e-6):
        grid = default_grid(duration)
        env = make_pulse(PulseSpec(kind="truncated-gaussian",
                                   duration=duration, fwhm=0.3 * duration),
                         grid)
        rec = _round_trip(env, cutoff=suggested_cutoff(duration))
        assert mase(rec, env) < 1e-4, f"duration {duration}"
