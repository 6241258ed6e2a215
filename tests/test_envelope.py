"""Grids, library pulses, metrics, and alignment."""

from dataclasses import fields

import numpy as np
import pytest
import scipy.fft as sfft
import scipy.signal as sig

from pulseloop.demod import suggested_cutoff
from pulseloop.envelope import (ComplexEnvelope, GridMismatchError,
                                InvalidSpecError, PulseSpec, TimeGrid,
                                ZeroSignalError, _check_real, align_delay,
                                default_grid, embed, make_pulse, mase,
                                mse_cost, shift_samples)


def _env(grid, samples):
    return ComplexEnvelope(grid, np.asarray(samples, dtype=complex))


# ---------------------------------------------------------------- TimeGrid

def test_grid_times_and_span():
    grid = TimeGrid(t0=2e-9, dt=1e-9, n=5)
    np.testing.assert_allclose(grid.times(), [2e-9, 3e-9, 4e-9, 5e-9, 6e-9])
    assert grid.span == pytest.approx(4e-9)
    assert grid.center == pytest.approx(4e-9)


def test_grid_rejects_bad_parameters():
    with pytest.raises(InvalidSpecError):
        TimeGrid(t0=0.0, dt=0.0, n=10)
    with pytest.raises(InvalidSpecError):
        TimeGrid(t0=0.0, dt=1e-9, n=1)
    for t0, dt in ((np.nan, 1e-9), (np.inf, 1e-9), (0.0, np.nan),
                   (0.0, np.inf)):
        with pytest.raises(InvalidSpecError, match="finite"):
            TimeGrid(t0=t0, dt=dt, n=10)


@pytest.mark.parametrize("value", [np.nan, -np.inf, "1e-9", True])
@pytest.mark.parametrize("field", ["t0", "dt"])
def test_grid_names_a_time_that_is_not_a_finite_real(field, value):
    # A str used to escape as a TypeError, and True passed as 1.
    with pytest.raises(InvalidSpecError, match=f"^{field} must be"):
        TimeGrid(**{"t0": 0.0, "dt": 1e-9, "n": 5, field: value})


@pytest.mark.parametrize("value, least, strict", [
    (np.nan, None, False), (-np.inf, None, False), (10**400, None, False),
    (True, None, False), (np.bool_(True), None, False), ("1", None, False),
    (None, None, False), (1j, None, False), (-1e-300, 0, False),
    (0.0, 0, True), (0, 0, True), (np.float32(-1), -1, True)])
def test_check_real_rejects_by_name(value, least, strict):
    with pytest.raises(InvalidSpecError, match="^x must be"):
        _check_real("x", value, least, strict)


@pytest.mark.parametrize("value, least, strict", [
    (0.0, None, False), (-1e300, None, False), (10**300, None, False),
    (np.int64(3), 3, False), (np.float32(0.5), 0, True), (0.0, 0, False)])
def test_check_real_accepts_a_finite_real_within_its_bound(value, least,
                                                           strict):
    _check_real("x", value, least, strict)


@pytest.mark.parametrize("n", [2.5, 10.0, True])
def test_grid_rejects_a_length_that_is_not_an_integer(n):
    # 2.5 used to be accepted, and its times() held 3 samples.
    with pytest.raises(InvalidSpecError, match="n must be an integer"):
        TimeGrid(t0=0.0, dt=1e-9, n=n)


def test_default_grid_doubles_the_duration():
    grid = default_grid(5e-7)
    assert grid.t0 == 0.0
    assert grid.dt == 1e-9
    assert grid.span == pytest.approx(1e-6, rel=1e-3)


@pytest.mark.parametrize("duration, n", [(1.8e-7, 181), (5e-7, 501),
                                         (4e-6, 4001)])
def test_a_margin_free_grid_holds_its_pulse(duration, n):
    # duration / dt samples span one sample less than the pulse, which
    # make_pulse refused; the grid takes one more, at the pulse's ends.
    grid = default_grid(duration, margin_frac=0.0)
    assert grid.n == n
    env = make_pulse(PulseSpec(kind="gate-standin", duration=duration), grid)
    assert env.samples[0] == env.samples[-1] == 0
    assert np.all(env.samples[1:-1] != 0)


def test_envelope_length_must_match_grid():
    grid = TimeGrid(0.0, 1e-9, 4)
    with pytest.raises(InvalidSpecError):
        ComplexEnvelope(grid, np.zeros(3, dtype=complex))


# --------------------------------------------------------------- make_pulse

def test_constant_kind_is_all_ones():
    grid = TimeGrid(0.0, 1e-9, 64)
    env = make_pulse(PulseSpec(kind="constant", duration=1e-7, peak=1.0),
                     grid)
    np.testing.assert_array_equal(env.samples, np.ones(64, dtype=complex))


def test_truncated_gaussian_half_maximum_points():
    # 0.3 us FWHM on a 2 us grid with the center on a sample: the
    # amplitude at center +- fwhm/2 is exactly half the peak.
    grid = TimeGrid(0.0, 1e-9, 2001)
    spec = PulseSpec(kind="truncated-gaussian", duration=1e-6, fwhm=3e-7)
    env = make_pulse(spec, grid)
    amp = env.amplitude
    center = int(np.argmax(amp))
    assert grid.times()[center] == pytest.approx(grid.center)
    half = int(round(spec.fwhm / 2 / grid.dt))
    assert amp[center + half] == pytest.approx(0.5 * amp[center], rel=1e-12)
    assert amp[center - half] == pytest.approx(0.5 * amp[center], rel=1e-12)
    assert np.all(amp[np.abs(grid.times() - grid.center) > 5.001e-7] == 0.0)


def test_gaussian_energy_matches_closed_form():
    # Trapezoid integral of amplitude^2 against the analytic Gaussian
    # integral fwhm * sqrt(pi / (8 ln 2)); the grid spans +-4 fwhm so
    # truncation error is far below the 1e-6 comparison level.
    fwhm = 3e-7
    grid = TimeGrid(0.0, 1e-9, 2401)
    env = make_pulse(PulseSpec(kind="gaussian", duration=12e-7, fwhm=fwhm),
                     grid)
    a2 = env.amplitude ** 2
    numeric = grid.dt * (np.sum(a2) - 0.5 * (a2[0] + a2[-1]))
    analytic = fwhm * np.sqrt(np.pi / (8 * np.log(2)))
    assert numeric == pytest.approx(analytic, rel=1e-6)


def test_pure_amplitude_kinds_have_zero_phase():
    grid = TimeGrid(0.0, 1e-9, 1001)
    for kind, fwhm in (("constant", None), ("gaussian", 2e-7),
                       ("truncated-gaussian", 2e-7)):
        env = make_pulse(PulseSpec(kind=kind, duration=5e-7, fwhm=fwhm), grid)
        on = env.amplitude > 0
        assert np.max(np.abs(env.phase[on])) == 0.0


def test_gate_standin_flat_top_and_phase_jump():
    grid = TimeGrid(0.0, 1e-9, 1001)
    spec = PulseSpec(kind="gate-standin", duration=5e-7)
    env = make_pulse(spec, grid)
    t = grid.times() - grid.center
    flat = np.abs(t) <= 0.5 * spec.duration - 0.16 * spec.duration
    np.testing.assert_allclose(env.amplitude[flat], 1.0, atol=1e-12)
    # The phase rises by ~pi across the pulse and its gradient peaks at
    # the center sample.
    phase = np.unwrap(env.phase)
    jump = phase[flat][-1] - phase[flat][0]
    assert jump == pytest.approx(np.pi, abs=1e-2)
    grad = np.abs(np.gradient(phase))
    assert abs(int(np.argmax(grad)) - int(np.argmax(env.amplitude > 0)
                                          + np.sum(env.amplitude > 0) // 2)
               ) <= 2


def test_make_pulse_rejects_invalid_specs():
    grid = TimeGrid(0.0, 1e-9, 101)
    with pytest.raises(InvalidSpecError):
        make_pulse(PulseSpec(kind="gaussian", duration=5e-7, fwhm=1e-7),
                   grid)  # duration exceeds the 100 ns span
    with pytest.raises(InvalidSpecError):
        PulseSpec(kind="gaussian", duration=1e-7, fwhm=-1e-8)
    with pytest.raises(InvalidSpecError):
        PulseSpec(kind="gaussian", duration=1e-7, fwhm=1e-8, peak=1.5)
    with pytest.raises(InvalidSpecError):
        PulseSpec(kind="not-a-kind", duration=1e-7)


@pytest.mark.parametrize("field, value", [
    ("duration", np.nan), ("duration", np.inf),
    ("fwhm", np.nan), ("fwhm", np.inf),
    ("phase_jump_rad", np.nan), ("phase_jump_rad", -np.inf),
    ("phase_width_frac", -0.05), ("phase_width_frac", 0.0),
    ("phase_width_frac", np.nan), ("phase_width_frac", np.inf),
    ("duration", "5e-7"), ("duration", True), ("peak", np.nan),
    ("peak", np.inf), ("peak", "1"), ("peak", True), ("peak", 0.0),
    ("phase_jump_rad", "3.14"), ("phase_jump_rad", True),
    ("phase_width_frac", "0.05"), ("phase_width_frac", True)])
def test_pulse_spec_names_a_bad_shape_setting(field, value):
    # A negative width used to reverse the phase step, a zero width
    # divided by zero, and a NaN phase jump failed only as "samples must
    # be finite"; a NaN or infinite duration passed the positivity check.
    # A str escaped as a TypeError, and a bool passed as 1 or 0.
    with pytest.raises(InvalidSpecError, match=field):
        PulseSpec(**{"kind": "gate-standin", "duration": 5e-7, field: value})


@pytest.mark.parametrize("kind", ["gate-standin", "constant"])
@pytest.mark.parametrize("fwhm", [-1.0, 2e-7])
def test_pulse_spec_rejects_a_width_for_a_kind_without_one(kind, fwhm):
    # The width used to be dropped without a word.
    with pytest.raises(InvalidSpecError, match="fwhm"):
        PulseSpec(kind=kind, duration=5e-7, fwhm=fwhm)


@pytest.mark.parametrize("kind", ["gaussian", "truncated-gaussian"])
@pytest.mark.parametrize("fwhm", [np.nan, np.inf, "1e-7", True, None,
                                  1e300, 1e-200])
def test_gaussian_pulse_names_a_bad_fwhm(kind, fwhm):
    # A width whose square overflows used to end in an OverflowError from
    # make_pulse, and one whose square underflows in a division by zero.
    with pytest.raises(InvalidSpecError, match="fwhm"):
        PulseSpec(kind=kind, duration=5e-7, fwhm=fwhm)


@pytest.mark.parametrize("value", [np.nan, np.inf, "1", True, -0.3])
@pytest.mark.parametrize("field", ["duration", "dt", "margin_frac"])
def test_default_grid_names_a_setting_that_is_not_a_finite_real(field,
                                                                value):
    # A str used to escape as a TypeError; a NaN margin named only the
    # derived grid length, and a negative one shortened the grid below
    # the duration.
    with pytest.raises(InvalidSpecError, match=f"^{field} must be"):
        default_grid(**{"duration": 5e-7, field: value})


_ENV = ComplexEnvelope(TimeGrid(0.0, 1e-9, 4), np.ones(4))


@pytest.mark.parametrize("call, match", [
    (lambda: suggested_cutoff(0.0), "^duration must be"),
    (lambda: suggested_cutoff(np.nan), "^duration must be"),
    (lambda: suggested_cutoff(-1.0), "^duration must be"),
    (lambda: embed(_ENV, -3, 0), "^pad_before must be"),
    (lambda: embed(_ENV, 1.5, 0), "^pad_before must be"),
    (lambda: embed(_ENV, 0, -1), "^pad_after must be"),
    (lambda: shift_samples(_ENV.samples, 1.5), "^k must be an integer")])
def test_library_entry_points_name_a_bad_argument(call, match):
    # suggested_cutoff(0.0) divided by zero, a NaN gave NaN and -1.0 gave
    # 20 MHz; a negative pad failed in a NumPy broadcast and a fractional
    # one blamed the grid's n; a fractional shift was a bare TypeError.
    with pytest.raises(InvalidSpecError, match=match):
        call()


def test_pulse_spec_takes_a_negative_phase_jump():
    # The step's sign is the jump's: a negative jump mirrors the phase.
    grid = default_grid(5e-7)
    up, down = (make_pulse(PulseSpec(kind="gate-standin", duration=5e-7,
                                     phase_jump_rad=jump), grid)
                for jump in (np.pi / 2, -np.pi / 2))
    np.testing.assert_allclose(down.samples, np.conj(up.samples), atol=1e-15)


# -------------------------------------------------------------------- mase

def test_mase_identity_is_zero():
    grid = TimeGrid(0.0, 1e-9, 16)
    env = _env(grid, np.arange(16) + 1.0)
    assert mase(env, env) == 0.0


def test_mase_is_scale_invariant():
    grid = TimeGrid(0.0, 1e-9, 16)
    rng = np.random.default_rng(3)
    target = _env(grid, rng.standard_normal(16) + 1j * rng.standard_normal(16))
    doubled = target.with_samples(2.0 * target.samples)
    assert mase(doubled, target) == pytest.approx(0.0, abs=1e-15)
    scaled = target.with_samples(0.37 * target.samples)
    assert mase(scaled, target) == pytest.approx(0.0, abs=1e-15)


def test_mase_hand_evaluated_three_samples():
    # measured (1,0,0), target (0,1,0): both have unit norm, so the sum
    # of per-sample absolute differences is 1 + 1 + 0 and the mean 2/3.
    grid = TimeGrid(0.0, 1e-9, 3)
    measured = _env(grid, [1.0, 0.0, 0.0])
    target = _env(grid, [0.0, 1.0, 0.0])
    assert mase(measured, target) == pytest.approx(2.0 / 3.0, rel=1e-15)


def test_mase_symmetric_under_joint_permutation():
    grid = TimeGrid(0.0, 1e-9, 12)
    rng = np.random.default_rng(11)
    a = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    b = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    perm = rng.permutation(12)
    assert mase(_env(grid, a), _env(grid, b)) == pytest.approx(
        mase(_env(grid, a[perm]), _env(grid, b[perm])), rel=1e-12)


def test_mase_guards():
    grid = TimeGrid(0.0, 1e-9, 4)
    env = _env(grid, np.ones(4))
    with pytest.raises(ZeroSignalError):
        mase(env, _env(grid, np.zeros(4)))
    other = _env(TimeGrid(0.0, 2e-9, 4), np.ones(4))
    with pytest.raises(GridMismatchError):
        mase(env, other)


# ---------------------------------------------------------------- mse_cost

def test_mse_cost_basics():
    grid = TimeGrid(0.0, 1e-9, 10)
    rng = np.random.default_rng(5)
    a = _env(grid, rng.standard_normal(10) + 1j * rng.standard_normal(10))
    assert mse_cost(a, a) == 0.0
    c = 0.3 - 0.4j
    shifted = a.with_samples(a.samples + c)
    assert mse_cost(a, shifted) == pytest.approx(abs(c) ** 2, rel=1e-12)


def test_mse_cost_matches_elementwise_oracle():
    grid = TimeGrid(0.0, 1e-9, 8)
    rng = np.random.default_rng(7)
    a = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    b = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    direct = sum(abs(x - y) ** 2 for x, y in zip(a, b)) / 8
    assert mse_cost(_env(grid, a), _env(grid, b)) == pytest.approx(
        direct, rel=1e-12)


# ------------------------------------------------------------- align_delay

def _gaussian_env(grid, fwhm=5e-8):
    return make_pulse(PulseSpec(kind="gaussian", duration=grid.span / 2,
                                fwhm=fwhm), grid)


def test_align_delay_identity():
    grid = TimeGrid(0.0, 1e-9, 512)
    env = _gaussian_env(grid)
    shifted, delay = align_delay(env, env)
    assert delay == 0.0
    np.testing.assert_array_equal(shifted.samples, env.samples)


def test_align_delay_recovers_bulk_acoustic_delay():
    grid = TimeGrid(0.0, 1e-9, 4096)
    ref = _gaussian_env(grid, fwhm=2e-7)
    k = 1400  # 1.4 us at 1 ns
    delayed = ref.with_samples(shift_samples(ref.samples, k))
    aligned, delay = align_delay(delayed, ref)
    assert delay == pytest.approx(1.4e-6)
    np.testing.assert_allclose(aligned.samples[k:], ref.samples[k:],
                               atol=1e-12)


def test_align_delay_seventeen_samples_with_noise():
    grid = TimeGrid(0.0, 1e-9, 1024)
    ref = _gaussian_env(grid)
    rng = np.random.default_rng(17)
    noisy = ref.with_samples(shift_samples(ref.samples, 17)
                             + 0.01 * (rng.standard_normal(1024)
                                       + 1j * rng.standard_normal(1024)))
    _, delay = align_delay(noisy, ref)
    assert delay == pytest.approx(17e-9)


def test_align_delay_is_idempotent():
    grid = TimeGrid(0.0, 1e-9, 1024)
    ref = _gaussian_env(grid)
    delayed = ref.with_samples(shift_samples(ref.samples, 40))
    aligned, _ = align_delay(delayed, ref)
    _, second = align_delay(aligned, ref)
    assert second == 0.0


def _uncached_align(measured, ref):
    # align_delay with the reference transformed afresh on every call.
    full = measured.grid.n + ref.grid.n - 1
    size = sfft.next_fast_len(full, True)
    corr = sfft.irfft(sfft.rfft(measured.amplitude, size)
                      * sfft.rfft(ref.amplitude[::-1], size), size)[:full]
    lag = int(np.argmax(corr)) - (ref.grid.n - 1)
    return shift_samples(measured.samples, -lag), lag * measured.grid.dt


def test_align_delay_keeps_the_reference_transform_invisibly():
    # Two references on one grid with different samples, each aligned
    # against measurements of two lengths (two transform sizes), in turn:
    # every call equals the uncached correlation bit for bit, and each
    # reference keeps its own spectrum, read-only, per size.
    grid = default_grid(5e-7)
    gate = make_pulse(PulseSpec(kind="gate-standin", duration=5e-7), grid)
    gauss = _gaussian_env(grid, fwhm=1e-7)
    rng = np.random.default_rng(25)
    shots = []
    for n in (grid.n + 300, 3 * grid.n):
        x = np.zeros(n, dtype=complex)
        x[40:40 + grid.n] = gate.samples
        x += 0.02 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        shots.append(_env(TimeGrid(-4e-8, grid.dt, n), x))
    before = repr(gate)
    for _ in range(2):
        for ref in (gate, gauss):
            for shot in shots:
                got, delay = align_delay(shot, ref)
                want, want_delay = _uncached_align(shot, ref)
                assert np.array_equal(got.samples, want)
                assert delay == want_delay
    for ref in (gate, gauss):
        for shot in shots:
            size = sfft.next_fast_len(shot.grid.n + grid.n - 1, True)
            spec = ref._reversed_amplitude_spectrum(size)
            assert not spec.flags.writeable
            assert np.array_equal(spec, sfft.rfft(ref.amplitude[::-1], size))
    # The memo is no part of the value: equality compares the grid and
    # the samples only, as before, and repr does not show it.
    assert repr(gate) == before
    assert [f.name for f in fields(ComplexEnvelope) if f.compare] == [
        "grid", "samples"]


@pytest.mark.parametrize("duration", [1.8e-7, 5e-7, 2e-6])
@pytest.mark.parametrize("extra", [0, 700])
def test_align_delay_lag_matches_direct_correlation(duration, extra):
    # The FFT correlation must pick the same integer lag as the direct
    # O(n^2) one, also when the measurement window is the longer one.
    ref = make_pulse(PulseSpec(kind="gate-standin", duration=duration),
                     default_grid(duration))
    n = ref.grid.n + extra
    rng = np.random.default_rng(int(duration * 1e9) + extra)
    for shift in rng.integers(-ref.grid.n // 4, ref.grid.n // 4, size=4):
        padded = np.zeros(n, dtype=complex)
        padded[:ref.grid.n] = ref.samples
        noisy = (shift_samples(padded, int(shift))
                 + 0.02 * (rng.standard_normal(n)
                           + 1j * rng.standard_normal(n)))
        measured = _env(TimeGrid(0.0, 1e-9, n), noisy)
        corr = np.correlate(measured.amplitude, ref.amplitude, mode="full")
        want = int(np.argmax(corr)) - (ref.grid.n - 1)
        _, delay = align_delay(measured, ref)
        assert round(delay / 1e-9) == want
        assert abs(want - shift) <= 2


def _fftconvolve_align(measured, reference):
    """align_delay's result with the correlation run by fftconvolve."""
    corr = sig.fftconvolve(measured.amplitude, reference.amplitude[::-1])
    lag = int(np.argmax(corr)) - (reference.grid.n - 1)
    return shift_samples(measured.samples, -lag), lag * measured.grid.dt


@pytest.mark.parametrize("n_measured", [2300, 1000, 1660])
def test_align_delay_equals_the_fftconvolve_correlation(n_measured):
    # Besides noisy gate pulses, flat windows put a plateau of equal
    # correlation values in exact arithmetic, so the chosen lag there
    # hangs on the last bit of every FFT output.
    ref = make_pulse(PulseSpec(kind="gate-standin", duration=8e-7),
                     TimeGrid(0.0, 1e-9, 1660))
    rng = np.random.default_rng(n_measured)
    measured = [np.ones(n_measured)]
    for shift in (-300, 0, 250):
        padded = np.zeros(n_measured, dtype=complex)
        k = min(n_measured, ref.grid.n)
        padded[:k] = ref.samples[:k]
        measured.append(shift_samples(padded, shift)
                        + 0.02 * (rng.standard_normal(n_measured)
                                  + 1j * rng.standard_normal(n_measured)))
    for reference in (ref, ref.with_samples(np.ones(ref.grid.n))):
        for samples in measured:
            env = _env(TimeGrid(0.0, 1e-9, n_measured), samples)
            got, delay = align_delay(env, reference)
            want, want_delay = _fftconvolve_align(env, reference)
            assert delay == want_delay
            assert np.array_equal(got.samples, want)


def test_align_delay_rejects_zero_signal():
    grid = TimeGrid(0.0, 1e-9, 64)
    env = _env(grid, np.zeros(64))
    with pytest.raises(ZeroSignalError):
        align_delay(env, env)


def test_align_delay_rejects_a_different_sample_period():
    # 1 ns and 2 ns differ by far more than rounding; an absolute
    # tolerance above 1e-8 s would let them pass.
    fine = _gaussian_env(TimeGrid(0.0, 1e-9, 128))
    coarse = _gaussian_env(TimeGrid(0.0, 2e-9, 128), fwhm=1e-7)
    with pytest.raises(GridMismatchError):
        align_delay(coarse, fine)
    with pytest.raises(GridMismatchError):
        align_delay(fine, coarse)


# ------------------------------------------------------------- phase views

def test_unit_amplitude_quarter_phase_is_i():
    grid = TimeGrid(0.0, 1e-9, 4)
    env = _env(grid, np.exp(1j * np.pi / 2) * np.ones(4))
    np.testing.assert_allclose(env.samples, 1j * np.ones(4), atol=1e-15)
    np.testing.assert_allclose(env.amplitude, 1.0)
    np.testing.assert_allclose(env.phase, np.pi / 2)

