"""Property tests: invariants of the sample algebra, the forward model,
delay alignment, envelope files, the demodulation filter, kernel
estimation, the cross-validated fit and the three-lens designs over
random inputs, and the ways a closed loop may end over a family of
channels."""

import warnings

import numpy as np
import pytest
import scipy.signal as sig

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from pulseloop import fileio, loop  # noqa: E402
from pulseloop.channel import ChannelConfig, SimulatedChannel  # noqa: E402
from pulseloop.demod import (design_lowpass, filtfilt,  # noqa: E402
                             suggested_cutoff)
from pulseloop.envelope import (ComplexEnvelope,  # noqa: E402
                                InvalidSpecError, PulseSpec, TimeGrid,
                                align_delay, default_grid, embed, make_pulse,
                                shift_samples)
from pulseloop.loop import (LOOP_METHODS, LoopConfig,  # noqa: E402
                            MeasurementError, SingularUpdateError, _adjoint,
                            _align_to_target, closed_loop)
from pulseloop.optics import (GaussianBeam, design_three_lens,  # noqa: E402
                              propagate_beam, sensitivity)
from pulseloop.sysid import (CVConfig, VolterraModel,  # noqa: E402
                             build_design_matrix, cross_validate,
                             estimate_kernel, volterra_forward)

from band_reference import damped_band_solve  # noqa: E402
from cv_reference import (assert_matches_the_svd_scorer,  # noqa: E402
                          serial_cross_validate)

seeds = st.integers(0, 2 ** 32 - 1)
finite = st.floats(allow_nan=False, allow_infinity=False)


def _noise(seed, n):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def _env(samples, t0=0.0, dt=1e-9):
    return ComplexEnvelope(TimeGrid(t0, dt, len(samples)), samples)


# ------------------------------------------------------- shift / embed

@given(seed=seeds, n=st.integers(2, 64), k=st.integers(-80, 80))
def test_shift_moves_samples_and_zero_fills(seed, n, k):
    x = _noise(seed, n)
    out = shift_samples(x, k)
    expected = np.zeros(n, dtype=complex)
    for i in range(n):
        if 0 <= i - k < n:
            expected[i] = x[i - k]
    np.testing.assert_array_equal(out, expected)


@given(seed=seeds, n=st.integers(2, 64), j=st.integers(0, 40),
       k=st.integers(0, 40), sign=st.sampled_from([1, -1]))
def test_shifts_in_one_direction_compose(seed, n, j, k, sign):
    x = _noise(seed, n)
    np.testing.assert_array_equal(
        shift_samples(shift_samples(x, sign * j), sign * k),
        shift_samples(x, sign * (j + k)))


@given(seed=seeds, n=st.integers(2, 64), before=st.integers(0, 30),
       after=st.integers(0, 30), k0=st.integers(-1000, 1000))
def test_embed_keeps_the_samples_on_their_times(seed, n, before, after, k0):
    env = _env(_noise(seed, n), t0=k0 * 1e-9)
    ext = embed(env, before, after)
    assert ext.grid.dt == env.grid.dt
    assert ext.grid.n == n + before + after
    assert ext.grid.t0 == pytest.approx(env.grid.t0 - before * 1e-9,
                                        abs=1e-18)
    np.testing.assert_array_equal(ext.samples[before:before + n],
                                  env.samples)
    assert not np.any(ext.samples[:before])
    assert not np.any(ext.samples[before + n:])


@given(seed=seeds, n=st.integers(2, 64), before=st.integers(0, 30),
       after=st.integers(0, 30), k=st.integers(0, 30))
def test_shifting_an_embedded_envelope_moves_its_padding(seed, n, before,
                                                         after, k):
    env = _env(_noise(seed, n))
    k = min(k, after)
    shifted = shift_samples(embed(env, before, after).samples, k)
    np.testing.assert_array_equal(
        shifted, embed(env, before + k, after - k).samples)


# ---------------------------------------------------- volterra_forward

@given(seed=seeds, n=st.integers(8, 200), memory=st.integers(1, 8),
       alpha=st.complex_numbers(max_magnitude=10, allow_nan=False),
       beta=st.complex_numbers(max_magnitude=10, allow_nan=False))
def test_forward_is_affine(seed, n, memory, alpha, beta):
    rng = np.random.default_rng(seed)
    model = VolterraModel(h0=complex(*rng.standard_normal(2)),
                          h1=_noise(seed + 1, memory))
    x, y = _noise(seed + 2, n), _noise(seed + 3, n)

    def lin(samples):
        return volterra_forward(model, _env(samples)).samples - model.h0

    scale = 1.0 + abs(alpha) + abs(beta)
    np.testing.assert_allclose(lin(alpha * x + beta * y),
                               alpha * lin(x) + beta * lin(y),
                               atol=1e-12 * scale * n)


# --------------------------------------------------------- align_delay

@given(seed=seeds, n=st.integers(64, 512), extra=st.integers(0, 128),
       shift_frac=st.floats(-0.25, 0.25), width=st.floats(0.02, 0.2),
       sigma=st.floats(0.0, 0.05))
def test_align_delay_is_idempotent(seed, n, extra, shift_frac, width,
                                   sigma):
    t = np.arange(n) / n - 0.5
    ref = _env(np.exp(-0.5 * (t / width) ** 2) * np.exp(1j * t))
    measured = np.zeros(n + extra, dtype=complex)
    measured[:n] = shift_samples(ref.samples, int(shift_frac * n))
    measured += sigma * _noise(seed, n + extra)
    aligned, _ = align_delay(_env(measured), ref)
    assert align_delay(aligned, ref)[1] == 0.0


# ---------------------------------------------------- envelope CSV file

@settings(max_examples=50)
@given(data=st.data(), n=st.integers(2, 40),
       dt=st.floats(1e-12, 1e-6), k0=st.integers(-10 ** 4, 10 ** 4))
def test_envelope_csv_round_trip_is_exact(tmp_path_factory, data, n, dt,
                                          k0):
    i = np.array(data.draw(st.lists(finite, min_size=n, max_size=n)))
    q = np.array(data.draw(st.lists(finite, min_size=n, max_size=n)))
    samples = np.empty(n, dtype=complex)
    samples.real, samples.imag = i, q
    env = _env(samples, t0=k0 * dt, dt=dt)
    path = str(tmp_path_factory.mktemp("csv") / "env.csv")
    fileio.write_envelope_csv(path, env)
    back = fileio.read_envelope_csv(path)
    # Samples and t0 come back bit for bit; dt is re-inferred from the
    # time column, so it carries float-subtraction rounding.
    np.testing.assert_array_equal(back.samples.real, i)
    np.testing.assert_array_equal(back.samples.imag, q)
    assert back.grid.t0 == env.grid.t0
    assert back.grid.n == n
    assert back.grid.dt == pytest.approx(dt, rel=1e-9)


# ------------------------------------------------------- demod filter

FS = 2e9


@settings(max_examples=60, deadline=None)
@given(data=st.data(), seed=seeds, order=st.integers(1, 12),
       decades=st.floats(np.log10(2.5), np.log10(2000)),
       is_complex=st.booleans())
def test_filter_matches_scipy_butterworth_and_sosfiltfilt(data, seed, order,
                                                          decades,
                                                          is_complex):
    # cutoff from 0.4 fs down to fs/2000. The oracle is a sample-by-sample
    # section cascade; the block recursion rounds differently. Both
    # roundings grow as (fs / cutoff)^2 once poles crowd z = 1 (at
    # fs/2000, sosfiltfilt itself is ~1e-12 of max |x| off an
    # extended-precision run), so the bound is 1e-12 up to fs/100 and
    # scales with that square below.
    cutoff = FS / 10 ** decades
    n = data.draw(st.integers(3 * order + 1, 12_000), label="n")
    tol = 1e-12 * max(1.0, (FS / (100 * cutoff)) ** 2)
    filt = design_lowpass(order, cutoff, FS)
    sos = filt.sos.copy()
    np.testing.assert_allclose(filt.zi, sig.sosfilt_zi(sos), rtol=1e-14,
                               atol=0)
    freqs = np.linspace(0, FS / 2, 64, endpoint=False)
    _, h = sig.sosfreqz(sos, worN=freqs, fs=FS)
    _, h_ref = sig.sosfreqz(sig.butter(order, cutoff, fs=FS, output="sos"),
                            worN=freqs, fs=FS)
    assert np.max(np.abs(h - h_ref)) <= tol
    x = _noise(seed, n) if is_complex else _noise(seed, n).real
    padlen = min(n - 1, max(3 * order, round(3 * FS / cutoff)))
    ref = sig.sosfiltfilt(sos, x, padtype="odd", padlen=padlen)
    y = filtfilt(filt, x)
    assert y.dtype == ref.dtype
    assert np.max(np.abs(y - ref)) <= tol * np.max(np.abs(x))


# ----------------------------------------------------- estimate_kernel

def _ridge_oracle(a, y, lam):
    """Reference coefficients and the relative error bound they allow.

    At lam = 0, NumPy's ``lstsq`` on ``a`` itself, with estimate_kernel's
    singular-value cutoff. Unregularized taps are fixed only to about
    cond(A) x eps, and square fits reach cond(A) = 3e13. Two stable
    solvers differ by a small multiple of cond(A) x eps there (20 at worst
    over 1,500 random fits), so the bound is 100 of it, never below 1e-8.
    Otherwise least squares on the augmented [a; sqrt(lam) I], to 1e-8.
    """
    if lam == 0:
        return (np.linalg.lstsq(a, y, rcond=None)[0],
                max(1e-8, 100 * np.linalg.cond(a) * np.finfo(float).eps))
    ncoef = a.shape[1]
    aug = np.vstack([a, np.sqrt(lam) * np.eye(ncoef)])
    return np.linalg.lstsq(aug, np.concatenate([y, np.zeros(ncoef)]),
                           rcond=None)[0], 1e-8


@settings(max_examples=60, deadline=None)
@given(seed=seeds, memory=st.integers(1, 64), extra=st.integers(1, 1200),
       lam=st.sampled_from([0.0, 1e-6, 1.0]))
# A square lam = 0 fit with cond(A) = 1.9e13, where the taps land 2.8e-4
# from the lstsq oracle's.
@example(seed=1158940167, memory=33, extra=1, lam=0.0)
# A square lam = 0 fit with s_min / s_max = 1.6e-14, just above
# estimate_kernel's cutoff eps * max(n, p): an oracle on [a; 0 * I] has
# twice the rows, so twice the cutoff, and dropped that singular value.
@example(seed=2345297, memory=63, extra=1, lam=0.0)
def test_estimate_kernel_matches_augmented_least_squares(seed, memory,
                                                         extra, lam):
    # n runs from memory + 1 (square) to well past several row blocks.
    n = memory + extra
    inp, out = _env(_noise(seed, n)), _env(_noise(seed + 1, n))
    model = estimate_kernel(inp, out, memory, lam)
    theta = np.concatenate([[model.h0], model.h1])
    ref, tol = _ridge_oracle(build_design_matrix(inp, memory), out.samples,
                             lam)
    assert np.linalg.norm(theta - ref) <= tol * np.linalg.norm(ref)


@settings(max_examples=40, deadline=None)
@given(seed=seeds, memory=st.integers(1, 64), extra=st.integers(1, 600),
       folds=st.integers(2, 6),
       grid=st.lists(st.sampled_from([0.0, 1e-6, 1e-3, 1.0]), min_size=1,
                     max_size=4, unique=True))
# A near-square lam = 0 fit (cond(A) ~ 1e10) where reducing the fold
# factors used to round 7e-8 away from a direct factor of the record; it
# lies 1.6e-7 from the plain lstsq taps, inside the cond(A) bound.
@example(seed=229, memory=48, extra=2, folds=2, grid=[0.0])
def test_cv_model_matches_augmented_least_squares_at_lambda_star(
        seed, memory, extra, folds, grid):
    # The final fit reduces the fold factors instead of the design
    # matrix; folds may train on fewer rows than coefficients.
    n = memory + extra
    inp, out = _env(_noise(seed, n)), _env(_noise(seed + 1, n))
    lam, _, model = cross_validate(inp, out, memory,
                                   CVConfig(min(folds, n), tuple(grid)))
    theta = np.concatenate([[model.h0], model.h1])
    ref, tol = _ridge_oracle(build_design_matrix(inp, memory), out.samples,
                             lam)
    assert np.linalg.norm(theta - ref) <= tol * np.linalg.norm(ref)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), seed=seeds, n=st.integers(130, 3000),
       memory=st.integers(1, 64), folds=st.integers(2, 7))
def test_cv_on_the_nonzero_span_equals_a_scorer_of_every_row(data, seed, n,
                                                             memory, folds):
    # Zero margins of up to n / 3 on each side: the rows outside
    # [a, b + memory - 1) of the input's nonzero span [a, b) read zeros
    # only, and cross_validate builds none of them, which is exact. A
    # span end one row short drops the last sample's lag entry from a
    # fold; it moved the scores by up to 1.5e2 relative on 100 such
    # draws.
    before = data.draw(st.integers(0, n // 3), label="before")
    after = data.draw(st.integers(0, n // 3), label="after")
    x = np.zeros(n, dtype=complex)
    x[before:n - after] = _noise(seed, n - before - after)
    h1 = _noise(seed + 1, memory)
    y = 0.1 + np.convolve(x, h1)[:n] + 1e-2 * _noise(seed + 2, n)
    inp, out = _env(x), _env(y)
    cv = CVConfig(folds)
    lam, scores, _ = cross_validate(inp, out, memory, cv)
    ref_lam, ref_scores, _ = serial_cross_validate(inp, out, memory, cv,
                                                   clipped=False)
    assert lam == ref_lam
    np.testing.assert_allclose(scores[:, 1], ref_scores[:, 1], rtol=1e-8)


# ------------------------------------------------------ the closed loop

def _family_kernel(seed):
    """Kernel ``seed`` of a family of channels: a direct tap drawn from
    U(0, 2) plus 3 to 63 exponentially decaying complex Gaussian taps,
    the whole scaled to |DC gain| 1."""
    rng = np.random.default_rng(seed)
    taps = int(rng.integers(4, 65))
    decay = np.exp(-np.arange(taps) / rng.uniform(1.0, taps / 2))
    h1 = decay * (rng.standard_normal(taps) + 1j * rng.standard_normal(taps))
    h1[0] = rng.uniform(0.0, 2.0)
    return VolterraModel(h0=0.0, h1=h1 / abs(h1.sum()))


@settings(max_examples=20, deadline=None)
@given(seed=seeds, method=st.sampled_from(LOOP_METHODS),
       memory=st.sampled_from([8, 32, 64]),
       duration=st.sampled_from([1.8e-7, 5e-7, 1e-6]),
       gate=st.sampled_from([1e-6, 1e-4, 5e-4, 1e-3, 1e-2]))
def test_a_closed_loop_converges_stalls_or_fails_by_name(seed, method,
                                                         memory, duration,
                                                         gate):
    # On any channel of the family, with the AOM on, a loop ends
    # converged, ends at max_loop_iters, or raises one of the package's
    # loop or input errors; it emits no warning on the way.
    target = make_pulse(PulseSpec(kind="gate-standin", duration=duration),
                        default_grid(duration))
    chan = SimulatedChannel(ChannelConfig(volterra=_family_kernel(seed)),
                            cutoff=suggested_cutoff(duration),
                            trace_noise_sigma=0.02, seed=seed)
    config = LoopConfig(method=method, convergence_mase=gate, memory=memory)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            report = closed_loop(chan.measure, target, config)
        except (SingularUpdateError, MeasurementError, InvalidSpecError):
            return
    assert report.converged == (report.mase_trace[-1] <= gate)
    assert (report.converged
            or len(report.records) == config.max_loop_iters)


@settings(max_examples=20, deadline=None)
@given(seed=seeds, duration=st.sampled_from([1.8e-7, 5e-7, 2e-6]))
def test_the_offline_step_matches_the_band_solve_on_the_family(seed,
                                                               duration):
    # On any channel of the family, the first offline step from a
    # lambda = 0 fit to the first shot, solved by circulant embedding,
    # meets the damped normal equations as closely as solveh_banded's
    # step, and the two agree to the rounding that the condition bound
    # (max |H|^2 + mu) / mu allows (it reaches 5e10 on the family, where
    # they differ by up to 0.07 cond eps); no warning on the way.
    target = make_pulse(PulseSpec(kind="gate-standin", duration=duration),
                        default_grid(duration))
    chan = SimulatedChannel(ChannelConfig(volterra=_family_kernel(seed)),
                            cutoff=suggested_cutoff(duration),
                            trace_noise_sigma=0.02, seed=seed)
    out, _ = _align_to_target(chan.measure(target), target)
    model = estimate_kernel(target, out, 64, 0.0)
    h1, n, mu = model.h1, target.grid.n, loop._DAMPING
    t = target.samples
    v = _adjoint(h1, t - (np.convolve(t, h1)[:n] + model.h0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = loop._normal_solver(h1, n)(v)
    want = damped_band_solve(h1, v)

    def residual(x):
        normal = _adjoint(h1, np.convolve(x, h1)[:n]) + mu * x
        return np.max(np.abs(normal - v)) / np.max(np.abs(v))

    assert residual(got) <= max(4 * residual(want), 1e-12)
    cond = (np.max(np.abs(np.fft.fft(h1, 8 * n))) ** 2 + mu) / mu
    assert (np.max(np.abs(got - want))
            <= cond * np.finfo(float).eps * np.max(np.abs(want)))


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("duration", [1.8e-7, 5e-7, 2e-6])
def test_cv_scores_match_the_svd_scorer_on_the_family(seed, duration):
    # Cross-validation scores each fold by Cholesky solves on Gram
    # matrices; on every channel of the family the scores match the
    # orthogonal-factor scorer's, with the same lambda_star and model.
    target = make_pulse(PulseSpec(kind="gate-standin", duration=duration),
                        default_grid(duration))
    chan = SimulatedChannel(ChannelConfig(volterra=_family_kernel(seed)),
                            cutoff=suggested_cutoff(duration),
                            trace_noise_sigma=0.02, seed=seed)
    out, _ = _align_to_target(chan.measure(target), target)
    cv = CVConfig()
    assert_matches_the_svd_scorer(cross_validate(target, out, 64, cv),
                                  target, out, 64, cv)


# ---------------------------------------------------- three-lens designs

def _spacings_in_box(train):
    k, d3, d4 = (e.parameter for e in train.elements[1::2])
    return 0.01 <= k <= 0.50 and 0.01 <= d3 <= 0.80 and 0.005 <= d4 <= 0.30


# The examples are inputs where the compact design used to come out with
# its waist downstream of the marker.
@given(w_in=st.floats(0.8e-3, 1.6e-3), w_target=st.floats(30e-6, 80e-6),
       wavelength=st.sampled_from([405e-9, 780e-9]))
@example(w_in=1.2e-3, w_target=50e-6, wavelength=405e-9)
@example(w_in=1.2e-3, w_target=80e-6, wavelength=405e-9)
@example(w_in=0.8e-3, w_target=63e-6, wavelength=405e-9)
@example(w_in=1.2e-3, w_target=63e-6, wavelength=780e-9)
def test_three_lens_designs_meet_their_targets_or_refuse(w_in, w_target,
                                                         wavelength):
    beam = GaussianBeam(wavelength, w_in)
    try:
        compact = design_three_lens(wavelength, w_in, w_target, "compact")
    except InvalidSpecError:
        pass
    else:
        out = propagate_beam(compact, beam, "aom")
        s = sensitivity(compact, "aom")
        b_single = np.pi * w_in * w_target / wavelength
        assert _spacings_in_box(compact)
        assert out.spot == pytest.approx(w_target, rel=1e-9)
        assert s.dL_dtheta_in == pytest.approx(b_single / 2.5, rel=1e-9)
        assert abs(s.dtheta_dtheta_in) <= 1e-9
        assert out.waist_position < 0  # upstream of the marker
    try:
        matched = design_three_lens(wavelength, w_in, w_target,
                                    "waist-matched")
    except InvalidSpecError:
        pass
    else:
        out = propagate_beam(matched, beam, "aom")
        assert _spacings_in_box(matched)
        assert out.w == pytest.approx(w_target, rel=1e-9)
        assert abs(out.waist_position) <= 1e-9 * out.rayleigh
