"""Offline correction by iterated Tikhonov and the closed feedback loop."""

import tracemalloc

import numpy as np
import pytest

from pulseloop import channel, loop, sysid

from pulseloop.channel import (ChannelConfig, SimulatedChannel,
                               default_kernel, quadrature_phase)
from pulseloop.demod import AliasingError, suggested_cutoff
from pulseloop.envelope import (ComplexEnvelope, GridMismatchError,
                                InvalidSpecError, PulseSpec, TimeGrid,
                                ZeroSignalError, align_delay, default_grid,
                                make_pulse, mase, mse_cost)
from pulseloop.loop import (LMConfig, LoopConfig, LoopReport,
                            MeasurementError, ReplayChannel,
                            SingularUpdateError, _adjoint, _align_to_target,
                            closed_loop, jacobian, offline_iterate,
                            tf_free_step)
from pulseloop.sysid import VolterraModel, estimate_kernel, volterra_forward

from band_reference import (band_tikhonov_steps, damped_band_solve,
                            normal_banded)


def _env(samples, dt=1e-9):
    samples = np.asarray(samples, dtype=complex)
    return ComplexEnvelope(TimeGrid(0.0, dt, len(samples)), samples)


def _random_env(rng, n, scale=1.0):
    return _env(scale * (rng.standard_normal(n)
                         + 1j * rng.standard_normal(n)))


def _gate(duration=5e-7):
    grid = default_grid(duration)
    return make_pulse(PulseSpec(kind="gate-standin", duration=duration), grid)


# ---------------------------------------------------------------- jacobian

def test_jacobian_identity_model():
    env = _env(np.ones(5))
    j = jacobian(VolterraModel.identity(), env)
    np.testing.assert_array_equal(j, np.eye(5, dtype=complex))


def test_jacobian_two_tap_banding():
    a, b = 0.7 - 0.1j, 0.2 + 0.4j
    env = _env(np.ones(3))
    j = jacobian(VolterraModel(h0=0.3, h1=np.array([a, b])), env)
    expected = np.array([[a, 0, 0],
                         [b, a, 0],
                         [0, b, a]], dtype=complex)
    np.testing.assert_array_equal(j, expected)


def test_jacobian_matches_finite_differences():
    # Central differences of the forward model, real and imaginary
    # input perturbations separately, step 1e-6.
    rng = np.random.default_rng(40)
    step = 1e-6
    for _ in range(10):
        memory = int(rng.integers(1, 33))
        n = memory + int(rng.integers(4, 24))
        model = VolterraModel(h0=complex(*rng.standard_normal(2)),
                              h1=rng.standard_normal(memory)
                              + 1j * rng.standard_normal(memory))
        env = _random_env(rng, n)
        j = jacobian(model, env)
        scale = np.max(np.abs(j))
        for m in range(0, n, max(1, n // 5)):
            for direction in (step, 1j * step):
                bumped = env.samples.copy()
                bumped[m] += direction
                dropped = env.samples.copy()
                dropped[m] -= direction
                diff = (volterra_forward(model, _env(bumped)).samples
                        - volterra_forward(model, _env(dropped)).samples)
                column = diff / (2 * direction)
                assert np.max(np.abs(column - j[:, m])) / scale < 1e-6


# ------------------------------------------------------ normal equations

def _dense_jacobian(h1, n):
    return jacobian(VolterraModel(h0=0.0, h1=h1), _env(np.zeros(n)))


@pytest.mark.parametrize("n, memory", [(300, 64), (100, 64), (64, 64),
                                       (12, 1)])
def test_normal_band_and_adjoint_match_dense_jacobian(n, memory):
    rng = np.random.default_rng(n + memory)
    h1 = rng.standard_normal(memory) + 1j * rng.standard_normal(memory)
    r = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    j = _dense_jacobian(h1, n)
    gram = j.conj().T @ j
    expected = np.zeros((memory, n), dtype=complex)
    for d in range(memory):
        expected[d, :n - d] = np.diagonal(gram, -d)
    ab = normal_banded(h1, n)
    np.testing.assert_allclose(ab, expected, rtol=0,
                               atol=1e-12 * np.max(np.abs(gram)))
    adjoint = j.conj().T @ r
    np.testing.assert_allclose(_adjoint(h1, r), adjoint, rtol=0,
                               atol=1e-12 * np.max(np.abs(adjoint)))


_EDGE_SHAPES = [(360, 64), (1000, 64), (4000, 64), (64, 64), (65, 64),
                (12, 1), (360, 2), (2, 2), (129, 128)]


@pytest.mark.parametrize("n, memory", _EDGE_SHAPES)
def test_normal_band_equals_the_all_column_gather(n, memory):
    # The reference band gathers each column from the lag partial sums.
    # It equals J^H J formed from J's own band, jb[k, c] = J[c + k, c],
    # as G[c + d, c] = sum_k conj(J[c + k, c + d]) J[c + k, c].
    rng = np.random.default_rng(7 * n + memory)
    h1 = rng.standard_normal(memory) + 1j * rng.standard_normal(memory)
    k = np.arange(memory)[:, None]
    jb = np.where(np.arange(n) + k < n, h1[:, None], 0)
    expected = np.zeros((memory, n), dtype=complex)
    for d in range(min(memory, n)):
        expected[d, :n - d] = np.sum(jb[:memory - d, d:].conj()
                                     * jb[d:, :n - d], axis=0)
    np.testing.assert_allclose(normal_banded(h1, n), expected, rtol=0,
                               atol=1e-12 * np.max(np.abs(expected)))


@pytest.mark.parametrize("n, memory", _EDGE_SHAPES)
def test_normal_solver_matches_the_dense_normal_equations(n, memory):
    # The circulant embedding is exact: its solve satisfies the damped
    # normal equations of jacobian() (applied by convolution where the
    # dense matrix would not fit) and matches the banded Cholesky solve.
    rng = np.random.default_rng(3 * n + memory)
    h1 = rng.standard_normal(memory) + 1j * rng.standard_normal(memory)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    x = loop._normal_solver(h1, n)(v)
    if n <= 1000:
        j = _dense_jacobian(h1, n)
        normal = j.conj().T @ (j @ x) + loop._DAMPING * x
    else:
        normal = (_adjoint(h1, np.convolve(x, h1)[:n])
                  + loop._DAMPING * x)
    assert np.max(np.abs(normal - v)) < 1e-9 * np.max(np.abs(v))
    reference = damped_band_solve(h1, v)
    assert np.max(np.abs(x - reference)) < 1e-9 * np.max(np.abs(reference))


def test_a_fast_length_one_tap_solve_has_no_border(monkeypatch):
    # n = 12 is a fast FFT length, so with one tap P = n and q = 0: the
    # solve is the circulant's alone, with no border to factor or solve.
    def no_lapack(*args, **kwargs):
        raise AssertionError("a border was factored or solved")

    for name in ("zpotrf", "zpotrs", "ztrtrs", "zherk"):
        monkeypatch.setattr(loop, name, no_lapack)
    v = np.arange(1, 13) * (1 - 0.5j)
    x = loop._normal_solver(np.array([0.7 - 0.2j]), 12)(v)
    np.testing.assert_allclose(x, v / (0.53 + loop._DAMPING), rtol=1e-14)


# ----------------------------------------------------------- offline_iterate

def test_offline_identity_model_converges_immediately():
    rng = np.random.default_rng(45)
    target = _random_env(rng, 32)
    result = offline_iterate(VolterraModel.identity(), target)
    assert result.converged
    assert len(result.costs) == 1
    np.testing.assert_allclose(result.s_pred.samples, target.samples,
                               atol=1e-9)


def _dense_tikhonov_steps(model, target, steps):
    """Iterated Tikhonov on the dense Jacobian, damping 1e-3."""
    j = jacobian(model, target)
    t = target.samples
    h = j.conj().T @ j + 1e-3 * np.eye(len(t))
    s = t.copy()
    for _ in range(steps):
        s = s + np.linalg.solve(h, j.conj().T @ (t - j @ s - model.h0))
    return s


def test_offline_one_step_matches_dense_normal_equations():
    rng = np.random.default_rng(44)
    model = VolterraModel(h0=0.05 - 0.02j,
                          h1=np.array([0.8, -0.3 + 0.2j, 0.1j]))
    target = _random_env(rng, 8)
    result = offline_iterate(model, target,
                             LMConfig(max_iters=1, cost_tol=1e-30))
    assert len(result.costs) == 2
    np.testing.assert_allclose(result.s_pred.samples,
                               _dense_tikhonov_steps(model, target, 1),
                               atol=1e-10)


def test_offline_three_steps_match_dense_iterated_tikhonov():
    # The damping stays at 1e-3 and every step is kept, so three steps
    # follow the dense recurrence s += (J^H J + 1e-3 I)^-1 J^H r(s).
    rng = np.random.default_rng(55)
    model = VolterraModel(h0=0.1 + 0.05j,
                          h1=np.array([0.02, 1.0, 0.5 - 0.2j, 0.1j]))
    target = _random_env(rng, 24)
    result = offline_iterate(model, target,
                             LMConfig(max_iters=3, cost_tol=1e-30))
    assert len(result.costs) == 4
    expected = _dense_tikhonov_steps(model, target, 3)
    np.testing.assert_allclose(result.s_pred.samples, expected, rtol=0,
                               atol=1e-9 * np.max(np.abs(expected)))
    # The third step moved the input, so the comparison sees it.
    third = expected - _dense_tikhonov_steps(model, target, 2)
    assert np.max(np.abs(third)) > 1e-6 * np.max(np.abs(expected))


def _gate_fit(duration):
    """A gate target and the lambda = 0 kernel fitted to its first shot."""
    target = _gate(duration)
    chan = SimulatedChannel(ChannelConfig(),
                            cutoff=suggested_cutoff(duration),
                            trace_noise_sigma=0.02, seed=2)
    s_out, _ = _align_to_target(chan.measure(target), target)
    return target, estimate_kernel(target, s_out, 64, 0.0)


@pytest.mark.parametrize("duration", [1.8e-7, 5e-7, 2e-6])
def test_offline_first_step_equals_the_solveh_banded_step(duration):
    # The loop fits a lambda = 0 kernel to one gate shot and takes one
    # offline step from the target. Solving the damped banded normal
    # equations with solveh_banded is the reference: the step taken by
    # circulant embedding must match it to 1e-8 of its largest entry.
    target, model = _gate_fit(duration)
    assert target.grid.n == round(2 * duration / 1e-9)
    expected, = band_tikhonov_steps(model, target, 1)
    result = offline_iterate(model, target,
                             LMConfig(max_iters=1, cost_tol=1e-30))
    step = np.max(np.abs(expected - target.samples))
    assert np.max(np.abs(result.s_pred.samples - expected)) < 1e-8 * step


@pytest.mark.parametrize("duration", [1.8e-7, 5e-7, 2e-6])
def test_offline_three_steps_equal_three_solveh_banded_steps(duration):
    target, model = _gate_fit(duration)
    *_, expected = band_tikhonov_steps(model, target, 3)
    result = offline_iterate(model, target,
                             LMConfig(max_iters=3, cost_tol=1e-30))
    assert len(result.costs) == 4
    step = np.max(np.abs(expected - target.samples))
    assert np.max(np.abs(result.s_pred.samples - expected)) < 1e-8 * step


def test_offline_unfactorable_normal_matrix_raises(monkeypatch):
    def not_positive_definite(a, lower, overwrite_a=0):
        return a, 2  # zpotrf: the 2nd leading minor is not positive definite

    monkeypatch.setattr(loop, "zpotrf", not_positive_definite)
    target = _env(np.ones(8))
    with pytest.raises(SingularUpdateError, match=r"max \|h1\| = 0\.5\b"):
        offline_iterate(VolterraModel(h0=0.0, h1=np.array([0.5, -0.1j])),
                        target)


def test_offline_allocates_no_band():
    # The solve works on transforms of P = next_fast_len(n + M - 1)
    # points and a q x q border, q = P - n: at 2 us (n = 4,000, M = 64)
    # three steps peak below half the 4 MB an n x M band would take.
    target, model = _gate_fit(2e-6)
    band_bytes = target.grid.n * model.memory * 16
    tracemalloc.start()
    try:
        offline_iterate(model, target, LMConfig(max_iters=3, cost_tol=1e-30))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < band_bytes / 2


def test_a_kernel_that_overflows_the_band_fails_by_name():
    # |h1[0]|^2 overflows: the taps' transform is checked, so the
    # error is the loop's own, with no overflow warning on the way.
    with pytest.raises(SingularUpdateError, match=r"max \|h1\| = 1e\+160"):
        offline_iterate(VolterraModel(h0=0.0, h1=np.array([1e160, 1.0])),
                        _env(np.ones(16)))


def test_an_offline_cost_that_overflows_fails_by_name():
    # The normal matrix is finite and factors, but the first cost
    # overflows: it is checked too, with no overflow warning on the way.
    with pytest.raises(SingularUpdateError,
                       match=r"cost overflows .* max \|h1\| = 1e\+154"):
        offline_iterate(VolterraModel(h0=0.0, h1=np.array([1e154, 1.0])),
                        _env(np.ones(16)))


def test_an_offline_step_that_overflows_fails_by_name(monkeypatch):
    # A finite cost bounds the exact step, but a solve rounded against an
    # ill-conditioned factor need not be; the step is checked, not passed
    # on as NaN, and its arithmetic warns of nothing on the way.
    monkeypatch.setattr(loop, "zpotrs",
                        lambda c, b, lower: (np.full(len(b), np.inf), 0))
    model = VolterraModel(h0=0.0, h1=np.array([9.4e3, 9.4e3]))
    with pytest.raises(SingularUpdateError,
                       match=r"step overflows .* max \|h1\| = 9\.4e\+03"):
        offline_iterate(model, _env(np.ones(2)))


def test_lm_config_validation():
    LMConfig(max_iters=0)
    for kwargs in ({"max_iters": -1}, {"cost_tol": 0.0},
                   {"cost_tol": -1e-6}, {"cost_tol": float("nan")},
                   {"cost_tol": float("inf")}):
        with pytest.raises(InvalidSpecError):
            LMConfig(**kwargs)


@pytest.mark.parametrize("value", [np.nan, np.inf, "1e-3", True])
@pytest.mark.parametrize("config, field", [
    (LoopConfig, "convergence_mase"), (LMConfig, "cost_tol")])
def test_loop_configs_name_a_tolerance_that_is_not_a_finite_real(
        config, field, value):
    # A str used to escape as a TypeError, and True passed as 1.
    with pytest.raises(InvalidSpecError, match=f"^{field} must be"):
        config(**{field: value})


@pytest.mark.parametrize("value", [2.5, 2.0, True])
@pytest.mark.parametrize("config, field", [
    (LoopConfig, "max_loop_iters"), (LoopConfig, "memory"),
    (LMConfig, "max_iters")])
def test_loop_configs_reject_a_count_that_is_not_an_integer(config, field,
                                                            value):
    # A fractional count used to pass and fail only in use, with a
    # TypeError from range or NumPy; a bool passed as 1 or 0.
    with pytest.raises(InvalidSpecError, match=field):
        config(**{field: value})


def test_offline_four_tap_cost_below_1e6():
    rng = np.random.default_rng(46)
    model = VolterraModel(h0=0.02 + 0.01j,
                          h1=np.array([0.85, -0.2 + 0.15j, 0.1, -0.04j]))
    target = _gate(3e-7)
    result = offline_iterate(model, target, LMConfig(max_iters=50))
    assert result.converged
    assert result.costs[-1] < 1e-6
    fitted = volterra_forward(model, result.s_pred)
    assert mse_cost(fitted, target) < 1e-6


def test_offline_cost_trace_is_non_increasing():
    rng = np.random.default_rng(47)
    model = VolterraModel(h0=0.0,
                          h1=np.array([0.6, 0.3, -0.2 + 0.1j, 0.05j]))
    target = _random_env(rng, 64, scale=0.5)
    result = offline_iterate(model, target, LMConfig(max_iters=30))
    assert np.all(np.diff(result.costs) <= 1e-15)


def test_offline_reaches_least_squares_floor():
    # A kernel with no instantaneous tap cannot place energy on the
    # first sample; the reachable floor equals the dense least-squares
    # residual of J s + h0 = target.
    rng = np.random.default_rng(48)
    model = VolterraModel(h0=0.1, h1=np.array([0.0, 1.0, 0.5 - 0.2j]))
    target = _random_env(rng, 24)
    result = offline_iterate(model, target,
                             LMConfig(max_iters=200, cost_tol=1e-30))
    j = jacobian(model, target)
    b = target.samples - model.h0
    x = np.linalg.lstsq(j, b, rcond=None)[0]
    floor = np.mean(np.abs(j @ x - b) ** 2)
    assert result.costs[-1] == pytest.approx(floor, rel=1e-6, abs=1e-12)


def test_offline_flags_non_convergence():
    model = VolterraModel(h0=0.0, h1=np.array([0.0, 1.0]))
    rng = np.random.default_rng(49)
    target = _random_env(rng, 16)
    result = offline_iterate(model, target,
                             LMConfig(max_iters=1, cost_tol=1e-30))
    assert not result.converged


# ------------------------------------------------------------- learning step

def _measured_gate(duration, seed=0):
    """A gate pulse and its aligned default-channel measurement."""
    target = _gate(duration)
    chan = SimulatedChannel(ChannelConfig(), cutoff=suggested_cutoff(duration),
                            trace_noise_sigma=0.02, seed=seed)
    return target, _align_to_target(chan.measure(target), target)[0]


def _band_step(h1, error):
    """The learning step by the banded Cholesky solve of J^H J + mu I."""
    return loop._LEARNING_GAIN * damped_band_solve(h1, _adjoint(h1, error))


@pytest.mark.parametrize("kernel", ["default", "fit"])
def test_the_learning_step_matches_the_band_solve_away_from_the_edges(
        kernel):
    # The circulant step differs from the banded Toeplitz solve only
    # through the window's ends, and the difference decays into the
    # window: on the 500 ns gate's error it is at most 9e-4 of the step's
    # peak anywhere and 3e-6 from 4M samples in.
    target, out = _measured_gate(5e-7)
    h1 = (default_kernel().h1 if kernel == "default"
          else estimate_kernel(target, out, 64, 1e-3).h1)
    error = target.samples - out.samples
    got, want = loop._learning_step(h1, error), _band_step(h1, error)
    peak = np.max(np.abs(want))
    inner = slice(4 * len(h1), len(error) - 4 * len(h1))
    assert np.max(np.abs(got - want)) < 1e-3 * peak
    assert np.max(np.abs(got[inner] - want[inner])) < 1e-5 * peak


def test_a_learning_step_on_overflowing_taps_names_them():
    with pytest.raises(SingularUpdateError,
                       match=r"learning step overflows .* = 1\.5e\+308"):
        loop._learning_step(np.array([1.5e308, 1.5e308]), np.ones(16))


def test_later_updates_take_one_learning_step_on_a_ridge_fit():
    # After the first shot the update inverts a lambda = 0 fit offline;
    # after each later one it fits lambda = 1e-3 to the shot and adds one
    # learning step on the measured error, with no offline solve.
    target = _gate(1.8e-7)
    chan = SimulatedChannel(ChannelConfig(),
                            cutoff=suggested_cutoff(1.8e-7),
                            trace_noise_sigma=0.02, seed=3)
    report = closed_loop(chan.measure, target,
                         LoopConfig(max_loop_iters=4, convergence_mase=1e-9))
    assert len(report.records) == 4
    assert report.records[1].offline.s_pred is report.records[1].s_pred
    for before, rec in zip(report.records[1:], report.records[2:]):
        model = estimate_kernel(before.s_pred, before.s_out, 64,
                                loop._LEARNING_LAMBDA)
        assert rec.model.h0 == model.h0
        np.testing.assert_array_equal(rec.model.h1, model.h1)
        step = loop._learning_step(model.h1,
                                   target.samples - before.s_out.samples)
        np.testing.assert_array_equal(rec.s_pred.samples,
                                      before.s_pred.samples + step)
        assert rec.offline is None


@pytest.mark.parametrize("seed", range(5))
def test_a_noisy_180ns_tf_loop_keeps_its_taps_bounded(seed):
    # Inverting each shot's lambda = 0 fit against the target grew the
    # taps to 3e5-6.5e5 by the tenth shot, and raised SingularUpdateError
    # on seed 4. The learning step's lambda = 1e-3 fits stay near 5, and
    # the first update's lambda = 0 fit peaks at 45.
    target = _gate(1.8e-7)
    chan = SimulatedChannel(ChannelConfig(),
                            cutoff=suggested_cutoff(1.8e-7),
                            trace_noise_sigma=0.02, seed=seed)
    report = closed_loop(chan.measure, target,
                         LoopConfig(max_loop_iters=10, convergence_mase=1e-9))
    assert len(report.records) == 10
    assert all(np.max(np.abs(rec.model.h1)) < 100
               for rec in report.records[1:])


def test_a_noiseless_180ns_tf_loop_passes_its_old_plateau():
    # Inverting the fit against the target stalled at MASE 4.6e-4: a
    # 65-tap FIR cannot hold the modulator's amplitude-dependent phase.
    # Stepping on the measured error reaches 2.47e-4 at the fifth shot.
    target = _gate(1.8e-7)
    chan = SimulatedChannel(ChannelConfig(), cutoff=suggested_cutoff(1.8e-7))
    report = closed_loop(chan.measure, target,
                         LoopConfig(max_loop_iters=8, convergence_mase=3e-4))
    assert report.converged


# -------------------------------------------------------------- tf_free_step

def test_tf_free_fixed_point_and_identity_channel():
    rng = np.random.default_rng(50)
    s_in = _random_env(rng, 16)
    target = _random_env(rng, 16)
    pred = tf_free_step(s_in, target, target)
    np.testing.assert_array_equal(pred.samples, s_in.samples)
    # One step on an identity channel (s_out = s_in) lands on target.
    pred = tf_free_step(s_in, target, s_in)
    np.testing.assert_allclose(pred.samples, target.samples, atol=1e-15)


def test_tf_free_geometric_contraction_on_scalar_gain():
    rng = np.random.default_rng(51)
    target = _random_env(rng, 32)
    for gain, ratio in ((0.8, 0.2), (1.3, 0.3), (0.5, 0.5)):
        s_in = target
        errors = []
        for _ in range(6):
            s_out = s_in.with_samples(gain * s_in.samples)
            errors.append(np.linalg.norm(s_out.samples - target.samples))
            s_in = tf_free_step(s_in, target, s_out)
        errors = np.array(errors)
        ratios = errors[1:] / errors[:-1]
        np.testing.assert_allclose(ratios, ratio, rtol=1e-9)


def test_tf_free_diverges_outside_the_contraction_band():
    # Outside g in (0, 2) the per-step error ratio |1 - g| exceeds one,
    # so the iteration blows up geometrically.
    rng = np.random.default_rng(52)
    target = _random_env(rng, 32)
    gain = 2.5
    s_in = target
    errors = []
    for _ in range(6):
        s_out = s_in.with_samples(gain * s_in.samples)
        errors.append(np.linalg.norm(s_out.samples - target.samples))
        s_in = tf_free_step(s_in, target, s_out)
    ratios = np.array(errors[1:]) / np.array(errors[:-1])
    np.testing.assert_allclose(ratios, abs(1 - gain), rtol=1e-9)
    assert errors[-1] > errors[0]


def test_tf_free_step_rejects_envelopes_on_different_grids():
    rng = np.random.default_rng(53)
    a, b = _random_env(rng, 16), _random_env(rng, 17)
    with pytest.raises(GridMismatchError, match="one common grid"):
        tf_free_step(a, a, b)


# --------------------------------------------------------------- closed_loop

def _linear_channel(model):
    def measure(env):
        return volterra_forward(model, env)
    return measure


def test_closed_loop_identity_channel_converges_first_pass():
    target = _gate(3e-7)
    for method in ("transfer-function", "transfer-function-free"):
        report = closed_loop(lambda e: e, target,
                             LoopConfig(method=method, max_loop_iters=5))
        assert report.converged
        assert len(report.records) == 1
        assert report.records[0].mase < 1e-9


def test_closed_loop_linear_channel_two_iterations():
    model = VolterraModel(h0=0.0,
                          h1=np.array([0.9, -0.15 + 0.1j, 0.05]))
    target = _gate(3e-7)
    report = closed_loop(_linear_channel(model), target,
                         LoopConfig(method="transfer-function",
                                    max_loop_iters=4, memory=8,
                                    convergence_mase=1e-6))
    assert report.converged
    assert len(report.records) <= 2
    assert report.mase_trace[-1] < 1e-6
    assert report.final_model is not None


def test_closed_loop_simulated_tf_free_500ns():
    target = _gate(5e-7)
    chan = SimulatedChannel(ChannelConfig(), cutoff=24e6,
                            trace_noise_sigma=0.02, seed=1)
    report = closed_loop(chan.measure, target,
                         LoopConfig(method="transfer-function-free",
                                    max_loop_iters=10,
                                    convergence_mase=2e-3))
    assert report.converged
    assert len(report.records) < 4
    assert report.mase_trace[-1] <= 2e-3


def test_closed_loop_simulated_tf_180ns():
    target = _gate(1.8e-7)
    chan = SimulatedChannel(ChannelConfig(), cutoff=67e6,
                            trace_noise_sigma=0.02, seed=3)
    report = closed_loop(chan.measure, target,
                         LoopConfig(method="transfer-function",
                                    max_loop_iters=6,
                                    convergence_mase=1e-3))
    assert report.converged
    assert len(report.records) <= 6
    assert report.mase_trace[-1] <= 1e-3


def _tf_loop(target, duration, seed):
    chan = SimulatedChannel(ChannelConfig(),
                            cutoff=suggested_cutoff(duration),
                            trace_noise_sigma=0.02, seed=seed)
    return closed_loop(chan.measure, target)


def _spy_design_factoring(monkeypatch):
    """The inputs whose design matrix ``sysid`` factors, in call order."""
    factored = []
    factor = sysid._design_tsqr

    def spy(env, memory, *args, **kwargs):
        factored.append(env)
        return factor(env, memory, *args, **kwargs)
    monkeypatch.setattr(sysid, "_design_tsqr", spy)
    return factored


def test_a_repeat_loop_fits_its_target_without_factoring_it(monkeypatch):
    # The first loop only marks the target, the second factors it once
    # and keeps the factor, and the third fits its first shot from the
    # kept factor; all three give the same shots bit for bit. The second
    # shot's lambda > 0 fit takes the Gram path and factors no input.
    target = _gate(1.8e-7)
    factored = _spy_design_factoring(monkeypatch)
    reports = []
    for k in range(3):
        factored.clear()
        reports.append(_tf_loop(target, 1.8e-7, seed=0))
        assert len(reports[-1].records) == 3
        assert len(factored) == (1 if k < 2 else 0)
        assert all(env is target for env in factored)
    for report in reports[1:]:
        np.testing.assert_array_equal(report.mase_trace,
                                      reports[0].mase_trace)
        for a, b in zip(reports[0].records, report.records):
            np.testing.assert_array_equal(a.s_out.samples, b.s_out.samples)


def test_the_target_keeps_a_design_factor_from_its_second_loop_on(
        monkeypatch):
    # A single loop gains nothing from a kept factor, so it keeps none;
    # the second loop on the target factors it once, before its fit.
    target = _gate(1.8e-7)
    key = (sysid._DESIGN_KEY, LoopConfig().memory)
    factored = _spy_design_factoring(monkeypatch)
    _tf_loop(target, 1.8e-7, seed=0)
    assert target._memo[key] is None
    assert sum(env is target for env in factored) == 1
    factored.clear()
    _tf_loop(target, 1.8e-7, seed=0)
    assert target._memo[key] is not None
    assert sum(env is target for env in factored) == 1


def test_only_the_loop_target_keeps_a_design_factor():
    # A kept factor holds n (memory + 1) complex values; a record's
    # input other than the target keeps none.
    target = _gate(1.8e-7)
    _tf_loop(target, 1.8e-7, seed=0)
    report = _tf_loop(target, 1.8e-7, seed=0)
    assert len(report.records) == 3
    key = (sysid._DESIGN_KEY, LoopConfig().memory)
    assert report.records[0].s_pred is target
    assert target._memo[key] is not None
    for record in report.records[1:]:
        assert record.s_pred is not target
        assert all(v is None for k, v in record.s_pred._memo.items()
                   if k[0] == sysid._DESIGN_KEY)
        assert record.s_out._memo == {}


def test_closed_loop_tf_2us_converges_with_exact_least_squares_kernel():
    # At 2 us the loop fits 4000 samples with lambda_reg = 0, an
    # ill-posed problem whose minimum-norm taps reach 2e2-3e2; the
    # pre-distortion must still land below the gate on the second shot.
    target = _gate(2e-6)
    for seed in range(4):
        chan = SimulatedChannel(ChannelConfig(),
                                cutoff=suggested_cutoff(2e-6),
                                trace_noise_sigma=0.02, seed=seed)
        report = closed_loop(chan.measure, target,
                             LoopConfig(method="transfer-function",
                                        convergence_mase=2e-4))
        assert report.converged
        assert len(report.records) == 2
        assert report.mase_trace[-1] <= 1.2e-4


@pytest.mark.parametrize("duration", [1.8e-7, 5e-7])
def test_closed_loop_tf_is_unchanged_by_back_substitution(duration,
                                                          monkeypatch):
    # Solving every lambda = 0 kernel fit through the SVD instead of by
    # back-substitution gives the same shots and the same MASE traces.
    target = _gate(duration)

    def traces():
        out = []
        for seed in range(5):
            chan = SimulatedChannel(ChannelConfig(),
                                    cutoff=suggested_cutoff(duration),
                                    trace_noise_sigma=0.02, seed=seed)
            out.append(closed_loop(chan.measure, target).mase_trace)
        return out

    fast = traces()
    # Kept-factor fits pass their kept verdict; it is ignored here too.
    monkeypatch.setattr(sysid, "_solve", lambda rz, n, lam, safe=None:
                        sysid._ridge_path(rz, n, [lam])[0])
    for got, ref in zip(fast, traces()):
        assert len(got) == len(ref)
        np.testing.assert_allclose(got, ref, rtol=1e-5, atol=0)


@pytest.mark.parametrize("method", ["transfer-function",
                                    "transfer-function-free"])
def test_closed_loop_is_unchanged_by_the_unit_phasor(method, monkeypatch):
    # Applying the quadrature phase as exp(1j * quadrature_phase(r))
    # instead of as the reflectance's unit phasor gives the same shots,
    # the same verdicts and the same final MASE to 1e-6 relative.
    cases = [(duration, seed) for seed in range(4)
             for duration in (1.8e-7, 5e-7, 2e-6)]
    targets = {duration: _gate(duration) for duration, _ in cases}

    def reports():
        out = []
        for duration, seed in cases:
            chan = SimulatedChannel(ChannelConfig(),
                                    cutoff=suggested_cutoff(duration),
                                    trace_noise_sigma=0.02, seed=seed)
            out.append(closed_loop(chan.measure, targets[duration],
                                   LoopConfig(method=method)))
        return out

    fast = reports()
    monkeypatch.setattr(channel, "_phase_factor",
                        lambda r: np.exp(1j * quadrature_phase(r)))
    for got, ref in zip(fast, reports()):
        assert len(got.records) == len(ref.records)
        assert got.converged == ref.converged
        assert got.mase_trace[-1] == pytest.approx(ref.mase_trace[-1],
                                                   rel=1e-6, abs=0)


def test_closed_loop_wraps_callback_failures():
    target = _gate(3e-7)

    def broken(env):
        raise OSError("detector offline")

    with pytest.raises(MeasurementError, match="iteration 1"):
        closed_loop(broken, target, LoopConfig(max_loop_iters=3))


@pytest.mark.parametrize("bug", [TypeError("unsupported operand"),
                                 KeyError("gain")])
def test_closed_loop_lets_callback_bugs_through(bug):
    # Only the package's own errors and OSError are measurement
    # failures; a bug in the callback surfaces as itself, traceback and
    # all.
    target = _gate(3e-7)

    def buggy(env):
        raise bug

    with pytest.raises(type(bug)) as info:
        closed_loop(buggy, target, LoopConfig(max_loop_iters=3))
    assert info.value is bug
    assert info.traceback[-1].name == "buggy"


@pytest.mark.parametrize("error", [GridMismatchError, ZeroSignalError,
                                   AliasingError, InvalidSpecError])
def test_closed_loop_measurement_error_names_the_cause(error):
    # Every bad-input error of the package is an InvalidSpecError, so
    # the loop reports each one as a measurement failure.
    assert issubclass(error, InvalidSpecError)
    target = _gate(3e-7)

    def blank(env):
        raise error("reflectance trace is identically zero")

    with pytest.raises(MeasurementError,
                       match=f"iteration 1: {error.__name__}: reflectance"):
        closed_loop(blank, target, LoopConfig(max_loop_iters=3))


def test_a_failed_update_keeps_the_shots_taken(monkeypatch):
    target = _gate(3e-7)
    model = VolterraModel(h0=0.0, h1=np.array([0.85, 0.1]))

    def singular(model, s_target, config=LMConfig()):
        raise SingularUpdateError("damped normal matrix is not positive "
                                  "definite")

    monkeypatch.setattr(loop, "offline_iterate", singular)
    with pytest.raises(SingularUpdateError) as info:
        closed_loop(_linear_channel(model), target,
                    LoopConfig(max_loop_iters=5, memory=4,
                               convergence_mase=1e-12))
    report = info.value.report
    assert not report.converged
    assert report.stop == "SingularUpdateError"
    assert len(report.records) == 1
    assert report.records[0].s_pred is target
    assert report.final_model is None  # the failed update's fit is lost


def test_a_fit_that_overflows_the_band_keeps_the_shots_taken(monkeypatch):
    target = _gate(3e-7)
    model = VolterraModel(h0=0.0, h1=np.array([0.85, 0.1]))
    huge = VolterraModel(h0=0.0, h1=np.array([1e160, 1.0, 0.0, 0.0]))
    monkeypatch.setattr(loop, "estimate_kernel", lambda *args: huge)
    with pytest.raises(SingularUpdateError,
                       match=r"max \|h1\| = 1e\+160") as info:
        closed_loop(_linear_channel(model), target,
                    LoopConfig(max_loop_iters=5, memory=4,
                               convergence_mase=1e-12))
    report = info.value.report
    assert not report.converged
    assert len(report.records) == 1
    assert report.records[0].s_pred is target


def test_a_singular_update_names_the_failing_fit(monkeypatch):
    # The partial report keeps the model in play, not the fit whose
    # learning step failed; the error message names that fit's size.
    # The second update's fit is replaced by one whose transform
    # overflows, so its step is not finite.
    target = _gate(3e-7)
    fits = []
    real_fit = loop.estimate_kernel
    huge = VolterraModel(h0=0.0, h1=np.array([1.5e308, 1.5e308, 0.0, 0.0]))

    def fit(*args):
        fits.append(real_fit(*args) if not fits else huge)
        return fits[-1]

    monkeypatch.setattr(loop, "estimate_kernel", fit)
    with pytest.raises(SingularUpdateError,
                       match="learning step overflows") as info:
        closed_loop(_linear_channel(_THREE_TAP), target,
                    LoopConfig(max_loop_iters=5, memory=4,
                               convergence_mase=1e-12))
    failing = np.max(np.abs(fits[1].h1))
    assert f"max |h1| = {failing:.3g}" in str(info.value)
    report = info.value.report
    assert len(report.records) == 2
    assert report.final_model is fits[0]


@pytest.mark.parametrize("fail_at", [1, 3])
def test_a_failed_measurement_keeps_the_shots_before_it(fail_at):
    target = _gate(3e-7)
    model = VolterraModel(h0=0.0, h1=np.array([0.85, 0.1]))
    shots = []

    def flaky(env):
        shots.append(env)
        if len(shots) == fail_at:
            raise OSError("detector offline")
        return volterra_forward(model, env)

    with pytest.raises(MeasurementError, match=f"iteration {fail_at}") as info:
        closed_loop(flaky, target, LoopConfig(max_loop_iters=5, memory=4,
                                              convergence_mase=1e-12))
    report = info.value.report
    if fail_at == 1:
        assert report is None
        return
    assert not report.converged
    assert report.stop == "MeasurementError"
    assert [r.index for r in report.records] == [1, 2]
    assert [r.s_pred for r in report.records] == shots[:2]
    assert report.final_model is report.records[-1].model


def _counting(measure):
    calls = []

    def counted(env):
        calls.append(env)
        return measure(env)
    return counted, calls


@pytest.mark.parametrize("kwargs", [
    {"memory": 0}, {"memory": -3}, {"method": "open-loop"},
    {"max_loop_iters": 0}, {"convergence_mase": float("inf")},
    {"convergence_mase": -1.0}, {"convergence_mase": 0.0},
    {"convergence_mase": float("nan")}])
def test_bad_loop_settings_fail_before_the_first_shot(kwargs):
    target = _gate(1.8e-7)
    chan = SimulatedChannel(ChannelConfig(), cutoff=67e6)
    measure, calls = _counting(chan.measure)
    with pytest.raises(InvalidSpecError):
        closed_loop(measure, target, LoopConfig(**kwargs))
    assert calls == []


def test_kernel_memory_longer_than_target_fails_before_the_first_shot():
    target = _gate(1.8e-7)
    n = target.grid.n
    chan = SimulatedChannel(ChannelConfig(), cutoff=67e6)
    measure, calls = _counting(chan.measure)
    with pytest.raises(InvalidSpecError, match="memory"):
        closed_loop(measure, target, LoopConfig(memory=n))
    assert calls == []
    # The model-free method fits no kernel, so its memory is unused.
    report = closed_loop(measure, target,
                         LoopConfig(method="transfer-function-free",
                                    memory=n, max_loop_iters=1))
    assert len(calls) == len(report.records) == 1


def test_align_to_target_rejects_a_measurement_shorter_than_the_target():
    rng = np.random.default_rng(55)
    target = _random_env(rng, 16)
    with pytest.raises(GridMismatchError, match=r"\(8 samples\) shorter"):
        _align_to_target(_random_env(rng, 8), target)


def test_a_report_needs_a_record():
    with pytest.raises(InvalidSpecError, match="at least one record"):
        LoopReport(records=(), converged=False)


def test_closed_loop_records_are_complete():
    target = _gate(3e-7)
    model = VolterraModel(h0=0.0, h1=np.array([0.85, 0.1]))
    report = closed_loop(_linear_channel(model), target,
                         LoopConfig(max_loop_iters=3, memory=4,
                                    convergence_mase=1e-9))
    assert len(report.mase_trace) == len(report.records)
    for k, rec in enumerate(report.records):
        assert rec.index == k + 1
        assert rec.mase >= 0 and rec.mse >= 0
        assert rec.s_pred.grid == target.grid
        assert rec.s_out.grid == target.grid


def test_model_error_is_the_prediction_error_of_the_model_in_play():
    # Record k scores the model fitted on shot k - 1, the one that
    # designed shot k's input, against shot k; shot 1 has no model. The
    # three-tap channel is beyond the two-tap fit, so the loop runs on.
    target = _gate(3e-7)
    channel_model = VolterraModel(h0=0.0,
                                  h1=np.array([0.9, -0.15 + 0.1j, 0.05]))
    report = closed_loop(_linear_channel(channel_model), target,
                         LoopConfig(max_loop_iters=4, memory=2,
                                    convergence_mase=1e-12))
    assert not report.converged
    assert len(report.records) == 4
    assert np.isnan(report.records[0].model_error)
    for rec in report.records[1:]:
        expected = mase(volterra_forward(rec.model, rec.s_pred), rec.s_out)
        assert rec.model_error == expected
    for rec, later in zip(report.records[1:-1], report.records[2:]):
        # Not the in-sample residual of the fit made on this shot.
        assert rec.model_error != mase(
            volterra_forward(later.model, rec.s_pred), rec.s_out)
    assert report.final_model is report.records[-1].model
    report = closed_loop(_linear_channel(channel_model), target,
                         LoopConfig(method="transfer-function-free",
                                    max_loop_iters=4,
                                    convergence_mase=1e-12))
    assert len(report.records) == 4
    assert all(np.isnan(r.model_error) for r in report.records)


# A three-tap channel beyond a two-tap fit: the loop never converges.
_THREE_TAP = VolterraModel(h0=0.0, h1=np.array([0.9, -0.15 + 0.1j, 0.05]))
_UNCONVERGED = dict(memory=2, convergence_mase=1e-12)


@pytest.mark.parametrize("shots", [1, 2, 5])
def test_an_unconverged_run_updates_between_shots_only(shots):
    # The update after the last shot would design an input that is never
    # measured, so an N-shot run records N - 1 updates, and its
    # final_model is the fit whose offline solve designed the last shot.
    target = _gate(3e-7)
    report = closed_loop(_linear_channel(_THREE_TAP), target,
                         LoopConfig(max_loop_iters=shots, **_UNCONVERGED))
    assert not report.converged
    assert report.stop == "max_iters"
    assert len(report.records) == shots
    last = report.records[-1]
    if shots == 1:
        assert report.final_model is None
        assert last.s_pred is target
    else:
        assert report.final_model is last.model
        # Only the first update solves offline; later ones take a
        # learning step.
        if shots == 2:
            assert last.s_pred is last.offline.s_pred
        else:
            assert last.offline is None
        assert last.model_error == mase(
            volterra_forward(report.final_model, last.s_pred), last.s_out)
    assert len({id(r.model) for r in report.records[1:]}) == shots - 1
    report = closed_loop(_linear_channel(_THREE_TAP), target,
                         LoopConfig(method="transfer-function-free",
                                    max_loop_iters=shots, **_UNCONVERGED))
    assert len(report.records) == shots


@pytest.mark.parametrize("method", ["transfer-function",
                                    "transfer-function-free"])
def test_each_record_keeps_its_model_offline_solve_and_delay(method):
    # A record keeps what designed its input, the fit and offline solve
    # of the shot before it, and the delay align_delay took off its own
    # measurement; the tf-free update has no model and no offline solve,
    # and the tf update solves offline after the first shot only.
    target = _gate(1.8e-7)
    chan = SimulatedChannel(ChannelConfig(),
                            cutoff=suggested_cutoff(1.8e-7),
                            trace_noise_sigma=0.02, seed=1)
    raws = []

    def measure(env):
        raws.append(chan.measure(env))
        return raws[-1]

    report = closed_loop(measure, target,
                         LoopConfig(method=method, max_loop_iters=3,
                                    convergence_mase=1e-9))
    assert len(report.records) == len(raws) == 3
    first = report.records[0]
    assert first.model is None and first.offline is None
    for rec, raw in zip(report.records, raws):
        assert rec.delay == align_delay(raw, target)[1]
        assert rec.delay > 0
        # The loop scales the target once; each score keeps mase's bits.
        assert rec.mase == mase(rec.s_out, target)
    for rec in report.records[1:]:
        if method == "transfer-function-free":
            assert rec.model is None and rec.offline is None
            continue
        if rec.index == 2:
            assert rec.offline.s_pred is rec.s_pred
        else:
            assert rec.offline is None
        assert rec.model_error == mase(
            volterra_forward(rec.model, rec.s_pred), rec.s_out)


@pytest.mark.parametrize("name", ["estimate_kernel", "offline_iterate",
                                  "_learning_step", "tf_free_step"])
def test_an_update_failing_after_the_last_shot_cannot_fail_the_run(
        monkeypatch, name):
    # An N-shot run needs N - 1 updates: one offline solve after the
    # first shot and N - 2 learning steps for the tf method, so a call
    # that raises after those cannot turn a finished run into an error.
    shots = 4
    method = ("transfer-function-free" if name == "tf_free_step"
              else "transfer-function")
    needed = {"offline_iterate": 1, "_learning_step": shots - 2}.get(
        name, shots - 1)
    target = _gate(3e-7)
    real = getattr(loop, name)
    calls = []

    def failing_last(*args):
        calls.append(args)
        if len(calls) > needed:
            raise SingularUpdateError("damped normal matrix is not positive "
                                      "definite")
        return real(*args)

    monkeypatch.setattr(loop, name, failing_last)
    report = closed_loop(_linear_channel(_THREE_TAP), target,
                         LoopConfig(method=method, max_loop_iters=shots,
                                    **_UNCONVERGED))
    assert not report.converged
    assert len(report.records) == shots
    assert len(calls) == needed


# ------------------------------------------------------------- ReplayChannel

def test_replay_channel_serves_recorded_outputs_in_order():
    rng = np.random.default_rng(54)
    outputs = [_random_env(rng, 16) for _ in range(3)]
    chan = ReplayChannel(outputs)
    probe = _env(np.ones(16))
    for expected in outputs:
        np.testing.assert_array_equal(chan.measure(probe).samples,
                                      expected.samples)
    with pytest.raises(MeasurementError):
        chan.measure(probe)


def test_replay_channel_rejects_empty_record():
    with pytest.raises(InvalidSpecError):
        ReplayChannel([])
