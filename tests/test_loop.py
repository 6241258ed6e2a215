"""Levenberg-Marquardt offline correction and the closed feedback loop."""

import numpy as np
import pytest

from pulseloop.channel import ChannelConfig, SimulatedChannel
from pulseloop.demod import suggested_cutoff
from pulseloop.envelope import (ComplexEnvelope, GridMismatchError,
                                InvalidSpecError, PulseSpec, TimeGrid,
                                ZeroSignalError, default_grid, make_pulse,
                                mase, mse_cost)
from pulseloop.loop import (LMConfig, LoopConfig, MeasurementError,
                            ReplayChannel, SingularUpdateError, _damped_step,
                            _normal_banded, closed_loop, jacobian, lm_step,
                            offline_iterate, tf_free_step)
from pulseloop.sysid import VolterraModel, volterra_forward


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


# ----------------------------------------------------------------- lm_step

def test_lm_step_zero_gradient_fixed_point():
    rng = np.random.default_rng(41)
    model = VolterraModel(h0=0.1, h1=np.array([0.8, 0.1j]))
    s_in = _random_env(rng, 16)
    target = _random_env(rng, 16)
    pred = lm_step(model, s_in, target, target, 1e-3)
    np.testing.assert_allclose(pred.samples, s_in.samples, atol=1e-12)


def test_lm_step_identity_model_is_residual_feedback():
    rng = np.random.default_rng(42)
    s_in = _random_env(rng, 12)
    target = _random_env(rng, 12)
    out = _random_env(rng, 12)
    pred = lm_step(VolterraModel.identity(), s_in, target, out, 0.0)
    np.testing.assert_allclose(pred.samples,
                               s_in.samples + (target.samples - out.samples),
                               atol=1e-10)


def test_lm_step_infinite_damping_freezes_input():
    rng = np.random.default_rng(43)
    model = VolterraModel(h0=0.0, h1=np.array([0.9, -0.2 + 0.1j]))
    s_in = _random_env(rng, 16)
    target = _random_env(rng, 16)
    out = _random_env(rng, 16)
    pred = lm_step(model, s_in, target, out, 1e12)
    np.testing.assert_allclose(pred.samples, s_in.samples, atol=1e-9)


def test_lm_step_matches_dense_normal_equations():
    rng = np.random.default_rng(44)
    model = VolterraModel(h0=0.05 - 0.02j,
                          h1=np.array([0.8, -0.3 + 0.2j, 0.1j]))
    s_in = _random_env(rng, 8)
    target = _random_env(rng, 8)
    out = _random_env(rng, 8)
    lam = 0.37
    pred = lm_step(model, s_in, target, out, lam)

    j = jacobian(model, s_in)
    h = j.conj().T @ j + lam * np.eye(8)
    grad = -j.conj().T @ (target.samples - out.samples)
    expected = s_in.samples - np.linalg.solve(h, grad)
    np.testing.assert_allclose(pred.samples, expected, atol=1e-10)


def test_lm_step_singular_system_raises():
    zero = VolterraModel(h0=0.0, h1=np.zeros(2, dtype=complex))
    env = _env(np.ones(8))
    with pytest.raises(SingularUpdateError):
        lm_step(zero, env, env, env.with_samples(0 * env.samples), 0.0)


def test_lm_step_grid_mismatch():
    model = VolterraModel.identity()
    a = _env(np.ones(8))
    b = _env(np.ones(8), dt=2e-9)
    with pytest.raises(GridMismatchError):
        lm_step(model, a, b, a, 1e-3)


# -------------------------------------------------- banded normal equations

@pytest.mark.parametrize("n, memory", [(300, 64), (100, 64), (64, 64),
                                       (12, 1)])
def test_normal_band_and_adjoint_match_dense_jacobian(n, memory):
    rng = np.random.default_rng(n + memory)
    h1 = rng.standard_normal(memory) + 1j * rng.standard_normal(memory)
    r = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    j = jacobian(VolterraModel(h0=0.0, h1=h1), _env(np.zeros(n)))
    gram = j.conj().T @ j
    expected = np.zeros((memory, n), dtype=complex)
    for d in range(memory):
        expected[d, :n - d] = np.diagonal(gram, -d)
    ab = _normal_banded(h1, n)
    np.testing.assert_allclose(ab, expected, rtol=0,
                               atol=1e-12 * np.max(np.abs(gram)))
    # With a zero band and unit damping the step is J^H r itself.
    adjoint = j.conj().T @ r
    step = _damped_step(h1, np.zeros_like(ab), r, 1.0)
    np.testing.assert_allclose(step, adjoint, rtol=0,
                               atol=1e-12 * np.max(np.abs(adjoint)))


# ----------------------------------------------------------- offline_iterate

def test_offline_identity_model_converges_immediately():
    rng = np.random.default_rng(45)
    target = _random_env(rng, 32)
    result = offline_iterate(VolterraModel.identity(), target)
    assert result.converged
    assert len(result.costs) == 1
    np.testing.assert_allclose(result.s_pred.samples, target.samples,
                               atol=1e-9)


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


def test_tf_free_printed_sign_moves_away_from_target():
    # The uncorrected variant doubles the identity-channel error per
    # step instead of closing it.
    rng = np.random.default_rng(53)
    target = _random_env(rng, 16)
    s_in = target.with_samples(target.samples + 0.1)
    s_out = s_in
    pred = tf_free_step(s_in, target, s_out, corrected_sign=False)
    before = np.linalg.norm(s_out.samples - target.samples)
    after = np.linalg.norm(
        pred.samples - target.samples)
    assert after == pytest.approx(2 * before, rel=1e-9)


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


def test_closed_loop_wraps_callback_failures():
    target = _gate(3e-7)

    def broken(env):
        raise RuntimeError("detector offline")

    with pytest.raises(MeasurementError, match="iteration 1"):
        closed_loop(broken, target, LoopConfig(max_loop_iters=3))


def test_closed_loop_measurement_error_names_the_cause():
    target = _gate(3e-7)

    def blank(env):
        raise ZeroSignalError("reflectance trace is identically zero")

    with pytest.raises(MeasurementError,
                       match="iteration 1: ZeroSignalError: reflectance"):
        closed_loop(blank, target, LoopConfig(max_loop_iters=3))


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
