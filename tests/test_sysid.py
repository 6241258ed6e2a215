"""Design matrix, ridge kernel estimation, and cross-validation."""

import itertools
import sys
import threading

import numpy as np
import pytest
from scipy.linalg import lapack

from pulseloop.channel import ChannelConfig, SimulatedChannel
from pulseloop.demod import suggested_cutoff
from pulseloop.envelope import (ComplexEnvelope, GridMismatchError,
                                InvalidSpecError, PulseSpec, TimeGrid,
                                ZeroSignalError, _support, default_grid,
                                make_pulse, mase)
from pulseloop import sysid
from pulseloop.loop import _align_to_target
from pulseloop.sysid import (CVConfig, VolterraModel, build_design_matrix,
                             cross_validate, estimate_kernel,
                             volterra_forward)

from cv_reference import (assert_matches_the_svd_scorer, fold_grams,
                          fold_parts, fold_thetas_by_svd,
                          serial_cross_validate, whole_factor_fit)


def _env(samples, dt=1e-9):
    samples = np.asarray(samples, dtype=complex)
    return ComplexEnvelope(TimeGrid(0.0, dt, len(samples)), samples)


def _random_env(rng, n, scale=1.0):
    return _env(scale * (rng.standard_normal(n)
                         + 1j * rng.standard_normal(n)))


# ------------------------------------------------------ build_design_matrix

def test_design_matrix_three_samples_memory_two():
    x0, x1, x2 = 1.0 + 2.0j, -0.5j, 3.0
    a = build_design_matrix(_env([x0, x1, x2]), 2)
    expected = np.array([[1, x0, 0],
                         [1, x1, x0],
                         [1, x2, x1]], dtype=complex)
    np.testing.assert_array_equal(a, expected)


def test_design_matrix_memory_one_is_ones_and_input():
    rng = np.random.default_rng(0)
    env = _random_env(rng, 10)
    a = build_design_matrix(env, 1)
    np.testing.assert_array_equal(a[:, 0], np.ones(10))
    np.testing.assert_array_equal(a[:, 1], env.samples)


def test_design_matrix_consistent_with_forward_model():
    rng = np.random.default_rng(1)
    env = _random_env(rng, 16)
    model = VolterraModel(h0=0.2 - 0.1j,
                          h1=rng.standard_normal(5)
                          + 1j * rng.standard_normal(5))
    a = build_design_matrix(env, 5)
    coef = np.concatenate([[model.h0], model.h1])
    np.testing.assert_allclose(a @ coef,
                               volterra_forward(model, env).samples,
                               atol=1e-12)


def test_design_matrix_rejects_bad_memory():
    # 2.5 and True used to fail as a bare TypeError.
    env = _env(np.ones(4))
    for memory in (0, 5, 2.5, True):
        with pytest.raises(InvalidSpecError, match="memory"):
            build_design_matrix(env, memory)


# --------------------------------------------------------- volterra_forward

def test_forward_identity_kernel():
    rng = np.random.default_rng(2)
    env = _random_env(rng, 12)
    model = VolterraModel(h0=0.0, h1=np.array([1.0 + 0j]))
    np.testing.assert_array_equal(volterra_forward(model, env).samples,
                                  env.samples)


@pytest.mark.parametrize("h0, h1, match", [
    (0.0, [], "at least one tap"), (0.0, np.ones((2, 2)), "at least one tap"),
    (0.0, [1.0, np.nan], "finite"), (np.inf, [1.0], "finite")])
def test_model_rejects_empty_or_non_finite_taps(h0, h1, match):
    with pytest.raises(InvalidSpecError, match=match):
        VolterraModel(h0=h0, h1=h1)


def test_forward_identity_model():
    rng = np.random.default_rng(14)
    env = _random_env(rng, 20)
    model = VolterraModel.identity()
    np.testing.assert_array_equal(volterra_forward(model, env).samples,
                                  env.samples)


def test_forward_offset_only():
    env = _env(np.zeros(8))
    model = VolterraModel(h0=0.7 - 0.2j, h1=np.zeros(3, dtype=complex))
    np.testing.assert_array_equal(volterra_forward(model, env).samples,
                                  np.full(8, 0.7 - 0.2j))


def test_forward_matches_double_loop_oracle():
    rng = np.random.default_rng(3)
    env = _random_env(rng, 8)
    h1 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    model = VolterraModel(h0=0.1 + 0.4j, h1=h1)
    expected = np.zeros(8, dtype=complex)
    for n in range(8):
        acc = model.h0
        for j in range(3):
            if n - j >= 0:
                acc += h1[j] * env.samples[n - j]
        expected[n] = acc
    np.testing.assert_allclose(volterra_forward(model, env).samples,
                               expected, atol=1e-14)


def test_forward_is_affine():
    rng = np.random.default_rng(4)
    x = _random_env(rng, 32)
    y = _random_env(rng, 32)
    model = VolterraModel(h0=0.3 - 0.8j,
                          h1=rng.standard_normal(6)
                          + 1j * rng.standard_normal(6))
    alpha, beta = 1.7 - 0.2j, -0.4 + 0.9j
    zero = volterra_forward(model, _env(np.zeros(32))).samples
    mix = x.with_samples(alpha * x.samples + beta * y.samples)
    lhs = volterra_forward(model, mix).samples - zero
    rhs = (alpha * (volterra_forward(model, x).samples - zero)
           + beta * (volterra_forward(model, y).samples - zero))
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_forward_rejects_long_memory():
    env = _env(np.ones(4))
    model = VolterraModel(h0=0.0, h1=np.ones(5, dtype=complex))
    with pytest.raises(InvalidSpecError):
        volterra_forward(model, env)


@pytest.mark.parametrize("h0", [0.0, 0.3 - 0.2j])
def test_forward_convolves_only_the_nonzero_span(h0):
    # Two bursts inside zeros: the output is exactly h0 before the first
    # nonzero input and past the kernel's reach behind the last, and equal
    # to the whole-window convolution to 1e-13 of its peak.
    rng = np.random.default_rng(8)
    x = np.zeros(900, dtype=complex)
    x[200:450] = rng.standard_normal(250) + 1j * rng.standard_normal(250)
    x[600:610] = 1.0 - 0.5j
    model = VolterraModel(h0=h0, h1=rng.standard_normal(64)
                          + 1j * rng.standard_normal(64))
    y = volterra_forward(model, _env(x)).samples
    want = np.convolve(x, model.h1)[:900] + h0
    assert np.max(np.abs(y - want)) <= 1e-13 * np.max(np.abs(want))
    assert np.all(y[:200] == h0) and np.all(y[610 + 63:] == h0)
    zero = volterra_forward(model, _env(np.zeros(900))).samples
    assert np.all(zero == h0)


# ---------------------------------------------------------- estimate_kernel

def test_estimate_recovers_known_four_tap_kernel():
    rng = np.random.default_rng(5)
    inp = _random_env(rng, 256)
    true = VolterraModel(h0=0.05 - 0.02j,
                         h1=np.array([0.9, -0.3 + 0.2j, 0.1j, 0.05]))
    out = volterra_forward(true, inp)
    model = estimate_kernel(inp, out, 4, 0.0)
    np.testing.assert_allclose(model.h1, true.h1, atol=1e-8)
    assert model.h0 == pytest.approx(true.h0, abs=1e-8)


def test_estimate_constant_output_zero_input():
    c = 0.6 + 0.1j
    inp = _env(np.zeros(64))
    out = _env(np.full(64, c))
    model = estimate_kernel(inp, out, 4, 0.0)
    assert model.h0 == pytest.approx(c, abs=1e-10)
    # Minimum-norm convention: unidentifiable taps come back as zero.
    np.testing.assert_allclose(model.h1, 0.0, atol=1e-10)


def test_estimate_huge_ridge_shrinks_everything():
    rng = np.random.default_rng(6)
    inp = _random_env(rng, 128)
    out = _random_env(rng, 128)
    model = estimate_kernel(inp, out, 8, 1e12)
    assert abs(model.h0) < 1e-9
    assert np.max(np.abs(model.h1)) < 1e-9


def test_ridge_shrinkage_is_monotone():
    rng = np.random.default_rng(7)
    inp = _random_env(rng, 200)
    true = VolterraModel(h0=0.1, h1=rng.standard_normal(6)
                         + 1j * rng.standard_normal(6))
    out = volterra_forward(true, inp)
    noisy = out.with_samples(out.samples
                             + 0.01 * (rng.standard_normal(200)
                                       + 1j * rng.standard_normal(200)))
    norms = []
    for lam in (0.0, 1e-3, 1e-1, 10.0, 1e3):
        m = estimate_kernel(inp, noisy, 6, lam)
        norms.append(np.sqrt(abs(m.h0) ** 2 + np.sum(np.abs(m.h1) ** 2)))
    assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))


def test_noiseless_identifiability_property():
    rng = np.random.default_rng(8)
    for _ in range(20):
        memory = int(rng.integers(1, 65))
        n = 4 * memory + int(rng.integers(8, 64))
        inp = _random_env(rng, n)
        true = VolterraModel(h0=complex(*rng.standard_normal(2)) * 0.3,
                             h1=rng.standard_normal(memory)
                             + 1j * rng.standard_normal(memory))
        out = volterra_forward(true, inp)
        model = estimate_kernel(inp, out, memory, 0.0)
        scale = np.max(np.abs(true.h1))
        assert np.max(np.abs(model.h1 - true.h1)) / scale < 1e-8
        assert abs(model.h0 - true.h0) / scale < 1e-8


def test_estimate_rejects_bad_inputs():
    rng = np.random.default_rng(9)
    inp = _random_env(rng, 32)
    other = ComplexEnvelope(TimeGrid(0.0, 2e-9, 32), inp.samples)
    with pytest.raises(GridMismatchError):
        estimate_kernel(inp, other, 4, 0.0)
    short = _random_env(rng, 4)
    with pytest.raises(InvalidSpecError):
        estimate_kernel(short, short, 4, 0.0)
    with pytest.raises(InvalidSpecError):
        estimate_kernel(inp, inp, 4, -1.0)


@pytest.mark.parametrize("memory", [2.5, 4.0, True])
def test_fits_reject_a_memory_that_is_not_an_integer(memory, monkeypatch):
    # 2.5 used to fail as a bare TypeError from range(), and True fitted
    # one tap. The check runs before either fit builds anything.
    def no_build(*args, **kwargs):
        raise AssertionError("a fit started before memory was checked")

    for name in ("_gram", "_design_tsqr"):
        monkeypatch.setattr(sysid, name, no_build)
    inp = _random_env(np.random.default_rng(9), 32)
    with pytest.raises(InvalidSpecError, match="memory"):
        estimate_kernel(inp, inp, memory, 0.0)
    with pytest.raises(InvalidSpecError, match="memory"):
        cross_validate(inp, inp, memory, CVConfig())


# ------------------------------- numerics against dense least-squares oracles

def _gate_pair(duration, seed=0):
    """Gate-standin input and its aligned default-channel measurement."""
    inp = make_pulse(PulseSpec(kind="gate-standin", duration=duration),
                     default_grid(duration))
    chan = SimulatedChannel(ChannelConfig(), cutoff=suggested_cutoff(duration),
                            trace_noise_sigma=0.02, seed=seed)
    return inp, _align_to_target(chan.measure(inp), inp)[0]


def _ridge_oracle(a, y, lam):
    """Ridge solution as least squares on the augmented [a; sqrt(lam) I]."""
    if lam == 0:
        return np.linalg.lstsq(a, y, rcond=None)[0]
    ncoef = a.shape[1]
    aug = np.vstack([a, np.sqrt(lam) * np.eye(ncoef)])
    return np.linalg.lstsq(aug, np.concatenate([y, np.zeros(ncoef)]),
                           rcond=None)[0]


def _rel_err(got, ref):
    return np.linalg.norm(got - ref) / np.linalg.norm(ref)


def _theta(model):
    return np.concatenate([[model.h0], model.h1])


def _cv_oracle(inp, out, memory, cv):
    """Mean validation MSE per lambda from per-fold augmented refits."""
    a = build_design_matrix(inp, memory)
    y = out.samples
    n = inp.grid.n
    mse = np.zeros(len(cv.lambda_grid))
    for val_idx in np.array_split(np.arange(n), cv.folds):
        train = np.ones(n, dtype=bool)
        train[val_idx] = False
        for i, lam in enumerate(cv.lambda_grid):
            theta = _ridge_oracle(a[train], y[train], lam)
            r = a[val_idx] @ theta - y[val_idx]
            mse[i] += np.mean(np.abs(r) ** 2) / cv.folds
    return mse


@pytest.mark.parametrize("duration, n", [(1.8e-7, 360), (5e-7, 1000),
                                         (2e-6, 4000)])
@pytest.mark.parametrize("lam", [0.0, 1e-6, 1e-3, 1.0])
def test_estimate_matches_dense_least_squares_on_gate(duration, n, lam):
    # The lengths the transfer-function loop fits at 180 ns, 500 ns and
    # 2 us, where the design matrix has condition number 1e5-5e7. At
    # n = 4000 the R factor is reduced over 8 row blocks, the last one
    # ragged.
    inp, out = _gate_pair(duration)
    assert inp.grid.n == n
    model = estimate_kernel(inp, out, 64, lam)
    a = build_design_matrix(inp, 64)
    theta = np.concatenate([[model.h0], model.h1])
    ref = _ridge_oracle(a, out.samples, lam)
    if n == 4000 and lam == 0:
        # Condition number 4.7e7: unregularized taps are fixed only to
        # about cond * eps by the data; the fitted output is not.
        assert _rel_err(a @ theta, a @ ref) < 1e-9
    else:
        assert _rel_err(theta, ref) < 1e-6


@pytest.mark.parametrize("n", [529, 66])
@pytest.mark.parametrize("lam", [0.0, 1e-3])
def test_estimate_block_edges_match_dense_least_squares(n, lam):
    # 529 rows leave a one-row last block (blocks are 8 x 66 rows);
    # memory + 2 rows fit in one block with one spare row.
    rng = np.random.default_rng(n)
    inp, out = _random_env(rng, n), _random_env(rng, n)
    model = estimate_kernel(inp, out, 64, lam)
    ref = _ridge_oracle(build_design_matrix(inp, 64), out.samples, lam)
    assert _rel_err(np.concatenate([[model.h0], model.h1]), ref) < 1e-6


def _fit_pair(kind):
    """An input/output pair: a gate pulse (zero tail), random samples, or
    a gate pulse cut mid-pulse, whose last samples are nonzero."""
    if kind in ("180ns", "500ns", "2us"):
        return _gate_pair({"180ns": 1.8e-7, "500ns": 5e-7, "2us": 2e-6}[kind])
    if kind == "random":
        rng = np.random.default_rng(61)
        return _random_env(rng, 300), _random_env(rng, 300)
    inp, out = _gate_pair(5e-7)
    cut = int(np.argmax(np.abs(inp.samples))) + 40
    return _env(inp.samples[:cut]), _env(out.samples[:cut])


@pytest.mark.parametrize("memory", [1, 8, 64])
@pytest.mark.parametrize("kind", ["180ns", "2us", "random", "cut"])
def test_the_fft_gram_equals_the_explicit_products(kind, memory):
    # A^H A is the autocorrelation's Toeplitz block less the Gram matrix
    # of the rows past the record's end, with the border of n and partial
    # sums; A^H y is the FFT correlation of y with the input. Both agreed
    # to 6e-16 relative.
    inp, out = _fit_pair(kind)
    a = build_design_matrix(inp, memory)
    gram, spectrum = sysid._gram(inp.samples, memory)
    assert _rel_err(gram, a.conj().T @ a) < 1e-14
    ahy = a.conj().T @ out.samples
    got = sysid._design_adjoint(spectrum, out.samples, memory)
    assert _rel_err(got, ahy) < 1e-14


def _orthogonal_fit(inp, out, memory, lam):
    """The TSQR + SVD ridge fit every lam > 0 took before the Gram path."""
    r, z = sysid._design_tsqr(inp, memory, out.samples[:, None])
    return sysid._solve(np.hstack((r, z)), inp.grid.n, lam)


@pytest.mark.parametrize("lam", [1e-6, 1e-3, 1.0])
@pytest.mark.parametrize("kind", ["180ns", "500ns", "2us", "random", "cut"])
def test_a_ridge_fit_matches_the_orthogonal_factor(kind, lam):
    # The Gram path squares the condition number (cond(A) reaches 4.7e7
    # at 2 us); one refinement step brings it to within 7e-10 relative of
    # the orthogonal factor's fit, the worst case being 2 us at 1e-6.
    inp, out = _fit_pair(kind)
    model = estimate_kernel(inp, out, 64, lam)
    assert _rel_err(_theta(model), _orthogonal_fit(inp, out, 64, lam)) < 1e-8


def test_a_ridge_fit_that_does_not_factor_takes_the_orthogonal_factor(
        monkeypatch):
    # A constant input's lag columns differ only in their first rows, so
    # at lam = 1e-15 the shifted Gram matrix does not factor (zpotrf
    # reports info 2) and the fit is the orthogonal factor's, bit for bit.
    x = np.ones(400, dtype=complex)
    inp, out = _env(x), _random_env(np.random.default_rng(62), 400)
    infos = []
    zpotrf = sysid.lapack.zpotrf

    def spy(*args, **kwargs):
        result = zpotrf(*args, **kwargs)
        infos.append(result[1])
        return result
    monkeypatch.setattr(sysid.lapack, "zpotrf", spy)
    model = estimate_kernel(inp, out, 64, 1e-15)
    assert infos == [2]
    np.testing.assert_array_equal(_theta(model),
                                  _orthogonal_fit(inp, out, 64, 1e-15))


def test_a_ridge_fit_that_is_not_finite_falls_back(monkeypatch):
    # zpotrf reports info 0 on a Gram matrix that overflowed, so a Gram
    # fit that is not finite also goes to the TSQR and the SVD.
    inp, out = _gate_pair(5e-7)
    monkeypatch.setattr(sysid.lapack, "zpotrs",
                        lambda c, b: (np.full_like(b, np.nan), 0))
    model = estimate_kernel(inp, out, 64, 1e-3)
    np.testing.assert_array_equal(_theta(model),
                                  _orthogonal_fit(inp, out, 64, 1e-3))


def test_a_ridge_fit_neither_marks_nor_keeps_a_design_factor():
    # Only lam = 0 fits use a kept factor, so a lam > 0 fit leaves the
    # input's memo alone: the lam = 0 fit after it is still the first.
    inp, out = _gate_pair(1.8e-7)
    key = (sysid._DESIGN_KEY, 64)
    for _ in range(3):
        estimate_kernel(inp, out, 64, 1e-3)
    assert key not in inp._memo
    estimate_kernel(inp, out, 64, 0.0)
    assert inp._memo[key] is None


def _spy_ridge_path(monkeypatch):
    """Record the calls to ``sysid._ridge_path`` made from here on."""
    calls = []
    ridge_path = sysid._ridge_path

    def spy(*args):
        calls.append(args)
        return ridge_path(*args)
    monkeypatch.setattr(sysid, "_ridge_path", spy)
    return calls


def test_minimum_norm_cutoff_counts_the_design_rows(monkeypatch):
    # A near-constant input leaves one design singular value at 1.3e-14
    # of the largest: under the lstsq cutoff eps * max(rows, columns)
    # (8.9e-13 at n = 4000, 7.1e-13 for a 3200-row training fold) but
    # above eps times the much smaller R factor's shape. Taken from the
    # factor's shape, the cutoff would keep it and the taps blow up.
    rng = np.random.default_rng(3)
    n = 4000
    inp = _env(1.0 + 3e-14 * (rng.standard_normal(n)
                              + 1j * rng.standard_normal(n)))
    out = _random_env(rng, n)
    calls = _spy_ridge_path(monkeypatch)
    model = estimate_kernel(inp, out, 4, 0.0)
    # The full-rank bound fails, so the fit falls back to the SVD.
    assert len(calls) == 1
    ref = _ridge_oracle(build_design_matrix(inp, 4), out.samples, 0.0)
    assert _rel_err(_theta(model), ref) < 1e-9
    cv = CVConfig(5, (0.0,))
    _, scores, cv_model = cross_validate(inp, out, 4, cv)
    # One path per fold, on its 3200 training rows, and one for the final
    # fit, which is estimate_kernel's at lambda_star = 0.
    assert len(calls) == 1 + cv.folds + 1
    assert [call[1] for call in calls[1:]] == [3200] * cv.folds + [n]
    np.testing.assert_allclose(scores[:, 1], _cv_oracle(inp, out, 4, cv),
                               rtol=1e-6)
    np.testing.assert_array_equal(_theta(cv_model), _theta(model))


@pytest.mark.parametrize("duration", [1.8e-7, 5e-7, 2e-6])
def test_back_substitution_matches_the_svd_on_gate(duration, monkeypatch):
    # The loop's lambda = 0 fits (condition number 1.7e5-4.7e7) pass the
    # full-rank bound, so no SVD runs, and the back-substituted taps
    # agree with the SVD solution of the same factor [R | Q^H y].
    inp, out = _gate_pair(duration)
    calls = _spy_ridge_path(monkeypatch)
    model = estimate_kernel(inp, out, 64, 0.0)
    assert calls == []
    r, z = sysid._design_tsqr(inp, 64, out.samples[:, None])
    ref = sysid._ridge_path(np.hstack((r, z)), inp.grid.n, [0.0])[0]
    assert _rel_err(_theta(model), ref) < 1e-9


@pytest.mark.parametrize("duration", [1.8e-7, 5e-7, 2e-6])
def test_q_factor_fit_matches_the_augmented_factor_on_gate(duration):
    # The fit solves R th = Q^H y for A = Q R; the reference
    # back-substitutes on the TSQR factor of [A | y]. The two differ by
    # rounding amplified by cond(A): at most 2.4 cond(A) eps in these 12
    # fits (2.5e-8 relative at 2 us), and 0 at 180 ns, one block.
    eps = np.finfo(float).eps
    for seed in range(4):
        inp, out = _gate_pair(duration, seed)
        a = build_design_matrix(inp, 64)
        rz = sysid._triangular(np.hstack((a, out.samples[:, None])))
        ref = sysid._solve(rz, inp.grid.n, 0.0)
        got = _theta(estimate_kernel(inp, out, 64, 0.0))
        assert _rel_err(got, ref) < 16 * np.linalg.cond(a) * eps


@pytest.mark.parametrize("n", [66, 529, 1000, 4300])
def test_design_factor_reproduces_the_design_matrix(n):
    # One block, a one-row last block, two blocks, and at 4300 rows nine
    # blocks whose stacked factors (585 rows) take a third level.
    rng = np.random.default_rng(n)
    env = _random_env(rng, n)
    a = build_design_matrix(env, 64)
    levels = []
    r = sysid._design_tsqr(env, 64, levels=levels)[0]
    assert len(levels) == (3 if n == 4300 else 1 + (n > 528))
    np.testing.assert_array_equal(r, np.triu(r))
    y = rng.standard_normal((n, 1)) + 1j * rng.standard_normal((n, 1))
    rz = sysid._apply_qh(levels, np.hstack((a, y)))
    # Q^H a = r, and [r | Q^H y] is the leading rows of an R factor of
    # [a | y], which is unique up to the sign of each row.
    scale = np.linalg.norm(a)
    assert np.linalg.norm(rz[:, :-1] - r) < 1e-13 * scale
    ref = sysid._triangular(np.hstack((a, y)))[:-1]
    np.testing.assert_allclose(np.abs(rz), np.abs(ref), rtol=0,
                               atol=1e-12 * scale)
    # Reducing y block by block as the factor is formed gives the same
    # bits as applying the kept reflectors afterwards.
    fresh_r, z = sysid._design_tsqr(env, 64, y)
    np.testing.assert_array_equal(fresh_r, r)
    np.testing.assert_array_equal(z, sysid._apply_qh(levels, y))


@pytest.mark.parametrize("n", [90, 528, 1100])
def test_triangular_leaves_its_rows_as_they_were(n):
    # _tsqr reduces blocks in place. _design_tsqr builds its blocks of
    # its own, but _triangular takes rows its caller may keep, such as
    # views of one [A | y] (``fold_parts``), so it must reduce copies.
    rng = np.random.default_rng(n)
    rows = np.hstack((build_design_matrix(_random_env(rng, n), 64),
                      rng.standard_normal((n, 1))))
    before = rows.copy()
    r = sysid._triangular(rows)
    np.testing.assert_array_equal(rows, before)
    np.testing.assert_allclose(r.conj().T @ r, rows.conj().T @ rows,
                               atol=1e-10 * np.linalg.norm(rows) ** 2)


@pytest.mark.parametrize("duration", [1.8e-7, 5e-7, 2e-6])
def test_a_kept_design_factor_gives_the_fresh_fit_bit_for_bit(duration):
    # The first fit marks the input, the second keeps its factor, and
    # every later fit applies the kept one.
    target, out = _gate_pair(duration)
    fresh_target = ComplexEnvelope(target.grid, target.samples)
    fresh = estimate_kernel(fresh_target, out, 64, 0.0)
    key = (sysid._DESIGN_KEY, 64)
    assert fresh_target._memo == {key: None}
    fits = [estimate_kernel(target, out, 64, 0.0)]
    assert target._memo[key] is None
    fits.append(estimate_kernel(target, out, 64, 0.0))
    kept = target._memo[key]
    assert kept is not None
    fits.append(estimate_kernel(target, out, 64, 0.0))
    assert target._memo[key] is kept
    for model in fits:
        assert model.h0 == fresh.h0
        assert np.array_equal(model.h1, fresh.h1)


def _spy_verdicts(monkeypatch):
    """Count the ``ztrtri`` calls of ``_solve``'s lam = 0 bound."""
    calls = []
    ztrtri = sysid.lapack.ztrtri

    def spy(*args, **kwargs):
        calls.append(1)
        return ztrtri(*args, **kwargs)
    monkeypatch.setattr(sysid.lapack, "ztrtri", spy)
    return calls


def _deficient_pair(n=400, support=10):
    """An input nonzero only in its last ``support`` samples, so the
    design matrix's lag columns from ``support`` on are zero."""
    rng = np.random.default_rng(n)
    x = np.zeros(n, dtype=complex)
    x[-support:] = rng.standard_normal(support) + 1j
    return _env(x), _random_env(rng, n)


@pytest.mark.parametrize("case", ["180ns", "500ns", "2us", "deficient"])
def test_a_kept_factor_checks_its_back_substitution_bound_once(case,
                                                               monkeypatch):
    # The lam = 0 bound depends on R alone: the fresh first fit checks
    # it, the fit that keeps the factor checks it once more and keeps the
    # verdict, and later fits check nothing. Every fit equals a fresh
    # _solve fit bit for bit; a factor that fails the bound (a rank-
    # deficient input) takes the SVD on every fit.
    if case == "deficient":
        target, out = _deficient_pair()
    else:
        target, out = _gate_pair({"180ns": 1.8e-7, "500ns": 5e-7,
                                  "2us": 2e-6}[case])
    n = target.grid.n
    r, z = sysid._design_tsqr(target, 64, out.samples[:, None])
    ref = sysid._solve(np.hstack((r, z)), n, 0.0)
    checks = _spy_verdicts(monkeypatch)
    svds = _spy_ridge_path(monkeypatch)
    counts = []
    for _ in range(4):
        model = estimate_kernel(target, out, 64, 0.0)
        counts.append((len(checks), len(svds)))
        assert model.h0 == ref[0]
        assert np.array_equal(model.h1, ref[1:])
    safe = target._memo[(sysid._DESIGN_KEY, 64)][2]
    assert safe is (case != "deficient")
    svd_counts = [1, 2, 3, 4] if case == "deficient" else [0] * 4
    assert counts == list(zip([1, 2, 2, 2], svd_counts))


def test_threads_sharing_a_kept_design_factor_fit_the_same_bits():
    # zunmqr writes each reflector's unit head into the kept array while
    # it applies it; without the 1 stored there, a thread restoring the
    # old entry hands another a wrong reflector (6 of 600 fits at 2 us).
    target, out = _gate_pair(2e-6)
    ref = estimate_kernel(target, out, 64, 0.0)
    estimate_kernel(target, out, 64, 0.0)
    assert target._memo[(sysid._DESIGN_KEY, 64)] is not None
    wrong = []

    def fit():
        for _ in range(150):
            if not np.array_equal(estimate_kernel(target, out, 64, 0.0).h1,
                                  ref.h1):
                wrong.append(1)
    threads = [threading.Thread(target=fit) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
        assert not t.is_alive()
    assert wrong == []


class _StoreCounter(dict):
    """A memo that counts the design factors stored in it."""

    factors = 0

    def __setitem__(self, key, value):
        if value is not None:
            self.factors += 1
        super().__setitem__(key, value)


def test_threads_making_an_inputs_first_fits_keep_one_factor():
    # Two threads race through the first, second and third fits of one
    # fresh input: whichever fit comes second factors and keeps, no fit
    # sees a factor before it is complete, and the kept factor is stored
    # once even when both threads reach it together.
    target, out = _gate_pair(5e-7)
    ref = estimate_kernel(target, out, 64, 0.0)
    key = (sysid._DESIGN_KEY, 64)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        rounds = []
        for _ in range(10):
            inp = ComplexEnvelope(target.grid, target.samples)
            object.__setattr__(inp, "_memo", _StoreCounter())
            start = threading.Barrier(2, timeout=120)
            fits = []

            def fit():
                start.wait()
                for _ in range(3):
                    fits.append(estimate_kernel(inp, out, 64, 0.0))
            threads = [threading.Thread(target=fit) for _ in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
                assert not t.is_alive()
            rounds.append((inp, fits))
    finally:
        sys.setswitchinterval(interval)
    fresh_levels = []
    fresh_r = sysid._design_tsqr(target, 64, levels=fresh_levels)[0]
    for inp, fits in rounds:
        assert len(fits) == 6
        for model in fits:
            assert model.h0 == ref.h0
            assert np.array_equal(model.h1, ref.h1)
        assert inp._memo.factors == 1
        levels, r, safe = inp._memo[key]
        np.testing.assert_array_equal(r, fresh_r)
        assert safe == sysid._back_substitutes(fresh_r, target.grid.n)
        assert len(levels) == len(fresh_levels)


@pytest.mark.parametrize("duration", [1.8e-7, 5e-7, 2e-6])
def test_cv_scores_equal_per_lambda_refits_fold_by_fold(duration):
    inp, out = _gate_pair(duration, seed=1)
    cv = CVConfig()
    _, scores, _ = cross_validate(inp, out, 64, cv)
    np.testing.assert_array_equal(scores[:, 0], cv.lambda_grid)
    np.testing.assert_allclose(scores[:, 1], _cv_oracle(inp, out, 64, cv),
                               rtol=1e-6)


@pytest.mark.parametrize("n, folds", [(90, 3), (529, 5), (66, 2)])
def test_cv_block_edges_match_refits(n, folds):
    # n = 90 in 3 folds trains on 60 rows for 65 coefficients, an
    # underdetermined minimum-norm fit from trapezoidal block factors.
    rng = np.random.default_rng(n)
    inp, out = _random_env(rng, n), _random_env(rng, n)
    cv = CVConfig(folds, (0.0, 1e-6, 1e-3, 1.0))
    _, scores, _ = cross_validate(inp, out, 64, cv)
    np.testing.assert_allclose(scores[:, 1], _cv_oracle(inp, out, 64, cv),
                               rtol=1e-6)


@pytest.mark.parametrize("duration", [1.8e-7, 5e-7, 2e-6])
def test_cv_model_equals_estimate_kernel_on_gate(duration):
    # The model is estimate_kernel's Gram fit at lambda_star, refined
    # once; it was within 7.1e-10 relative of the SVD fit of all rows on
    # 144 gate pulses.
    inp, out = _gate_pair(duration, seed=1)
    lam, _, model = cross_validate(inp, out, 64, CVConfig())
    assert lam > 0
    ref = estimate_kernel(inp, out, 64, lam)
    np.testing.assert_array_equal(_theta(model), _theta(ref))
    svd = whole_factor_fit(inp, out, 64, lam)
    assert _rel_err(_theta(model), svd) < 1e-9


@pytest.mark.parametrize("n, folds", [(90, 3), (529, 5), (66, 2)])
@pytest.mark.parametrize("lam", [1e-3, 0.0])
def test_cv_model_equals_estimate_kernel_at_block_edges(n, folds, lam):
    rng = np.random.default_rng(n + folds)
    inp, out = _random_env(rng, n), _random_env(rng, n)
    lam_star, _, model = cross_validate(inp, out, 64, CVConfig(folds, (lam,)))
    assert lam_star == lam
    ref = estimate_kernel(inp, out, 64, lam)
    np.testing.assert_array_equal(_theta(model), _theta(ref))


@pytest.mark.parametrize("duration", [1.8e-7, 5e-7, 2e-6])
@pytest.mark.parametrize("grid", [CVConfig().lambda_grid, (0.0, 1e-6),
                                  (0.0,)])
def test_cv_scores_match_the_svd_scorer_on_gate(duration, grid):
    # The Gram solves square the condition number (cond(H + 1e-6 I) is
    # 5.8e9-1e11 on these pulses), which moves the held-out errors by
    # rounding only. On (0.0,) every fold takes the SVD path, and the
    # model is estimate_kernel's at lambda_star = 0, bit for bit.
    inp, out = _gate_pair(duration, seed=1)
    cv = CVConfig(lambda_grid=grid)
    assert_matches_the_svd_scorer(cross_validate(inp, out, 64, cv),
                                  inp, out, 64, cv)


@pytest.mark.parametrize("n, folds", [(66, 2), (90, 3), (529, 5)])
@pytest.mark.parametrize("grid", [CVConfig().lambda_grid,
                                  (0.0, 1e-6, 1e-3, 1.0)])
def test_cv_scores_match_the_svd_scorer_at_block_edges(n, folds, grid):
    # 66 and 90 rows train on fewer rows than coefficients, and their
    # folds are shorter than the memory; 529 leaves a one-row last TSQR
    # block.
    rng = np.random.default_rng(n)
    inp, out = _random_env(rng, n), _random_env(rng, n)
    cv = CVConfig(folds, grid)
    assert_matches_the_svd_scorer(cross_validate(inp, out, 64, cv),
                                  inp, out, 64, cv)


def test_cv_scores_a_shifted_gram_that_does_not_factor_by_the_svd(
        monkeypatch):
    # A constant input makes A's offset column and first lag column
    # equal, so every fold's H = A^H A is singular. At lambda = 1e-15,
    # below the rounding of H's entries, zpotrf stops at that pivot
    # (info > 0) and each fold scores lambda by the SVD path, to the
    # SVD scorer's bits; H + 1e-3 I still factors. The final fit at
    # 1e-15 does not factor either and takes estimate_kernel's SVD.
    n, p = 400, 65
    inp = _env(np.ones(n))
    out = _random_env(np.random.default_rng(23), n)
    grams = fold_grams(inp, out, 64, fold_parts(inp, out, 64, 5))
    for k in range(5):
        gram = sum(grams[:k] + grams[k + 1:])
        assert lapack.zpotrf(gram[:p, :p] + 1e-15 * np.eye(p))[1] > 0
        assert lapack.zpotrf(gram[:p, :p] + 1e-3 * np.eye(p))[1] == 0
    calls = _spy_ridge_path(monkeypatch)
    cv = CVConfig(5, (1e-15,))
    got = cross_validate(inp, out, 64, cv)
    assert [list(call[2]) for call in calls] == [[1e-15]] * (cv.folds + 1)
    ref = serial_cross_validate(inp, out, 64, cv, fold_thetas_by_svd)
    _assert_same_fit(got, ref)
    # With lambda = 0 beside it, each fold takes one SVD for both.
    del calls[:]
    cv = CVConfig(5, (0.0, 1e-15, 1e-3))
    got = cross_validate(inp, out, 64, cv)
    assert got[0] == 1e-3
    assert [list(call[2]) for call in calls] == [[0.0, 1e-15]] * cv.folds
    assert_matches_the_svd_scorer(got, inp, out, 64, cv)


# ----------------------------------------------------------- cross_validate

def _noisy_channel_pair(rng, n=400, sigma=0.0):
    inp = _random_env(rng, n)
    true = VolterraModel(h0=0.02 + 0.01j,
                         h1=np.array([0.8, -0.25 + 0.15j, 0.1, -0.05j]))
    out = volterra_forward(true, inp)
    if sigma > 0:
        out = out.with_samples(out.samples
                               + sigma * (rng.standard_normal(n)
                                          + 1j * rng.standard_normal(n)))
    return inp, out


def test_cv_noiseless_picks_smallest_lambda():
    rng = np.random.default_rng(10)
    inp, out = _noisy_channel_pair(rng)
    cv = CVConfig(folds=5, lambda_grid=(1e-6, 1e-4, 1e-2, 1.0))
    lam, scores, _ = cross_validate(inp, out, 4, cv)
    assert lam == 1e-6
    assert scores.shape == (4, 2)


def test_cv_noisy_prefers_regularization():
    # Band-limited input plus an overparameterized memory leaves weakly
    # excited taps that fit the sigma = 1e-2 noise unless shrunk, so the
    # held-out score favors a nonzero ridge weight.
    rng = np.random.default_rng(11)
    n = 300
    ker = np.hanning(9)
    ker /= ker.sum()
    raw = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    inp = _env(np.convolve(raw.real, ker, mode="same")
               + 1j * np.convolve(raw.imag, ker, mode="same"))
    true = VolterraModel(h0=0.02 + 0.01j,
                         h1=np.array([0.8, -0.25 + 0.15j, 0.1, -0.05j]))
    out = volterra_forward(true, inp)
    out = out.with_samples(out.samples + 1e-2 * (rng.standard_normal(n)
                                                 + 1j * rng.standard_normal(n)))
    grid = (1e-12, 1e-6, 1e-4, 1e-2, 1.0)
    lam, scores, _ = cross_validate(inp, out, 32, CVConfig(5, grid))
    assert lam > grid[0]
    chosen = scores[list(grid).index(lam), 1]
    unregularized = scores[0, 1]
    assert chosen <= unregularized


def test_cv_single_lambda_grid():
    rng = np.random.default_rng(12)
    inp, out = _noisy_channel_pair(rng)
    lam, scores, _ = cross_validate(inp, out, 4, CVConfig(3, (0.5,)))
    assert lam == 0.5
    assert scores.shape == (1, 2)


def test_cv_rejects_more_folds_than_samples():
    rng = np.random.default_rng(15)
    inp, out = _random_env(rng, 4), _random_env(rng, 4)
    with pytest.raises(InvalidSpecError, match="4 samples into 5 folds"):
        cross_validate(inp, out, 1, CVConfig(5, (0.5,)))


def test_cv_never_selects_above_table_minimum():
    rng = np.random.default_rng(13)
    for trial in range(5):
        inp, out = _noisy_channel_pair(rng, sigma=5e-3)
        grid = tuple(np.logspace(-8, 2, 6))
        lam, scores, _ = cross_validate(inp, out, 8, CVConfig(4, grid))
        chosen = scores[list(grid).index(lam), 1]
        assert chosen == pytest.approx(np.min(scores[:, 1]), rel=1e-12)


def test_cv_config_validation():
    with pytest.raises(InvalidSpecError):
        CVConfig(folds=1)
    with pytest.raises(InvalidSpecError):
        CVConfig(folds=5, lambda_grid=())


@pytest.mark.parametrize("folds", [2.5, 3.0, True])
def test_cv_config_rejects_folds_that_are_not_an_integer(folds):
    # Fractional folds used to pass and fail only in cross_validate.
    with pytest.raises(InvalidSpecError, match="folds"):
        CVConfig(folds=folds)


@pytest.mark.parametrize("grid", [(np.nan, 1e-3), (1e-3, np.nan), (np.inf,),
                                  (1e-3, -np.inf), (-1e-3,), ("1e-3",),
                                  (1e-3, True)])
def test_cv_config_rejects_non_finite_or_negative_lambda(grid):
    with pytest.raises(InvalidSpecError, match="lambda_grid"):
        CVConfig(5, grid)


@pytest.mark.parametrize("lam", [np.nan, np.inf, -np.inf])
def test_estimate_rejects_non_finite_lambda(lam):
    rng = np.random.default_rng(20)
    inp, out = _noisy_channel_pair(rng)
    with pytest.raises(InvalidSpecError, match=f"lambda_reg.*got {lam}"):
        estimate_kernel(inp, out, 4, lam)


@pytest.mark.parametrize("lam", ["1e-3", True])
def test_estimate_rejects_a_lambda_that_is_not_a_real(lam):
    rng = np.random.default_rng(20)
    inp, out = _noisy_channel_pair(rng)
    with pytest.raises(InvalidSpecError, match="^lambda_reg must be"):
        estimate_kernel(inp, out, 4, lam)


def test_cv_rejects_too_few_samples_for_the_final_fit():
    rng = np.random.default_rng(21)
    inp = _random_env(rng, 8)
    with pytest.raises(InvalidSpecError, match="at least 9 samples"):
        cross_validate(inp, inp, 8, CVConfig(2, (1e-3,)))


# ------------------------------------------------- fold Gram matrices


@pytest.mark.parametrize("memory", [1, 7, 64])
@pytest.mark.parametrize("kind, folds", [
    ("random-66", 2), ("random-90", 3), ("random-529", 5), ("180ns", 5),
    ("2us", 5), ("zeros-400", 5)])
def test_the_fold_gram_equals_the_rows_products(kind, folds, memory):
    # Each fold's [A | y]^H [A | y] is one dense product of its rows on
    # the input's nonzero span; the rows past the span add only to the
    # border. 66 and 90 rows make folds shorter than 64 taps, and 529
    # leaves a one-row last TSQR block for the fallback; 360 and 4,000
    # are the gate pulses at 180 ns and 2 us, whose folds lie outside the
    # pulse, are clipped at either end of it or lie inside it; zeros-400
    # is an all-zero input.
    if kind.startswith("random"):
        n = int(kind.split("-")[1])
        rng = np.random.default_rng(n)
        inp, out = _random_env(rng, n), _random_env(rng, n)
    elif kind == "zeros-400":
        inp = _env(np.zeros(400))
        out = _random_env(np.random.default_rng(400), 400)
    else:
        inp, out = _fit_pair(kind)
    n, y = inp.grid.n, out.samples
    lagged, span = sysid._lagged(inp.samples, memory), _support(inp.samples)
    bounds = [(fold[0], fold[-1] + 1)
              for fold in np.array_split(np.arange(n), folds)]
    for lo, hi in bounds:
        rows = sysid._rows(lagged, lo, hi, y)
        ref = rows.conj().T @ rows
        gram = sysid._fold_gram(lagged, lo, hi, y, span)
        assert np.max(np.abs(gram - ref)) <= 1e-13 * np.max(np.abs(ref))
    if kind in ("180ns", "2us"):
        a, b = span
        live = [sysid._live_rows(span, memory, lo, hi) for lo, hi in bounds]
        assert live[0] == (0, 0)  # the first fold ends before the pulse
        assert live[1][0] == a > bounds[1][0]
        assert bounds[2] == live[2]
        assert b + memory - 1 in [d for _, d in live]


# ------------------------------------------------- serial references


def _assert_same_fit(got, ref):
    assert got[0] == ref[0]
    assert np.array_equal(got[1], ref[1])
    assert got[2].h0 == ref[2].h0
    assert np.array_equal(got[2].h1, ref[2].h1)


def _fits_at_once(workers, fit):
    """``fit()``'s result on each of ``workers`` threads started together."""
    results = [None] * workers
    start = threading.Barrier(workers)

    def run(i):
        start.wait(timeout=30)
        results[i] = fit()

    threads = [threading.Thread(target=run, args=(i,))
               for i in range(workers)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in threads)
    return results


@pytest.mark.parametrize("duration, folds", [
    (1.8e-7, 5), (5e-7, 5), (2e-6, 5), (5e-7, 2), (5e-7, 7), (1.8e-7, 7)])
@pytest.mark.parametrize("workers", [1, 4], ids=["1-worker", "4-workers"])
def test_cv_equals_the_serial_fits_bit_for_bit(duration, folds, workers):
    # Each fold scores every lambda > 0 by a Cholesky solve on the other
    # folds' summed Gram matrices; the model is estimate_kernel's. The
    # bits do not depend on how many threads fit at once.
    inp, out = _gate_pair(duration, seed=1)
    cv = CVConfig(folds=folds)
    ref = serial_cross_validate(inp, out, 64, cv)
    for got in _fits_at_once(
            workers, lambda: cross_validate(inp, out, 64, cv)):
        _assert_same_fit(got, ref)


@pytest.mark.parametrize("n", [66, 360, 529, 1000, 4300])
@pytest.mark.parametrize("folds", [5, 7])
def test_row_builder_gives_the_split_whole_rows_bit_for_bit(n, folds):
    # Every regression is built by _rows: the design matrix's TSQR blocks,
    # the blocks of the rows on each side of a fold, counted from their
    # first row, and each fold's validation rows. They are pinned to one
    # [A | y] cut as a whole: one block at 66 and 360 rows, a one-row
    # last block at 529, and at 4300 rows folds that each span two blocks.
    rng = np.random.default_rng(n + folds)
    inp, out = _random_env(rng, n), _random_env(rng, n)
    a = build_design_matrix(inp, 64)
    step = sysid._TSQR_BLOCK * 66
    ref = sysid._tsqr([np.array(a[i:i + step], order="F")
                       for i in range(0, n, step)], step)[0]
    np.testing.assert_array_equal(sysid._design_tsqr(inp, 64)[0], ref)
    parts = fold_parts(inp, out, 64, folds)
    lagged, lo = sysid._lagged(inp.samples, 64), 0
    for part in parts:
        hi = lo + len(part)
        np.testing.assert_array_equal(
            sysid._rows(lagged, lo, hi, out.samples), part)
        np.testing.assert_array_equal(
            sysid._design_tsqr(inp, 64, lo=lo, hi=hi, y=out.samples)[0],
            sysid._triangular(part))
        lo = hi
    cv = CVConfig(folds=folds)
    _assert_same_fit(cross_validate(inp, out, 64, cv),
                     serial_cross_validate(inp, out, 64, cv))


@pytest.mark.parametrize("duration", [1.8e-7, 5e-7, 2e-6])
def test_cv_takes_no_qr_or_svd_on_the_default_grid(duration, monkeypatch):
    # The folds score the default grid by Cholesky solves alone, and the
    # model is estimate_kernel's Gram fit: one more Cholesky factor, no
    # QR, no SVD, and every call on the calling thread.
    threads = {"qr": [], "svd": [], "cholesky": []}

    def spy(kind, fn):
        def call(*args, **kwargs):
            threads[kind].append(threading.get_ident())
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(sysid.lapack, "zgeqrf", spy("qr", sysid.lapack.zgeqrf))
    monkeypatch.setattr(np.linalg, "svd", spy("svd", np.linalg.svd))
    monkeypatch.setattr(sysid.lapack, "zpotrf",
                        spy("cholesky", sysid.lapack.zpotrf))
    inp, out = _gate_pair(duration, seed=1)
    cv = CVConfig()
    lam = cross_validate(inp, out, 64, cv)[0]
    assert lam > 0
    assert threads["qr"] == threads["svd"] == []
    assert threads["cholesky"] == (
        [threading.get_ident()] * (cv.folds * len(cv.lambda_grid) + 1))


@pytest.mark.parametrize("workers", [1, 4], ids=["1-worker", "4-workers"])
def test_cv_at_lambda_zero_takes_the_pooled_svd_of_the_whole_factor(
        workers, monkeypatch):
    # lambda* = 0 from ``workers`` callers at once: each fold scores
    # lambda = 0 alone by the SVD of its training rows, and 1e-6 by
    # Cholesky; the final fit back-substitutes, as estimate_kernel's does.
    rng = np.random.default_rng(22)
    inp, out = _noisy_channel_pair(rng)
    cv = CVConfig(folds=5, lambda_grid=(0.0, 1e-6))
    calls = _spy_ridge_path(monkeypatch)
    results = _fits_at_once(workers, lambda: cross_validate(inp, out, 4, cv))
    assert [list(call[2]) for call in calls] == [[0.0]] * cv.folds * workers
    ref = estimate_kernel(inp, out, 4, 0.0)
    serial = serial_cross_validate(inp, out, 4, cv)
    for got in results:
        assert got[0] == 0.0
        assert got[2].h0 == ref.h0
        assert np.array_equal(got[2].h1, ref.h1)
        _assert_same_fit(got, serial)


@pytest.mark.parametrize("threads", [4])
def test_cv_from_four_threads_at_once_equals_each_solo_fit(threads):
    pairs = [_gate_pair(d, seed=s) for d, s in
             ((1.8e-7, 1), (5e-7, 2), (1.8e-7, 3), (2e-6, 4))[:threads]]
    cv = CVConfig()
    solo = [cross_validate(inp, out, 64, cv) for inp, out in pairs]
    start = threading.Barrier(len(pairs))
    got = [[] for _ in pairs]

    def fit(i):
        start.wait(timeout=30)
        for _ in range(2):
            got[i].append(cross_validate(*pairs[i], 64, cv))

    callers = [threading.Thread(target=fit, args=(i,))
               for i in range(len(pairs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    for ref, results in zip(solo, got):
        assert len(results) == 2
        for result in results:
            _assert_same_fit(result, ref)


@pytest.mark.parametrize("workers", [1, 4], ids=["1-worker", "4-workers"])
def test_cv_reraises_a_failing_fold_and_then_fits_again(monkeypatch,
                                                        workers):
    # A fold's Cholesky solve fails while ``workers`` callers fit at once;
    # the error reaches the one caller whose solve failed, the others fit
    # as before, and so does every next call.
    inp, out = _gate_pair(5e-7, seed=1)
    ref = cross_validate(inp, out, 64, CVConfig())
    error = RuntimeError("fold fit failed")
    calls = itertools.count()
    zpotrs = sysid.lapack.zpotrs

    def failing_zpotrs(*args, **kwargs):
        if next(calls) == 2:
            raise error
        return zpotrs(*args, **kwargs)

    def attempt():
        try:
            return cross_validate(inp, out, 64, CVConfig())
        except RuntimeError as raised:
            return raised

    monkeypatch.setattr(sysid.lapack, "zpotrs", failing_zpotrs)
    results = _fits_at_once(workers, attempt)
    assert sum(got is error for got in results) == 1
    for got in results:
        if got is not error:
            _assert_same_fit(got, ref)
    monkeypatch.setattr(sysid.lapack, "zpotrs", zpotrs)
    for got in _fits_at_once(
            workers, lambda: cross_validate(inp, out, 64, CVConfig())):
        _assert_same_fit(got, ref)


# ------------------------------------------------------- fitted-output error

def test_estimation_round_trip_mase():
    rng = np.random.default_rng(15)
    inp, out = _noisy_channel_pair(rng)
    model = estimate_kernel(inp, out, 4, 0.0)
    assert mase(volterra_forward(model, inp), out) < 1e-8


def test_model_error_on_noisy_data_is_noise_scale():
    # With measurement noise at the 1e-3 level relative to the signal,
    # the fitted-output MASE lands at that scale rather than at zero.
    rng = np.random.default_rng(16)
    inp, out = _noisy_channel_pair(rng, n=1000, sigma=1e-3)
    _, _, model = cross_validate(inp, out, 8,
                                 CVConfig(5, tuple(np.logspace(-8, 0, 5))))
    assert mase(volterra_forward(model, inp), out) < 1e-3


def test_model_error_zero_model_raises_zero_norm_guard():
    rng = np.random.default_rng(18)
    inp, out = _noisy_channel_pair(rng)
    zero = VolterraModel(h0=0.0, h1=np.zeros(4, dtype=complex))
    with pytest.raises(ZeroSignalError):
        mase(volterra_forward(zero, inp), out)

