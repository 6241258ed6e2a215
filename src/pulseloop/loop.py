"""Pre-distortion computation and the closed correction loop.

The loop driver measures, aligns, scores and records each shot, then
takes the next input from its method's update. The transfer-function
update identifies the channel kernel from the shot. After the first
shot it inverts the kernel offline against the target by iterated
Tikhonov steps (a fixed damping; each step solves the damped normal
equations exactly by circulant embedding, a few FFTs on one factor of a
small dense border, ``_normal_solver``); after every later shot
it takes one norm-optimal learning step on the measured error, the
kernel's regularized inverse applied in the frequency domain. The
transfer-function-free update feeds the output error straight back onto
the input.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np
import scipy.fft as sfft
from scipy.linalg.blas import zherk
from scipy.linalg.lapack import zpotrf, zpotrs, ztrtrs

from .envelope import (ComplexEnvelope, GridMismatchError, InvalidSpecError,
                       _check_integer, _check_real, _mase_to,
                       _unit_amplitude, align_delay, mase, mse_cost)
from .sysid import (DEFAULT_MEMORY, VolterraModel, _check_memory,
                    _check_pair, estimate_kernel, volterra_forward)

# Tikhonov weight added to the diagonal of J^H J in the offline inversion
# and in each learning step.
_DAMPING = 1e-3
# Ridge weight of the fit and gain of each learning step (``_tf_update``).
_LEARNING_LAMBDA = 1e-3
_LEARNING_GAIN = 0.5


class SingularUpdateError(RuntimeError):
    """Damped normal system could not be Cholesky-factored."""

    report = None  # set by ``closed_loop`` once it has recorded a shot


class MeasurementError(RuntimeError):
    """Measurement callback failed inside the closed loop."""

    report = None  # set by ``closed_loop`` once it has recorded a shot


# Bad input and I/O (``cli.main`` exit 2; every bad-input error of the
# package is an ``InvalidSpecError``) and a loop that cannot go on
# (exit 3): what a measurement may fail with. Anything else (a TypeError
# from a buggy callback) is a bug.
_USAGE_ERRORS = (OSError, InvalidSpecError)
_LOOP_FAILURES = (SingularUpdateError, MeasurementError)
_MEASUREMENT_FAILURES = _USAGE_ERRORS + _LOOP_FAILURES


@dataclass(frozen=True)
class LMConfig:
    """Stopping rule for the offline iterations.

    At most ``max_iters`` iterated-Tikhonov steps are taken, stopping
    early once the mean squared cost falls below ``cost_tol``.
    """

    max_iters: int = 50
    cost_tol: float = 1e-6

    def __post_init__(self):
        _check_integer("max_iters", self.max_iters, 0)
        _check_real("cost_tol", self.cost_tol, 0, strict=True)


@dataclass(frozen=True)
class LoopConfig:
    """Closed-loop driver settings.

    ``memory`` is the kernel length of the transfer-function update.
    """

    method: str = "transfer-function"
    max_loop_iters: int = 10
    convergence_mase: float = 1e-3
    memory: int = DEFAULT_MEMORY

    def __post_init__(self):
        if self.method not in LOOP_METHODS:
            raise InvalidSpecError(
                f"method must be one of {LOOP_METHODS}, got {self.method!r}")
        _check_integer("max_loop_iters", self.max_loop_iters, 1)
        _check_integer("memory", self.memory, 1)
        _check_real("convergence_mase", self.convergence_mase, 0,
                    strict=True)


@dataclass(frozen=True)
class IterationRecord:
    """State captured at one loop iteration.

    ``model`` and ``offline`` are the kernel and the offline solve that
    designed ``s_pred`` (None on the first shot and for the
    transfer-function-free method, which has no model; ``offline`` is
    None too where a learning step designed it); ``model_error``
    is the MASE between the measured output and the one ``model``
    predicts (NaN where ``model`` is None). ``delay`` is the delay in
    seconds ``align_delay`` removed from this shot.
    """

    index: int
    s_pred: ComplexEnvelope
    s_out: ComplexEnvelope
    mase: float
    mse: float
    model_error: float
    model: Optional[VolterraModel]
    offline: Optional[OfflineResult]
    delay: float


@dataclass(frozen=True)
class LoopReport:
    """Full history of a closed-loop run.

    ``stop`` names what ended the run: ``converged``, ``max_iters``, or
    the class name of the error that ended a partial report; by default
    the first or the second, from ``converged``.
    """

    records: tuple
    converged: bool
    stop: Optional[str] = None

    def __post_init__(self):
        if not self.records:
            raise InvalidSpecError("report requires at least one record")
        object.__setattr__(self, "records", tuple(self.records))
        if self.stop is None:
            object.__setattr__(self, "stop", "converged" if self.converged
                               else "max_iters")

    @property
    def mase_trace(self) -> np.ndarray:
        return np.array([r.mase for r in self.records])

    @property
    def final_model(self) -> Optional[VolterraModel]:
        """The last record's ``model``, which designed its input."""
        return self.records[-1].model


class OfflineResult(NamedTuple):
    """Pre-distorted pulse plus the cost before and after each step."""

    s_pred: ComplexEnvelope
    costs: np.ndarray
    converged: bool


def jacobian(model: VolterraModel, env: ComplexEnvelope) -> np.ndarray:
    """Sensitivity of the model output to each input sample.

    For the offset-plus-FIR model this is the lower-triangular banded
    Toeplitz matrix J[n, m] = h1[n - m] for 0 <= n - m < M, independent
    of the input (the input argument fixes the dimension and keeps the
    interface ready for input-dependent models).
    """
    n = env.grid.n
    _check_memory(model.memory, n)
    j = np.zeros((n, n), dtype=complex)
    rows = np.arange(n)
    for m, tap in enumerate(model.h1):
        j[rows[m:], rows[m:] - m] = tap
    return j


def _update_error(what: str, h1: np.ndarray) -> SingularUpdateError:
    return SingularUpdateError(
        f"{what} for a model with max |h1| = {np.max(np.abs(h1)):.3g}")


def _normal_solver(h1: np.ndarray, n: int
                   ) -> Callable[[np.ndarray], np.ndarray]:
    """The exact solve of (J^H J + mu I) x = v, mu = ``_DAMPING``, for the
    n x n banded Toeplitz Jacobian J of the taps ``h1``, by circulant
    embedding (Jain, IEEE Trans. ASSP 26(2), 1978).

    J is the leading block of the P-point circulant Jc of the taps,
    P = ``next_fast_len(n + M - 1)``, so J^H J + mu I is the leading block
    of Jc^H D Jc + mu I, D zeroing Jc's q = P - n trailing rows. With H
    the taps' transform, d = |H|^2 + mu, A = Circ(1/d) and
    B = Circ(H / d) = Jc A, x is the first n entries of
    A [v; sigma] + B^H [0; rho], where the border makes the last q
    entries zero:
        A22 sigma + B22^H rho = -(A [v; 0])_2,
        B22 sigma - mu A22 rho = -(B [v; 0])_2,
    with A22 and B22 the q x q Toeplitz blocks of the two inverse
    transforms. Factored here once: A22 = L L^H, W = L^-1 B22^H and
    S = mu A22 + W^H W, the Schur complement, both Hermitian positive
    definite. Each solve then takes three transforms of P points forward
    and three back, plus O(q^2) border work: y = L^-1 (A [v; 0])_2,
    rho = S^-1 ((B [v; 0])_2 - W^H y), sigma = -L^-H (y + W rho); with
    q = 0 there is no border. Raises ``SingularUpdateError`` naming
    max |h1| when |H|^2 overflows or a factor fails.
    """
    size = sfft.next_fast_len(n + len(h1) - 1)
    q = size - n
    spec = sfft.fft(h1, size)
    with np.errstate(over="ignore", invalid="ignore"):
        power = np.abs(spec) ** 2
    if not np.all(np.isfinite(power)):
        raise _update_error("normal matrix overflows", h1)
    inv = 1 / (power + _DAMPING)
    columns = sfft.ifft(np.stack([inv, spec * inv]))  # of A and B
    if q:
        # Lags -(q - 1) to q - 1 of each column; row i of the reversed
        # length-q windows is row i of the Toeplitz block.
        ends = np.concatenate([columns[:, size - q + 1:], columns[:, :q]],
                              axis=1)
        a22, b22 = np.lib.stride_tricks.sliding_window_view(
            ends, q, axis=1)[:, :, ::-1]
        low, info = zpotrf(a22, lower=1)
        if not info:
            w = ztrtrs(low, b22.conj().T, lower=1)[0]
            schur, info = zpotrf(zherk(1.0, w, beta=_DAMPING, c=a22,
                                       trans=2, lower=1), lower=1,
                                 overwrite_a=1)
        if info:
            raise _update_error(
                "damped normal matrix is not positive definite", h1)

    def solve(v):
        trans = sfft.fft(v, size)
        with np.errstate(over="ignore", invalid="ignore"):
            if q:
                a2, b2 = sfft.ifft(np.stack([trans, trans * spec])
                                   * inv)[:, n:]
                y = ztrtrs(low, a2, lower=1)[0]
                rho = zpotrs(schur, b2 - w.conj().T @ y, lower=1)[0]
                border = np.zeros((2, size), dtype=complex)
                border[0, n:] = -ztrtrs(low, y + w @ rho, lower=1,
                                        trans=2)[0]
                border[1, n:] = rho
                border = sfft.fft(border, overwrite_x=True)
                trans += border[0] + spec.conj() * border[1]
            return sfft.ifft(trans * inv)[:n]

    return solve


def _adjoint(h1: np.ndarray, r: np.ndarray) -> np.ndarray:
    """J^H r: the correlation of r with the taps, as a reversed convolution."""
    n = len(r)
    return np.convolve(r[::-1], h1.conj())[:n][::-1]


def offline_iterate(model: VolterraModel, s_target: ComplexEnvelope,
                    config: LMConfig = LMConfig()) -> OfflineResult:
    """Iterated Tikhonov computing the pre-distorted input pulse.

    Starting from the target itself, each iteration adds the step
    (J^H J + lambda I)^{-1} J^H (target - fitted(s)) with a fixed
    lambda = 1e-3, taken from one factor computed up front: the exact
    circulant-embedding solve of ``_normal_solver``, whose border is
    factored once, so each step costs a few FFTs. For this linear model
    the mean squared cost between the fitted output and the target never
    increases, so every step is kept. Stops when the cost falls below
    ``config.cost_tol`` or after ``config.max_iters`` steps, with
    ``converged`` flagging which case occurred. Raises
    ``SingularUpdateError`` naming max |h1| of ``model`` when the damped
    normal matrix overflows or cannot be factored, or a step or cost is
    not finite.
    """
    _check_memory(model.memory, s_target.grid.n)
    solve = _normal_solver(model.h1, s_target.grid.n)
    s = target = s_target.samples  # read-only; each step makes a new s

    def fitted(x):
        """The model's output for ``x`` and its cost against the target."""
        with np.errstate(over="ignore", invalid="ignore"):
            out = np.convolve(x, model.h1)[:len(x)] + model.h0
            cost = float(np.mean(np.abs(target - out) ** 2))
        if not np.isfinite(cost):
            raise _update_error("offline cost overflows", model.h1)
        return out, cost

    out, cost = fitted(s)
    costs = [cost]
    for _ in range(config.max_iters):
        if cost < config.cost_tol:
            break
        step = solve(_adjoint(model.h1, target - out))
        if not np.all(np.isfinite(step)):
            raise _update_error("offline step overflows", model.h1)
        s = s + step
        out, cost = fitted(s)
        costs.append(cost)
    return OfflineResult(s_pred=s_target.with_samples(s),
                         costs=np.array(costs),
                         converged=cost < config.cost_tol)


def tf_free_step(s_in: ComplexEnvelope, s_target: ComplexEnvelope,
                 s_out: ComplexEnvelope) -> ComplexEnvelope:
    """Model-free input update from the measured output error.

    Returns s_in + (s_target - s_out), a unity-gain error feedback whose
    fixed point is s_out = s_target.
    """
    if not (s_in.grid == s_target.grid == s_out.grid):
        raise GridMismatchError("tf_free_step requires one common grid")
    return s_in.with_samples(s_in.samples
                             + (s_target.samples - s_out.samples))


def _align_to_target(raw: ComplexEnvelope, s_target: ComplexEnvelope
                     ) -> tuple[ComplexEnvelope, float]:
    """Delay-align a measurement and crop it onto the target grid; also
    returns the delay in seconds ``align_delay`` removed."""
    aligned, delay = align_delay(raw, s_target)
    n = s_target.grid.n
    if aligned.grid.n < n:
        raise GridMismatchError(
            f"measurement ({aligned.grid.n} samples) shorter than the "
            f"target ({n})")
    return ComplexEnvelope(s_target.grid, aligned.samples[:n]), delay


def _learning_step(h1: np.ndarray, error: np.ndarray) -> np.ndarray:
    """``_LEARNING_GAIN`` (J^H J + mu I)^-1 J^H ``error``, mu = ``_DAMPING``,
    with J the convolution by ``h1`` taken as circulant.

    On ``next_fast_len(n + 2M)`` points the step is one filter, the taps'
    regularized inverse conj(H) / (|H|^2 + mu) applied to the error's
    transform (Gray, *Toeplitz and Circulant Matrices: A Review*, 2006);
    it equals the banded solve away from the window's edges. Its gain is
    at most 1 / (2 sqrt(mu)) at any frequency, whatever the taps. Raises
    ``SingularUpdateError`` naming max |h1| when the step is not finite.
    """
    n = len(error)
    size = sfft.next_fast_len(n + 2 * len(h1))
    with np.errstate(over="ignore", invalid="ignore"):
        spec = sfft.fft(h1, size)
        step = sfft.ifft(spec.conj() / (np.abs(spec) ** 2 + _DAMPING)
                         * sfft.fft(error, size))[:n]
    if not np.all(np.isfinite(step)):
        raise _update_error("learning step overflows", h1)
    return _LEARNING_GAIN * step


def _tf_update(s_in, s_target, s_out, config):
    """Identify the channel from this shot and design the next input.

    After the first shot (``s_in`` is the target) the kernel is fitted by
    minimum-norm least squares (``lambda_reg`` 0) and inverted offline
    against the target. After every later shot it is fitted at
    ``lambda_reg`` ``_LEARNING_LAMBDA`` and the input takes one
    norm-optimal learning step on the measured error (Amann, Owens &
    Rogers, IEE Proc. Control Theory Appl. 143(2), 1996),
    s + ``_learning_step``(h1, target - measured), with no offline solve:
    model error then slows convergence instead of setting its floor.
    """
    if s_in is s_target:
        model = estimate_kernel(s_in, s_out, config.memory, 0.0)
        offline = offline_iterate(model, s_target)
        return offline.s_pred, model, offline
    model = estimate_kernel(s_in, s_out, config.memory, _LEARNING_LAMBDA)
    step = _learning_step(model.h1, s_target.samples - s_out.samples)
    return s_in.with_samples(s_in.samples + step), model, None


def _tf_free_update(s_in, s_target, s_out, config):
    """Feed the output error straight back; no model."""
    return tf_free_step(s_in, s_target, s_out), None, None


# One update rule per method, each returning (next input, model, offline
# solve), None where absent; they call the module's bindings, so patching
# those reaches them.
_UPDATES = {"transfer-function": _tf_update,
            "transfer-function-free": _tf_free_update}
LOOP_METHODS = tuple(_UPDATES)


def closed_loop(measure: Callable[[ComplexEnvelope], ComplexEnvelope],
                s_target: ComplexEnvelope,
                config: LoopConfig = LoopConfig()) -> LoopReport:
    """Run the closed correction loop against a measurement callback.

    Each iteration sends the current input through ``measure``, aligns
    and crops the output onto the target grid, scores it by MASE and
    records it (the target's normalized amplitude is taken once, at the
    first score, and each shot is scored against it by ``mase``'s own
    arithmetic, so to the same bits); below ``config.convergence_mase``
    the loop stops converged, else the method's update gives the next
    input, except after the last shot, whose update would design an
    input that is never measured. A kernel memory that does not fit the
    target is rejected before the first measurement. A measurement
    failing with one of the package's errors or an ``OSError`` raises
    ``MeasurementError`` naming the iteration; any other exception
    propagates unchanged. A ``MeasurementError`` or ``SingularUpdateError``
    carries the unconverged report of the shots recorded before it as
    ``report`` (None before the first).
    """
    if config.method == "transfer-function":
        _check_pair(s_target, s_target, config.memory)
    update = _UPDATES[config.method]
    s_in = s_target
    records = []
    model = offline = None  # what designed s_in
    unit_target = None  # the target's _unit_amplitude, from the first MASE
    try:
        for it in range(1, config.max_loop_iters + 1):
            try:
                raw = measure(s_in)
            except _MEASUREMENT_FAILURES as exc:
                raise MeasurementError(
                    f"measurement callback failed at iteration {it}: "
                    f"{type(exc).__name__}: {exc}") from exc
            s_out, delay = _align_to_target(raw, s_target)
            if unit_target is None:
                unit_target = _unit_amplitude(s_target)
            m = _mase_to(s_out, unit_target)
            merr = (float("nan") if model is None
                    else mase(volterra_forward(model, s_in), s_out))
            records.append(IterationRecord(
                index=it, s_pred=s_in, s_out=s_out, mase=m,
                mse=mse_cost(s_out, s_target), model_error=merr,
                model=model, offline=offline, delay=delay))
            if m <= config.convergence_mase:
                return LoopReport(records, True)
            if it < config.max_loop_iters:
                s_in, model, offline = update(s_in, s_target, s_out, config)
    except _LOOP_FAILURES as exc:
        exc.report = (LoopReport(records, False, type(exc).__name__)
                      if records else None)
        raise
    return LoopReport(records, False)


class ReplayChannel:
    """Measurement callback that plays back recorded outputs in order.

    Useful for re-running the loop arithmetic against data captured from
    hardware: the k-th call returns the k-th recorded output regardless
    of the requested input.
    """

    def __init__(self, outputs: Sequence[ComplexEnvelope]):
        if not outputs:
            raise InvalidSpecError("replay requires at least one record")
        self._outputs = list(outputs)
        self._cursor = 0

    def measure(self, env: ComplexEnvelope) -> ComplexEnvelope:
        if self._cursor >= len(self._outputs):
            raise MeasurementError(
                f"replay exhausted after {len(self._outputs)} measurements")
        out = self._outputs[self._cursor]
        self._cursor += 1
        return out
