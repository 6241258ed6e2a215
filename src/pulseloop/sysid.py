"""Linear-system identification of the modulator channel.

The channel after bulk-delay removal is modeled as a constant offset plus
a complex FIR kernel (a first-order Volterra series truncated to memory
M). The kernel is recovered from an input/output envelope pair by ridge
least squares, with the ridge weight chosen by contiguous-block
cross-validation on held-out samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .envelope import (ComplexEnvelope, GridMismatchError, InvalidSpecError)

DEFAULT_MEMORY = 64  # taps at 1 ns spacing; covers post-delay ringing


@dataclass(frozen=True)
class VolterraModel:
    """Constant offset ``h0`` plus complex FIR taps ``h1``.

    The forward map is out_n = h0 + sum_{j<M} h1[j] * in_{n-j} with zero
    initial conditions.
    """

    h0: complex
    h1: np.ndarray

    def __post_init__(self):
        taps = np.asarray(self.h1, dtype=complex)
        if taps.ndim != 1 or len(taps) < 1:
            raise InvalidSpecError("h1 must hold at least one tap")
        if not (np.isfinite(self.h0) and np.all(np.isfinite(taps))):
            raise InvalidSpecError("model coefficients must be finite")
        taps = taps.copy()
        taps.setflags(write=False)
        object.__setattr__(self, "h0", complex(self.h0))
        object.__setattr__(self, "h1", taps)

    @property
    def memory(self) -> int:
        return len(self.h1)

    @staticmethod
    def identity() -> "VolterraModel":
        return VolterraModel(h0=0.0, h1=np.array([1.0 + 0.0j]))


def volterra_forward(model: VolterraModel,
                     env: ComplexEnvelope) -> ComplexEnvelope:
    """Apply the offset-plus-FIR model to an envelope.

    Causal convolution with zero initial conditions; the output lives on
    the input grid. The memory length may not exceed the signal length.
    """
    if model.memory > env.grid.n:
        raise InvalidSpecError(
            f"memory {model.memory} exceeds signal length {env.grid.n}")
    y = np.convolve(env.samples, model.h1)[:env.grid.n] + model.h0
    return ComplexEnvelope(env.grid, y)


def build_design_matrix(env: ComplexEnvelope, memory: int) -> np.ndarray:
    """Regression matrix whose rows are [1, x_n, x_{n-1}, ..., x_{n-M+1}].

    Entries with negative signal index are zero (causal padding), so the
    matrix-vector product with [h0, h1] reproduces ``volterra_forward``.
    """
    n = env.grid.n
    if not 1 <= memory <= n:
        raise InvalidSpecError(f"memory {memory} out of range [1, {n}]")
    x = env.samples
    a = np.zeros((n, memory + 1), dtype=complex)
    a[:, 0] = 1.0
    for j in range(memory):
        a[j:, j + 1] = x[:n - j]
    return a


_TSQR_BLOCK = 8  # rows per column in one block of ``_triangular``


def _triangular(rows: np.ndarray) -> np.ndarray:
    """R factor of a tall matrix, reduced in row blocks (TSQR).

    Blocks of ``_TSQR_BLOCK`` x columns rows are each reduced by QR and
    their stacked factors are reduced again the same way, so every QR runs
    on a cache-sized block; Q is never formed. The result has
    rows^H rows = R^H R. A block with fewer rows than columns gives a
    trapezoidal factor, which stacks the same way.
    """
    step = _TSQR_BLOCK * rows.shape[1]
    if len(rows) <= step:
        return np.linalg.qr(rows, mode="r")
    return _triangular(np.vstack([np.linalg.qr(rows[i:i + step], mode="r")
                                  for i in range(0, len(rows), step)]))


def _ridge_path(rz: np.ndarray, n: int, lams) -> np.ndarray:
    """Minimizers of ||A th - y||^2 + lam ||th||^2, one row per ``lam``.

    ``rz`` is a factor of the n-row matrix [A | y] (as from
    ``_triangular``): with r = rz[:, :-1] and z = rz[:, -1], A^H A = r^H r
    and A^H y = r^H z. One thin complex SVD r = U diag(s) V^H then gives
    the whole ridge path, th(lam) = V diag(s / (s^2 + lam)) U^H z.
    Singular values at or below the cutoff eps * max(n, columns) * s_max
    (NumPy's ``lstsq`` default for A itself, not for the smaller factor)
    are dropped, so lam = 0 yields the minimum-norm least-squares
    solution with directions the data cannot resolve set to zero.
    """
    r, z = rz[:, :-1], rz[:, -1]
    u, s, vh = np.linalg.svd(r, full_matrices=False)
    keep = s > np.finfo(float).eps * max(n, r.shape[1]) * s[0]
    u, s, vh = u[:, keep], s[keep], vh[keep]
    gain = s / (s ** 2 + np.asarray(lams, dtype=float)[:, None])
    return (gain * (u.conj().T @ z)) @ vh.conj()


def _check_pair(inp: ComplexEnvelope, out: ComplexEnvelope,
                memory: int) -> None:
    """Reject a pair that cannot determine ``memory`` taps and an offset."""
    if inp.grid != out.grid:
        raise GridMismatchError("input and output grids differ")
    if inp.grid.n < memory + 1:
        raise InvalidSpecError(
            f"need at least {memory + 1} samples, got {inp.grid.n}")


def estimate_kernel(inp: ComplexEnvelope, out: ComplexEnvelope,
                    memory: int, lambda_reg: float) -> VolterraModel:
    """Fit offset and kernel by regularized least squares.

    Parameters
    ----------
    inp, out : ComplexEnvelope
        Input/output pair on identical grids, already delay-aligned.
    memory : int
        Number of FIR taps to fit.
    lambda_reg : float
        Nonnegative ridge weight on all coefficients including the
        offset; zero requests the plain (minimum-norm) least squares
        solution, with design-matrix singular values at or below
        eps * max(n, memory + 1) * s_max dropped.
    """
    _check_pair(inp, out, memory)
    if not (np.isfinite(lambda_reg) and lambda_reg >= 0):
        raise InvalidSpecError(
            f"lambda_reg must be finite and >= 0, got {lambda_reg}")
    a = build_design_matrix(inp, memory)
    rz = _triangular(np.column_stack([a, out.samples]))
    theta = _ridge_path(rz, inp.grid.n, [lambda_reg])[0]
    return VolterraModel(h0=theta[0], h1=theta[1:])


@dataclass(frozen=True)
class CVConfig:
    """Contiguous-block cross-validation settings.

    Folds are consecutive sample blocks, never shuffled, so temporally
    correlated noise cannot leak between train and validation sets. The
    score is validation mean squared error.
    """

    folds: int = 5
    lambda_grid: tuple = field(
        default_factory=lambda: tuple(np.logspace(-6.0, 0.0, 7)))

    def __post_init__(self):
        if self.folds < 2:
            raise InvalidSpecError(f"folds must be >= 2, got {self.folds}")
        grid = tuple(float(v) for v in self.lambda_grid)
        if not grid:
            raise InvalidSpecError("lambda_grid must be nonempty")
        if not all(np.isfinite(v) and v >= 0 for v in grid):
            raise InvalidSpecError(
                f"lambda_grid values must be finite and >= 0, got {grid}")
        object.__setattr__(self, "lambda_grid", grid)


def cross_validate(inp: ComplexEnvelope, out: ComplexEnvelope, memory: int,
                   cv: CVConfig):
    """Pick the ridge weight with the lowest held-out error and fit with it.

    Splits the samples into ``cv.folds`` contiguous blocks; each block
    serves once as the validation set while the model is fitted on the
    remaining rows. Each block's rows of [A | y] are reduced to an R
    factor once; a fold's fit reduces the other blocks' stacked factors
    and takes one small SVD for the whole lambda grid. The final fit
    reduces all the blocks' factors, which gives a factor of the whole
    [A | y] (TSQR), so a long design matrix is never factored again. A
    record that fits one TSQR block is factored directly instead, as
    ``estimate_kernel`` does: that QR has no more rows than the stacked
    fold factors, and a short, near-square fit is ill-conditioned, so the
    two reductions' rounding would differ by up to cond(A) * eps.
    Returns ``(lambda_star, scores, model)``: ``scores`` is an array of
    (lambda, mean validation MSE) rows in grid order, lambda_star attains
    the table minimum (first entry on ties), and ``model`` is the fit to
    all samples at lambda_star, as ``estimate_kernel`` would return it
    (bit for bit when the record fits one block, up to rounding
    otherwise).
    """
    _check_pair(inp, out, memory)
    n = inp.grid.n
    if cv.folds > n:
        raise InvalidSpecError(
            f"cannot split {n} samples into {cv.folds} folds")
    rows = np.column_stack([build_design_matrix(inp, memory), out.samples])
    parts = np.array_split(rows, cv.folds)
    factors = [_triangular(part) for part in parts]
    mse_sum = np.zeros(len(cv.lambda_grid))
    for k, val in enumerate(parts):
        rz = _triangular(np.vstack(factors[:k] + factors[k + 1:]))
        thetas = _ridge_path(rz, n - len(val), cv.lambda_grid)
        r = thetas @ val[:, :-1].T - val[:, -1]
        mse_sum += np.mean(np.abs(r) ** 2, axis=1)
    scores = np.column_stack([cv.lambda_grid, mse_sum / cv.folds])
    lambda_star = float(scores[np.argmin(scores[:, 1]), 0])
    if n > _TSQR_BLOCK * rows.shape[1]:
        rows = np.vstack(factors)
    theta = _ridge_path(_triangular(rows), n, [lambda_star])[0]
    return lambda_star, scores, VolterraModel(h0=theta[0], h1=theta[1:])
