"""Linear-system identification of the modulator channel.

The channel after bulk-delay removal is modeled as a constant offset plus
a complex FIR kernel (a first-order Volterra series truncated to memory
M). The kernel is recovered from an input/output envelope pair by least
squares on a QR factor of the design matrix, or, at a ridge weight above
zero, by one Cholesky solve on its Gram matrix, built from FFT
correlations and refined once. Cross-validation on contiguous held-out
blocks chooses the ridge weight; each fold's fit at a ridge weight above
zero is one Cholesky solve on the other folds' Gram matrices, built from
each fold's rows that read the input's nonzero span, and the model is
the fit at the chosen weight.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field

import numpy as np
import scipy.fft as sfft
from scipy.linalg import blas, lapack, toeplitz

from .envelope import (ComplexEnvelope, GridMismatchError, InvalidSpecError,
                       _check_integer, _check_real, _support)

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
    The convolution runs from the input's first to its last nonzero
    sample: every other output sample is exactly ``h0``, and the rest
    equal the whole-window convolution to rounding.
    """
    return ComplexEnvelope(env.grid, _forward_samples(model, env.samples))


def _check_memory(memory, n: int) -> None:
    """``memory`` is an integer number of taps in [1, n], for n samples."""
    _check_integer("memory", memory, 1)
    if memory > n:
        raise InvalidSpecError(f"memory {memory} exceeds signal length {n}")


def _forward_samples(model: VolterraModel, x: np.ndarray) -> np.ndarray:
    """``volterra_forward``'s output samples, as a new writable array."""
    n = len(x)
    _check_memory(model.memory, n)
    lo, hi = _support(x)
    y = np.full(n, model.h0, dtype=complex)
    if hi > lo:
        seg = np.convolve(x[lo:hi], model.h1)[:n - lo]
        y[lo:lo + len(seg)] += seg
    return y


def _lagged(x: np.ndarray, memory: int) -> np.ndarray:
    """Read-only view whose row n is [x_n, x_{n-1}, ..., x_{n-M+1}].

    Entries with negative signal index are zero (causal padding).
    """
    padded = np.concatenate((np.zeros(memory - 1, dtype=complex), x))
    return np.lib.stride_tricks.sliding_window_view(padded, memory)[:, ::-1]


def _rows(lagged: np.ndarray, lo: int, hi: int, y=None) -> np.ndarray:
    """Rows ``lo:hi`` of the design matrix A = [1 | ``lagged``] (rows
    [1, x_n, ..., x_{n-M+1}] for ``_lagged``'s view), or of [A | y] with
    ``y``, as a new array in LAPACK's column-major layout, which
    ``_tsqr`` reduces in place."""
    cols = lagged.shape[1] + 1
    rows = np.empty((hi - lo, cols + (y is not None)), dtype=complex,
                    order="F")
    rows[:, 0] = 1.0
    rows[:, 1:cols] = lagged[lo:hi]
    if y is not None:
        rows[:, -1] = y[lo:hi]
    return rows


def build_design_matrix(env: ComplexEnvelope, memory: int) -> np.ndarray:
    """Regression matrix whose rows are [1, x_n, x_{n-1}, ..., x_{n-M+1}].

    Entries with negative signal index are zero (causal padding), so the
    matrix-vector product with [h0, h1] reproduces ``volterra_forward``.
    """
    _check_memory(memory, env.grid.n)
    return _rows(_lagged(env.samples, memory), 0, env.grid.n)


_TSQR_BLOCK = 8  # rows per column of [A | y] in one TSQR block


def _tsqr(blocks, step: int, c=None, levels=None) -> tuple:
    """R factor of the rows stacked from ``blocks``, by TSQR: ``(r, z)``.

    Each block is reduced by Householder QR (``zgeqrf``) in place, so
    the blocks must be arrays the caller gives up; the stacked factors
    are cut into blocks of ``step`` rows and reduced again the same way
    until one block is left, so every QR runs on a cache-sized block. A
    block with fewer rows than columns gives a trapezoidal factor, which
    stacks the same way. Q is never formed. With rows ``c``, z is the
    leading rows of Q^H c, one per row of r: each block's reflectors are
    applied to its rows of c as the block is reduced, then dropped (z is
    None without ``c``). A list ``levels`` instead gets each level's
    blocks' ``(reflectors, tau)`` in row order, for ``_apply_qh`` to
    apply to any c by the same calls, so to the same bits.
    """
    while True:
        rs, zs, kept, lo = [], [], [], 0
        for block in blocks:
            qr, tau = lapack.zgeqrf(block, overwrite_a=True)[:2]
            rs.append(np.triu(qr[:len(tau)]))
            if c is None and levels is None:
                continue
            # zunmqr writes each reflector's unit head into the array
            # while it applies it, then restores the old entry; with the 1
            # stored there, threads that share kept reflectors never read
            # another value.
            np.fill_diagonal(qr, 1.0)
            h = qr[:, :len(tau)]
            if c is not None:
                zs.append(_reflect(h, tau, c[lo:lo + len(h)]))
                lo += len(h)
            if levels is not None:
                kept.append((h, tau))
        if levels is not None:
            levels.append(kept)
        if len(rs) == 1:
            return rs[0], (zs[0] if zs else None)
        a = np.vstack(rs)
        c = np.vstack(zs) if zs else None
        blocks = [a[i:i + step] for i in range(0, len(a), step)]


def _reflect(h: np.ndarray, tau: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The leading ``len(tau)`` rows of H^H rows for one block's Q = H.

    ``zunmqr`` at its minimum ``lwork`` takes the unblocked reflector
    loop, two vector operations per reflector.
    """
    return lapack.zunmqr("L", "C", h, tau, rows, rows.shape[1])[0][:len(tau)]


def _apply_qh(levels: list, c: np.ndarray) -> np.ndarray:
    """``_tsqr``'s z for the factor whose reflectors are ``levels``."""
    for level in levels:
        parts, lo = [], 0
        for h, tau in level:
            parts.append(_reflect(h, tau, c[lo:lo + len(h)]))
            lo += len(h)
        c = np.vstack(parts)
    return c


def _triangular(rows: np.ndarray) -> np.ndarray:
    """R factor of a tall matrix, by ``_tsqr`` in blocks of
    ``_TSQR_BLOCK`` x columns rows; rows^H rows = R^H R. ``rows`` is
    left as it was."""
    step = _TSQR_BLOCK * rows.shape[1]
    return _tsqr([np.array(rows[i:i + step], order="F")
                  for i in range(0, len(rows), step)], step)[0]


def _design_tsqr(env: ComplexEnvelope, memory: int, c=None, levels=None,
                 lo: int = 0, hi=None, y=None) -> tuple:
    """``_tsqr`` of rows ``lo:hi`` (default all) of ``env``'s design
    matrix A at ``memory``, or of [A | y] with ``y``.

    The rows are built straight into ``_tsqr``'s blocks of
    ``_TSQR_BLOCK`` x (memory + 2) rows counted from ``lo`` (``_rows``),
    so no whole copy of A is made.
    """
    hi = env.grid.n if hi is None else hi
    step = _TSQR_BLOCK * (memory + 2)
    lagged = _lagged(env.samples, memory)
    return _tsqr((_rows(lagged, i, min(i + step, hi), y)
                  for i in range(lo, hi, step)), step, c, levels)


_DESIGN_KEY = "sysid.design_factor"  # ComplexEnvelope._memo key, per memory

_LOCK = threading.Lock()  # guards the kept design factors
if hasattr(os, "register_at_fork"):
    # A child forked while another thread held the lock would never see it
    # released; holding it across the fork leaves it free on both sides.
    os.register_at_fork(before=_LOCK.acquire,
                        after_in_parent=_LOCK.release,
                        after_in_child=_LOCK.release)


def _ridge_path(rz: np.ndarray, n: int, lams) -> np.ndarray:
    """Minimizers of ||A th - y||^2 + lam ||th||^2, one row per ``lam``.

    ``rz`` is a factor of the n-row matrix [A | y], as from
    ``_triangular``, or [R | Q^H y] for A = Q R, as from ``_tsqr``:
    with r = rz[:, :-1] and z = rz[:, -1], A^H A = r^H r and
    A^H y = r^H z. One thin complex SVD r = U diag(s) V^H then gives the
    whole ridge path, th(lam) = V diag(s / (s^2 + lam)) U^H z. Singular
    values at or below s_max * eps * max(n, columns) (NumPy's ``lstsq``
    cutoff for A, not the smaller factor) are dropped, so lam = 0 yields
    the minimum-norm least-squares solution with directions the data
    cannot resolve set to zero.
    """
    r, z = rz[:, :-1], rz[:, -1]
    u, s, vh = np.linalg.svd(r, full_matrices=False)
    keep = s > np.finfo(float).eps * max(n, r.shape[1]) * s[0]
    gain = s[keep] / (s[keep] ** 2 + np.asarray(lams, dtype=float)[:, None])
    return (gain * (u[:, keep].conj().T @ z)) @ vh[keep].conj()


def _back_substitutes(r: np.ndarray, n: int) -> bool:
    """``_solve``'s lam = 0 verdict on the square triangular factor ``r``
    of an n-row design matrix: whether back-substitution on r gives
    ``_ridge_path``'s minimum-norm solution.

    When 1 / ||r^-1||_F > p * eps * max(n, p) * ||r||_F for p
    coefficients, every singular value of r (at least 1 / ||r^-1||_F,
    while s_max <= ||r||_F) lies above ``_ridge_path``'s cutoff by the
    factor p, which covers the rounding of the computed inverse and of
    the SVD's singular values. No direction would be dropped, so the
    least-squares solution is r^-1 z, found by back-substitution, which
    is as backward stable as the SVD (Golub & Van Loan, *Matrix
    Computations*, 5.3). A singular r fails.
    """
    p = r.shape[1]
    r_inv, info = lapack.ztrtri(r)
    bound = p * np.finfo(float).eps * max(n, p) * np.linalg.norm(r)
    return bool(info == 0 and np.linalg.norm(r_inv) * bound < 1.0)


def _solve(rz: np.ndarray, n: int, lam: float, safe=None) -> np.ndarray:
    """``_ridge_path(rz, n, [lam])[0]``, by back-substitution when it can.

    At lam = 0 the square head r of the factor is triangular, and the
    fit back-substitutes on it when ``_back_substitutes`` passes r;
    ``safe`` is that verdict when the caller already holds it (it
    depends on r alone), and None to take it here. Any other fit,
    including a singular r, takes the SVD path.
    """
    p = rz.shape[1] - 1
    if lam == 0:
        r = rz[:p, :p]
        if safe is None:
            safe = _back_substitutes(r, n)
        if safe:
            return lapack.ztrtrs(r, rz[:p, p:])[0][:, 0]
    return _ridge_path(rz, n, [lam])[0]


def _gram(x: np.ndarray, memory: int) -> tuple:
    """A^H A for the design matrix A = [1 | ``_lagged(x, memory)``], from
    FFT correlations, with the transform of x that ``_design_adjoint``
    takes: ``(gram, spectrum)``.

    A's lag columns are the first n rows of the full convolution matrix
    of x, whose Gram matrix is the Hermitian Toeplitz matrix of x's
    autocorrelation at lags 0 to ``memory`` - 1, taken by FFT on at
    least n + memory - 1 points so that no lag wraps. A^H A's lag block
    is that matrix less the Gram matrix B^H B of the memory - 1 rows the
    full convolution adds past the record's end, which hold only its
    last memory - 1 samples (B is zero for a record whose tail is zero).
    The border is n and the partial sums of x.
    """
    n = len(x)
    spectrum = sfft.fft(x, sfft.next_fast_len(n + memory - 1))
    lags = sfft.ifft(np.abs(spectrum) ** 2)[:memory].conj()
    past = np.concatenate((x[n - memory + 1:],
                           np.zeros(memory, dtype=complex)))
    b = _lagged(past, memory)[memory - 1:-1]
    gram = np.empty((memory + 1, memory + 1), dtype=complex)
    gram[0, 0] = n
    gram[0, 1:] = np.cumsum(x)[:-memory - 1:-1]
    gram[1:, 0] = gram[0, 1:].conj()
    gram[1:, 1:] = toeplitz(lags.conj(), lags) - b.conj().T @ b
    return gram, spectrum


def _live_rows(span: tuple, memory: int, lo: int, hi: int) -> tuple:
    """The rows ``c:d`` of ``lo:hi`` that can read the input's nonzero
    ``span`` [a, b) (``_support``): every row outside [a, b + memory - 1)
    reads zeros only, so it is [1, 0, ..., 0]. ``c == d`` when none do."""
    a, b = span
    c, d = max(lo, a), min(hi, b + memory - 1)
    return (c, d) if a < b and c < d else (lo, lo)


def _fold_gram(lagged: np.ndarray, lo: int, hi: int, y: np.ndarray,
               span: tuple) -> np.ndarray:
    """[A | y]^H [A | y] over rows ``lo:hi`` of the design matrix whose
    input has the ``_lagged`` view ``lagged``: one ``_rows`` block and
    one ``zherk`` on the rows ``_live_rows`` keeps, and no rows when
    there are none (``zherk`` rejects zero rows). The other rows are
    [1, 0, ..., 0] and add only their count, the sum of their y and the
    sum of its squared magnitude to the border.
    """
    memory = lagged.shape[1]
    c, d = _live_rows(span, memory, lo, hi)
    if c == d:
        gram = np.zeros((memory + 2, memory + 2), dtype=complex)
    else:
        gram = blas.zherk(1.0, _rows(lagged, c, d, y), trans=2)
        gram += np.triu(gram, 1).conj().T  # zherk fills the upper half
    rest = np.concatenate((y[lo:c], y[d:hi]))
    gram[0, 0] += len(rest)
    gram[0, -1] += rest.sum()
    gram[-1, 0] = np.conj(gram[0, -1])
    gram[-1, -1] += np.vdot(rest, rest)
    return gram


def _design_adjoint(spectrum: np.ndarray, v: np.ndarray,
                    memory: int) -> np.ndarray:
    """A^H v for ``_gram``'s design matrix, whose input has the transform
    ``spectrum``: the sum of v, then the correlation of v with the input
    at lags 0 to ``memory`` - 1, by FFT."""
    corr = sfft.ifft(spectrum.conj() * sfft.fft(v, len(spectrum)))
    return np.concatenate(([v.sum()], corr[:memory]))


def _gram_fit(x: np.ndarray, y: np.ndarray, memory: int, lam: float):
    """Minimizer of ||A th - y||^2 + lam ||th||^2 by one Cholesky factor
    of ``_gram``'s A^H A + lam I, or None when ``zpotrf`` cannot factor
    it or the fit is not finite.

    The normal equations square the condition number (Bjorck, *Numerical
    Methods for Least Squares Problems*, 2.2), so one step of iterative
    refinement follows, its residual y - A th taken by direct
    convolution: on the 2 us gate pulse (cond(A) = 4.7e7) at lam = 1e-6
    it takes the fit from 1.3e-6 to 6.6e-10 relative of the orthogonal
    factor's.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        gram, spectrum = _gram(x, memory)
        gram.flat[::memory + 2] += lam
        c, info = lapack.zpotrf(gram, overwrite_a=True)
        if info:
            return None
        theta = lapack.zpotrs(c, _design_adjoint(spectrum, y, memory))[0]
        resid = y - theta[0] - np.convolve(x, theta[1:])[:len(x)]
        theta = theta + lapack.zpotrs(
            c, _design_adjoint(spectrum, resid, memory) - lam * theta)[0]
    return theta if np.all(np.isfinite(theta)) else None


def _check_pair(inp: ComplexEnvelope, out: ComplexEnvelope,
                memory: int) -> None:
    """Reject a pair that cannot determine ``memory`` taps and an offset."""
    _check_integer("memory", memory, 1)
    if inp.grid != out.grid:
        raise GridMismatchError("input and output grids differ")
    if inp.grid.n < memory + 1:
        raise InvalidSpecError(
            f"memory {memory} needs at least {memory + 1} samples, "
            f"got {inp.grid.n}")


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

    At ``lambda_reg > 0`` the fit is ``_gram_fit``: A^H A and A^H y from
    FFT correlations, one Cholesky solve and one refinement step, a
    fourth to a tenth of the cost of a QR of A. When ``zpotrf`` cannot
    factor A^H A + lambda_reg I, or that fit is not finite, it takes the
    SVD path below instead. Such a fit neither marks nor keeps a factor.

    Otherwise the design matrix A is built straight into TSQR blocks by
    the row builder that ``cross_validate`` also uses (``_design_tsqr``)
    and factored as A = Q R, each block's Householder reflectors applied
    to its rows of y as it is reduced; the fit solves R th = z,
    z = Q^H y. At ``lambda_reg = 0`` it back-substitutes on R when a
    bound on ||R^-1|| proves that no singular value reaches the cutoff
    above (see ``_back_substitutes``); otherwise it takes the SVD of R
    with that cutoff.

    The factor depends on the input alone, so an input fitted a second
    time at ``memory`` and ``lambda_reg = 0`` keeps it (a loop's target,
    from its second loop on): the first fit only marks the input, the
    second keeps the reflectors of the pass that reduces y once the
    factor is complete, together with ``_back_substitutes``' verdict on
    R, and every later fit takes one Q^H y, then one back-substitution
    (or the SVD, when the verdict was no) and no QR or bound, to the same
    bits. The first fit keeps none, because a kept factor, about
    n (memory + 1) complex values, costs an input fitted once more than
    it saves: the rest of its work runs in colder memory.
    """
    _check_pair(inp, out, memory)
    _check_real("lambda_reg", lambda_reg, 0)
    if lambda_reg > 0:
        theta = _gram_fit(inp.samples, out.samples, memory, lambda_reg)
        if theta is None:
            r, z = _design_tsqr(inp, memory, out.samples[:, None])
            theta = _solve(np.hstack((r, z)), inp.grid.n, lambda_reg)
        return VolterraModel(h0=theta[0], h1=theta[1:])
    c = out.samples[:, None]
    key = (_DESIGN_KEY, memory)
    with _LOCK:
        marked = key in inp._memo
        kept = inp._memo.setdefault(key, None)
    if kept is not None:
        levels, r, safe = kept
        z = _apply_qh(levels, c)
    else:
        levels = [] if marked else None
        r, z = _design_tsqr(inp, memory, c, levels)
        safe = _back_substitutes(r, inp.grid.n) if marked else None
        if marked:
            with _LOCK:
                if inp._memo[key] is None:
                    inp._memo[key] = (levels, r, safe)
    theta = _solve(np.hstack((r, z)), inp.grid.n, lambda_reg, safe)
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
        _check_integer("folds", self.folds, 2)
        grid = tuple(self.lambda_grid)
        if not grid:
            raise InvalidSpecError("lambda_grid must be nonempty")
        for v in grid:
            _check_real("lambda_grid value", v, 0)
        object.__setattr__(self, "lambda_grid", tuple(map(float, grid)))


def _fold_mse(grams: list, k: int, inp: ComplexEnvelope, lagged: np.ndarray,
              y: np.ndarray, lo: int, hi: int, span: tuple,
              lams) -> np.ndarray:
    """Validation MSE per ``lams`` entry of the fit without fold ``k``,
    whose rows are ``lo:hi``.

    The other folds' Gram matrices, summed in fold order, give
    G = [A | y]^H [A | y] over the training rows, so H = A^H A and
    b = A^H y. Each lam > 0 solves (H + lam I) th = b by one Cholesky
    factor (``zpotrf``, ``zpotrs``). lam = 0, and any lam whose shifted
    H does not factor, takes ``_ridge_path`` (minimum norm, with the
    ``lstsq`` cutoff) on an R factor of the training rows, made once and
    only then: the rows on each side of the fold by ``_design_tsqr``,
    their factors stacked and reduced. The normal equations square the
    condition number (Bjorck, *Numerical Methods for Least Squares
    Problems*, 2.2): on 144 gate pulses the held-out errors moved by at
    most 7.9e-9 relative from the orthogonal factor's, and lambda_star
    held. The errors are the mean squared residuals of the fold's rows:
    th0 - y on the rows that read only zeros of the input's nonzero
    ``span``, and the product with the rows ``_live_rows`` keeps, built
    again here, on the rest.
    """
    gram = sum(grams[:k] + grams[k + 1:])
    p = gram.shape[0] - 1
    n, memory = inp.grid.n, lagged.shape[1]
    thetas = np.empty((len(lams), p), dtype=complex)
    rest = []
    for i, lam in enumerate(lams):
        if lam > 0:
            shifted = np.array(gram[:p, :p], order="F")  # zpotrf's layout
            shifted.flat[::p + 1] += lam
            c, info = lapack.zpotrf(shifted, overwrite_a=True)
            if info == 0:
                thetas[i] = lapack.zpotrs(c, gram[:p, p])[0]
                continue
        rest.append(i)
    if rest:
        rz = _triangular(np.vstack([
            _design_tsqr(inp, memory, lo=a, hi=b, y=y)[0]
            for a, b in ((0, lo), (hi, n)) if a < b]))
        thetas[rest] = _ridge_path(rz, n - (hi - lo), [lams[i] for i in rest])
    r = thetas[:, :1] - y[lo:hi]
    c, d = _live_rows(span, memory, lo, hi)
    if c < d:
        val = _rows(lagged, c, d, y)
        r[:, c - lo:d - lo] = thetas @ val[:, :-1].T - val[:, -1]
    return np.mean(np.abs(r) ** 2, axis=1)


def cross_validate(inp: ComplexEnvelope, out: ComplexEnvelope, memory: int,
                   cv: CVConfig):
    """Pick the ridge weight with the lowest held-out error and fit with it.

    Splits the samples into ``cv.folds`` contiguous blocks; each serves
    once as the validation set while the model is fitted on the rest.
    Each block's [A | y]^H [A | y] is one dense product of its rows that
    read the input's nonzero span (``_fold_gram``), and a fold's fit
    sums the other blocks' and takes one Cholesky solve per lambda > 0;
    only lambda = 0, and a lambda whose shifted Gram does not factor,
    take a QR and an SVD of the training rows (``_fold_mse``).
    Everything runs on the calling thread.

    Returns ``(lambda_star, scores, model)``: ``scores`` is an array of
    (lambda, mean validation MSE) rows in grid order, lambda_star attains
    the table minimum (first entry on ties), and ``model`` is
    ``estimate_kernel(inp, out, memory, lambda_star)``, bit for bit. At
    lambda_star > 0 that is a Gram fit with one refinement step, which
    was within 7.1e-10 relative of the whole design matrix's SVD fit on
    144 gate pulses.
    """
    _check_pair(inp, out, memory)
    n = inp.grid.n
    if cv.folds > n:
        raise InvalidSpecError(
            f"cannot split {n} samples into {cv.folds} folds")
    y, lagged = out.samples, _lagged(inp.samples, memory)
    bounds = [(fold[0], fold[-1] + 1)
              for fold in np.array_split(np.arange(n), cv.folds)]
    span = _support(inp.samples)
    grams = [_fold_gram(lagged, lo, hi, y, span) for lo, hi in bounds]
    fold_mse = [_fold_mse(grams, k, inp, lagged, y, lo, hi, span,
                          cv.lambda_grid)
                for k, (lo, hi) in enumerate(bounds)]
    scores = np.column_stack([cv.lambda_grid, sum(fold_mse) / cv.folds])
    lambda_star = float(scores[np.argmin(scores[:, 1]), 0])
    return lambda_star, scores, estimate_kernel(inp, out, memory, lambda_star)
