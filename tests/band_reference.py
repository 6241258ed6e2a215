"""Banded references for ``loop.offline_iterate``'s normal equations.

The damped normal matrix J^H J + mu I of the banded Toeplitz Jacobian is
Hermitian with M - 1 subdiagonals. ``normal_banded`` builds its lower
band in LAPACK's layout, and ``solveh_banded`` on that band is the
reference that the offline solver and the learning step are checked
against.
"""

import numpy as np
from scipy.linalg import solveh_banded

from pulseloop import loop
from pulseloop.loop import _adjoint


def normal_banded(h1, n):
    """Lower-banded storage of J^H J for the n x n Jacobian of ``h1``.

    Row d holds G[c + d, c] = sum_k conj(h1[k]) h1[k + d] over the k with
    k + d < M and c + d + k < n: the kernel autocorrelation at lag d,
    truncated where the taps run past the signal end in the last M - 1
    columns; entries outside the matrix are zero. Every column gathers
    its entry from the M x M partial sums of the lag products.
    """
    m = len(h1)
    padded = np.concatenate([h1, np.zeros(m - 1, dtype=complex)])
    lag = np.arange(m)[:, None]
    partial = np.cumsum(h1.conj() * padded[lag + np.arange(m)], axis=1)
    last = n - 1 - lag - np.arange(n)
    ab = np.take_along_axis(partial, np.clip(last, 0, m - 1), axis=1)
    ab[last < 0] = 0
    return ab


def damped_band_solve(h1, v):
    """(J^H J + mu I)^-1 v, mu = ``loop._DAMPING``, by ``solveh_banded``."""
    ab = normal_banded(h1, len(v))
    ab[0] += loop._DAMPING
    return solveh_banded(ab, v, lower=True)


def band_tikhonov_steps(model, target, steps):
    """``steps`` iterated-Tikhonov steps from the target's samples, each
    solved by ``damped_band_solve``; returns the input after each."""
    t = target.samples
    n = len(t)
    inputs = [t]
    for _ in range(steps):
        s = inputs[-1]
        residual = t - (np.convolve(s, model.h1)[:n] + model.h0)
        inputs.append(s + damped_band_solve(model.h1,
                                            _adjoint(model.h1, residual)))
    return inputs[1:]
