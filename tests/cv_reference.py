"""Serial references for ``sysid.cross_validate``, built from public
pieces and the module's own factor and ridge helpers.

Two fold scorers give each fold's ridge fits, one row per lambda:

- ``fold_thetas_by_svd`` reduces the other folds' stacked factors by
  TSQR and takes one SVD for the whole grid. It is the orthogonal-factor
  scorer that the Gram scores are checked against.
- ``fold_thetas_by_cholesky`` follows ``cross_validate``'s rule: a
  Cholesky solve on the other folds' summed Gram matrices for each
  lambda > 0, and the SVD path, once per fold, for lambda = 0 and any
  lambda whose shifted Gram does not factor.
"""

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from pulseloop import sysid
from pulseloop.sysid import VolterraModel, build_design_matrix


def reference_factors(inp, out, memory, folds):
    """The folds of [A | y], their factors and the whole factor, from
    public pieces: the folds are ``np.array_split`` views of one
    ``np.hstack`` of the design matrix and y, each reduced by
    ``_triangular``, and the whole factor reduces the folds' stacked
    factors, or all rows when they fit one TSQR block."""
    rows = np.hstack((build_design_matrix(inp, memory), out.samples[:, None]))
    parts = np.array_split(rows, folds)
    factors = [sysid._triangular(part) for part in parts]
    if len(rows) > sysid._TSQR_BLOCK * rows.shape[1]:
        rows = np.vstack(factors)
    return parts, factors, sysid._triangular(rows)


def fold_thetas_by_svd(factors, k, n_train, lams):
    """Fits without fold ``k``: ``_ridge_path`` on the TSQR of the other
    folds' stacked factors, for every lambda at once."""
    rz = sysid._triangular(np.vstack(factors[:k] + factors[k + 1:]))
    return sysid._ridge_path(rz, n_train, lams)


def fold_thetas_by_cholesky(factors, k, n_train, lams):
    """Fits without fold ``k``: for lambda > 0, (H + lambda I) th = b on
    the other folds' Gram matrices r^H r, summed in fold order, with H
    the leading block and b the last column; lambda = 0 and any shifted H
    that does not factor take ``fold_thetas_by_svd``, in one call."""
    grams = [f.conj().T @ f for f in factors]
    gram = sum(grams[:k] + grams[k + 1:])
    p = gram.shape[0] - 1
    thetas = np.empty((len(lams), p), dtype=complex)
    rest = []
    for i, lam in enumerate(lams):
        if lam > 0:
            try:
                c = cho_factor(gram[:p, :p] + lam * np.eye(p))
            except LinAlgError:
                pass
            else:
                thetas[i] = cho_solve(c, gram[:p, p])
                continue
        rest.append(i)
    if rest:
        thetas[rest] = fold_thetas_by_svd(factors, k, n_train,
                                          [lams[i] for i in rest])
    return thetas


def serial_cross_validate(inp, out, memory, cv,
                          fold_thetas=fold_thetas_by_cholesky):
    """``cross_validate`` as one thread runs it, every factor in turn,
    with each fold's fits from ``fold_thetas``; the model is the whole
    factor's ridge fit at lambda_star."""
    n = inp.grid.n
    parts, factors, whole = reference_factors(inp, out, memory, cv.folds)
    mse_sum = np.zeros(len(cv.lambda_grid))
    for k, val in enumerate(parts):
        thetas = fold_thetas(factors, k, n - len(val), cv.lambda_grid)
        r = thetas @ val[:, :-1].T - val[:, -1]
        mse_sum += np.mean(np.abs(r) ** 2, axis=1)
    scores = np.column_stack([cv.lambda_grid, mse_sum / cv.folds])
    lambda_star = float(scores[np.argmin(scores[:, 1]), 0])
    theta = sysid._ridge_path(whole, n, [lambda_star])[0]
    return lambda_star, scores, VolterraModel(h0=theta[0], h1=theta[1:])


def assert_matches_the_svd_scorer(got, inp, out, memory, cv):
    """``cross_validate``'s ``got`` against ``fold_thetas_by_svd``'s
    scores: the scores to rtol 1e-7, lambda_star equal, the model bit
    for bit."""
    lam, scores, model = serial_cross_validate(inp, out, memory, cv,
                                               fold_thetas_by_svd)
    np.testing.assert_array_equal(got[1][:, 0], scores[:, 0])
    np.testing.assert_allclose(got[1][:, 1], scores[:, 1], rtol=1e-7)
    assert got[0] == lam
    assert got[2].h0 == model.h0
    assert np.array_equal(got[2].h1, model.h1)
