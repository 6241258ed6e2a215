"""Serial references for ``sysid.cross_validate``, built from public
pieces and the module's own Gram, factor and ridge helpers.

Two fold scorers give each fold's ridge fits, one row per lambda:

- ``fold_thetas_by_svd`` reduces the training rows to an R factor
  (``training_factor``) and takes one SVD for the whole grid. It is the
  orthogonal-factor scorer that the Gram scores are checked against.
- ``fold_thetas_by_cholesky`` follows ``cross_validate``'s rule: a
  Cholesky solve on the other folds' summed Gram matrices (``_fold_gram``
  on each fold's rows) for each lambda > 0, and the SVD path, once per
  fold, for lambda = 0 and any lambda whose shifted Gram does not factor.

A fold's held-out residuals are th0 - y on the rows that read only zeros
of the input, and the product with the fold's rows on the rest, as
``cross_validate`` takes them, so ``serial_cross_validate`` with the
Cholesky scorer gives its bits.

The model is ``estimate_kernel`` at lambda_star; ``whole_factor_fit`` is
the orthogonal-factor fit of all rows that it is checked against.
"""

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from pulseloop import sysid
from pulseloop.sysid import build_design_matrix, estimate_kernel


def fold_parts(inp, out, memory, folds):
    """The folds' rows of [A | y], from public pieces: ``np.array_split``
    views of one ``np.hstack`` of the design matrix and y."""
    rows = np.hstack((build_design_matrix(inp, memory), out.samples[:, None]))
    return np.array_split(rows, folds)


def fold_grams(inp, out, memory, parts):
    """Each fold's [A | y]^H [A | y] by ``sysid._fold_gram`` on its rows."""
    lagged = sysid._lagged(inp.samples, memory)
    span = sysid._support(inp.samples)
    grams, lo = [], 0
    for part in parts:
        grams.append(sysid._fold_gram(lagged, lo, lo + len(part), out.samples,
                                      span))
        lo += len(part)
    return grams


def fold_residuals(thetas, val, lo, memory, span):
    """Residuals of the fits ``thetas`` on the fold rows ``val`` of
    [A | y], the first of them row ``lo``: th0 - y on the rows outside
    [a, b + memory - 1) for the input's nonzero ``span`` [a, b), whose
    lag entries are all zero, and the full product on the rest."""
    r = thetas[:, :1] - val[:, -1]
    a, b = span
    c, d = max(lo, a) - lo, min(lo + len(val), b + memory - 1) - lo
    if a < b and c < d:
        r[:, c:d] = thetas @ val[c:d, :-1].T - val[c:d, -1]
    return r


def training_factor(parts, k):
    """R factor of the rows of every fold but ``k``: the rows before and
    after the fold, each reduced by ``_triangular``, then the two factors
    stacked and reduced again."""
    sides = [np.vstack(side) for side in (parts[:k], parts[k + 1:]) if side]
    return sysid._triangular(np.vstack([sysid._triangular(side)
                                        for side in sides]))


def fold_thetas_by_svd(grams, parts, k, lams):
    """Fits without fold ``k``: ``_ridge_path`` on ``training_factor``,
    for every lambda at once."""
    n_train = sum(len(part) for part in parts) - len(parts[k])
    return sysid._ridge_path(training_factor(parts, k), n_train, lams)


def fold_thetas_by_cholesky(grams, parts, k, lams):
    """Fits without fold ``k``: for lambda > 0, (H + lambda I) th = b on
    the other folds' Gram matrices, summed in fold order, with H the
    leading block and b the last column; lambda = 0 and any shifted H
    that does not factor take ``fold_thetas_by_svd``, in one call."""
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
        thetas[rest] = fold_thetas_by_svd(grams, parts, k,
                                          [lams[i] for i in rest])
    return thetas


def serial_cross_validate(inp, out, memory, cv,
                          fold_thetas=fold_thetas_by_cholesky, clipped=True):
    """``cross_validate`` fold by fold, with each fold's fits from
    ``fold_thetas`` and its error from ``fold_residuals`` on its rows;
    the model is ``estimate_kernel`` at lambda_star. With ``clipped``
    false, every row of every fold is built: each fold's Gram matrix is
    the product of its rows with themselves, and its residuals are those
    of all its rows."""
    parts = fold_parts(inp, out, memory, cv.folds)
    if clipped:
        grams = fold_grams(inp, out, memory, parts)
        span = sysid._support(inp.samples)
    else:
        grams = [part.conj().T @ part for part in parts]
        span = (0, inp.grid.n)
    mse_sum, lo = np.zeros(len(cv.lambda_grid)), 0
    for k, val in enumerate(parts):
        thetas = fold_thetas(grams, parts, k, cv.lambda_grid)
        r = fold_residuals(thetas, val, lo, memory, span)
        mse_sum += np.mean(np.abs(r) ** 2, axis=1)
        lo += len(val)
    scores = np.column_stack([cv.lambda_grid, mse_sum / cv.folds])
    lambda_star = float(scores[np.argmin(scores[:, 1]), 0])
    return lambda_star, scores, estimate_kernel(inp, out, memory, lambda_star)


def whole_factor_fit(inp, out, memory, lam, folds=5):
    """Coefficients [h0, h1] of the ridge fit at ``lam`` by the SVD of an R
    factor of all rows of [A | y]: the folds' factors stacked and reduced
    again, or all rows at once when they fit one TSQR block. Another
    reduction of the same rows moved this fit by up to 1.2e-9 relative
    on 2 us gate pulses."""
    rows = np.hstack((build_design_matrix(inp, memory), out.samples[:, None]))
    if len(rows) > sysid._TSQR_BLOCK * rows.shape[1]:
        rows = np.vstack([sysid._triangular(part)
                          for part in np.array_split(rows, folds)])
    return sysid._ridge_path(sysid._triangular(rows), inp.grid.n, [lam])[0]


def assert_matches_the_svd_scorer(got, inp, out, memory, cv):
    """``cross_validate``'s ``got`` against ``fold_thetas_by_svd``'s
    scores: the scores to rtol 1e-7 and lambda_star equal; the model is
    ``estimate_kernel`` at lambda_star, bit for bit."""
    lam, scores, model = serial_cross_validate(inp, out, memory, cv,
                                               fold_thetas_by_svd)
    np.testing.assert_array_equal(got[1][:, 0], scores[:, 0])
    np.testing.assert_allclose(got[1][:, 1], scores[:, 1], rtol=1e-7)
    assert got[0] == lam
    assert got[2].h0 == model.h0
    assert np.array_equal(got[2].h1, model.h1)
