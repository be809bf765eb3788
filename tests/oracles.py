"""Dense reference computations that several test modules compare against."""

import numpy as np

from blockrg import decay, multiscale as ms


def free_laplacian_1d(patch) -> np.ndarray:
    """Free-stencil Laplacian value matrix on a 1-d patch; the two edge rows
    miss a neighbor and are left out of comparisons (``interior_mask``)."""
    n = patch.site_count
    return (np.eye(n, k=1) + np.eye(n, k=-1) - 2.0 * np.eye(n)) / patch.spacing**2


def interior_mask(patch) -> np.ndarray:
    inner = np.ones(patch.site_count, dtype=bool)
    inner[[0, -1]] = False
    return inner


def dense_sigmas(g, params, q_list):
    """``(sigma_min, sigma_max)`` of each dense ``D_q`` by a full SVD."""
    s = np.array([np.linalg.svd(decay.conjugated_operator(g, params, q).matrix,
                                compute_uv=False)[[-1, 0]] for q in q_list])
    return s[:, 0], s[:, 1]


def assert_ct_sigmas_match_dense_svd(g, params, q_list):
    """The Lanczos sigma_min(D_q) within the dense SVD's own rounding
    ``16 eps |D_q|_2`` of it, and of the frequency-class lambda_min at q = 0."""
    rep = decay.ct_bound_report(g, params, q_list, np.random.default_rng(0))
    smin, smax = dense_sigmas(g, params, q_list)
    tol = 16 * np.finfo(float).eps * smax
    sigmas = np.array(rep.min_singular_values)
    assert np.all(np.abs(sigmas - smin) <= tol)
    at_zero = [not np.any(q) for q in q_list]
    if any(at_zero):
        lam = ms.defining_min_eigenvalue(g, params, g.k)
        assert np.all(np.abs(sigmas[at_zero] - lam) <= tol[at_zero])


def assert_inverse_blocks_match(rows, Minv):
    """``rows.inverse`` (a ``multiscale.RankOneRows``) against the dense
    inverse blocks ``Minv``, shape ``(rows, S, S)``, each row within 1e-13
    of its own block's Frobenius norm, for all rows and for a slice of them;
    and ``solve`` of one-hot columns against it."""
    n, S = Minv.shape[:2]

    def close(X, Y):
        err = np.linalg.norm(X - Y, axis=(1, 2)) / np.linalg.norm(Y, axis=(1, 2))
        assert np.all(err <= 1e-13), err.max()

    full = rows.inverse(slice(None))
    close(full, Minv)
    part = slice(n // 3, max(n // 3 + 1, n - 1))
    assert np.array_equal(rows.inverse(part), full[part])
    close(rows.solve(np.broadcast_to(np.eye(S), (n, S, S))), full)
