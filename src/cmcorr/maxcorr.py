"""Maximal correlation via the Witsenhausen matrix and its SVD.

The normalized joint matrix P~[x, y] = p(x, y) / sqrt(p(x) p(y)) always has
top singular value 1 with singular vectors sqrt(p(x)) and sqrt(p(y)).  The
second singular value is the maximal correlation, and rescaling the second
singular vectors by 1 / sqrt(p) gives optimal zero-mean unit-variance
witnesses.  To keep that structure exact even when the spectrum is
degenerate, the top pair is peeled off analytically before calling the
numerical SVD (see :func:`residual_singular_pairs`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dist import (
    CorrelationReport,
    JointPmf,
    ScoredPair,
    marginal_x,
    marginal_y,
    pair_stats,
    restrict_to_support,
)
from .errors import (
    NonFiniteValue,
    NumericalFailure,
    SizeTooLarge,
    ZeroMarginal,
)

_SIZE_LIMIT = 4096
_NULL_WITNESS_TOL = 1e-12


@dataclass(frozen=True)
class SvdBundle:
    """Singular values (descending) with matched orthonormal vector families.

    ``left_vectors[i]`` and ``right_vectors[i]`` are the vectors paired with
    ``singular_values[i]``; each family is orthonormal within 1e-8 and the
    weighted outer-product sum reconstructs the input within 1e-8.
    """

    singular_values: np.ndarray
    left_vectors: np.ndarray
    right_vectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.left_vectors.T * self.singular_values) @ \
            self.right_vectors


def _normalized(p: np.ndarray, px: np.ndarray, py: np.ndarray) -> np.ndarray:
    if (px <= 0.0).any() or (py <= 0.0).any():
        raise ZeroMarginal("strip zero-mass symbols before normalizing")
    return p / np.sqrt(px[..., :, None] * py[..., None, :])


def witsenhausen_matrix(j: JointPmf) -> np.ndarray:
    """p(x, y) / sqrt(p(x) p(y)); marginals must be strictly positive."""
    return _normalized(j.p, marginal_x(j), marginal_y(j))


def _fix_signs(left: np.ndarray, right: np.ndarray) -> None:
    """First coordinate of each left vector that exceeds 1e-12 is made
    positive, flipping the matched right vector along with it.

    The vectors are the rows of the last two axes, so a stack of
    decompositions is fixed in one pass.
    """
    # the first coordinate beyond 1e-12 is negative exactly when it is
    # also the first one below -1e-12
    neg = left < -1e-12
    flip = neg.any(axis=-1) & \
        (neg.argmax(axis=-1) == (np.abs(left) > 1e-12).argmax(axis=-1))
    sign = np.where(flip, -1.0, 1.0)[..., None]
    left *= sign
    right *= sign


def _svd(arr: np.ndarray):
    """Thin SVD of every matrix in ``arr[..., m, n]``, signs fixed.

    Returns ``(values, left, right)`` with the singular vectors as rows.
    """
    if not np.isfinite(arr).all():
        raise NonFiniteValue("matrix entries must be finite")
    if arr.shape[-2] * arr.shape[-1] > _SIZE_LIMIT:
        raise SizeTooLarge(f"matrix has more than {_SIZE_LIMIT} entries")
    try:
        u, s, vt = np.linalg.svd(arr, full_matrices=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise NumericalFailure(f"SVD did not converge: {exc}") from exc
    left = np.ascontiguousarray(np.swapaxes(u, -1, -2))
    _fix_signs(left, vt)
    return s, left, vt


def decompose(m) -> SvdBundle:
    """Full thin SVD with a deterministic sign convention."""
    arr = np.asarray(m, dtype=float)
    if arr.ndim != 2:
        raise NonFiniteValue("input must be a matrix")
    s, left, right = _svd(arr)
    return SvdBundle(singular_values=s, left_vectors=left,
                     right_vectors=right)


def residual_spectra(p: np.ndarray):
    """:func:`residual_singular_pairs` for a stack of pmf matrices.

    ``p[..., m, n]`` holds normalized pmfs with positive marginals, all
    decomposed by one stacked SVD.  Returns ``(values, left, right)`` of
    shapes ``(..., r)``, ``(..., r, m)`` and ``(..., r, n)``, where
    r = min(m, n) - 1.
    """
    px = p.sum(axis=-1)
    py = p.sum(axis=-2)
    top = np.sqrt(px)[..., :, None] * np.sqrt(py)[..., None, :]
    values, left, right = _svd(_normalized(p, px, py) - top)
    keep = min(p.shape[-2:]) - 1
    return values[..., :keep], left[..., :keep, :], right[..., :keep, :]


def residual_singular_pairs(j: JointPmf):
    """Singular pairs of the Witsenhausen matrix below the analytic top pair.

    Deflates the exactly known top pair (1, sqrt(px), sqrt(py)) and
    decomposes the residual, returning ``(values, left, right)`` for the
    remaining min(m, n) - 1 pairs in descending order.  Every pair with a
    positive value is exactly orthogonal to the top pair, which is what
    makes the rescaled witnesses zero-mean.
    """
    return residual_spectra(j.p)


def maximal_correlation(j: JointPmf) -> CorrelationReport:
    """Second singular value of the Witsenhausen matrix, with witnesses."""
    sub, keep_x, keep_y = restrict_to_support(
        j, "maximal correlation needs two support symbols per side")
    values, left, right = residual_singular_pairs(sub)
    lam2 = float(values[0]) if values.size else 0.0
    if lam2 < -1e-8 or lam2 > 1.0 + 1e-8:
        raise NumericalFailure(
            f"second singular value {lam2!r} outside [0, 1]"
        )
    value = min(max(lam2, 0.0), 1.0)

    witness = None
    if lam2 > _NULL_WITNESS_TOL:
        f_sub = left[0] / np.sqrt(marginal_x(sub))
        g_sub = right[0] / np.sqrt(marginal_y(sub))
        f = np.zeros(j.shape[0])
        g = np.zeros(j.shape[1])
        f[list(keep_x)] = f_sub
        g[list(keep_y)] = g_sub
        witness = ScoredPair(f=f, g=g)
        if pair_stats(j, witness).cov < 0:
            witness = ScoredPair(f=f, g=-g)

    return CorrelationReport(
        measure="maximal_correlation",
        value=value,
        witness=witness,
        diagnostics={
            "mode": "witsenhausen_svd",
            "raw_second_singular_value": lam2,
            "support_shape": sub.shape,
        },
    )
