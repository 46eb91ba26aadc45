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

import math

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
    CmcorrError,
    NonFiniteValue,
    NumericalFailure,
    SizeTooLarge,
    ZeroMarginal,
)

_SIZE_LIMIT = 4096
# About how many pmf entries one batch of maximal_correlations decomposes.
_BATCH_ENTRIES = 2 ** 15
_NULL_WITNESS_TOL = 1e-12


def _normalized(p: np.ndarray, px: np.ndarray, py: np.ndarray,
               pad_x: int = 0, pad_y: int = 0) -> np.ndarray:
    """p / sqrt(px py) for marginals ``px``, ``py`` of which exactly
    ``pad_x`` and ``pad_y`` entries are padding with zero mass; the
    padded entries of the result are zero.  Every other marginal must be
    strictly positive."""
    if np.count_nonzero(px <= 0.0) > pad_x or \
            np.count_nonzero(py <= 0.0) > pad_y:
        raise ZeroMarginal("strip zero-mass symbols before normalizing")
    if pad_x:
        px = np.where(px == 0.0, 1.0, px)
    if pad_y:
        py = np.where(py == 0.0, 1.0, py)
    return p / np.sqrt(px[..., :, None] * py[..., None, :])


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


def _check(arr: np.ndarray, entries: int) -> None:
    """The guards of every decomposition: finite entries, and at most
    ``_SIZE_LIMIT`` entries in each matrix decomposed."""
    if not np.isfinite(arr).all():
        raise NonFiniteValue("matrix entries must be finite")
    if entries > _SIZE_LIMIT:
        raise SizeTooLarge(f"matrix has more than {_SIZE_LIMIT} entries")


def _lapack(arr: np.ndarray):
    """``np.linalg.svd(arr, full_matrices=False)``, with a failure to
    converge raised as :class:`NumericalFailure`."""
    try:
        return np.linalg.svd(arr, full_matrices=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise NumericalFailure(f"SVD did not converge: {exc}") from exc


def padded_residual_spectra(p: np.ndarray, runs_x, runs_y):
    """:func:`residual_singular_pairs` of every face in padded stacks.

    ``p[..., a, b]`` (..., Ax, Ay, nx, ny) holds a normalized pmf in its
    leading (kx, ky) block and zeros past it; the leading axes, if any,
    index stacks of the same faces, such as the faces of several pmfs.
    ``runs_x`` lists ``(kx, start, stop)`` in order, covering
    ``range(Ax)``: the faces ``a`` in ``[start, stop)`` have kx X blocks;
    ``runs_y`` does the same for ``b`` and ky.  The marginals, the deflated
    residual, the guards and the sign fixing run once on the padded
    stacks; only the SVD runs per shape (kx, ky), on that shape's
    contiguous blocks of every stack, so a face gets the bits it would get
    alone.

    Returns ``(values, real, left, right, px, py)`` of shapes
    (..., Ax, Ay, r), (..., Ax, Ay, r), (..., Ax, Ay, r, nx),
    (..., Ax, Ay, r, ny), (..., Ax, Ay, nx) and (..., Ax, Ay, ny), where r
    is the longest residual spectrum min(kx, ky) - 1 of the stack.
    ``real`` marks the indices within each face's own spectrum; every
    other entry is zero.  ``px`` and ``py`` are the marginals the residual
    was deflated with, zero past each face's blocks.
    """
    *lead, ax, ay, nx, ny = p.shape
    # a marginal sums only a face's own k entries: summed over the padded
    # layout, it would round differently from 8 entries on
    px = np.concatenate([p[..., ya:yb, :, :ky].sum(axis=-1)
                         for ky, ya, yb in runs_y], axis=-2)
    py = np.concatenate([p[..., xa:xb, :, :kx, :].sum(axis=-2)
                         for kx, xa, xb in runs_x], axis=-3)
    stacks = math.prod(lead)
    real_x = stacks * ay * sum((b - a) * k for k, a, b in runs_x)
    real_y = stacks * ax * sum((b - a) * k for k, a, b in runs_y)
    top = np.sqrt(px)[..., :, None] * np.sqrt(py)[..., None, :]
    resid = _normalized(p, px, py, px.size - real_x, py.size - real_y) - top
    max_x = max(k for k, _, _ in runs_x)
    max_y = max(k for k, _, _ in runs_y)
    _check(resid, max_x * max_y)
    width = min(max_x, max_y) - 1
    values = np.zeros((*lead, ax, ay, width))
    real = np.zeros((*lead, ax, ay, width), dtype=bool)
    left = np.zeros((*lead, ax, ay, width, nx))
    right = np.zeros((*lead, ax, ay, width, ny))
    for kx, xa, xb in runs_x:
        for ky, ya, yb in runs_y:
            u, s, vt = _lapack(np.ascontiguousarray(
                resid[..., xa:xb, ya:yb, :kx, :ky]))
            r = min(kx, ky) - 1
            values[..., xa:xb, ya:yb, :r] = s[..., :r]
            real[..., xa:xb, ya:yb, :r] = True
            left[..., xa:xb, ya:yb, :r, :kx] = np.swapaxes(u[..., :r], -1, -2)
            right[..., xa:xb, ya:yb, :r, :ky] = vt[..., :r, :]
    # trailing zeros never decide a sign, so the padding changes nothing
    _fix_signs(left, right)
    return values, real, left, right, px, py


def residual_singular_pairs(j: JointPmf):
    """Singular pairs of the Witsenhausen matrix below the analytic top pair.

    Deflates the exactly known top pair (1, sqrt(px), sqrt(py)) and
    decomposes the residual, returning ``(values, left, right)`` for the
    remaining min(m, n) - 1 pairs in descending order.  Every pair with a
    positive value is exactly orthogonal to the top pair, which is what
    makes the rescaled witnesses zero-mean.  The marginals must be
    positive; this is the one-face case of :func:`padded_residual_spectra`.
    """
    m, n = j.shape
    values, _, left, right, _, _ = padded_residual_spectra(
        j.p[None, None], ((m, 0, 1),), ((n, 0, 1),))
    return values[0, 0], left[0, 0], right[0, 0]


_SUPPORT_MESSAGE = "maximal correlation needs two support symbols per side"


def _clipped(lam2: float) -> float:
    """The second singular value ``lam2`` clipped to [0, 1]; raises
    :class:`NumericalFailure` when it lies outside by more than 1e-8."""
    if lam2 < -1e-8 or lam2 > 1.0 + 1e-8:
        raise NumericalFailure(
            f"second singular value {lam2!r} outside [0, 1]"
        )
    return min(max(lam2, 0.0), 1.0)


def maximal_correlation(j: JointPmf) -> CorrelationReport:
    """Second singular value of the Witsenhausen matrix, with witnesses."""
    sub, keep_x, keep_y = restrict_to_support(j, _SUPPORT_MESSAGE)
    values, left, right = residual_singular_pairs(sub)
    lam2 = float(values[0])
    value = _clipped(lam2)

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


def maximal_correlations(js) -> list[float]:
    """``maximal_correlation(j).value`` of each pmf of ``js``, in input
    order, without witnesses.

    Each pmf is restricted to its support, and the pmfs of one support
    shape are decomposed by one :func:`padded_residual_spectra` call with
    a leading pmf axis, in batches of at most about ``_BATCH_ENTRIES``
    pmf entries; its stacked SVD gives each matrix the bits it gets
    alone.  The error raised is the one the first failing pmf in input
    order raises alone; an error of a shape's shared decomposition is its
    first pmf's.
    """
    out: list = [None] * len(js)
    failed: dict[int, CmcorrError] = {}
    groups: dict[tuple[int, int], list] = {}
    for i, j in enumerate(js):
        try:
            sub = restrict_to_support(j, _SUPPORT_MESSAGE)[0]
        except CmcorrError as exc:
            failed[i] = exc
            break  # no later pmf can fail first
        groups.setdefault(sub.shape, []).append((i, sub.p))
    for (m, n), members in groups.items():
        step = max(1, _BATCH_ENTRIES // (m * n))
        for first in range(0, len(members), step):
            batch = members[first:first + step]
            try:
                values = padded_residual_spectra(
                    np.array([p for _, p in batch])[:, None, None],
                    ((m, 0, 1),), ((n, 0, 1),))[0]
            except CmcorrError as exc:
                failed[batch[0][0]] = exc
                break  # the shape's later pmfs fail alike
            for (i, _), lam2 in zip(batch, values[:, 0, 0, 0].tolist()):
                try:
                    out[i] = _clipped(lam2)
                except CmcorrError as exc:
                    failed[i] = exc
    if failed:
        raise failed[min(failed)]
    return out
