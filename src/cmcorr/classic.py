"""Classical correlation measures: Pearson, Spearman, Kendall tau-b, and
Daniels' (1944) generalized correlation coefficient, the two-sample
rank-correlation functional of monotone pair comparators.

All expectations are exact finite sums over the joint pmf; the two-sample
functional sums over independent outcome pairs drawn from it.  Spearman
uses mid-distribution grades, the tie-consistent discrete analogue of the
CDF transform, taken for every symbol in one padded pass.  Kendall
tau-b is the functional's sign case, computed by its one body.
:func:`rank_correlations` gives both for many pmfs: the grades of the pmfs
that share their keys in one pass, and their sign matrices once, while
each pmf's moments are still taken alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dist import JointPmf, ScoredPair, marginal_x, marginal_y, pair_stats
from .errors import (
    MissingValues,
    NotMonotoneComparator,
    ShapeMismatch,
    ZeroVariance,
)

_COMPARATOR_TOL = 1e-12


def _keys(j: JointPmf, side: str) -> np.ndarray:
    """Numeric keys that order a side: embeddings if present, else indices."""
    if side == "x":
        vals, k = j.x_values, j.shape[0]
    else:
        vals, k = j.y_values, j.shape[1]
    if vals is None:
        return np.arange(k, dtype=float)
    return np.asarray(vals, dtype=float)


def _correlation(j: JointPmf, f, g, constant: str) -> float:
    """Pearson coefficient of the scores (f(X), g(Y)); raises
    :class:`ZeroVariance` with the message ``constant`` when either score
    is constant on its support."""
    stats = pair_stats(j, ScoredPair(f=f, g=g))
    if stats.var_f <= 0.0 or stats.var_g <= 0.0:
        raise ZeroVariance(constant)
    return stats.cov / math.sqrt(stats.var_f * stats.var_g)


def pearson(j: JointPmf) -> float:
    """Pearson coefficient of the numerically embedded pair."""
    if j.x_values is None or j.y_values is None:
        raise MissingValues("pearson needs numeric embeddings on both sides")
    return _correlation(j, np.asarray(j.x_values), np.asarray(j.y_values),
                        "an embedded variable is constant on its support")


def grades(marginal) -> np.ndarray:
    """Mid-distribution grades G(i) = sum_{k<i} p(k) + p(i)/2 in index order."""
    w = np.asarray(marginal, dtype=float)
    return np.cumsum(w) - w / 2.0


# About how many numbers one padded sum of the grades may hold.
_GRADE_ENTRIES = 2 ** 18


def _value_grades(weights: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Mid-distribution grades of each row of ``weights`` (..., k) with
    respect to the key order, tie-aware: the mass strictly below a
    symbol's key plus half the mass at it.

    Both masses of every symbol come from one padded pass, summed over the
    whole row with the other symbols' weights zeroed (symbols in slices of
    about ``_GRADE_ENTRIES`` numbers); tied symbols get equal sums.  For
    fewer than 8 symbols numpy sums a row one by one, so this is bit for
    bit the sum over the selected symbols alone; from 8 on its pairwise
    summation moves a grade by a few ulp.
    """
    w = weights[..., None, :]
    step = max(1, _GRADE_ENTRIES // max(1, weights.size))
    out = []
    for a in range(0, len(keys), step):
        v = keys[a:a + step, None]
        out.append(np.where(keys < v, w, 0.0).sum(axis=-1)
                   + np.where(keys == v, w, 0.0).sum(axis=-1) / 2.0)
    return np.concatenate(out, axis=-1)


def x_grades(j: JointPmf) -> np.ndarray:
    return _value_grades(marginal_x(j), _keys(j, "x"))


def y_grades(j: JointPmf) -> np.ndarray:
    return _value_grades(marginal_y(j), _keys(j, "y"))


def spearman(j: JointPmf) -> float:
    """Pearson coefficient of the grade-transformed pair."""
    return _spearman(j, x_grades(j), y_grades(j))


def _spearman(j: JointPmf, gx: np.ndarray, gy: np.ndarray) -> float:
    return _correlation(j, gx, gy, "grades are constant on one side")


def kendall_tau_b(j: JointPmf) -> float:
    """Tau-b, the sign case of :func:`pair_rank_correlation`: the Pearson
    coefficient of sign(X1 - X2) and sign(Y1 - Y2).  Signs of the keys are
    monotone in them by construction, so they skip the comparator check."""
    return _pair_correlation(j, _signs(_keys(j, "x")), _signs(_keys(j, "y")))


def rank_correlations(js) -> list[tuple[float, float]]:
    """``(kendall_tau_b(j), spearman(j))`` of each pmf of ``js``, in
    input order, each bit for bit.

    The pmfs whose keys agree share one pass: their grades come from one
    padded sum over the stacked marginals, and their sign matrices are
    built once.  Each pmf's moments are then taken alone, tau-b first, so
    the error raised is the one the first failing pmf raises alone.
    """
    groups: dict[tuple[bytes, bytes], list[int]] = {}
    keys = [(_keys(j, "x"), _keys(j, "y")) for j in js]
    for i, (kx, ky) in enumerate(keys):
        groups.setdefault((kx.tobytes(), ky.tobytes()), []).append(i)
    shared: list = [None] * len(js)
    for members in groups.values():
        kx, ky = keys[members[0]]
        gx = _value_grades(np.array([marginal_x(js[i]) for i in members]), kx)
        gy = _value_grades(np.array([marginal_y(js[i]) for i in members]), ky)
        signs = _signs(kx), _signs(ky)
        for b, i in enumerate(members):
            shared[i] = signs, gx[b], gy[b]
    return [(_pair_correlation(j, *signs), _spearman(j, gx, gy))
            for j, (signs, gx, gy) in zip(js, shared)]


@dataclass(frozen=True)
class PairComparator:
    """A relative-rank function on outcome pairs of one side.

    ``values[a, b]`` scores how much symbol ``a`` outranks symbol ``b``.
    It must be non-decreasing in ``a`` and non-increasing in ``b`` with
    respect to the side's key order.
    """

    values: np.ndarray

    def __post_init__(self):
        arr = np.array(self.values, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ShapeMismatch("comparator must be a square matrix")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)


def sign_comparator(keys) -> PairComparator:
    k = np.asarray(keys, dtype=float)
    return PairComparator(values=np.sign(np.subtract.outer(k, k)))


def _check_comparator(comp: PairComparator, keys: np.ndarray,
                      name: str) -> None:
    vals = comp.values
    if vals.shape[0] != len(keys):
        raise ShapeMismatch(f"{name} comparator size {vals.shape[0]} "
                            f"!= alphabet size {len(keys)}")
    # a row above another in the key order may exceed it nowhere by more
    # than the tolerance: each row is tested against the running maximum of
    # the rows strictly below it (fmax skips NaN, which fails no test).  For
    # the second argument, vals[c, a] < vals[c, b] - tol is tested as
    # -vals[c, a] > -vals[c, b] + tol, which rounds the same.
    order = np.argsort(keys)
    below = np.searchsorted(keys[order], keys[order])  # keys strictly below
    for rows, rule in ((vals[order], "non-decreasing in its first"),
                       (-vals[:, order].T, "non-increasing in its second")):
        top = np.fmax.accumulate(rows, axis=0)[below - 1]
        if (top > rows + _COMPARATOR_TOL)[below > 0].any():
            raise NotMonotoneComparator(
                f"{name} comparator is not {rule} argument")


def pair_rank_correlation(j: JointPmf, fx: PairComparator,
                          gy: PairComparator) -> float:
    """Pearson coefficient of (f(X1, X2), g(Y1, Y2)) for i.i.d. outcome pairs."""
    _check_comparator(fx, _keys(j, "x"), "x")
    _check_comparator(gy, _keys(j, "y"), "y")
    return _pair_correlation(j, _parts(fx.values), _parts(gy.values))


def _parts(v: np.ndarray):
    """A comparator matrix with its symmetric part (v + v.T) / 2 and its
    square, the three operands of :func:`_pair_correlation`."""
    return v, (v + v.T) / 2.0, v * v


def _signs(keys: np.ndarray):
    """:func:`_parts` of the sign comparator of ``keys``."""
    return _parts(np.sign(np.subtract.outer(keys, keys)))


def _pair_correlation(j: JointPmf, fx, gy) -> float:
    """:func:`pair_rank_correlation` on the :func:`_parts` of two
    comparator matrices, unchecked.  X1 and X2 are exchangeable, so each
    mean is taken over the symmetric part (v + v.T) / 2, exactly 0.0 for
    an antisymmetric comparator such as a sign matrix: tau-b's
    E[f g] / sqrt(E[f^2] E[g^2]) keeps its bits."""
    moments = []
    for side, w, (_, sym, sq) in (("x", marginal_x(j), fx),
                                  ("y", marginal_y(j), gy)):
        mean = float(np.einsum("a,c,ac->", w, w, sym))
        var = float(np.einsum("a,c,ac->", w, w, sq)) - mean ** 2
        if var <= 0.0:
            raise ZeroVariance(f"the {side} side is almost surely tied "
                               "or its comparator almost surely constant")
        moments.append((mean, var))
    (mean_f, var_f), (mean_g, var_g) = moments
    cross = float(np.einsum("ab,cd,ac,bd->", j.p, j.p, fx[0], gy[0]))
    return (cross - mean_f * mean_g) / math.sqrt(var_f * var_g)
