"""Independent brute-force reference for the CMC, used to validate the engine.

The oracle deliberately shares nothing with the exact engine beyond the
moment helpers: no Witsenhausen matrix, no SVD, no merge enumeration.  For
a total order on the response side it sweeps an exhaustive grid of monotone
profiles for one function and answers each with an *exact* best response,
obtained by enumerating the faces of the monotone cone (contiguous block
poolings along the order, whose matrices are built once per order and
weights).  The positive-side face optimum coincides with the
pool-adjacent-violators projection; the negative-side optima are the negated
pooled means, so discordant instances are solved exactly as well.  The best
grid points are then polished by alternating exact best responses.  For
general posets it grids both sides and takes the best feasible pair.

The grid at step s holds every monotone function whose values lie on the
levels 0, s, 2s, ... <= 1.  Centering and scaling to unit variance forget a
positive affine map, so two grid rows give the same profile exactly when
their integer level rows agree after subtracting the minimum and dividing
by the gcd.  The grid is therefore built from these canonical integer rows
(minimum 0, gcd 1), each scaled to the widest member of its class, and the
rows are enumerated one element at a time along a linear extension rather
than as a filtered product.  A grid of more than ``GRID_ROW_LIMIT`` integer
rows, or a two-sided grid of more than ``GRID_PAIR_LIMIT`` row pairs, is
refused, from the exact counts, before anything is built.  The
normalized rows are rounded to 12 decimals and kept in generation order,
unsorted: the rare rows the rounding makes equal cannot change a max, so
only the restart candidates are deduplicated, and the restarts are the
first distinct rows by best-response value, then by row.

Every value the oracle reports is the covariance of a feasible monotone
pair, so it can never exceed the true CMC.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .dist import JointPmf, marginal_x, marginal_y, strip_zero_support
from .errors import (
    InputError,
    RequiresTotalOrder,
    ShapeMismatch,
    SizeTooLarge,
    ZeroVariance,
)
from .order import Poset

_TOTAL_SIDE_LIMIT = 5
_POSET_SIDE_LIMIT = 4
_CONST_TOL = 1e-12
# Integer rows one side's grid may hold (min-0 monotone rows of levels
# 0..1/step).  Every order the side limits admit fits at step 0.02: a
# 5-chain has 316,251 rows there and a 4-antichain 515,201.  That
# 4-antichain grid peaks at about 46 MB traced, and the oracle on a
# 4-antichain x 4-chain at about 69 MB.
GRID_ROW_LIMIT = 600_000
# Row pairs (rows of X times rows of Y) the two-sided grid may search.  At
# the 2.4e8 to 4e8 covariances a second measured on a 2-vCPU Xeon, this
# caps a call at about a second: a diamond x vee at step 0.02 (118 million
# pairs) runs, a diamond x diamond there (2.1 billion) does not.
GRID_PAIR_LIMIT = 200_000_000
# Queries per stack in the pooled best responses: this over faces x symbols,
# so each array of a stack holds about this many numbers.
_POOL_ENTRIES = 1 << 20
# Covariances per chunk of the two-sided grid, so the chunk's array holds
# 8 MB: a diamond x vee at step 0.02 peaks at 18 MB traced (161 MB with
# chunks of ten million).
_PAIR_CHUNK = 1 << 20


@dataclass(frozen=True)
class OracleConfig:
    grid_step: float = 0.05
    refine_iters: int = 25
    restart_count: int = 3

    def __post_init__(self):
        if not (0.0 < self.grid_step <= 0.5):
            raise InputError("grid_step must lie in (0, 0.5]")
        if self.refine_iters < 0:
            raise InputError("refine_iters must be nonnegative")
        if self.restart_count < 1:
            raise InputError("restart_count must be positive")


def pava_isotonic(targets, weights) -> np.ndarray:
    """Weighted least-squares projection onto non-decreasing sequences.

    Classic pool-adjacent-violators: walk left to right, pooling any block
    whose weighted mean drops below its predecessor's.  Idempotent and
    weighted-mean preserving.
    """
    t = np.asarray(targets, dtype=float)
    w = np.asarray(weights, dtype=float)
    if t.shape != w.shape or t.ndim != 1:
        raise ShapeMismatch("targets and weights must be equal-length vectors")
    if (w <= 0).any():
        raise InputError("weights must be strictly positive")
    # blocks of (weight sum, weighted value sum, member count)
    blocks: list[list[float]] = []
    counts: list[int] = []
    for ti, wi in zip(t, w):
        blocks.append([wi, wi * ti])
        counts.append(1)
        while len(blocks) > 1 and (
            blocks[-1][1] / blocks[-1][0] <
            blocks[-2][1] / blocks[-2][0]
        ):
            w2, s2 = blocks.pop()
            c2 = counts.pop()
            blocks[-1][0] += w2
            blocks[-1][1] += s2
            counts[-1] += c2
    out = np.empty_like(t)
    pos = 0
    for (bw, bs), c in zip(blocks, counts):
        out[pos:pos + c] = bs / bw
        pos += c
    return out


def _require_total(p: Poset) -> list[int]:
    if not p.is_total():
        raise RequiresTotalOrder("this operation needs a total order")
    return p.linear_extension()


def best_response_g(j: JointPmf, f, py: Poset):
    """Best monotone response to ``f`` on the Y side, by cone projection.

    Projects the centered conditional means c(y) = E[f(X) | Y = y] onto the
    non-decreasing cone along the total order; the normalized projection
    maximizes Cov(f / sd(f), g) over monotone unit-variance g whenever the
    projection is non-constant.  Returns ``(g, value)`` or ``None`` when
    the projection is constant (no concordant response exists).
    """
    sigma = _require_total(py)
    f = np.asarray(f, dtype=float)
    px = marginal_x(j)
    py_w = marginal_y(j)
    mean_f = float(px @ f)
    var_f = float(px @ (f - mean_f) ** 2)
    if var_f <= 0.0:
        raise ZeroVariance("f must have positive variance")
    with np.errstate(invalid="ignore", divide="ignore"):
        cond = (j.p.T @ f) / py_w
    cond[py_w == 0.0] = 0.0
    cond -= float(py_w @ cond)
    proj_sorted = pava_isotonic(cond[sigma], py_w[sigma])
    proj = np.empty_like(proj_sorted)
    proj[sigma] = proj_sorted
    if proj.max() - proj.min() <= _CONST_TOL:
        return None
    norm = math.sqrt(float(py_w @ (proj - float(py_w @ proj)) ** 2))
    g = (proj - float(py_w @ proj)) / norm
    value = float((f - mean_f) @ j.p @ g) / math.sqrt(var_f)
    return g, value


def _pooled_responder(w: np.ndarray, sigma: list[int]):
    """Exact best monotone responses along the total order ``sigma``.

    The faces of the monotone cone are the contiguous block partitions
    along the order with at least two blocks: face ``mask`` (1 <= mask <
    2^(n-1)) cuts after sorted position ``gap`` when bit ``gap`` is set.
    Each face's stationary directions are its pooled block means,
    positively or negatively scaled.  Every block is a span [a, b) of
    sorted positions, so the pooling is built once for the order and the
    weights ``w``: the 0/1 matrix ``member`` takes sorted values to their
    weighted sums over every span, ``in_face`` adds span terms up per face,
    ``lower``/``upper`` list the adjacent blocks of every face, and
    ``step_face`` marks whose they are.

    The returned ``respond(c)`` takes centered conditional means, one row
    per query, and returns each row's exact max of <g, c>_w over monotone,
    zero-mean, unit-variance g together with the g attaining it (or None
    when ``with_g`` is false).  Ties go to the first maximum in mask order,
    + before -.  A row with no non-degenerate candidate gets value -inf and
    a NaN g: every response is then orthogonal to it.  Queries run along
    the last axis, so each step is one pass over long contiguous rows.
    """
    n = len(sigma)
    ws = w[sigma][:, None]
    spans = [(a, b) for a in range(n) for b in range(a + 1, n + 1)]
    faces = []
    for mask in range(1, 2 ** (n - 1)):
        cuts = [0] + [gap + 1 for gap in range(n - 1) if mask >> gap & 1]
        faces.append([spans.index(ab) for ab in zip(cuts, cuts[1:] + [n])])
    member = np.array([[a <= i < b for i in range(n)] for a, b in spans],
                      dtype=float)
    span_w = member @ ws
    in_face = np.zeros((len(faces), len(spans)))
    cover = np.empty((len(faces), n), dtype=int)  # block span of a position
    for m, face in enumerate(faces):
        in_face[m, face] = 1.0
        for k in face:
            cover[m, spans[k][0]:spans[k][1]] = k
    pairs = [(m, lo, hi) for m, face in enumerate(faces)
             for lo, hi in zip(face, face[1:])]
    lower = [lo for _, lo, _ in pairs]
    upper = [hi for _, _, hi in pairs]
    step_face = np.array([[m == p[0] for p in pairs]
                          for m in range(len(faces))], dtype=float)
    chunk = max(1, _POOL_ENTRIES // (len(faces) * n))

    def respond_sorted(c, with_g):                   # c: (n, queries)
        sums = member @ (c * ws)
        means = sums / span_w                        # (spans, queries)
        norm2 = in_face @ (means * means * span_w)   # (faces, queries)
        raw = in_face @ (means * sums)
        steps = means[upper] - means[lower]          # (pairs, queries)
        valid = norm2 > _CONST_TOL ** 2
        with np.errstate(invalid="ignore", divide="ignore"):
            scaled = raw / np.sqrt(norm2)
        up = valid & (step_face @ (steps < -1e-12) == 0)
        down = valid & (step_face @ (steps > 1e-12) == 0)
        plus = np.where(up, scaled, -np.inf)
        minus = np.where(down, -scaled, -np.inf)
        if not with_g:
            return np.maximum(plus.max(axis=0), minus.max(axis=0)), None
        cand = np.stack([plus, minus], axis=1).reshape(2 * len(faces), -1)
        pick = cand.argmax(axis=0)
        cols = np.arange(c.shape[1])
        face = pick // 2
        sign = 1.0 - 2.0 * (pick % 2)
        with np.errstate(invalid="ignore", divide="ignore"):
            g = (sign * means[cover[face].T, cols]
                 / np.sqrt(norm2[face, cols]))
        value = cand[pick, cols]
        g[:, value == -np.inf] = np.nan
        return value, g

    def respond(c, with_g=True):
        c = np.atleast_2d(c)[:, sigma].T
        parts = [respond_sorted(c[:, a:a + chunk], with_g)
                 for a in range(0, c.shape[1], chunk)]
        value = np.concatenate([v for v, _ in parts])
        if not with_g:
            return value, None
        g = np.empty_like(c.T)
        g[:, sigma] = np.concatenate([part for _, part in parts], axis=1).T
        return value, g

    return respond


def _centered_conditional(cov: np.ndarray, w: np.ndarray) -> np.ndarray:
    """E[h | side = s] from the rows E[h 1{side = s}], centered under ``w``.

    ``w`` is a stripped marginal, so every entry is positive.
    """
    cond = cov / w
    return cond - (cond @ w)[..., None]


def _grid_row_count(p: Poset, top: int) -> int:
    """Exact count of the rows ``_level_rows(p, top)`` would build.

    A monotone row using exactly k levels is a monotone map onto a k-chain
    together with a choice of its k levels among 0..top; holding the lowest
    at 0 leaves C(top, k - 1) choices.  The onto maps are counted by brute
    force over the n^n maps into an n-chain (n <= 5 here).
    """
    n = p.size
    maps = np.indices((n,) * n).reshape(n, -1).T
    for i, j in p.strict_pairs:
        maps = maps[maps[:, i] <= maps[:, j]]
    levels = np.sort(maps, axis=1)
    used = 1 + (np.diff(levels, axis=1) > 0).sum(axis=1)
    onto = np.bincount(used[used == levels[:, -1] + 1])
    return sum(int(c) * math.comb(top, k - 1)
               for k, c in enumerate(onto[1:], start=1))


def _grid_top(step: float) -> int:
    """The highest integer level of the grid at ``step``."""
    return int(math.floor(1.0 / step + 1e-9))


def _level_rows(p: Poset, top: int) -> np.ndarray:
    """Every monotone row of integer levels 0..top along ``p`` with min 0.

    Rows grow one element at a time along a linear extension: each new
    entry ranges from the largest entry among its strict predecessors up
    to ``top``.  The minimal elements lead the extension and the minimum
    sits on one of them, so the last of them is held at 0 in the rows whose
    other minimal entries are all positive.
    """
    ext = p.linear_extension()
    at = {e: k for k, e in enumerate(ext)}
    below = [[at[i] for i, j in p.strict_pairs if j == e] for e in ext]
    last_minimal = sum(not preds for preds in below) - 1
    rows = np.zeros((1, 0), dtype=np.int64)
    for k, preds in enumerate(below):
        lo = (rows[:, preds].max(axis=1) if preds
              else np.zeros(len(rows), dtype=np.int64))
        hi = np.full(len(rows), top)
        if k == last_minimal:
            hi[(rows > 0).all(axis=1)] = 0
        counts = hi - lo + 1
        parent = np.repeat(np.arange(len(rows)), counts)
        offset = np.repeat(np.cumsum(counts) - counts - lo, counts)
        rows = np.column_stack([rows[parent], np.arange(len(parent)) - offset])
    out = np.empty_like(rows)
    out[:, ext] = rows
    return out


def _widest_canonical_rows(p: Poset, top: int) -> np.ndarray:
    """One level row per profile class: min 0 and gcd 1, scaled up to top."""
    rows = _level_rows(p, top)
    rows = rows[functools.reduce(np.gcd, rows.T) == 1]
    return rows * (top // rows.max(axis=1))[:, None]


def _monotone_profiles(p: Poset, weights: np.ndarray, step: float):
    """Centered, normalized monotone grid profiles, in generation order.

    One grid row stands for each canonical integer row (min 0, gcd 1): the
    class's widest member on the grid, whose variance is the largest in
    the class, so no class with positive variance is lost to the
    ``_CONST_TOL`` cut.  Its normalized profile is computed exactly as for
    any grid row and rounded to 12 decimals.  The rare rows the rounding
    makes equal are kept: a max over the rows does not see them, and
    ``_restart_rows`` deduplicates among the restart candidates only.
    """
    top = _grid_top(step)
    count = _grid_row_count(p, top)
    if count > GRID_ROW_LIMIT:
        raise SizeTooLarge(
            f"grid step {step:g} gives {count:,} monotone rows on this "
            f"{p.size}-element order; the oracle is limited to "
            f"{GRID_ROW_LIMIT:,}"
        )
    levels = np.minimum(np.arange(top + 1) * step, 1.0)
    grid = levels[_widest_canonical_rows(p, top)]
    grid -= (grid @ weights)[:, None]
    variances = (grid * grid) @ weights
    ok = variances > _CONST_TOL
    normalized = grid[ok] / np.sqrt(variances[ok])[:, None]
    return np.round(normalized, 12)


def _restart_rows(rows: np.ndarray, values: np.ndarray,
                  count: int) -> np.ndarray:
    """Indices of the first ``count`` distinct rows by (-value, row).

    Rows are ordered by value, largest first, then lexicographically, and
    equal rows count once: the order a stable argsort of the negated values
    gives over the sorted, deduplicated rows.  Only the rows whose value
    reaches the ``count``-th largest are sorted; when duplicates leave
    fewer than ``count`` distinct rows there, the threshold drops to the
    next smaller value.  Equal rows must have equal values.
    """
    kth = len(values) - min(count, len(values))
    threshold = np.partition(values, kth)[kth]
    while True:
        cand = np.flatnonzero(values >= threshold)
        cand = cand[np.lexsort((*rows[cand].T[::-1], -values[cand]))]
        fresh = np.ones(len(cand), dtype=bool)
        fresh[1:] = (rows[cand[1:]] != rows[cand[:-1]]).any(axis=1)
        picks = cand[fresh]
        if len(picks) >= count or len(cand) == len(values):
            return picks[:count]
        threshold = values[values < threshold].max()


def _sweep_and_refine(j: JointPmf, px: Poset, py: Poset,
                      cfg: OracleConfig) -> float:
    """Grid X-side profiles, answer each exactly, refine the best points."""
    px_w = marginal_x(j)
    py_w = marginal_y(j)
    profiles = _monotone_profiles(px, px_w, cfg.grid_step)
    if profiles.shape[0] == 0:
        raise InputError("no non-constant monotone profile exists")

    respond_y = _pooled_responder(py_w, py.linear_extension())
    best_vals, _ = respond_y(_centered_conditional(profiles @ j.p, py_w),
                             with_g=False)
    best_vals[best_vals == -np.inf] = 0.0  # degenerate rows answer zero

    top = _restart_rows(profiles, best_vals, cfg.restart_count)
    overall = float(best_vals[top[0]])

    both_total = px.is_total() and py.is_total()
    if not both_total or cfg.refine_iters == 0:
        return overall

    respond_x = _pooled_responder(px_w, px.linear_extension())
    for k in top:
        f = profiles[k].copy()
        value = float(best_vals[k])
        for _ in range(cfg.refine_iters):
            vg, g = respond_y(_centered_conditional(j.p.T @ f, py_w))
            vg = float(vg[0])
            if vg == -np.inf:
                break
            vf, f_new = respond_x(_centered_conditional(j.p @ g[0], px_w))
            vf = float(vf[0])
            if vf == -np.inf:
                value = max(value, vg)
                break
            f = f_new[0]
            improved = max(vg, vf)
            if improved <= value + 1e-15:
                value = max(value, improved)
                break
            value = improved
        overall = max(overall, value)
    return overall


def _two_sided_grid(j: JointPmf, px: Poset, py: Poset,
                    cfg: OracleConfig) -> float:
    """The best covariance over every pair of grid profiles; more than
    ``GRID_PAIR_LIMIT`` pairs are refused, from the exact row counts,
    before anything is built."""
    top = _grid_top(cfg.grid_step)
    count_x, count_y = _grid_row_count(px, top), _grid_row_count(py, top)
    if count_x * count_y > GRID_PAIR_LIMIT:
        raise SizeTooLarge(
            f"grid step {cfg.grid_step:g} gives {count_x:,} x {count_y:,} "
            f"monotone row pairs on these orders; the oracle is limited to "
            f"{GRID_PAIR_LIMIT:,}"
        )
    fx = _monotone_profiles(px, marginal_x(j), cfg.grid_step)
    gy = _monotone_profiles(py, marginal_y(j), cfg.grid_step)
    if fx.shape[0] == 0 or gy.shape[0] == 0:
        raise InputError("no non-constant monotone profile exists")
    best = -np.inf
    chunk = max(1, _PAIR_CHUNK // max(gy.shape[0], 1))
    for a in range(0, fx.shape[0], chunk):
        covs = fx[a:a + chunk] @ j.p @ gy.T
        best = max(best, float(covs.max()))
    return best


def grid_oracle(j: JointPmf, px: Poset, py: Poset,
                cfg: OracleConfig = OracleConfig()) -> float:
    """Feasible lower bound on the CMC by exhaustive monotone gridding.

    With a total order on either side the opposite side is swept on a grid
    and answered exactly; otherwise both sides are gridded.  Alphabets are
    capped at 5 symbols per total-order side and 4 per general side, each
    gridded side at ``GRID_ROW_LIMIT`` integer rows and the pairs of two
    gridded sides at ``GRID_PAIR_LIMIT``.
    """
    js, pxs, pys, _, _ = strip_zero_support(j, px, py)
    for side, total_limit in ((pxs, _TOTAL_SIDE_LIMIT),
                              (pys, _TOTAL_SIDE_LIMIT)):
        limit = total_limit if side.is_total() else _POSET_SIDE_LIMIT
        if side.size > limit:
            raise SizeTooLarge(
                f"oracle limited to {limit} symbols for this order type"
            )
    if pys.is_total():
        return _sweep_and_refine(js, pxs, pys, cfg)
    if pxs.is_total():
        return _sweep_and_refine(js.transpose(), pys, pxs, cfg)
    return _two_sided_grid(js, pxs, pys, cfg)
