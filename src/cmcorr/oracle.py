"""Independent brute-force reference for the CMC, used to validate the engine.

The oracle deliberately shares nothing with the exact engine beyond the
moment helpers: no Witsenhausen matrix, no SVD, no merge enumeration.  For
a total order on the response side it sweeps an exhaustive grid of monotone
profiles for one function and answers each with an *exact* best response,
obtained by enumerating the faces of the monotone cone (contiguous block
poolings along the order, whose matrices are built once per order and
weights).  The positive-side optimum is the normalized pool-adjacent-violators
projection of the conditional means, found among the faces rather than by
running the pooling; the negative-side optima are the negated pooled means,
so discordant instances are solved exactly as well.  The best grid points
are then polished by alternating exact best responses, all restarts side by
side in one loop: each step answers every restart still improving in one
call per side.  The batched products round differently from the one-row
products of refining the restarts one at a time, so the values can differ
from that by rounding only (at most 2.2e-16 measured).  For general posets
it grids both sides and takes the best feasible pair.

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

Every table that depends on the order and the step alone is built once and
held, read-only: the row counts, the canonical integer rows of the last
``_HELD_GRIDS`` grids of at most ``_HELD_ROWS`` rows (a larger grid is built
and used but not kept), and the pooling tables of each alphabet size.  The
keys are the order's structure, ``(size, strict_pairs)``, never its labels
or the pmf, and ``GRID_ROW_LIMIT`` is checked on every call, held grid or
not.

Every value the oracle reports is the covariance of a monotone pair, so it
is a lower bound on the true CMC up to rounding only: the grid profiles are
rounded to 12 decimals, so their variance is 1 only to about 1e-12, and the
oracle has been seen up to 2.4e-13 above the exact engine.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dist import JointPmf, marginal_x, marginal_y, strip_zero_support
from .errors import InputError, SizeTooLarge
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
# Integer row pairs (rows of X times rows of Y) the two-sided grid may
# search.  A diamond x vee at step 0.02 has 118 million, of which the grid
# keeps one per profile class: 57.6 million covariances, computed in 75 ms
# on a 2-vCPU Xeon (about 7.7e8 a second).  So a call under the limit stays
# well under a second, while a diamond x diamond there (2.1 billion pairs)
# is refused.
GRID_PAIR_LIMIT = 200_000_000
# Queries per stack in the pooled best responses: this over faces x symbols,
# so each array of a stack holds about this many numbers (256 KB), and a
# batch is cut into near-equal stacks.  The size was measured on a 2-vCPU
# Xeon with 2 MB of L2 per core.  Over 2^14 to 2^20, a 4x4 chain op of the
# oracle benchmark (a sweep of 18,970 queries) ran fastest at 2^15 and
# 2^16: about 5 ms, against 8-12 ms at 2^20, where the sweep ran as one
# stack of 1.5 MB arrays.  In the benchmark's loop, a 3-element poset x
# 4-chain op (2,323 queries: one stack at 2^16, two at 2^15) took 0.72 ms
# at 2^16 against 0.56-0.62 ms at 2^15 and 2^20; the vee and wedge ops
# (1,549 queries, two stacks at 2^15) pay about 0.03 ms for their second
# stack.  No stack holds one query unless the batch does: a one-query stack
# takes matrix-vector products, which round differently.
_POOL_ENTRIES = 1 << 15
# Covariances per chunk of the two-sided grid, so the chunk's array holds
# 8 MB: a diamond x vee at step 0.02 peaks at 18 MB traced (161 MB with
# chunks of ten million).  It is not shrunk to cache size like
# ``_POOL_ENTRIES``: a chunk holds whole rows of the other side's grid, so
# at 2^16 a vee x diamond (37,165 Y rows) falls back to one-row products,
# went from 75 to 170-200 ms and moved the last bit of its value.
_PAIR_CHUNK = 1 << 20
# The canonical grid rows of the orders and steps used last are held, at
# most ``_HELD_GRIDS`` grids of at most ``_HELD_ROWS`` integer rows each, so
# at most 21 MB of rows in all (2.6 MB per grid of a 5-element order); a
# larger grid is built and used but not kept.  At step 0.02 a 4-chain has
# 23,426 rows and a diamond 45,526, while a 5-chain has 316,251 and a
# 4-antichain 515,201.  A sweep that cycles through more orders than
# ``_HELD_GRIDS`` misses on every one of them, so the bound leaves room for
# a mix of several orders: the benchmark's oracle rounds use five.
_HELD_GRIDS = 8
_HELD_ROWS = 1 << 16


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


class _PoolTables(NamedTuple):
    """The pooling of ``n`` sorted positions into contiguous blocks.

    Every block is a span [a, b) of sorted positions; the faces of the
    monotone cone are the contiguous partitions with at least two blocks,
    face ``mask`` (1 <= mask < 2^(n-1)) cutting after sorted position
    ``gap`` when bit ``gap`` is set.  Every array is read-only, since the
    tables are held (see ``_pool_tables``).
    """

    member: np.ndarray      # (spans, n) 0/1: the positions of each span
    in_face: np.ndarray     # (faces, spans) 0/1: the blocks of each face
    cover: np.ndarray       # (faces, n) block span of each position
    lower: np.ndarray       # (pairs,) lower span of each adjacent block pair
    upper: np.ndarray       # (pairs,) upper span of the same pair
    face_pairs: np.ndarray  # (faces, n - 1) pairs of each face, padded


@functools.lru_cache(maxsize=_TOTAL_SIDE_LIMIT)
def _pool_tables(n: int) -> _PoolTables:
    """The pooling tables of ``n`` positions, built once per ``n``.

    A face with fewer than n - 1 adjacent block pairs repeats its first
    pair in ``face_pairs``, which an or over its pairs cannot see.
    """
    spans = [(a, b) for a in range(n) for b in range(a + 1, n + 1)]
    span_at = {ab: k for k, ab in enumerate(spans)}
    faces = []
    for mask in range(1, 2 ** (n - 1)):
        cuts = [0] + [gap + 1 for gap in range(n - 1) if mask >> gap & 1]
        faces.append([span_at[ab] for ab in zip(cuts, cuts[1:] + [n])])
    member = np.array([[a <= i < b for i in range(n)] for a, b in spans],
                      dtype=float)
    in_face = np.zeros((len(faces), len(spans)))
    cover = np.empty((len(faces), n), dtype=int)
    face_pairs = np.empty((len(faces), n - 1), dtype=np.intp)
    lower, upper = [], []
    for m, face in enumerate(faces):
        in_face[m, face] = 1.0
        for k in face:
            cover[m, spans[k][0]:spans[k][1]] = k
        first = len(lower)
        face_pairs[m] = first
        face_pairs[m, :len(face) - 1] = np.arange(first, first + len(face) - 1)
        lower += face[:-1]
        upper += face[1:]
    tables = _PoolTables(member, in_face, cover,
                         np.array(lower, dtype=np.intp),
                         np.array(upper, dtype=np.intp), face_pairs)
    for table in tables:
        table.setflags(write=False)
    return tables


def _faces_clear(flagged: np.ndarray, face_pairs: np.ndarray) -> np.ndarray:
    """Per face and query, whether no adjacent block pair of the face is
    flagged: ``flagged`` is (pairs, queries), the result (faces, queries)."""
    faces, width = face_pairs.shape
    return ~np.logical_or.reduce(
        flagged[face_pairs.ravel()].reshape(faces, width, -1), axis=1)


def _pooled_responder(w: np.ndarray, sigma: list[int]):
    """Exact best monotone responses along the total order ``sigma``.

    Each face of the monotone cone (see ``_PoolTables``) has its pooled
    block means as stationary directions, positively or negatively scaled.
    The pooling tables depend on the alphabet size alone and are held; per
    call only the weights ``w`` are sorted and summed over every span.

    The returned ``respond(c)`` takes centered conditional means, one row
    per query, and returns each row's exact max of <g, c>_w over monotone,
    zero-mean, unit-variance g together with the g attaining it (or None
    when ``with_g`` is false).  Ties go to the first maximum in mask order,
    + before -.  A step between pooled means counts against monotonicity
    past 1e-12 of its row's max |c|, so ``respond(k * c)`` picks the face
    ``respond(c)`` does.  A row with no non-degenerate candidate gets value
    -inf and a NaN g: every response is then orthogonal to it.  The rows
    are answered in near-equal stacks of about ``_POOL_ENTRIES`` numbers
    per array, with queries along the last axis, so each step is one pass
    over contiguous rows that stay in cache.
    """
    n = len(sigma)
    t = _pool_tables(n)
    ws = w[sigma][:, None]
    span_w = t.member @ ws
    faces = len(t.in_face)
    chunk = max(1, _POOL_ENTRIES // (faces * n))

    def respond_sorted(c, with_g):                   # c: (n, queries)
        sums = t.member @ (c * ws)
        means = sums / span_w                        # (spans, queries)
        norm2 = t.in_face @ (means * means * span_w)  # (faces, queries)
        raw = t.in_face @ (means * sums)
        steps = means[t.upper] - means[t.lower]      # (pairs, queries)
        valid = norm2 > _CONST_TOL ** 2
        with np.errstate(invalid="ignore", divide="ignore"):
            scaled = raw / np.sqrt(norm2)
        cut = 1e-12 * np.abs(c).max(axis=0)          # every mean is <= max|c|
        up = valid & _faces_clear(steps < -cut, t.face_pairs)
        down = valid & _faces_clear(steps > cut, t.face_pairs)
        plus = np.where(up, scaled, -np.inf)
        minus = np.where(down, -scaled, -np.inf)
        if not with_g:
            return np.maximum(plus.max(axis=0), minus.max(axis=0)), None
        cand = np.stack([plus, minus], axis=1).reshape(2 * faces, -1)
        pick = cand.argmax(axis=0)
        cols = np.arange(c.shape[1])
        face = pick // 2
        sign = 1.0 - 2.0 * (pick % 2)
        with np.errstate(invalid="ignore", divide="ignore"):
            g = (sign * means[t.cover[face].T, cols]
                 / np.sqrt(norm2[face, cols]))
        value = cand[pick, cols]
        g[:, value == -np.inf] = np.nan
        return value, g

    def respond(c, with_g=True):
        c = c[:, sigma].T
        q = c.shape[1]
        k = -(-q // chunk)                           # near-equal stacks
        parts = [respond_sorted(c[:, q * i // k:q * (i + 1) // k], with_g)
                 for i in range(k)]
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
    """Exact count of the rows ``_level_rows(p, top)`` would build."""
    return _row_count(p.size, p.strict_pairs, top)


@functools.lru_cache(maxsize=256)
def _row_count(size: int, strict_pairs: frozenset, top: int) -> int:
    """``_grid_row_count`` on the order's structure, held per structure.

    A monotone row using exactly k levels is a monotone map onto a k-chain
    together with a choice of its k levels among 0..top; holding the lowest
    at 0 leaves C(top, k - 1) choices.  The onto maps are counted by brute
    force over the n^n maps into an n-chain (n <= 5 here).
    """
    n = size
    maps = np.indices((n,) * n).reshape(n, -1).T
    for i, j in strict_pairs:
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


@functools.lru_cache(maxsize=_HELD_GRIDS)
def _held_rows(size: int, strict_pairs: frozenset, top: int) -> np.ndarray:
    """``_widest_canonical_rows`` of an order's structure, read-only and
    held for the ``_HELD_GRIDS`` structures and tops used last."""
    p = Poset(size, tuple(map(str, range(size))), strict_pairs)
    rows = _widest_canonical_rows(p, top)
    rows.setflags(write=False)
    return rows


def _monotone_profiles(p: Poset, weights: np.ndarray, step: float):
    """Centered, normalized monotone grid profiles, in generation order.

    One grid row stands for each canonical integer row (min 0, gcd 1): the
    class's widest member on the grid, whose variance is the largest in
    the class, so no class with positive variance is lost to the
    ``_CONST_TOL`` cut.  Its normalized profile is computed exactly as for
    any grid row and rounded to 12 decimals.  The rare rows the rounding
    makes equal are kept: a max over the rows does not see them, and
    ``_restart_rows`` deduplicates among the restart candidates only.

    The canonical rows are held when the grid has at most ``_HELD_ROWS``
    integer rows; ``GRID_ROW_LIMIT`` is checked first, held grid or not.
    """
    top = _grid_top(step)
    count = _grid_row_count(p, top)
    if count > GRID_ROW_LIMIT:
        raise SizeTooLarge(
            f"grid step {step:g} gives {count:,} monotone rows on this "
            f"{p.size}-element order; the oracle is limited to "
            f"{GRID_ROW_LIMIT:,}"
        )
    rows = (_held_rows(p.size, p.strict_pairs, top) if count <= _HELD_ROWS
            else _widest_canonical_rows(p, top))
    levels = np.minimum(np.arange(top + 1) * step, 1.0)
    grid = levels[rows]
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
    """Grid X-side profiles, answer each exactly, refine the best points.

    The ``restart_count`` best distinct rows are refined side by side by
    alternating exact best responses, at most ``refine_iters`` rounds of one
    Y and one X response over every restart still in the batch.  A restart
    leaves the batch when Y has no response (keeping its value), when X has
    none (taking the Y response if higher), or when neither response beats
    its value by more than 1e-15 (taking the higher of them if higher); a
    leaving row is never answered again, so no NaN row is passed on.
    """
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
    both_total = px.is_total() and py.is_total()
    if not both_total or cfg.refine_iters == 0:
        return float(best_vals[top[0]])

    respond_x = _pooled_responder(px_w, px.linear_extension())
    f, values = profiles[top], best_vals[top]
    live = np.arange(len(top))
    for _ in range(cfg.refine_iters):
        vg, g = respond_y(_centered_conditional(f @ j.p, py_w))
        answered = vg > -np.inf             # the rest keep their values
        live, vg, g = live[answered], vg[answered], g[answered]
        if len(live) == 0:
            break
        vf, f = respond_x(_centered_conditional(g @ j.p.T, px_w))
        improved = np.maximum(vg, vf)
        going = (vf > -np.inf) & (improved > values[live] + 1e-15)
        values[live] = np.maximum(values[live], improved)
        live, f = live[going], f[going]
        if len(live) == 0:
            break
    return float(values.max())


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
    """The best covariance of monotone pairs found by exhaustive gridding.

    Every pair it scores is monotone, so the value is a lower bound on the
    CMC up to rounding: the rounded grid profiles have variance 1 only to
    about 1e-12, and the value can sit a few 1e-13 above the exact CMC.

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
