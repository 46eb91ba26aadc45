"""Exact concordant monotone correlation (CMC) over finite posets.

The CMC is the maximum covariance of (f(X), g(Y)) over zero-mean,
unit-variance function pairs that are monotone with respect to the two
orders.  Every constrained optimum forces equality on some subset of strict
pairs; restricted to that equality pattern ("face") it is a stationary
point of the bilinear objective on unit spheres, hence a singular pair of
the merged problem's Witsenhausen matrix with covariance equal to plus or
minus one of its singular values.

At a monotone optimum every comparable pair that is not tight satisfies
f(a) < f(b), so the face of tight pairs has an acyclic quotient order.  The
engine therefore enumerates only faces whose blocks are connected through
strict pairs and whose quotient is acyclic (on a chain: the 2^(n-1)
interval partitions), and keeps every singular-pair candidate whose lift
back to the original alphabets is monotone.  Faces of every shape (the
block counts kx, ky) are solved together, in stacks padded to the
alphabet sizes: the merge adds each block's members in index order, and
the marginals, the spectral step's deflation, guards and sign fixing, and
the feasibility, monotonicity and covariance checks run once on the whole
stack.  Only each shape's renormalization total and its SVD run per
shape: a shape's merged pmfs are renormalized by their own totals, and
its residuals decomposed at their exact size by one stacked SVD.  Many
faces are cut into stacks of bounded size, and each stack is reduced to
the candidates near the best covariance so far before the next one is
built, so memory stays bounded.  Kept candidates are feasible by
construction, so the reported maximum never overshoots the true value.
Instances with more than ``FACE_LIMIT`` faces are refused before any
spectral work.  The faces and tables of an order depend on the order
alone, so those of recently solved orders are kept in a small memo,
bounded by the number of partitions it holds (``MEMO_PARTITIONS``).

Two candidate policies are supported:

* ``extended`` (default): all singular indices i >= 2 with both
  orientations (cov = +lambda_i and cov = -lambda_i), plus one structural
  fallback per face built from quotient depths, so negative and zero
  optima are certified as well.  This mode always returns a value.
* ``paper_faithful``: only the second singular pair in positive
  orientation, testing the pair and its global sign flip.  When no such
  candidate is monotone on any face, the report carries a NaN value and a
  ``no_witness`` diagnostic instead of a fabricated number.
"""

from __future__ import annotations

import math
import threading
import time
from bisect import bisect_left, bisect_right
from collections import OrderedDict
from collections.abc import Sequence
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .dist import (
    CorrelationReport,
    JointPmf,
    ScoredPair,
    marginal_x,
    marginal_y,
    pair_stats,
    strip_zero_support,
)
from .errors import (
    DegenerateDenominator,
    EmptyInput,
    EnumerationTooLarge,
    InputError,
    MissingValues,
    NumericalFailure,
    SOutOfRange,
)
from .maxcorr import padded_residual_spectra
from .order import (
    MONOTONE_TOL,
    BlockPartition,
    Poset,
    bits,
    partition_from_blocks,
    reverse,
)

MODES = ("paper_faithful", "extended")

_FEASIBILITY_TOL = 1e-8
_VALUE_GUARD = 1e-8
# Candidates within this of the best covariance tie, and so do neighbouring
# residual singular values of a face (its spectrum is then degenerate).
TIE_TOL = 1e-9

# Largest face count |parts_x| * |parts_y| the engine will solve.
FACE_LIMIT = 2 ** 16


@dataclass(frozen=True)
class CmcOptions:
    """The exact engine's one knob: the candidate policy, one of ``MODES``.

    The tolerances are fixed (``order.MONOTONE_TOL`` for the monotone
    check, ``TIE_TOL`` for ties), and so is the size guard: instances with
    more than ``FACE_LIMIT`` faces raise :class:`EnumerationTooLarge`.
    """

    mode: str = "extended"

    def __post_init__(self):
        if self.mode not in MODES:
            raise InputError(f"unknown mode {self.mode!r}")


@dataclass(frozen=True)
class Candidate:
    """A feasible monotone pair found on one face of the enumeration."""

    partition_x: BlockPartition
    partition_y: BlockPartition
    kind: str            # "svd" or "structural"
    index: int           # singular index i >= 2 for svd candidates, else 0
    orientation: int     # svd candidates satisfy cov ~ orientation*lambda_i
    pair: ScoredPair     # lifted to the support alphabets
    cov: float

    def sort_key(self):
        return (
            self.partition_x.blocks,
            self.partition_y.blocks,
            0 if self.kind == "svd" else 1,
            self.index,
            0 if self.orientation > 0 else 1,
        )


def distinct_partitions(p: Poset) -> list[BlockPartition]:
    """The block partitions that can be the face of a monotone optimum.

    These are the partitions whose blocks are connected through strict
    pairs inside the block and whose quotient relation (block A -> block B
    when some a in A lies below some b in B) is acyclic.  They are exactly
    the partitions produced by peeling: repeatedly remove a non-empty
    connected down-set of the remaining elements and make it the next
    block.  Different peel orders can give the same partition, so results
    are deduplicated.  On a chain this yields the 2^(n-1) interval
    partitions.  Comparability components are partitioned independently,
    and every remainder is filled bottom-up without recursion; an element
    comparable to nothing is a block of its own in every face, so such
    elements skip the components and are added once, as singletons.

    Raises :class:`EnumerationTooLarge` as soon as any count shows that
    this side alone has more than ``FACE_LIMIT`` partitions.  Every
    remainder is an up-set, and each of its partitions extends to a
    distinct partition of the whole order, so no count overshoots.
    """
    n = p.size
    below = [0] * n  # bitmask of the elements strictly below i
    near = [0] * n   # bitmask of the elements comparable to i
    for i, k in p.strict_pairs:
        below[k] |= 1 << i
        near[i] |= 1 << k
        near[k] |= 1 << i
    # bottom-up by the number of elements below, as Poset.linear_extension
    order = sorted(range(n), key=lambda i: (below[i].bit_count(), i))
    rank = [0] * n
    for r, i in enumerate(order):
        rank[i] = r

    def members(mask: int) -> list[int]:
        """The elements of ``mask`` bottom-up, minimal ones first."""
        return sorted(bits(mask), key=rank.__getitem__)

    def check(count: int) -> int:
        if count > FACE_LIMIT:
            raise EnumerationTooLarge(
                f"a {n}-element order has more than {FACE_LIMIT} faces")
        return count

    # Grouping the elements by level (the longest chain ending there) and
    # cutting between any subset of the h levels gives 2^(h-1) distinct
    # faces, so tall orders are refused before anything is listed.
    rest, layers = (1 << n) - 1, 0
    while rest:
        check(1 << layers)
        rest &= ~sum(1 << i for i in bits(rest) if not below[i] & rest)
        layers += 1

    def component(mask: int) -> int:
        """The comparability component of ``mask`` holding its lowest bit."""
        seen = frontier = mask & -mask
        while frontier:
            low = frontier & -frontier
            grown = near[low.bit_length() - 1] & mask & ~seen
            seen |= grown
            frontier = (frontier ^ low) | grown
        return seen

    splits: dict[int, tuple[int, list[int]]] = {}

    def split(rest: int) -> tuple[int, list[int]]:
        """The component of ``rest`` holding its lowest bit and, when that
        is all of ``rest``, the non-empty connected down-sets of ``rest``
        (the blocks that can be peeled next)."""
        if rest not in splits:
            comp, sets = component(rest), [0]
            if comp == rest:  # a disconnected remainder is split instead
                for i in members(rest):
                    sets += [s | 1 << i for s in sets
                             if not below[i] & rest & ~s]
                    # each down-set but the empty and the full one is a
                    # face of its own: its components and its complement's
                    check(len(sets) - 1)
            splits[rest] = comp, [s for s in sets
                                  if s and component(s) == s]
        return splits[rest]

    def remainders(rest: int, low: int) -> list[int]:
        """What is left after peeling a block of ``rest`` that meets
        ``low``, or its two parts when ``rest`` is disconnected."""
        comp, blocks = split(rest)
        if comp != rest:
            return [comp, rest & ~comp]
        return [rest & ~b for b in blocks if b & low]

    def fill(memo: dict, root: int, low, combine):
        """``memo[root]``, computing every remainder it needs first; the
        peeled blocks considered are those meeting ``low(rest)``."""
        stack = [root]
        while stack:
            rest = stack[-1]
            if rest in memo:
                stack.pop()
                continue
            todo = [r for r in remainders(rest, low(rest)) if r not in memo]
            if todo:
                stack += todo
            else:
                memo[rest] = combine(rest)
        return memo[root]

    def first(rest: int) -> int:
        """A minimal element of ``rest``, as a bit."""
        return 1 << min(bits(rest), key=rank.__getitem__)

    def count(rest: int) -> int:
        """A count of partitions of ``rest`` that never exceeds the total.

        Partitions whose first block holds a fixed minimal element differ
        in that block, so counting only them overcounts nothing; this cheap
        count refuses large orders before any partition is built.
        """
        got = [bounds[r] for r in remainders(rest, first(rest))]
        return check(math.prod(got) if split(rest)[0] != rest else sum(got))

    def partitions(rest: int) -> set[tuple[int, ...]]:
        """All partitions of ``rest``, each a sorted tuple of block masks."""
        comp, blocks = split(rest)
        if comp != rest:  # incomparable parts are partitioned independently
            one, other = faces[comp], faces[rest & ~comp]
            check(len(one) * len(other))
            return {tuple(sorted(a + b)) for a in one for b in other}
        out = {tuple(sorted(tail + (block,))) for block in blocks
               for tail in faces[rest & ~block]}
        check(len(out))
        return out

    singles = [[i] for i in range(n) if not near[i]]
    comps, rest = [], sum(1 << i for i in range(n) if near[i])
    while rest:
        comps.append(component(rest))
        rest &= ~comps[-1]
    bounds = {0: 1}
    total = 1
    for comp in comps:
        total = check(total * fill(bounds, comp, first, count))
    faces = {0: {()}}
    parts = [()]
    for comp in comps:
        # every block of ``rest`` meets ``rest``: all of them are peeled
        own = fill(faces, comp, lambda rest: rest, partitions)
        check(len(parts) * len(own))
        parts = [a + b for a in parts for b in own]
    return sorted((partition_from_blocks([*map(bits, part), *singles], n)
                   for part in parts), key=lambda q: q.blocks)


def _quotient_scores(lower: np.ndarray, upper: np.ndarray,
                     blocks: int) -> np.ndarray:
    """A deterministic non-constant monotone block function per partition.

    ``lower`` and ``upper`` (A, E) hold the blocks of the pair ends in each
    of A partitions with at most ``blocks`` blocks; a label no partition
    uses keeps depth 0.  Uses longest-path depth over
    the cross-block order edges.  With no cross-block edges every
    block-constant function is monotone, so the indicator of the first
    block serves.  The quotient of every enumerated face is acyclic, so a
    longest path has fewer than ``blocks`` edges and ``blocks - 1``
    relaxation sweeps reach it; depths are integers, so they are exact.
    """
    cross = lower != upper
    # the cross-block edges, grouped by partition and target block
    edges = np.sort((np.nonzero(cross)[0] * blocks + upper[cross]) * blocks
                    + lower[cross])
    targets, sources = np.divmod(edges, blocks)  # targets index depth.flat
    rows = targets // blocks
    starts = np.flatnonzero(targets[1:] != targets[:-1]) + 1
    starts = np.concatenate(([0], starts)) if edges.size else starts
    depth = np.zeros((len(cross), blocks))
    for _ in range(blocks - 1 if edges.size else 0):
        grown = np.zeros_like(depth)
        grown.flat[targets[starts]] = np.maximum.reduceat(
            depth[rows, sources] + 1.0, starts)
        if (grown == depth).all():
            break
        depth = grown
    depth[~cross.any(axis=1), 0] = 1.0
    return depth


# About how many numbers one stacked array of a face solve may hold; a
# larger set of faces is solved as several stacks, so peak memory is bounded.
_STACK_ENTRIES = 2 ** 18


@dataclass(frozen=True)
class _Tables:
    """The partitions of one side with at least two blocks, stacked by
    block count and canonically within a count; every array is read-only,
    since the tables are kept in the memo (see ``_Side``)."""

    parts: tuple[BlockPartition, ...]
    block_of: np.ndarray  # (A, size) block of each symbol
    pairs: np.ndarray     # (2E,) lower ends of the strict pairs, then upper
    scores: np.ndarray | None  # (A, size) quotient depths, zero past k;
    #                            extended mode only
    runs: tuple[tuple[int, int, int], ...]  # (k, start, stop) per count k

    def rows(self, start: int, stop: int) -> _Tables:
        """The tables of the partitions ``parts[start:stop]``."""
        return _Tables(self.parts[start:stop], self.block_of[start:stop],
                       self.pairs,
                       None if self.scores is None
                       else self.scores[start:stop],
                       tuple((k, max(a, start) - start, min(b, stop) - start)
                             for k, a, b in self.runs
                             if a < stop and b > start))


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _side_table(p: Poset, parts: Sequence[BlockPartition],
                extended: bool) -> _Tables:
    """The tables of the partitions with at least two blocks; a face with a
    single block on either side has no candidates."""
    group = sorted((q for q in parts if len(q.blocks) >= 2),
                   key=lambda q: len(q.blocks))
    pairs = np.array(p.pairs_sorted(), dtype=np.intp).reshape(-1, 2).T
    lower, upper = pairs
    block_of = _frozen(np.array([q.block_of for q in group],
                                dtype=np.intp).reshape(len(group), p.size))
    scores = None
    if extended:
        # depths over all ``size`` block labels: a partition has no edge
        # into the labels past its own k, so their depths stay zero
        step = max(1, _STACK_ENTRIES // max(1, len(lower)))
        scores = _frozen(np.concatenate([np.zeros((0, p.size))] + [
            _quotient_scores(rows[:, lower], rows[:, upper], p.size)
            for rows in (block_of[a:a + step]
                         for a in range(0, len(group), step))
        ]))
    counts = [len(q.blocks) for q in group]
    runs = tuple((k, bisect_left(counts, k), bisect_right(counts, k))
                 for k in sorted(set(counts)))
    return _Tables(tuple(group), block_of, _frozen(pairs.ravel()), scores,
                   runs)


# At most this many partitions, summed over the orders, are kept in the
# memo of faces and tables; an order with more is solved without being kept.
MEMO_PARTITIONS = 4096


class _Side(NamedTuple):
    """The faces of one order in canonical order, and their tables."""

    parts: tuple[BlockPartition, ...]
    table: _Tables


class _SideMemo:
    """The faces and tables of the orders solved last, least recently used
    first, holding at most ``MEMO_PARTITIONS`` partitions in all.

    Keys are ``(size, strict_pairs, extended, FACE_LIMIT)``: the faces
    depend on the order alone, not on its labels or on the pmf, and the
    tables only add the structural scores of extended mode.  A lock keeps
    the count right when several threads solve at once.
    """

    def __init__(self):
        self.entries: OrderedDict[tuple, _Side] = OrderedDict()
        self.held = 0  # partitions held, summed over the entries
        self._lock = threading.Lock()

    def get(self, key) -> _Side | None:
        with self._lock:
            side = self.entries.get(key)
            if side is not None:
                self.entries.move_to_end(key)
            return side

    def put(self, key, side: _Side) -> None:
        with self._lock:
            if key in self.entries or len(side.parts) > MEMO_PARTITIONS:
                return
            self.entries[key] = side
            self.held += len(side.parts)
            while self.held > MEMO_PARTITIONS:
                self.held -= len(self.entries.popitem(last=False)[1].parts)

    def clear(self) -> None:
        with self._lock:
            self.entries.clear()
            self.held = 0


_MEMO = _SideMemo()


def _sides(px: Poset, py: Poset, extended: bool) -> list[_Side]:
    """The faces and tables of both orders, from the memo or built and
    kept there.

    Raises :class:`EnumerationTooLarge` when the instance has more than
    ``FACE_LIMIT`` faces, before any table is built or anything is kept.
    """
    keys = [(p.size, p.strict_pairs, extended, FACE_LIMIT) for p in (px, py)]
    held = [_MEMO.get(key) for key in keys]
    # canonical face order, so a face's place in a stack never depends on
    # the order the enumerator returned
    parts = [side.parts if side else
             tuple(sorted(distinct_partitions(p), key=lambda q: q.blocks))
             for p, side in zip((px, py), held)]
    n_faces = len(parts[0]) * len(parts[1])
    if n_faces > FACE_LIMIT:
        raise EnumerationTooLarge(
            f"{len(parts[0])} x {len(parts[1])} = {n_faces} faces exceed the "
            f"limit {FACE_LIMIT}"
        )
    for i, p in enumerate((px, py)):
        if held[i] is None:
            held[i] = _Side(parts[i], _side_table(p, parts[i], extended))
            _MEMO.put(keys[i], held[i])
    return held


def _stacks(tx: _Tables, ty: _Tables):
    """Every face, as stacks ``(tx, ty)`` of consecutive partitions of
    each side, each small enough that no array of its solve, padded to the
    alphabet sizes, holds much more than ``_STACK_ENTRIES`` numbers."""
    nx, ex = tx.block_of.shape[1], len(tx.pairs)
    ny, ey = ty.block_of.shape[1], len(ty.pairs)
    # numbers per face (merged pmf, block functions and their values at
    # the pair ends), per X partition (X-merged rows and pair-end blocks)
    # and per Y partition
    per_face = nx * ny + min(nx, ny) * (nx + ny + ex + ey)
    per_x = nx * ny + ex
    per_y = ny + ey
    step_y = max(1, min(len(ty.parts), _STACK_ENTRIES // per_face,
                        _STACK_ENTRIES // per_y))
    step_x = max(1, min(_STACK_ENTRIES // (per_face * step_y),
                        _STACK_ENTRIES // per_x))
    for a in range(0, len(tx.parts), step_x):
        sub_x = tx.rows(a, a + step_x)
        for b in range(0, len(ty.parts), step_y):
            yield sub_x, ty.rows(b, b + step_y)


def _merge(p: np.ndarray, bx: np.ndarray, by: np.ndarray) -> np.ndarray:
    """(Ax, Ay, nx, ny) merged pmfs of the faces ``bx`` x ``by``: entry
    (r, s) adds the mass of the symbols in X block r and Y block s, and the
    entries past a face's block counts are zero.

    X blocks are merged first, then Y blocks, each adding its members in
    index order: the sums of the one-hot product ``Zx p Zy^T``.
    """
    ax, nx = bx.shape
    ay, ny = by.shape
    target = (np.arange(ax)[:, None] * nx + bx)[..., None] * ny + \
        np.arange(ny)
    rows = np.bincount(target.ravel(),
                       weights=np.broadcast_to(p, target.shape).ravel(),
                       minlength=ax * nx * ny).reshape(ax, 1, nx, ny)
    target = np.arange(ax * ay * nx).reshape(ax, ay, nx, 1) * ny + \
        by[None, :, None, :]
    return np.bincount(target.ravel(),
                       weights=np.broadcast_to(rows, target.shape).ravel(),
                       minlength=ax * ay * nx * ny).reshape(ax, ay, nx, ny)


def _monotone(vecs: np.ndarray, block_of: np.ndarray, pairs: np.ndarray):
    """:func:`is_monotone` of the lift of each block function in ``vecs``
    and of its negation: no strict pair has f(lower) > f(upper) + tol,
    where tol is ``MONOTONE_TOL``.

    ``block_of`` holds the block of each symbol, broadcasting against the
    leading axes of ``vecs``; ``pairs`` the lower ends of the strict pairs,
    then their upper ends.  Each function is lifted to the symbols once,
    and the pair ends are read off the lift.  A pair inside one block
    compares a value with itself, which passes.  For the negation,
    -lo > -hi + tol is tested as lo < hi - tol: rounding is symmetric, so
    the two agree bit for bit.
    """
    lead = vecs.shape[:-1]
    picked = np.take(vecs, np.arange(math.prod(lead)).reshape(*lead, 1)
                     * vecs.shape[-1] + block_of)[..., pairs]
    half = len(pairs) // 2
    lo, hi = picked[..., :half], picked[..., half:]
    return (~(lo > hi + MONOTONE_TOL).any(axis=-1),
            ~(lo < hi - MONOTONE_TOL).any(axis=-1))


def _standardized(weights: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Rows of ``vecs[..., t, k]`` with zero mean and unit variance within
    1e-8 under ``weights[..., k, 1]``."""
    mean = vecs @ weights
    var = (vecs * vecs) @ weights - mean * mean
    return ((np.abs(mean) <= _FEASIBILITY_TOL) &
            (np.abs(var - 1.0) <= _FEASIBILITY_TOL))[..., 0]


def _normalize(weights: np.ndarray, vecs: np.ndarray):
    """Each row of ``vecs`` centred and scaled to unit variance under
    ``weights``, and where that is possible (variance above 1e-24)."""
    centered = vecs - vecs @ weights
    var = (centered * centered) @ weights
    ok = var > 1e-24
    return centered / np.sqrt(np.where(ok, var, 1.0)), ok[..., 0]


def _cov(merged: np.ndarray, wx: np.ndarray, wy: np.ndarray,
         f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Covariance of each row pair of ``f`` and ``g`` under its face's pmf
    ``merged`` with marginals ``wx`` and ``wy``."""
    cross = (f * (g @ np.swapaxes(merged, -1, -2))).sum(axis=-1)
    return cross - ((f @ wx) * (g @ wy))[..., 0]


class _Kept(NamedTuple):
    """Candidates of one kind and orientation across a stack of faces."""

    hit: np.ndarray       # (Ax, Ay, T) kept
    flip: np.ndarray      # (Ax, Ay, T) kept as the global flip of the pair
    cov: np.ndarray       # (Ax, Ay, T) covariance
    f: np.ndarray         # (Ax, Ay, T, nx) block functions, padded
    g: np.ndarray         # (Ax, Ay, T, ny)
    tx: _Tables
    ty: _Tables
    ties: np.ndarray      # (Ax, Ay) tied residual gaps per face
    kind: str
    orientation: int

    def candidate(self, a: int, b: int, t: int) -> tuple[Candidate, bool]:
        """The candidate in cell (a, b, t), lifted to the support
        alphabets, and whether its face's residual spectrum has a tie."""
        bx, by = self.tx.parts[a], self.ty.parts[b]
        s = -1.0 if self.flip[a, b, t] else 1.0
        pair = ScoredPair(
            f=s * self.f[a, b, t][np.asarray(bx.block_of)],
            g=s * self.orientation * self.g[a, b, t][np.asarray(by.block_of)])
        return Candidate(
            partition_x=bx, partition_y=by, kind=self.kind,
            index=int(t) + 2 if self.kind == "svd" else 0,
            orientation=self.orientation, pair=pair,
            cov=float(self.cov[a, b, t]),
        ), bool(self.ties[a, b])


def _solve_stack(js: JointPmf, tx: _Tables, ty: _Tables, opts: CmcOptions):
    """Every face of one stack at once, whatever its shapes (kx, ky).

    The merge, the spectral pass (:func:`padded_residual_spectra`) and the
    feasibility, monotone, structural and covariance checks run once on
    arrays padded to the alphabet sizes; the padded entries carry no mass
    and their singular indices are masked.  Per shape only the
    renormalization total of its merged pmfs is taken and, inside the
    spectral pass, one SVD.

    Returns ``(kept, checked, degenerate)`` with ``kept`` a list of
    :class:`_Kept`.
    """
    extended = opts.mode == "extended"
    merged = _merge(js.p, tx.block_of, ty.block_of)
    ax, ay, nx, ny = merged.shape
    totals = np.empty((ax, ay, 1, 1))
    for kx, xa, xb in tx.runs:
        for ky, ya, yb in ty.runs:
            # the total of a contiguous (kx, ky) block: summed over the
            # padded layout, it would round differently
            totals[xa:xb, ya:yb] = np.ascontiguousarray(
                merged[xa:xb, ya:yb, :kx, :ky]).sum(axis=(-2, -1),
                                                    keepdims=True)
    merged /= totals
    values, real, left, right, wx, wy = padded_residual_spectra(
        merged, tx.runs, ty.runs)
    # only neighbours within a face's spectrum can tie
    ties = ((np.abs(np.diff(values, axis=-1)) <= TIE_TOL)
            & real[..., 1:]).sum(axis=-1)
    # paper_faithful tests the second singular pair alone
    svd = slice(0, left.shape[2] if extended else 1)
    # (Ax, Ay, n, 1) marginals, zero past each face's blocks
    wx, wy = wx[..., None], wy[..., None]
    # (Ax, Ay, T, n): the block functions of singular index t + 2; only
    # the padded blocks have zero mass, and their entries stay zero
    f = left[:, :, svd] / np.swapaxes(
        np.sqrt(np.where(wx > 0.0, wx, 1.0)), -1, -2)
    g = right[:, :, svd] / np.swapaxes(
        np.sqrt(np.where(wy > 0.0, wy, 1.0)), -1, -2)
    feasible = real[..., svd] & _standardized(wx, f) & _standardized(wy, g)
    if extended:
        # the structural fallback rides along as one more row
        fn, ok_f = _normalize(wx, tx.scores[:, None, None])
        gn, ok_g = _normalize(wy, ty.scores[None, :, None])
        f = np.concatenate([f, fn], axis=2)
        g = np.concatenate([g, gn], axis=2)
    up_f, down_f = _monotone(f, tx.block_of[:, None, None], tx.pairs)
    up_g, down_g = _monotone(g, ty.block_of[None, :, None], ty.pairs)
    cov = _cov(merged, wx, wy, f, g)
    kept = []
    checked = 0
    svd_f, svd_g = f[..., svd, :], g[..., svd, :]
    for orientation in (1, -1) if extended else (1,):
        # the pair is tested first, then its global flip, which has the
        # same covariance
        first = feasible & up_f[..., svd] & up_g[..., svd]
        flip = feasible & ~first
        checked += np.count_nonzero(feasible) + np.count_nonzero(flip)
        kept.append(_Kept(first | (flip & down_f[..., svd] & down_g[..., svd]),
                          flip, orientation * cov[..., svd], svd_f, svd_g,
                          tx, ty, ties, "svd", orientation))
        up_g, down_g = down_g, up_g
    if extended:
        ok = ok_f & ok_g
        checked += np.count_nonzero(ok)
        last = slice(svd.stop, None)
        kept.append(_Kept(ok & up_f[..., last] & up_g[..., last],
                          np.zeros_like(ok), cov[..., last], f[..., last, :],
                          g[..., last, :], tx, ty, ties, "structural", 1))
    return kept, checked, int(ties.sum())


def _extend_monotone(sub_values: np.ndarray, keep: tuple[int, ...],
                     poset: Poset) -> np.ndarray:
    """Extend a support witness to zero-mass symbols, preserving monotonicity.

    Each removed symbol gets the maximum witness value among support
    symbols strictly below it (the overall minimum when none are); the
    closure property of the stored relation makes this extension monotone
    at the same tolerance.  One walk over the strict pairs from a support
    symbol to a removed one finds every such maximum; the pairs are
    sorted, so of equal values the lowest-indexed symbol's wins.
    """
    full = np.full(poset.size, float(np.min(sub_values)))
    full[list(keep)] = sub_values
    kept = set(keep)
    lifted = set()  # removed symbols with a support symbol below
    for s, z in sorted(pair for pair in poset.strict_pairs
                       if pair[0] in kept and pair[1] not in kept):
        if z not in lifted or full[s] > full[z]:
            full[z] = full[s]
            lifted.add(z)
    return full


def _clip_value(v: float) -> float:
    if not (-1.0 - _VALUE_GUARD <= v <= 1.0 + _VALUE_GUARD):
        raise NumericalFailure(f"candidate covariance {v!r} outside [-1, 1]")
    return min(max(v, -1.0), 1.0)


def cmc_exact(j: JointPmf, px: Poset, py: Poset,
              opts: CmcOptions = CmcOptions()) -> CorrelationReport:
    """Exact CMC of ``j`` with respect to the orders ``px`` and ``py``.

    Ties within ``TIE_TOL`` of the maximum are broken lexicographically by
    (canonical partition pair, singular index, orientation), which makes
    the report independent of the order in which faces are evaluated.
    Raises :class:`EnumerationTooLarge` when the instance has more than
    ``FACE_LIMIT`` faces, before any merge or spectral work.
    """
    start = time.perf_counter()
    js, pxs, pys, keep_x, keep_y = strip_zero_support(j, px, py)
    side_x, side_y = _sides(pxs, pys, opts.mode == "extended")
    # each stack is reduced before the next is solved: only the candidates
    # within TIE_TOL of the best covariance so far are kept
    best_cov = -math.inf
    near: list[tuple[Candidate, bool]] = []
    checked = n_kept = degenerate = 0
    for tx, ty in _stacks(side_x.table, side_y.table):
        kept, n, d = _solve_stack(js, tx, ty, opts)
        checked += n
        degenerate += d
        for k in kept:
            if k.hit.any():
                n_kept += np.count_nonzero(k.hit)
                best_cov = max(best_cov, float(k.cov[k.hit].max()))
        near = [c for c in near if c[0].cov >= best_cov - TIE_TOL]
        near += [k.candidate(*cell) for k in kept for cell in zip(*np.nonzero(
            k.hit & (k.cov >= best_cov - TIE_TOL)))]
    diagnostics = {
        "mode": opts.mode,
        "partitions_enumerated": len(side_x.parts) * len(side_y.parts),
        "faces_solved": len(side_x.table.parts) * len(side_y.table.parts),
        "candidates_checked": int(checked),
        "candidates_kept": int(n_kept),
        "degenerate_spectra": degenerate,
    }

    if not n_kept:
        diagnostics["no_witness"] = True
        diagnostics["explanation"] = (
            "no singular-pair candidate was monotone on any merge subset; "
            "the literal candidate set cannot certify this instance "
            "(its optimum is negative or degenerate); use extended mode"
        )
        diagnostics["runtime_seconds"] = time.perf_counter() - start
        return CorrelationReport(measure="cmc", value=float("nan"),
                                 witness=None, diagnostics=diagnostics)

    best, tied = min(near, key=lambda c: c[0].sort_key())
    diagnostics["tie_candidates"] = len(near)
    # the report's value is the winner's covariance as pair_stats gives it
    value = _clip_value(pair_stats(js, best.pair).cov)

    witness = ScoredPair(
        f=_extend_monotone(best.pair.f, keep_x, px),
        g=_extend_monotone(best.pair.g, keep_y, py),
    )
    diagnostics["winning_partition_x"] = best.partition_x.blocks
    diagnostics["winning_partition_y"] = best.partition_y.blocks
    diagnostics["winning_kind"] = best.kind
    diagnostics["winning_index"] = best.index
    diagnostics["winning_orientation"] = best.orientation
    diagnostics["winning_face_degenerate"] = tied
    diagnostics["runtime_seconds"] = time.perf_counter() - start
    return CorrelationReport(measure="cmc", value=value, witness=witness,
                             diagnostics=diagnostics)


def cmc_plus(j: JointPmf, px: Poset, py: Poset,
             opts: CmcOptions = CmcOptions()) -> float:
    """CMC clipped at zero; NaN propagates from a no-witness report."""
    value = cmc_exact(j, px, py, opts).value
    if math.isnan(value):
        return value
    return max(0.0, value)


def cmc_x_reversed(j: JointPmf, px: Poset, py: Poset,
                   opts: CmcOptions = CmcOptions()) -> CorrelationReport:
    """CMC with the X order reversed (detects discordant dependence)."""
    report = cmc_exact(j, reverse(px), py, opts)
    return replace(report, measure="cmc_x_reversed")


def mgf_rhs(j: JointPmf, s1: float, s2: float,
            s_min: float = 1e-3) -> float:
    """Normalized moment-generating-function discrepancy at (s1, s2).

    |M_XY(s1, s2) - M_X(s1) M_Y(s2)| divided by the geometric mean of
    Var(e^{s1 X}) and Var(e^{s2 Y}); a lower bound certificate for
    max(cmc, cmc with X reversed) since x -> sgn(s) e^{s x} is increasing.
    """
    if j.x_values is None or j.y_values is None:
        raise MissingValues("mgf bound needs numeric embeddings")
    if abs(s1) < s_min or abs(s2) < s_min:
        raise SOutOfRange(f"|s| must be at least {s_min}")
    xv = np.asarray(j.x_values)
    yv = np.asarray(j.y_values)
    px = marginal_x(j)
    py = marginal_y(j)

    def m_x(s):
        return float(px @ np.exp(s * xv))

    def m_y(s):
        return float(py @ np.exp(s * yv))

    m_joint = float(np.sum(j.p * np.exp(s1 * xv[:, None] + s2 * yv[None, :])))
    dx = m_x(2 * s1) - m_x(s1) ** 2
    dy = m_y(2 * s2) - m_y(s2) ** 2
    floor_x = 1e-12 * (1.0 + abs(m_x(2 * s1)))
    floor_y = 1e-12 * (1.0 + abs(m_y(2 * s2)))
    if not all(map(math.isfinite, (m_joint, dx, dy))) or \
            dx <= floor_x or dy <= floor_y:
        raise DegenerateDenominator(
            f"degenerate or non-finite moments at ({s1}, {s2})"
        )
    return abs(m_joint - m_x(s1) * m_y(s2)) / math.sqrt(dx * dy)


def mgf_bound_sup(j: JointPmf, grid) -> float:
    """Maximum of :func:`mgf_rhs` over a grid of (s1, s2) points."""
    grid = list(grid)
    if not grid:
        raise EmptyInput("mgf grid must contain at least one point")
    return max(mgf_rhs(j, float(s1), float(s2)) for s1, s2 in grid)


def default_mgf_grid(scales=(0.25, 0.5, 1.0, 2.0)) -> list[tuple[float, float]]:
    """All sign combinations of the given scales: the set {+-a} x {+-b}."""
    pts = [s for a in scales for s in (a, -a)]
    return [(s1, s2) for s1 in pts for s2 in pts]
