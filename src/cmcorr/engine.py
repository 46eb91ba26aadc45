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
built, so memory stays bounded.  A near candidate is kept as its
covariance, its sort key and its block-function rows, gathered from the
stack in one pass; only the winner is lifted into a :class:`Candidate`,
when the report is made.  Kept candidates are feasible by
construction, so the reported maximum never overshoots the true value.
Only candidates within rounding (``TIE_WINDOW``) of the best covariance
tie, so the report is the best certified covariance.  Instances with more
than ``FACE_LIMIT`` faces are refused before any spectral work.  The faces
and tables of an order depend on the order alone, so those of recently
solved orders are kept in a small memo keyed on ``(size, strict_pairs)``
and bounded by the partitions it holds (``MEMO_PARTITIONS``).

One solve answers both the CMC and the CMC with the X order reversed
(``cmc_with_x_reversed``).  Reversal keeps every face: a block connected
through strict pairs stays connected, and an acyclic quotient stays
acyclic.  So ``reverse(px)`` has the faces, merged pmfs and SVDs of ``px``,
and each pair (f, g) of a face maps to (-f, g), with the opposite
covariance.  The Y side's checks are shared too.  Only the X side's
monotone checks and its structural row are taken once more, the latter
from the reversed order's own quotient depths, which on a general poset
are not the negated depths.  Each order keeps its own reduction and
tie-break, so each report is bit for bit that of a solve of its order
alone, and a forward-only solve does none of this extra work.

Many pmfs over one pair of orders are solved together (``cmc_many``).
The faces and tables depend on the orders alone, so the pmfs whose
stripped orders agree form one group, and every stack of the group carries
a leading pmf axis: one merge, one spectral pass and one set of checks for
all of them, and per shape one stacked SVD.  The SVD and every sum see each
pmf's faces as they would alone, and each pmf keeps its own reduction and
tie-break, so each report is bit for bit that of a solve of its pmf alone.
``cmc_exact`` and ``cmc_with_x_reversed`` are the one-pmf case.  In the
same way ``mgf_bound_sups`` answers one grid for many pmfs, with the
exponentials of the pmfs that share their embeddings taken once.

Every stack is solved for the extended candidates; the two candidate
policies differ only in which of them ``cmc_exact`` keeps:

* ``extended`` (default): all singular indices i >= 2 with both
  orientations (cov = +lambda_i and cov = -lambda_i), plus one structural
  fallback per face built from quotient depths, so negative and zero
  optima are certified as well.  This mode always returns a value.
* ``paper_faithful``: only the second singular pair in positive
  orientation, testing the pair and its global sign flip: a filter on the
  extended candidates.  When no such candidate is monotone on any face, the
  report carries a NaN value and a ``no_witness`` diagnostic instead of a
  fabricated number.
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
    CmcorrError,
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
_S_MIN = 1e-3  # the least |s| of the moment-generating-function bound
# Neighbouring residual singular values of a face within this tie.
TIE_TOL = 1e-9
# Candidates within this of the best covariance tie: rounding alone, since
# |cov| <= 1 + _VALUE_GUARD.
TIE_WINDOW = 8 * float(np.finfo(float).eps)

# Largest face count |parts_x| * |parts_y| the engine will solve.
FACE_LIMIT = 2 ** 16


@dataclass(frozen=True)
class CmcOptions:
    """The exact engine's one knob: the candidate policy, one of ``MODES``.

    The policy filters the candidates every face is solved for, so both
    modes share one solve and one memo.  The tolerances are fixed
    (``order.MONOTONE_TOL`` for the monotone check, ``TIE_TOL`` for ties),
    and so is the size guard: instances with more than ``FACE_LIMIT`` faces
    raise :class:`EnumerationTooLarge`.
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
    elements skip the components and are added once, as singletons.  The
    list comes in generation order, which is deterministic; callers that
    need an order sort it (``_side_table`` does).

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
    rank = [0] * n  # bottom-up, by the number of elements below
    for r, i in enumerate(p.linear_extension()):
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
    return [partition_from_blocks([*map(bits, part), *singles], n)
            for part in parts]


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
    """The partitions of one side with at least two blocks, by block count
    and canonically within a count, whatever order they were listed in;
    every array is read-only, since the memo keeps them (see ``_Side``)."""

    parts: tuple[BlockPartition, ...]
    block_of: np.ndarray  # (A, size) block of each symbol
    pairs: np.ndarray     # (2E,) lower ends of the strict pairs, then upper
    scores: np.ndarray    # (A, size) quotient depths, zero past k
    runs: tuple[tuple[int, int, int], ...]  # (k, start, stop) per count k
    # the same partitions under the reversed order, once a solve asked
    flipped: _Tables | None = None

    def rows(self, start: int, stop: int) -> _Tables:
        """The tables of the partitions ``parts[start:stop]``."""
        return _Tables(self.parts[start:stop], self.block_of[start:stop],
                       self.pairs, self.scores[start:stop],
                       tuple((k, max(a, start) - start, min(b, stop) - start)
                             for k, a, b in self.runs
                             if a < stop and b > start),
                       None if self.flipped is None
                       else self.flipped.rows(start, stop))

    def flip(self) -> _Tables:
        """The tables of the reversed order, which has the same faces: the
        pair ends swapped, and the quotient depths taken along them."""
        lower, upper = self.pairs.reshape(2, -1)
        return replace(self, pairs=_frozen(np.concatenate([upper, lower])),
                       scores=_depths(self.block_of, upper, lower))


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _side_table(p: Poset, parts: Sequence[BlockPartition]) -> _Tables:
    """The tables of the partitions with at least two blocks; a face with a
    single block on either side has no candidates."""
    group = sorted((q for q in parts if len(q.blocks) >= 2),
                   key=lambda q: (len(q.blocks), q.blocks))
    pairs = np.array(p.pairs_sorted(), dtype=np.intp).reshape(-1, 2).T
    block_of = _frozen(np.array([q.block_of for q in group],
                                dtype=np.intp).reshape(len(group), p.size))
    counts = [len(q.blocks) for q in group]
    runs = tuple((k, bisect_left(counts, k), bisect_right(counts, k))
                 for k in sorted(set(counts)))
    return _Tables(tuple(group), block_of, _frozen(pairs.ravel()),
                   _depths(block_of, *pairs), runs)


def _depths(block_of: np.ndarray, lower: np.ndarray,
            upper: np.ndarray) -> np.ndarray:
    """:func:`_quotient_scores` of every partition in ``block_of`` (A,
    size) along the strict pairs ``(lower, upper)``, over all ``size``
    block labels: a partition has no edge into the labels past its own k,
    so their depths stay zero.  Depths are exact integers, so neither the
    order of the pairs nor the chunking moves them."""
    size = block_of.shape[1]
    step = max(1, _STACK_ENTRIES // max(1, len(lower)))
    return _frozen(np.concatenate([np.zeros((0, size))] + [
        _quotient_scores(rows[:, lower], rows[:, upper], size)
        for rows in (block_of[a:a + step]
                     for a in range(0, len(block_of), step))
    ]))


# At most this many partitions, summed over the orders, are kept in the
# memo of faces and tables; an order with more is solved without being kept.
MEMO_PARTITIONS = 4096


class _Side(NamedTuple):
    """The number of faces of one order, and their tables."""

    faces: int
    table: _Tables


class _SideMemo:
    """The face counts and tables of the orders solved last, least recently
    used first, holding at most ``MEMO_PARTITIONS`` partitions in all.

    Keys are ``(size, strict_pairs)``: the faces and tables depend on the
    order alone, not on its labels, the pmf, the mode or ``FACE_LIMIT`` (a
    held order over a lowered limit is refused by its instance's face
    count).  A lock keeps the count right when several threads solve at
    once.
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
        """Keep ``side`` under ``key`` as the most recently used entry, in
        place of any entry held there."""
        with self._lock:
            if side.faces > MEMO_PARTITIONS:
                return
            old = self.entries.pop(key, None)
            self.held += side.faces - (old.faces if old else 0)
            self.entries[key] = side
            while self.held > MEMO_PARTITIONS:
                self.held -= self.entries.popitem(last=False)[1].faces

    def clear(self) -> None:
        with self._lock:
            self.entries.clear()
            self.held = 0


_MEMO = _SideMemo()


def _sides(px: Poset, py: Poset, x_reversed: bool = False) -> list[_Side]:
    """The face counts and tables of both orders, from the memo or built
    and kept there; an order on both sides is enumerated once.  With
    ``x_reversed``, the X table carries the tables of ``reverse(px)`` as
    ``flipped``, built once and kept with it.

    Raises :class:`EnumerationTooLarge` when the instance has more than
    ``FACE_LIMIT`` faces, before any table is built or anything is kept.
    """
    keys = [(p.size, p.strict_pairs) for p in (px, py)]
    orders = dict(zip(keys, (px, py)))  # one entry per distinct order
    held = {key: _MEMO.get(key) for key in orders}
    parts = {key: distinct_partitions(p)
             for key, p in orders.items() if held[key] is None}
    counts = [held[key].faces if held[key] else len(parts[key])
              for key in keys]
    n_faces = counts[0] * counts[1]
    if n_faces > FACE_LIMIT:
        raise EnumerationTooLarge(
            f"{counts[0]} x {counts[1]} = {n_faces} faces exceed the "
            f"limit {FACE_LIMIT}"
        )
    for key, faces in parts.items():
        held[key] = _Side(len(faces), _side_table(orders[key], faces))
        _MEMO.put(key, held[key])
    side = held[keys[0]]
    if x_reversed and side.table.flipped is None:
        held[keys[0]] = side._replace(
            table=replace(side.table, flipped=side.table.flip()))
        _MEMO.put(keys[0], held[keys[0]])
    return [held[key] for key in keys]


def _stacks(count: int, tx: _Tables, ty: _Tables):
    """Every face of ``count`` pmfs, as stacks ``(pmfs, tx, ty)`` of
    consecutive pmfs (a slice) and consecutive partitions of each side,
    each small enough that no array of its solve, padded to the alphabet
    sizes, holds much more than ``_STACK_ENTRIES`` numbers: the budget
    counts pmfs times faces.  The pmfs are cut last, so one pmf is cut as
    it would be alone."""
    nx, ex = tx.block_of.shape[1], len(tx.pairs)
    ny, ey = ty.block_of.shape[1], len(ty.pairs)
    # numbers per face of a pmf (merged pmf, block functions and their
    # values at the pair ends), per X partition of a pmf (X-merged rows and
    # pair-end blocks) and per Y partition
    per_face = nx * ny + min(nx, ny) * (nx + ny + ex + ey)
    per_x = nx * ny + ex
    per_y = ny + ey
    step_y = max(1, min(len(ty.parts), _STACK_ENTRIES // per_face,
                        _STACK_ENTRIES // per_y))
    step_x = max(1, min(len(tx.parts), _STACK_ENTRIES // (per_face * step_y),
                        _STACK_ENTRIES // per_x))
    step = max(1, min(count, _STACK_ENTRIES // (per_face * step_x * step_y),
                      _STACK_ENTRIES // (per_x * step_x)))
    xs = [tx.rows(a, a + step_x) for a in range(0, len(tx.parts), step_x)]
    ys = [ty.rows(b, b + step_y) for b in range(0, len(ty.parts), step_y)]
    for first in range(0, count, step):
        for sub_x in xs:
            for sub_y in ys:
                yield slice(first, first + step), sub_x, sub_y


def _merge(p: np.ndarray, bx: np.ndarray, by: np.ndarray) -> np.ndarray:
    """(B, Ax, Ay, nx, ny) merged pmfs of each pmf in ``p`` (B, nx, ny) on
    the faces ``bx`` x ``by``: entry (r, s) adds the mass of the symbols in
    X block r and Y block s, and the entries past a face's block counts are
    zero.

    X blocks are merged first, then Y blocks, each adding its members in
    index order: the sums of the one-hot product ``Zx p Zy^T``.
    """
    count, nx, ny = p.shape
    ax, ay = len(bx), len(by)
    target = (np.arange(count * ax).reshape(count, ax, 1) * nx
              + bx)[..., None] * ny + np.arange(ny)
    rows = np.bincount(
        target.ravel(),
        weights=np.broadcast_to(p[:, None], target.shape).ravel(),
        minlength=count * ax * nx * ny).reshape(count, ax, 1, nx, ny)
    target = np.arange(count * ax * ay * nx).reshape(
        count, ax, ay, nx, 1) * ny + by[:, None, :]
    return np.bincount(
        target.ravel(), weights=np.broadcast_to(rows, target.shape).ravel(),
        minlength=count * ax * ay * nx * ny).reshape(count, ax, ay, nx, ny)


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
    """The candidates under one X order across a stack of faces of B pmfs.

    A face has 2T + 1 candidate cells: cell c < T holds the svd pair of
    singular index c + 2 in positive orientation, cell T + c that pair in
    negative orientation (g negated), and cell 2T the structural pair.
    Cell 0 is the literal candidate set of ``paper_faithful``.  The
    reduction reads the few cells it keeps out of these arrays and holds
    no reference to them.
    """

    hit: np.ndarray       # (B, Ax, Ay, 2T + 1) kept
    flip: np.ndarray      # (B, Ax, Ay, 2T + 1) kept as the global flip
    tested: np.ndarray    # (B, Ax, Ay, 2T + 1) tests; a tested flip is one more
    cov: np.ndarray       # (B, Ax, Ay, 2T + 1) covariance
    f: np.ndarray         # (B, Ax, Ay, T + 1, nx) block functions, padded;
    g: np.ndarray         # (B, Ax, Ay, T + 1, ny) row T is the structural one
    tx: _Tables
    ty: _Tables
    ties: np.ndarray      # (B, Ax, Ay) tied residual gaps per face


class _Near(NamedTuple):
    """A kept cell within ``TIE_WINDOW`` of its pmf's best covariance so
    far: its sort key and covariance, and what its :class:`Candidate` is
    built from, should it win."""

    key: tuple            # Candidate.sort_key of the cell
    cov: float
    partition_x: BlockPartition
    partition_y: BlockPartition
    f: np.ndarray         # (nx,) block function, padded
    g: np.ndarray         # (ny,) block function, padded, before orientation
    sign: float           # -1.0 when kept as the global flip
    tied: bool            # its face's residual spectrum has a tie

    def candidate(self) -> Candidate:
        """The cell's candidate, lifted to the support alphabets."""
        _, _, structural, index, negative = self.key
        orientation = -1 if negative else 1
        s = self.sign
        return Candidate(
            partition_x=self.partition_x, partition_y=self.partition_y,
            kind="structural" if structural else "svd", index=index,
            orientation=orientation,
            pair=ScoredPair(
                f=s * self.f[np.asarray(self.partition_x.block_of)],
                g=s * orientation
                * self.g[np.asarray(self.partition_y.block_of)]),
            cov=self.cov)


def _solve_stack(p: np.ndarray, tx: _Tables, ty: _Tables, x_reversed: bool):
    """Every face of one stack for each pmf of ``p`` (B, nx, ny) at once,
    whatever its shapes (kx, ky).

    The merge, the spectral pass (:func:`padded_residual_spectra`) and the
    feasibility, monotone, structural and covariance checks run once on
    arrays padded to the alphabet sizes, with a leading pmf axis; the
    padded entries carry no mass and their singular indices are masked.
    Per shape only the renormalization total of its merged pmfs is taken
    and, inside the spectral pass, one SVD.

    Reversing X keeps the faces, the merged pmfs, the spectra and every Y
    side check, so with ``x_reversed`` only the X side's structural row,
    monotone checks and covariances are taken once more, along
    ``tx.flipped``, exactly as a solve of the reversed order takes them.

    Returns ``(kept, degenerate)``: ``kept`` holds the :class:`_Kept` of
    the order and then, when asked, of its X reversal; ``degenerate`` (B,)
    counts each pmf's tied residual gaps.
    """
    merged = _merge(p, tx.block_of, ty.block_of)
    totals = np.empty(merged.shape[:3] + (1, 1))
    for kx, xa, xb in tx.runs:
        for ky, ya, yb in ty.runs:
            # the total of a contiguous (kx, ky) block: summed over the
            # padded layout, it would round differently
            totals[:, xa:xb, ya:yb] = np.ascontiguousarray(
                merged[:, xa:xb, ya:yb, :kx, :ky]).sum(axis=(-2, -1),
                                                       keepdims=True)
    merged /= totals
    values, real, left, right, wx, wy = padded_residual_spectra(
        merged, tx.runs, ty.runs)
    # only neighbours within a face's spectrum can tie
    ties = ((np.abs(np.diff(values, axis=-1)) <= TIE_TOL)
            & real[..., 1:]).sum(axis=-1)
    # (B, Ax, Ay, n, 1) marginals, zero past each face's blocks
    wx, wy = wx[..., None], wy[..., None]
    # (B, Ax, Ay, T, n): the block functions of singular index t + 2; only
    # the padded blocks have zero mass, and their entries stay zero
    f = left / np.swapaxes(np.sqrt(np.where(wx > 0.0, wx, 1.0)), -1, -2)
    g = right / np.swapaxes(np.sqrt(np.where(wy > 0.0, wy, 1.0)), -1, -2)
    feasible = real & _standardized(wx, f) & _standardized(wy, g)
    # the structural fallback rides along as one more row
    gn, ok_g = _normalize(wy, ty.scores[None, :, None])
    g = np.concatenate([g, gn], axis=-2)
    up, down = _monotone(g, ty.block_of[None, :, None], ty.pairs)
    svd, last = slice(0, -1), slice(-1, None)
    # the candidate cells of a face (see _Kept): negating g swaps its tests
    up_g = np.concatenate([up[..., svd], down[..., svd], up[..., last]],
                          axis=-1)
    down_g = np.concatenate([down[..., svd], up[..., svd], down[..., last]],
                            axis=-1)
    has_flip = np.arange(up_g.shape[-1]) < up_g.shape[-1] - 1

    def kept(tx: _Tables) -> _Kept:
        """The candidates under the X order that ``tx`` tabulates."""
        fn, ok_f = _normalize(wx, tx.scores[:, None, None])
        fx = np.concatenate([f, fn], axis=-2)
        up_f, down_f = _monotone(fx, tx.block_of[:, None, None], tx.pairs)
        cov = _cov(merged, wx, wy, fx, g)
        tried = np.concatenate([feasible, feasible, ok_f & ok_g], axis=-1)
        up_f = np.concatenate([up_f[..., svd], up_f], axis=-1)
        down_f = np.concatenate([down_f[..., svd], down_f], axis=-1)
        # an svd pair is tested first, then its global flip, which has the
        # same covariance; the structural pair has no flip
        first = tried & up_f & up_g
        flip = tried & ~first & has_flip
        return _Kept(first | (flip & down_f & down_g), flip,
                     tried.astype(np.intp) + flip,
                     np.concatenate([cov[..., svd], -cov[..., svd],
                                     cov[..., last]], axis=-1),
                     fx, g, tx, ty, ties)

    orders = [tx, tx.flipped] if x_reversed else [tx]
    return [kept(t) for t in orders], ties.sum(axis=(1, 2))


class _Reduction:
    """One order's running reduction over the stacks, for each of B pmfs:
    each stack is reduced before the next is solved, and only the cells
    within ``TIE_WINDOW`` of a pmf's best covariance so far are kept, each
    as a :class:`_Near`; the one :class:`Candidate` built is the winner's,
    in :meth:`report`."""

    def __init__(self, mode: str, count: int):
        self.mode = mode
        self.best_cov = np.full(count, -math.inf)
        self.near: list[list[_Near]] = [[] for _ in range(count)]
        self.checked = np.zeros(count, dtype=np.intp)
        self.n_kept = np.zeros(count, dtype=np.intp)

    def add(self, pmfs: slice, k: _Kept) -> None:
        """Reduce a stack of the pmfs ``pmfs``, along its leading axis."""
        if self.mode == "paper_faithful":
            # the literal set: the second singular pair, positive
            # orientation; the other fields are read only where hit holds
            k = k._replace(hit=k.hit[..., :1], tested=k.tested[..., :1],
                           cov=k.cov[..., :1])
        cells = (1, 2, 3)
        self.checked[pmfs] += k.tested.sum(axis=cells)
        self.n_kept[pmfs] += k.hit.sum(axis=cells)
        best = np.maximum(self.best_cov[pmfs],
                          np.where(k.hit, k.cov, -math.inf).max(axis=cells))
        self.best_cov[pmfs] = best
        floor = best - TIE_WINDOW
        for near, least in zip(self.near[pmfs], floor.tolist()):
            if near:
                near[:] = [c for c in near if c.cov >= least]
        i, a, b, c = np.nonzero(
            k.hit & (k.cov >= floor[:, None, None, None]))
        if not i.size:
            return
        # the cells' rows gathered in one pass; cell c's row is c, c - T
        # or, for the structural cell 2T, T (see _Kept)
        width = k.f.shape[-2] - 1
        row = c - width * (c >= width)
        f, g = k.f[i, a, b, row], k.g[i, a, b, row]
        parts_x, parts_y = k.tx.parts, k.ty.parts
        for n, (pmf, x, y, cell, cov, flip, ties) in enumerate(zip(
                (i + pmfs.start).tolist(), a.tolist(), b.tolist(),
                c.tolist(), k.cov[i, a, b, c].tolist(),
                k.flip[i, a, b, c].tolist(), k.ties[i, a, b].tolist())):
            bx, by = parts_x[x], parts_y[y]
            key = ((bx.blocks, by.blocks, 0, cell % width + 2,
                    int(cell >= width)) if cell < 2 * width
                   else (bx.blocks, by.blocks, 1, 0, 0))
            self.near[pmf].append(_Near(key, cov, bx, by, f[n], g[n],
                                        -1.0 if flip else 1.0, ties > 0))

    def report(self, i: int, measure: str, js: JointPmf, px: Poset,
               py: Poset, keep_x, keep_y, diagnostics: dict,
               start: float) -> CorrelationReport:
        """The report of pmf ``i``'s best candidate under ``px`` and
        ``py``, its witness extended to their zero-mass symbols;
        ``diagnostics`` is completed in place."""
        if not self.n_kept[i]:
            diagnostics["no_witness"] = True
            diagnostics["explanation"] = (
                "no singular-pair candidate was monotone on any merge "
                "subset; the literal candidate set cannot certify this "
                "instance (its optimum is negative or degenerate); use "
                "extended mode"
            )
            diagnostics["runtime_seconds"] = time.perf_counter() - start
            return CorrelationReport(measure=measure, value=float("nan"),
                                     witness=None, diagnostics=diagnostics)

        near = min(self.near[i], key=lambda c: c.key)
        best = near.candidate()
        diagnostics["tie_candidates"] = len(self.near[i])
        # the report's value is the winner's covariance as pair_stats
        # gives it
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
        diagnostics["winning_face_degenerate"] = near.tied
        diagnostics["runtime_seconds"] = time.perf_counter() - start
        return CorrelationReport(measure=measure, value=value,
                                 witness=witness, diagnostics=diagnostics)


def _extend_monotone(sub_values: np.ndarray, keep: tuple[int, ...],
                     poset: Poset) -> np.ndarray:
    """Extend a support witness to zero-mass symbols, preserving monotonicity.

    Each removed symbol gets the maximum witness value among support
    symbols strictly below it (the overall minimum when none are); the
    closure property of the stored relation makes this extension monotone
    at the same tolerance.  One walk over the strict pairs from a support
    symbol to a removed one finds every such maximum; the pairs are
    sorted, so of equal values the lowest-indexed symbol's wins.  With
    no symbol removed, the witness comes back as a copy.
    """
    if len(keep) == poset.size:
        return np.array(sub_values, dtype=float)
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

    Candidates within rounding (``TIE_WINDOW``) of the best covariance
    tie, and ties are broken lexicographically by (canonical partition
    pair, singular index, orientation), which makes the report
    independent of the order in which faces are evaluated.
    Raises :class:`EnumerationTooLarge` when the instance has more than
    ``FACE_LIMIT`` faces, before any merge or spectral work.  This is the
    one-pmf case of :func:`cmc_many`.
    """
    return cmc_many([j], px, py, opts)[0]


def cmc_with_x_reversed(
        j: JointPmf, px: Poset, py: Poset, opts: CmcOptions = CmcOptions(),
) -> tuple[CorrelationReport, CorrelationReport]:
    """:func:`cmc_exact` and :func:`cmc_x_reversed` of one instance, from
    one pass over the faces; each report is the one its function gives."""
    return cmc_many([j], px, py, opts, x_reversed=True)[0]


def cmc_many(js: Sequence[JointPmf], px: Poset, py: Poset,
             opts: CmcOptions = CmcOptions(),
             x_reversed: bool = False) -> list:
    """The report :func:`cmc_exact` gives for each pmf of ``js`` under
    ``px`` and ``py``, in input order; with ``x_reversed``, the pair of
    reports :func:`cmc_with_x_reversed` gives.

    Each pmf is stripped of its zero-mass symbols, and the pmfs whose
    stripped orders agree are solved as one group: their faces in shared
    stacks with a leading pmf axis (see :func:`_solve_stack`), and with
    ``x_reversed`` each stack once for both orders, since ``reverse(px)``
    has the faces of ``px``.  Each pmf keeps its own reduction and
    tie-break, so each report is bit for bit that of a call on its pmf
    alone.  The error raised is the one the first failing pmf in input
    order raises alone; an error of a group's shared faces (such as
    :class:`EnumerationTooLarge`) is its first pmf's.
    """
    start = time.perf_counter()
    orders = [("cmc", px)]
    if x_reversed:
        orders.append(("cmc_x_reversed", reverse(px)))
    out: list = [None] * len(js)
    failed: dict[int, CmcorrError] = {}
    groups: dict[tuple, list] = {}
    for i, j in enumerate(js):
        try:
            stripped = strip_zero_support(j, px, py)
        except CmcorrError as exc:
            failed[i] = exc
            break  # no later pmf can fail first
        _, pxs, pys, _, _ = stripped
        groups.setdefault((pxs.size, pxs.strict_pairs, pys.size,
                           pys.strict_pairs), []).append((i, stripped))
    for members in groups.values():
        try:
            _solve_group(members, orders, py, opts, start, out, failed)
        except CmcorrError as exc:
            failed[members[0][0]] = exc
    if failed:
        raise failed[min(failed)]
    return out


def _solve_group(members: list, orders: list, py: Poset, opts: CmcOptions,
                 start: float, out: list, failed: dict) -> None:
    """Solve the pmfs ``members``, ``(index, strip_zero_support result)``
    pairs that share their stripped orders, under each of ``orders``
    (``(measure, X order)`` pairs), and put each pmf's report, or the
    pair of them, into ``out`` at its index, or its error into
    ``failed``."""
    _, pxs, pys, _, _ = members[0][1]
    x_reversed = len(orders) > 1
    side_x, side_y = _sides(pxs, pys, x_reversed)
    p = np.array([stripped[0].p for _, stripped in members])
    reductions = [_Reduction(opts.mode, len(members)) for _ in orders]
    degenerate = np.zeros(len(members), dtype=np.intp)
    for pmfs, tx, ty in _stacks(len(members), side_x.table, side_y.table):
        kept, d = _solve_stack(p[pmfs], tx, ty, x_reversed)
        degenerate[pmfs] += d
        for reduction, k in zip(reductions, kept):
            reduction.add(pmfs, k)
    for b, (i, (js, _, _, keep_x, keep_y)) in enumerate(members):
        try:
            reports = tuple(r.report(b, measure, js, order, py, keep_x,
                                     keep_y, {
                "mode": opts.mode,
                "partitions_enumerated": side_x.faces * side_y.faces,
                "faces_solved": len(side_x.table.parts)
                * len(side_y.table.parts),
                "candidates_checked": int(r.checked[b]),
                "candidates_kept": int(r.n_kept[b]),
                "degenerate_spectra": int(degenerate[b]),
            }, start) for r, (measure, order) in zip(reductions, orders))
        except CmcorrError as exc:
            failed[i] = exc
        else:
            out[i] = reports if x_reversed else reports[0]


def cmc_plus(j: JointPmf, px: Poset, py: Poset,
             opts: CmcOptions = CmcOptions()) -> float:
    """CMC clipped at zero; NaN propagates from a no-witness report."""
    value = cmc_exact(j, px, py, opts).value
    if math.isnan(value):
        return value
    return max(0.0, value)


def cmc_x_reversed(j: JointPmf, px: Poset, py: Poset,
                   opts: CmcOptions = CmcOptions()) -> CorrelationReport:
    """CMC with the X order reversed (detects discordant dependence): the
    report of ``cmc_exact(j, reverse(px), py, opts)``, measure renamed.

    It comes from the solve of ``px`` itself (:func:`cmc_with_x_reversed`):
    reversal keeps every face, merged pmf and SVD, and maps each pair
    (f, g) to (-f, g) with the opposite covariance, so only the X side's
    monotone checks and its structural row, built from the reversed
    order's quotient depths, are taken again.
    """
    return cmc_with_x_reversed(j, px, py, opts)[1]


def mgf_rhs(j: JointPmf, s1: float, s2: float) -> float:
    """Normalized moment-generating-function discrepancy at (s1, s2).

    |M_XY(s1, s2) - M_X(s1) M_Y(s2)| divided by the geometric mean of
    Var(e^{s1 X}) and Var(e^{s2 Y}); a lower bound certificate for
    max(cmc, cmc with X reversed) since x -> sgn(s) e^{s x} is increasing.
    The one-point case of :func:`mgf_bound_sup`: missing embeddings raise
    ``MissingValues``, |s| below ``_S_MIN`` ``SOutOfRange``, and a variance
    at or below its rounding floor or any non-finite moment (one that
    overflows included) ``DegenerateDenominator``.
    """
    return _mgf_sups([j], [(s1, s2)])[0]


def mgf_bound_sup(j: JointPmf, grid) -> float:
    """Maximum of :func:`mgf_rhs` over a grid of (s1, s2) points; the
    one-pmf case of :func:`mgf_bound_sups`.

    The grid is answered in one pass: each marginal moment once per distinct
    scale, and the joint moments of all points in stacks of at most
    ``_STACK_ENTRIES`` numbers, so memory stays bounded on large alphabets.
    Every value is the one :func:`mgf_rhs` gives at its point.  An empty
    grid raises ``EmptyInput``; otherwise the error is that of the first
    failing point in grid order, and a degenerate one names that point.
    """
    return mgf_bound_sups([j], grid)[0]


def mgf_bound_sups(js: Sequence[JointPmf], grid) -> list[float]:
    """:func:`mgf_bound_sup` of each pmf of ``js`` over one grid, in input
    order, each bit for bit.

    The exponentials depend only on the embeddings and the grid, so the
    pmfs whose embeddings agree share them: each is taken once for all of
    them, and only the moments, each summed as for one pmf alone, are
    taken per pmf.  The error raised is the one the first failing pmf in
    input order raises alone.
    """
    grid = list(grid)
    if not grid:
        raise EmptyInput("mgf grid must contain at least one point")
    return _mgf_sups(js, [(float(s1), float(s2)) for s1, s2 in grid])


def _mgf_sups(js: Sequence[JointPmf], points: list) -> list[float]:
    """The largest value of :func:`mgf_rhs` over a non-empty list of
    (s1, s2) points for each pmf of ``js``, or the error of the first
    failing pmf, at its first failing point."""
    s1, s2 = np.array(points, dtype=float).reshape(-1, 2).T
    out_of_range = (np.abs(s1) < _S_MIN) | (np.abs(s2) < _S_MIN)
    failed: dict[int, CmcorrError] = {}
    groups: dict[tuple, list[int]] = {}
    for i, j in enumerate(js):
        if j.x_values is None or j.y_values is None:
            failed[i] = MissingValues("mgf bound needs numeric embeddings")
            break  # no later pmf can fail first
        groups.setdefault((j.x_values, j.y_values), []).append(i)
    out: list = [None] * len(js)
    for (xv, yv), members in groups.items():
        group = [js[i] for i in members]
        # an overflow shows as a non-finite moment
        with np.errstate(all="ignore"):
            mx, mx_sq, mx_2 = _mgf_marginal(
                [marginal_x(j) for j in group], xv, s1)
            my, my_sq, my_2 = _mgf_marginal(
                [marginal_y(j) for j in group], yv, s2)
            joint = _mgf_joint(np.array([j.p for j in group]), xv, yv, s1, s2)
            dx = mx_2 - mx_sq
            dy = my_2 - my_sq
            degenerate = (~(np.isfinite(joint) & np.isfinite(dx)
                            & np.isfinite(dy))
                          | (dx <= 1e-12 * (1.0 + np.abs(mx_2)))
                          | (dy <= 1e-12 * (1.0 + np.abs(my_2))))
            # dx * dy can overflow while both variances are finite; only
            # there is the root taken factor by factor, which rounds
            # differently
            scale = dx * dy
            scale = np.where(np.isfinite(scale), np.sqrt(scale),
                             np.sqrt(dx) * np.sqrt(dy))
            values = np.abs(joint - mx * my) / scale
        failing = out_of_range | degenerate
        for i, row, bad in zip(members, values, failing):
            if not bad.any():
                out[i] = max(row.tolist())
                continue
            k = int(bad.argmax())
            if out_of_range[k]:
                failed[i] = SOutOfRange(f"|s| must be at least {_S_MIN}")
            else:
                a, b = points[k]
                failed[i] = DegenerateDenominator(
                    f"degenerate or non-finite moments at ({a}, {b})")
    if failed:
        raise failed[min(failed)]
    return out


def _mgf_joint(p: np.ndarray, x_values, y_values, s1: np.ndarray,
               s2: np.ndarray) -> np.ndarray:
    """(B, P) E e^{s1 X + s2 Y} of each pmf of ``p`` (B, m, n) at each
    point.  The exponentials ``e^{s1 x + s2 y}`` are taken once for all
    pmfs, in stacks of at most ``_STACK_ENTRIES`` numbers, and so are
    their products with the pmfs; each pmf's row of a point is summed
    pairwise in row-major order, as ``np.sum`` sums one pmf-sized array."""
    xv = np.asarray(x_values)[:, None]
    yv = np.asarray(y_values)
    count, size = len(p), p[0].size
    step = max(1, _STACK_ENTRIES // size)
    stack = np.empty((min(step, len(s1)),) + p.shape[1:])
    joint = np.empty((count, len(s1)))
    for a in range(0, len(s1), step):
        b = min(a + step, len(s1))
        e = stack[:b - a]
        np.add(s1[a:b, None, None] * xv, s2[a:b, None, None] * yv, out=e)
        np.exp(e, out=e)
        pmfs = max(1, _STACK_ENTRIES // e.size)
        for c in range(0, count, pmfs):
            d = min(c + pmfs, count)
            joint[c:d, a:b] = (e * p[c:d, None]).reshape(
                d - c, b - a, -1).sum(axis=-1)
    return joint


def _mgf_marginal(pms: list, values, s: np.ndarray):
    """(B, P) E e^{sV}, its square and E e^{2sV} of each marginal of
    ``pms`` at each scale of ``s``.  Each exponential is taken once per
    distinct scale for all marginals, and each moment is one dot per
    marginal and scale."""
    scales, index = np.unique(np.concatenate([s, 2 * s]), return_inverse=True)
    exps = np.exp(np.multiply.outer(scales, np.asarray(values)))
    moments = [[float(pm @ e) for e in exps] for pm in pms]
    squares = np.array([[_square(m) for m in row] for row in moments])
    moments = np.array(moments)
    once, twice = index.reshape(2, -1)
    return moments[:, once], squares[:, once], moments[:, twice]


def _square(m: float) -> float:
    """``m ** 2`` as Python computes it (libm ``pow``, which can differ from
    ``m * m`` in the last bit); infinite where it overflows."""
    try:
        return m ** 2
    except OverflowError:
        return math.inf


def default_mgf_grid(scales=(0.25, 0.5, 1.0, 2.0)) -> list[tuple[float, float]]:
    """All sign combinations of the given scales: the set {+-a} x {+-b}."""
    pts = [s for a in scales for s in (a, -a)]
    return [(s1, s2) for s1 in pts for s2 in pts]
