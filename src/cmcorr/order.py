"""Finite strict partial orders, derived orders, and monotone functions.

Orders are stored transitively closed: ``strict_pairs`` holds every ordered
pair ``(i, j)`` with element ``i`` strictly below element ``j``.  Storing
the closure instead of cover relations makes the monotone check a plain
scan over pairs.  Ties always pass the monotone check (non-strict comparisons).
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass

import numpy as np

from .errors import (
    CycleDetected,
    DuplicateLabel,
    InputError,
    LengthMismatch,
    SizeTooLarge,
)

MONOTONE_TOL = 1e-9
_ENUM_LIMIT = 16


@dataclass(frozen=True)
class Poset:
    """A finite strict partial order over an indexed, labelled alphabet."""

    size: int
    labels: tuple[str, ...]
    strict_pairs: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.size <= 0:
            raise InputError("poset must have at least one element")
        if len(self.labels) != self.size:
            raise LengthMismatch(
                f"{len(self.labels)} labels for {self.size} elements"
            )
        if len(set(self.labels)) != self.size:
            raise DuplicateLabel("labels must be distinct")
        above = [0] * self.size  # bitmask of the elements above each one
        for i, j in self.strict_pairs:
            if not (0 <= i < self.size and 0 <= j < self.size):
                raise InputError(f"pair ({i}, {j}) out of range")
            if i == j:
                raise CycleDetected(f"reflexive pair ({i}, {i})")
            above[i] |= 1 << operator.index(j)
        # closed: everything above j is above i for each pair i < j, one
        # test per pair; a pair whose upper end has nothing above is skipped
        if any(above[j] & ~above[i] for i, j in self.strict_pairs
               if above[j]):
            # a two-cycle i < j < i fails that test too, at (i, j), as i is
            # above j but not above itself; so a relation that passes has
            # none, and one that fails is checked for one
            if any(above[j] >> i & 1 for i, j in self.strict_pairs):
                raise CycleDetected("relation contains a two-cycle")
            raise InputError("relation is not transitively closed")

    def pairs_sorted(self) -> list[tuple[int, int]]:
        return sorted(self.strict_pairs)

    def comparable_matrix(self) -> np.ndarray:
        """Reflexive comparability matrix: out[i, j] iff i = j or i < j."""
        mat = np.eye(self.size, dtype=bool)
        for i, j in self.strict_pairs:
            mat[i, j] = True
        return mat

    def is_total(self) -> bool:
        return len(self.strict_pairs) == self.size * (self.size - 1) // 2

    def linear_extension(self) -> list[int]:
        """Indices sorted bottom-up by how many elements sit strictly below."""
        below = [0] * self.size
        for _, j in self.strict_pairs:
            below[j] += 1
        return sorted(range(self.size), key=lambda i: (below[i], i))


@dataclass(frozen=True)
class BlockPartition:
    """A partition of 0..size-1 in canonical form.

    Blocks are internally sorted and ordered by their minimum element;
    ``block_of[i]`` gives the block number of element ``i``.
    """

    blocks: tuple[tuple[int, ...], ...]
    block_of: tuple[int, ...]

    def __post_init__(self):
        seen: set[int] = set()
        for b, block in enumerate(self.blocks):
            if not block or list(block) != sorted(block):
                raise InputError("blocks must be non-empty and sorted")
            if b > 0 and block[0] <= self.blocks[b - 1][0]:
                raise InputError("blocks must be ordered by minimum element")
            for i in block:
                if i in seen:
                    raise InputError("blocks must be disjoint")
                seen.add(i)
                if self.block_of[i] != b:
                    raise InputError("block_of inconsistent with blocks")
        if seen != set(range(len(self.block_of))):
            raise InputError("blocks must cover the alphabet")

    @property
    def size(self) -> int:
        return len(self.block_of)

    def is_trivial(self) -> bool:
        return len(self.blocks) == len(self.block_of)


def partition_from_blocks(raw_blocks, size: int) -> BlockPartition:
    """Canonicalize an iterable of index groups into a BlockPartition."""
    blocks = tuple(sorted((tuple(sorted(b)) for b in raw_blocks),
                          key=lambda b: b[0]))
    block_of = [-1] * size
    for b, block in enumerate(blocks):
        for i in block:
            block_of[i] = b
    return BlockPartition(blocks=blocks, block_of=tuple(block_of))


def bits(mask: int) -> list[int]:
    """The indices of the set bits of ``mask``, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _close_transitively(size: int, pairs) -> frozenset[tuple[int, int]]:
    above = [0] * size  # bitmask of the elements above each one
    for i, j in pairs:
        if not (0 <= i < size and 0 <= j < size):
            raise InputError(f"pair ({i}, {j}) out of range for size {size}")
        above[i] |= 1 << int(j)
    # Warshall's algorithm on the bitmasks; an element with nothing above
    # it passes nothing on and gains nothing, so only the others are visited
    rows = [i for i in range(size) if above[i]]
    for k in rows:
        bit, row = 1 << k, above[k]
        for i in rows:
            if above[i] & bit:
                above[i] |= row
    if any(above[i] >> i & 1 for i in rows):
        raise CycleDetected("transitive closure produced a cycle")
    return frozenset((i, j) for i in rows for j in bits(above[i]))


def poset_from_pairs(labels, pairs=(), kind: str = "explicit") -> Poset:
    """Build a validated, transitively closed poset.

    ``kind="total"`` ignores ``pairs`` and chains the elements in label
    order; ``kind="antichain"`` yields the empty relation; ``kind="explicit"``
    closes the given pairs transitively.
    """
    labels = tuple(labels)
    n = len(labels)
    if kind == "total":
        closed = frozenset((i, j) for i in range(n) for j in range(i + 1, n))
    elif kind == "antichain":
        closed = frozenset()
    elif kind == "explicit":
        closed = _close_transitively(n, pairs)
    else:
        raise InputError(f"unknown order kind {kind!r}")
    return Poset(size=n, labels=labels, strict_pairs=closed)


def total_order(labels) -> Poset:
    return poset_from_pairs(labels, kind="total")


def antichain(labels) -> Poset:
    return poset_from_pairs(labels, kind="antichain")


def reverse(p: Poset) -> Poset:
    """The opposite order: every strict pair flipped, labels unchanged."""
    return Poset(
        size=p.size,
        labels=p.labels,
        strict_pairs=frozenset((j, i) for i, j in p.strict_pairs),
    )


def product(a: Poset, b: Poset) -> Poset:
    """Componentwise order on the row-major product alphabet.

    Element ``(i, k)`` maps to index ``i * b.size + k``; it lies strictly
    below ``(j, l)`` iff ``i`` is at-or-below ``j`` and ``k`` is at-or-below
    ``l`` with the two elements distinct.
    """
    comp = np.kron(a.comparable_matrix(), b.comparable_matrix())
    np.fill_diagonal(comp, False)
    labels = tuple(
        f"({la},{lb})" for la in a.labels for lb in b.labels
    )
    pairs = frozenset((int(i), int(j)) for i, j in zip(*np.nonzero(comp)))
    return Poset(size=a.size * b.size, labels=labels, strict_pairs=pairs)


def is_monotone(f, p: Poset, tol: float = MONOTONE_TOL) -> bool:
    """True iff f(i) <= f(j) + tol for every strict pair (i, j)."""
    if tol < 0:
        raise InputError("tolerance must be nonnegative")
    if len(f) != p.size:
        raise LengthMismatch(f"function length {len(f)} != poset size {p.size}")
    arr = np.asarray(f, dtype=float)
    for i, j in p.strict_pairs:
        if arr[i] > arr[j] + tol:
            return False
    return True


def enumerate_monotone_boolean(p: Poset) -> list[tuple[int, ...]]:
    """All 0/1 monotone functions (up-set indicators), lexicographically."""
    if p.size > _ENUM_LIMIT:
        raise SizeTooLarge(
            f"monotone enumeration limited to {_ENUM_LIMIT} elements"
        )
    pairs = p.pairs_sorted()
    out = []
    for bits in itertools.product((0, 1), repeat=p.size):
        if all(bits[i] <= bits[j] for i, j in pairs):
            out.append(bits)
    return out
