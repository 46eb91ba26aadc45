import itertools
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest

from cmcorr.engine import distinct_partitions
from cmcorr.errors import (
    CycleDetected,
    DuplicateLabel,
    InputError,
    LengthMismatch,
    SizeTooLarge,
)
from cmcorr.order import (
    BlockPartition,
    Poset,
    antichain,
    enumerate_monotone_boolean,
    is_monotone,
    partition_from_blocks,
    poset_from_pairs,
    product,
    reverse,
    total_order,
)


def dense_close(size, pairs):
    """Reference closure: one dense outer-product update per element."""
    mat = np.zeros((size, size), dtype=bool)
    for i, j in pairs:
        if not (0 <= i < size and 0 <= j < size):
            raise InputError(f"pair ({i}, {j}) out of range for size {size}")
        mat[i, j] = True
    for k in range(size):
        mat |= np.outer(mat[:, k], mat[k, :])
    if mat.diagonal().any():
        raise CycleDetected("transitive closure produced a cycle")
    return dense_validate(
        size, {(int(i), int(j)) for i, j in zip(*np.nonzero(mat))})


def dense_validate(size, pairs):
    """Reference checks of a stored relation on a dense boolean matrix."""
    mat = np.zeros((size, size), dtype=bool)
    for i, j in pairs:
        if not (0 <= i < size and 0 <= j < size):
            raise InputError(f"pair ({i}, {j}) out of range")
        if i == j:
            raise CycleDetected(f"reflexive pair ({i}, {i})")
        mat[i, j] = True
    if (mat & mat.T).any():
        raise CycleDetected("relation contains a two-cycle")
    if ((mat @ mat) & ~mat).any():
        raise InputError("relation is not transitively closed")
    return frozenset(pairs)


@dataclass(frozen=True)
class MergeSelection:
    """A chosen subset of a poset's strict pairs to be forced to equality."""

    pairs: frozenset[tuple[int, int]]


def merge_partition(p: Poset, selection: MergeSelection) -> BlockPartition:
    """Reference: connected components of the selected pairs, via
    union-find."""
    if not selection.pairs <= p.strict_pairs:
        raise InputError("selection contains pairs outside the poset relation")
    parent = list(range(p.size))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in sorted(selection.pairs):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)

    groups: dict[int, list[int]] = {}
    for i in range(p.size):
        groups.setdefault(find(i), []).append(i)
    return partition_from_blocks(groups.values(), p.size)


def dense_outcome(build):
    """(frozenset, pairs) on success, else (exception class, message)."""
    try:
        return frozenset, build()
    except (InputError, CycleDetected) as exc:
        return type(exc), str(exc)


def chain(n):
    return total_order([str(i) for i in range(n)])


def dense_product_pairs(a, b):
    """Reference: the Kronecker product of the reflexive comparability
    matrices, diagonal dropped."""
    def at_or_below(p):
        mat = np.eye(p.size, dtype=bool)
        for i, j in p.strict_pairs:
            mat[i, j] = True
        return mat

    comp = np.kron(at_or_below(a), at_or_below(b))
    np.fill_diagonal(comp, False)
    return frozenset((int(i), int(j)) for i, j in zip(*np.nonzero(comp)))


def random_poset(rng, n):
    perm = rng.permutation(n)
    density = rng.uniform(0.0, 0.7)
    pairs = {(int(perm[i]), int(perm[k])) for i in range(n)
             for k in range(i + 1, n) if rng.random() < density}
    return poset_from_pairs([str(i) for i in range(n)], pairs)


class TestConstruction:
    def test_total_two_chain(self):
        p = total_order(["a", "b"])
        assert p.strict_pairs == {(0, 1)}

    def test_total_chains_in_label_order(self):
        p = total_order("abcd")
        assert p.strict_pairs == {(i, j) for i in range(4)
                                  for j in range(i + 1, 4)}
        assert p.labels == ("a", "b", "c", "d") and p.is_total()

    def test_antichain_is_empty_relation(self):
        p = antichain(["a", "b", "c"])
        assert p.strict_pairs == frozenset()
        assert p == poset_from_pairs(["a", "b", "c"], ())

    def test_explicit_closure(self):
        # hand transitive closure of 0<1<2
        p = poset_from_pairs(["a", "b", "c"], {(0, 1), (1, 2)})
        assert p.strict_pairs == {(0, 1), (1, 2), (0, 2)}

    def test_cycle_detected(self):
        with pytest.raises(CycleDetected):
            poset_from_pairs(["a", "b"], {(0, 1), (1, 0)})
        with pytest.raises(CycleDetected):
            poset_from_pairs(["a", "b", "c"], {(0, 1), (1, 2), (2, 0)})

    def test_duplicate_label(self):
        for build in (antichain, total_order,
                      lambda labels: poset_from_pairs(labels, ())):
            with pytest.raises(DuplicateLabel):
                build(["a", "a"])

    def test_direct_constructor_requires_closure(self):
        with pytest.raises(InputError):
            Poset(size=3, labels=("a", "b", "c"),
                  strict_pairs=frozenset({(0, 1), (1, 2)}))

    def test_out_of_range_pair(self):
        with pytest.raises(InputError):
            poset_from_pairs(["a", "b"], {(0, 5)})

    def test_checks_match_dense_reference(self):
        rng = np.random.default_rng(64)
        outcomes = set()
        for _ in range(600):
            n = int(rng.integers(1, 10))
            labels = [str(i) for i in range(n)]
            raw = {(int(rng.integers(-1, n + 1)), int(rng.integers(n)))
                   for _ in range(int(rng.integers(0, 2 * n)))}
            if rng.random() < 0.7:  # mostly in range, some of them acyclic
                raw = {(i, k) for i, k in raw if 0 <= i < n}
                if rng.random() < 0.5:
                    raw = {(min(i, k), max(i, k)) for i, k in raw if i != k}
            expected = dense_outcome(lambda: dense_close(n, raw))
            got = dense_outcome(lambda: poset_from_pairs(labels,
                                                         raw).strict_pairs)
            assert got == expected
            outcomes.add(got[0])
            # the constructor on the closure, and on it with one pair
            # dropped or one pair reversed
            if expected[0] is frozenset:
                closed = set(expected[1])
                variants = [closed]
                if closed:
                    pair = sorted(closed)[int(rng.integers(len(closed)))]
                    variants += [closed - {pair}, closed | {pair[::-1]}]
                for rel in variants:
                    expected = dense_outcome(lambda: dense_validate(n, rel))
                    got = dense_outcome(lambda: Poset(
                        size=n, labels=tuple(labels),
                        strict_pairs=frozenset(rel)).strict_pairs)
                    assert got == expected
                    outcomes.add(got[0])
        assert outcomes == {frozenset, InputError, CycleDetected}

    def test_wide_antichain_builds(self):
        labels = [str(i) for i in range(2000)]
        assert antichain(labels).strict_pairs == frozenset()
        assert poset_from_pairs(labels, ()).size == 2000

    def test_validation_memory_is_linear(self):
        # an n x n boolean matrix would take 400 MB at 20,000 labels
        labels = tuple(str(i) for i in range(20000))
        tracemalloc.start()
        try:
            p = Poset(size=len(labels), labels=labels,
                      strict_pairs=frozenset())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert p.size == 20000
        assert peak < 5e6


class TestReverse:
    def test_two_chain(self):
        assert reverse(chain(2)).strict_pairs == {(1, 0)}

    def test_antichain_fixed_point(self):
        p = antichain(["a", "b", "c"])
        assert reverse(p).strict_pairs == frozenset()

    def test_three_chain_elementwise(self):
        p = poset_from_pairs(["a", "b", "c"], {(0, 1), (1, 2)})
        assert reverse(p).strict_pairs == {(1, 0), (2, 1), (2, 0)}

    def test_double_reverse_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            pairs = {(int(i), int(j))
                     for i, j in rng.integers(0, n, size=(4, 2)) if i < j}
            p = poset_from_pairs([str(k) for k in range(n)], pairs)
            assert reverse(reverse(p)) == p


class TestProduct:
    def test_diamond(self):
        d = product(chain(2), chain(2))
        assert d.strict_pairs == {(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)}

    def test_antichain_product(self):
        p = product(antichain(["a", "b", "c"]), antichain(["u", "v"]))
        assert p.size == 6
        assert p.strict_pairs == frozenset()

    def test_chain_times_reversed_chain(self):
        d = product(chain(2), reverse(chain(2)))
        # middle layer order swapped relative to the plain diamond
        assert d.strict_pairs == {(1, 0), (1, 2), (1, 3), (0, 2), (3, 2)}
        assert len(d.strict_pairs) == 5

    def test_chain_product_counts_beat_brute_force(self):
        for m, n in itertools.product(range(2, 5), repeat=2):
            p = product(chain(m), chain(n))
            expected = {
                (i * n + k, j * n + l)
                for i in range(m) for j in range(m)
                for k in range(n) for l in range(n)
                if i <= j and k <= l and (i, k) != (j, l)
            }
            assert p.strict_pairs == expected

    def test_labels_row_major(self):
        p = product(total_order(["a", "b"]), total_order(["u", "v"]))
        assert p.labels == ("(a,u)", "(a,v)", "(b,u)", "(b,v)")

    def test_matches_dense_reference(self):
        rng = np.random.default_rng(65)
        factors = [chain(1), chain(3), reverse(chain(4)), antichain("abc"),
                   product(chain(2), chain(2)),
                   product(product(chain(2), reverse(chain(2))), chain(2))]
        factors += [random_poset(rng, int(rng.integers(1, 7)))
                    for _ in range(30)]
        for a in factors:
            for b in factors[:12]:
                p = product(a, b)
                assert p.strict_pairs == dense_product_pairs(a, b)
                assert p.size == a.size * b.size
        # products of products, on both sides
        for _ in range(10):
            a, b, c = (random_poset(rng, int(rng.integers(1, 4)))
                       for _ in range(3))
            for p, q in ((product(a, b), c), (a, product(b, c))):
                assert product(p, q).strict_pairs == \
                    dense_product_pairs(p, q)

    def test_antichain_product_memory(self):
        # a dense comparability matrix of the product would hold 22,500^2
        # booleans, about 500 MB; the product has no pairs at all
        a = antichain([str(i) for i in range(150)])
        tracemalloc.start()
        try:
            p = product(a, a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert p.size == 22500 and p.strict_pairs == frozenset()
        assert peak < 10e6


class TestIsMonotone:
    def test_basic(self):
        p = chain(2)
        assert is_monotone([0, 1], p, 0.0)
        assert not is_monotone([1, 0], p, 0.0)
        assert is_monotone([0.5, 0.5], p, 0.0)  # ties allowed

    def test_tolerance(self):
        p = chain(2)
        assert is_monotone([1e-10, 0.0], p)  # default tol absorbs round-off
        assert not is_monotone([1e-8, 0.0], p, 1e-9)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            is_monotone([0, 1, 2], chain(2), 0.0)

    def test_negative_tolerance_rejected(self):
        with pytest.raises(InputError):
            is_monotone([0, 1], chain(2), -1.0)

    def test_reverse_duality(self):
        # f monotone on p iff -f monotone on the reversed order
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            pairs = {(int(i), int(j))
                     for i, j in rng.integers(0, n, size=(5, 2)) if i < j}
            p = poset_from_pairs([str(k) for k in range(n)], pairs)
            f = rng.normal(size=n)
            assert is_monotone(f, p, 0.0) == is_monotone(-f, reverse(p), 0.0)


class TestMergePartition:
    def test_empty_selection(self):
        p = chain(3)
        part = merge_partition(p, MergeSelection(pairs=frozenset()))
        assert part.blocks == ((0,), (1,), (2,))
        assert part.is_trivial()

    def test_single_pair(self):
        p = chain(3)
        part = merge_partition(p, MergeSelection(pairs=frozenset({(0, 1)})))
        assert part.blocks == ((0, 1), (2,))

    def test_chained_pairs_union(self):
        p = chain(3)
        part = merge_partition(
            p, MergeSelection(pairs=frozenset({(0, 1), (1, 2)})))
        assert part.blocks == ((0, 1, 2),)
        assert part.block_of == (0, 0, 0)

    def test_selection_outside_relation_rejected(self):
        with pytest.raises(InputError):
            merge_partition(chain(3), MergeSelection(pairs=frozenset({(2, 0)})))

    def test_canonical_form_validated(self):
        with pytest.raises(InputError):
            partition_from_blocks([[0, 1], [1, 2]], 3)

    def test_faces_are_merges_of_their_inner_pairs(self):
        # every face's blocks are connected through the strict pairs
        # inside them
        orders = [chain(4), reverse(chain(4)), antichain(["a", "b", "c"]),
                  product(chain(2), chain(3)),
                  poset_from_pairs("abcd", {(0, 1), (0, 2), (1, 3)})]
        for p in orders:
            for face in distinct_partitions(p):
                inner = frozenset((i, k) for i, k in p.strict_pairs
                                  if face.block_of[i] == face.block_of[k])
                assert merge_partition(p, MergeSelection(inner)) == face


class TestEnumerateMonotoneBoolean:
    def test_two_chain(self):
        assert enumerate_monotone_boolean(chain(2)) == [
            (0, 0), (0, 1), (1, 1)]

    def test_antichain_all_subsets(self):
        assert enumerate_monotone_boolean(antichain(["a", "b"])) == [
            (0, 0), (0, 1), (1, 0), (1, 1)]

    def test_diamond_count(self):
        # free distributive lattice count on two generators
        d = product(chain(2), chain(2))
        assert len(enumerate_monotone_boolean(d)) == 6

    def test_lexicographic_order(self):
        out = enumerate_monotone_boolean(chain(3))
        assert out == sorted(out)

    def test_nonconstant_exists(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            pairs = {(int(i), int(j))
                     for i, j in rng.integers(0, n, size=(5, 2)) if i < j}
            p = poset_from_pairs([str(k) for k in range(n)], pairs)
            fns = enumerate_monotone_boolean(p)
            assert any(0 < sum(f) < n for f in fns)

    def test_size_guard(self):
        with pytest.raises(SizeTooLarge):
            enumerate_monotone_boolean(antichain([str(i) for i in range(17)]))
