import math
import sys
import threading
import time
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

import cmcorr.engine as engine
from cmcorr.classic import pearson
from cmcorr.dist import (
    CorrelationReport,
    ScoredPair,
    check_report,
    joint_pmf,
    marginal_x,
    marginal_y,
    merge_pmf,
    pair_stats,
    strip_zero_support,
)
from cmcorr.engine import (
    FACE_LIMIT,
    MODES,
    Candidate,
    CmcOptions,
    cmc_exact,
    cmc_many,
    cmc_plus,
    cmc_with_x_reversed,
    cmc_x_reversed,
    default_mgf_grid,
    distinct_partitions,
    mgf_bound_sup,
    mgf_bound_sups,
    mgf_rhs,
)
from cmcorr.errors import (
    DegenerateDenominator,
    DegenerateMarginal,
    EmptyInput,
    EnumerationTooLarge,
    InputError,
    MissingValues,
    ShapeMismatch,
    SizeTooLarge,
    SOutOfRange,
)
import cmcorr.maxcorr as maxcorr
from cmcorr.maxcorr import maximal_correlation, residual_singular_pairs
from cmcorr.oracle import OracleConfig, grid_oracle
from cmcorr.order import (
    MONOTONE_TOL,
    antichain,
    is_monotone,
    partition_from_blocks,
    poset_from_pairs,
    product,
    reverse,
    total_order,
)

DSBS = [[0.4, 0.1], [0.1, 0.4]]


def dsbs():
    return joint_pmf(DSBS, x_values=(0, 1), y_values=(0, 1))


def total_orders(j):
    return total_order(j.x_labels), total_order(j.y_labels)


def random_pmf(rng, m, n):
    return joint_pmf(rng.dirichlet(np.ones(m * n)).reshape(m, n),
                     x_values=tuple(range(m)), y_values=tuple(range(n)))


def hypercube(bits, labels=None):
    chain = total_order(["0", "1"])
    cube = chain
    for _ in range(bits - 1):
        cube = product(cube, chain)
    labels = cube.labels if labels is None else labels
    return poset_from_pairs(labels, cube.strict_pairs)


def quotient_is_acyclic(p, part):
    """Kahn's algorithm on the block relation A -> B when some a < b."""
    edges = {(part.block_of[i], part.block_of[k]) for i, k in p.strict_pairs
             if part.block_of[i] != part.block_of[k]}
    indegree = [0] * len(part.blocks)
    for _, b in edges:
        indegree[b] += 1
    ready = [b for b, d in enumerate(indegree) if d == 0]
    removed = 0
    while ready:
        a = ready.pop()
        removed += 1
        for x, b in edges:
            if x == a:
                indegree[b] -= 1
                if indegree[b] == 0:
                    ready.append(b)
    return removed == len(part.blocks)


def blocks_are_connected(p, part):
    """Every block is connected through the strict pairs inside it."""
    for block in part.blocks:
        reached = {block[0]}
        grown = True
        while grown:
            grown = False
            for i, k in p.strict_pairs:
                if i in block and k in block and (i in reached) != \
                        (k in reached):
                    reached |= {i, k}
                    grown = True
        if reached != set(block):
            return False
    return True


def closure_partitions(p):
    """Reference enumerator: the closure of the trivial partition under
    single strict-pair merges, keeping only acyclic quotients."""
    trivial = partition_from_blocks(([i] for i in range(p.size)), p.size)
    seen = {trivial.blocks: trivial}
    frontier = [trivial]
    pairs = p.pairs_sorted()
    while frontier:
        grown = []
        for part in frontier:
            for i, k in pairs:
                bi, bk = part.block_of[i], part.block_of[k]
                if bi == bk:
                    continue
                blocks = [b for n, b in enumerate(part.blocks)
                          if n not in (bi, bk)]
                blocks.append(part.blocks[bi] + part.blocks[bk])
                merged = partition_from_blocks(blocks, p.size)
                if merged.blocks not in seen:
                    seen[merged.blocks] = merged
                    grown.append(merged)
        frontier = grown
    return sorted((q for q in seen.values() if quotient_is_acyclic(p, q)),
                  key=lambda q: q.blocks)


def sorted_blocks(parts):
    """The blocks of each face, sorted: equal lists hold the same faces,
    each as often."""
    return sorted(q.blocks for q in parts)


def reference_posets():
    labels3 = ["a", "b", "c"]
    out = {}
    for n in range(1, 8):
        chain = total_order([str(i) for i in range(n)])
        out[f"chain{n}"] = chain
        out[f"chain{n}r"] = reverse(chain)
    out["antichain"] = antichain(["a", "b", "c", "d"])
    out["vee"] = poset_from_pairs(labels3, {(0, 1), (0, 2)})
    out["diamond"] = poset_from_pairs(
        ["a", "b", "c", "d"], {(0, 1), (0, 2), (1, 3), (2, 3)})
    out["chain3xchain2"] = product(total_order(labels3),
                                   total_order(["0", "1"]))
    out["cube3"] = hypercube(3)
    return out


def discordant_uniform_pair():
    """Uniform binary pair, Y = X, Y order reversed: the exact value is -1."""
    j = joint_pmf([[0.5, 0.0], [0.0, 0.5]])
    px = total_order(j.x_labels)
    py = reverse(total_order(j.y_labels))
    return j, px, py


def seeded_instance(rng, kind, px, py):
    """A pmf of the given kind on the alphabets of ``px`` and ``py``."""
    m, n = px.size, py.size
    if kind == "independent":
        p = np.outer(rng.dirichlet(np.ones(m)), rng.dirichlet(np.ones(n)))
    elif kind == "uniform":
        p = np.full((m, n), 1.0 / (m * n))
    elif kind == "tiny":
        p = rng.dirichlet(np.ones(m * n)).reshape(m, n)
        p[rng.integers(m), rng.integers(n)] = 1e-10
    elif kind == "sparse":
        p = rng.dirichlet(np.ones(m * n)).reshape(m, n)
        p[p < np.median(p) / 2] = 0.0
    else:
        p = rng.dirichlet(np.ones(m * n)).reshape(m, n)
    return joint_pmf(p / p.sum(), px.labels, py.labels), px, py


def uneven_cases():
    """Chains of uneven lengths (5 x 2, 2 x 5, 6 x 3), Y forward and
    reversed, with random, independent, uniform and 1e-10-mass pmfs: one
    stack holds faces of many shapes, padded to the alphabet sizes, and
    degenerate spectra sit next to the padded zeros."""
    rng = np.random.default_rng(62)
    cases = []
    for m, n in ((5, 2), (2, 5), (6, 3)):
        px = total_order([str(i) for i in range(m)])
        py = total_order([str(i) for i in range(n)])
        for kind in ("random", "independent", "uniform", "tiny"):
            for y_order in (py, reverse(py)):
                cases.append(seeded_instance(rng, kind, px, y_order))
    return cases


def filtered_closure_cases():
    """Seeded instances over total, reversed, antichain, vee, wedge,
    chain+1 and diamond orders, with random, independent, uniform,
    1e-10-mass and sparse pmfs."""
    labels3 = ("0", "1", "2")
    orders3 = {
        "total": total_order(labels3),
        "reversed": reverse(total_order(labels3)),
        "antichain": antichain(labels3),
        "vee": poset_from_pairs(labels3, {(0, 1), (0, 2)}),
        "wedge": poset_from_pairs(labels3, {(0, 2), (1, 2)}),
        "chain+1": poset_from_pairs(labels3, {(0, 1)}),
    }
    labels4 = ("0", "1", "2", "3")
    orders4 = {
        "total": total_order(labels4),
        "reversed": reverse(total_order(labels4)),
        "diamond": poset_from_pairs(
            labels4, {(0, 1), (0, 2), (1, 3), (2, 3)}),
    }

    def instance(kind, px, py):
        return seeded_instance(rng, kind, px, py)

    rng = np.random.default_rng(61)
    cases = []
    for kind in ("random", "independent", "uniform", "tiny", "sparse"):
        for px in orders3.values():
            for ny in ("total", "reversed", "vee"):
                cases.append(instance(kind, px, orders3[ny]))
        for px in orders4.values():
            cases.append(instance(kind, px, orders3["total"]))
            cases.append(instance(kind, px, orders4["reversed"]))
    return cases


def enumerate_with(monkeypatch, enumerate_faces):
    """Make the engine enumerate faces with ``enumerate_faces`` and give it
    an empty face memo, so no face list from before the patch is reused;
    returns the orders the replacement is called on."""
    calls = []

    def patched(p):
        calls.append(p)
        return enumerate_faces(p)

    monkeypatch.setattr(engine, "distinct_partitions", patched)
    monkeypatch.setattr(engine, "_MEMO", engine._SideMemo())
    return calls


def stable(report):
    """A report's value, witness and diagnostics, without the runtime."""
    witness = None if report.witness is None else \
        (report.witness.f.tolist(), report.witness.g.tolist())
    diagnostics = dict(report.diagnostics)
    diagnostics.pop("runtime_seconds")
    value = "nan" if math.isnan(report.value) else report.value
    return value, witness, diagnostics


def reference_feasible(weights, vec):
    mean = float(weights @ vec)
    var = float(weights @ (vec * vec)) - mean * mean
    return abs(mean) <= 1e-8 and abs(var - 1.0) <= 1e-8


def reference_normalize(weights, vec):
    mean = float(weights @ vec)
    centered = vec - mean
    var = float(weights @ (centered * centered))
    if var <= 1e-24:
        return None
    return centered / math.sqrt(var)


def reference_quotient_scores(p, part):
    """The per-partition structural scores the stacked ones replaced."""
    nb = len(part.blocks)
    edges = sorted({
        (part.block_of[i], part.block_of[k])
        for i, k in p.strict_pairs
        if part.block_of[i] != part.block_of[k]
    })
    if not edges:
        out = np.zeros(nb)
        out[0] = 1.0
        return out
    depth = np.zeros(nb)
    for _ in range(nb - 1):
        changed = False
        for a, b in edges:
            if depth[b] < depth[a] + 1.0:
                depth[b] = depth[a] + 1.0
                changed = True
        if not changed:
            break
    return depth


def reference_residual_spectra(p):
    """The per-shape spectral step before the padded pass: marginals,
    deflation, SVD and sign fixing on one shape's contiguous stack."""
    px = p.sum(axis=-1)
    py = p.sum(axis=-2)
    top = np.sqrt(px)[..., :, None] * np.sqrt(py)[..., None, :]
    u, s, vt = np.linalg.svd(
        p / np.sqrt(px[..., :, None] * py[..., None, :]) - top,
        full_matrices=False)
    left = np.ascontiguousarray(np.swapaxes(u, -1, -2))
    maxcorr._fix_signs(left, vt)
    keep = min(p.shape[-2:]) - 1
    return s[..., :keep], left[..., :keep, :], vt[..., :keep, :]


def spectral_cases():
    """Chains of 3 to 6 symbols, 5 x 2, 2 x 5, 6 x 3, 8 x 3, 3 x 8 and
    9 x 4, Y forward and reversed, with independent, uniform and
    1e-10-mass pmfs: stacks of one to many shapes, and from 8 symbols on a
    padded sum would round differently from a face's own."""
    rng = np.random.default_rng(63)
    sizes = [(m, m) for m in range(3, 7)] + [(5, 2), (2, 5), (6, 3),
                                             (8, 3), (3, 8), (9, 4)]
    cases = []
    for m, n in sizes:
        px = total_order([str(i) for i in range(m)])
        py = total_order([str(i) for i in range(n)])
        for kind in ("independent", "uniform", "tiny"):
            for y_order in (py, reverse(py)):
                cases.append(seeded_instance(rng, kind, px, y_order))
    return cases


def reference_face_candidates(js, pxs, pys, bx, by, opts):
    """The per-face solver the batched one replaced: one merged JointPmf,
    one SVD and Python monotone checks per face."""
    kept = []
    if len(bx.blocks) < 2 or len(by.blocks) < 2:
        return kept, 0, 0
    merged = merge_pmf(js, bx, by)
    pmx = marginal_x(merged)
    pmy = marginal_y(merged)
    values, left, right = residual_singular_pairs(merged)
    degenerate = int(
        (np.abs(np.diff(values)) <= engine.TIE_TOL).sum()
    ) if values.size > 1 else 0
    bx_idx = np.asarray(bx.block_of)
    by_idx = np.asarray(by.block_of)
    checked = 0
    indices = range(len(values)) if opts.mode == "extended" else range(
        min(1, len(values)))
    orientations = (1, -1) if opts.mode == "extended" else (1,)
    for t in indices:
        fblk = left[t] / np.sqrt(pmx)
        gblk = right[t] / np.sqrt(pmy)
        if not (reference_feasible(pmx, fblk)
                and reference_feasible(pmy, gblk)):
            continue
        for orientation in orientations:
            gsig = gblk if orientation > 0 else -gblk
            for flip in (1.0, -1.0):
                fl = flip * fblk[bx_idx]
                gl = flip * gsig[by_idx]
                checked += 1
                if is_monotone(fl, pxs, MONOTONE_TOL) and \
                        is_monotone(gl, pys, MONOTONE_TOL):
                    pair = ScoredPair(f=fl, g=gl)
                    kept.append(Candidate(
                        partition_x=bx, partition_y=by, kind="svd",
                        index=t + 2, orientation=orientation,
                        pair=pair, cov=pair_stats(js, pair).cov))
                    break
    if opts.mode == "extended":
        fn = reference_normalize(pmx, reference_quotient_scores(pxs, bx))
        gn = reference_normalize(pmy, reference_quotient_scores(pys, by))
        if fn is not None and gn is not None:
            fl = fn[bx_idx]
            gl = gn[by_idx]
            checked += 1
            if is_monotone(fl, pxs, MONOTONE_TOL) and \
                    is_monotone(gl, pys, MONOTONE_TOL):
                pair = ScoredPair(f=fl, g=gl)
                kept.append(Candidate(
                    partition_x=bx, partition_y=by, kind="structural",
                    index=0, orientation=1,
                    pair=pair, cov=pair_stats(js, pair).cov))
    return kept, checked, degenerate


def reference_cmc(j, px, py, opts):
    """``cmc_exact`` with the per-face reference solver and its reduction."""
    js, pxs, pys, keep_x, keep_y = strip_zero_support(j, px, py)
    results = [reference_face_candidates(js, pxs, pys, bx, by, opts)
               for bx in distinct_partitions(pxs)
               for by in distinct_partitions(pys)]
    candidates = [c for kept, _, _ in results for c in kept]
    diagnostics = {
        "candidates_checked": sum(n for _, n, _ in results),
        "candidates_kept": len(candidates),
        "degenerate_spectra": sum(d for _, _, d in results),
    }
    if not candidates:
        return CorrelationReport(measure="cmc", value=float("nan"),
                                 diagnostics=diagnostics)
    best_cov = max(c.cov for c in candidates)
    near = [c for c in candidates if c.cov >= best_cov - engine.TIE_WINDOW]
    best = min(near, key=Candidate.sort_key)
    diagnostics.update(
        tie_candidates=len(near),
        winning_partition_x=best.partition_x.blocks,
        winning_partition_y=best.partition_y.blocks,
        winning_kind=best.kind, winning_index=best.index,
        winning_orientation=best.orientation)
    witness = ScoredPair(f=engine._extend_monotone(best.pair.f, keep_x, px),
                         g=engine._extend_monotone(best.pair.g, keep_y, py))
    return CorrelationReport(measure="cmc", value=engine._clip_value(best.cov),
                             witness=witness, diagnostics=diagnostics)


class TestOptions:
    def test_mode_validated(self):
        with pytest.raises(InputError):
            CmcOptions(mode="exact")


class TestDistinctPartitions:
    def test_chain_three_partitions(self):
        parts = distinct_partitions(total_order(["a", "b", "c"]))
        blocks = {p.blocks for p in parts}
        # the four interval partitions; ((0, 2), (1,)) has a cyclic quotient
        assert blocks == {
            ((0,), (1,), (2,)),
            ((0, 1), (2,)),
            ((0,), (1, 2)),
            ((0, 1, 2),),
        }

    def test_antichain_only_trivial(self):
        parts = distinct_partitions(antichain(["a", "b", "c"]))
        assert len(parts) == 1
        assert parts[0].is_trivial()

    @pytest.mark.parametrize("name", sorted(reference_posets()))
    def test_matches_filtered_closure(self, name):
        p = reference_posets()[name]
        assert sorted_blocks(distinct_partitions(p)) == \
            sorted_blocks(closure_partitions(p))

    @pytest.mark.parametrize("name", sorted(reference_posets()))
    def test_faces_acyclic_and_connected(self, name):
        p = reference_posets()[name]
        for part in distinct_partitions(p):
            assert quotient_is_acyclic(p, part)
            assert blocks_are_connected(p, part)

    @pytest.mark.parametrize("entries", [None, 7])
    def test_stacked_quotient_scores_match_reference(self, monkeypatch,
                                                     entries):
        # the depths are integers, so the stacked relaxation must equal
        # the per-partition loop exactly, also when cut into row chunks
        if entries is not None:
            monkeypatch.setattr(engine, "_STACK_ENTRIES", entries)
        for p in reference_posets().values():
            table = engine._side_table(p, distinct_partitions(p))
            for part, scores in zip(table.parts, table.scores):
                k = len(part.blocks)
                assert np.array_equal(scores[:k],
                                      reference_quotient_scores(p, part))
                assert not scores[k:].any()

    def test_counts(self):
        for n in range(1, 9):
            chain = total_order([str(i) for i in range(n)])
            assert len(distinct_partitions(chain)) == 2 ** (n - 1)
            assert len(distinct_partitions(reverse(chain))) == 2 ** (n - 1)
        assert len(distinct_partitions(hypercube(3))) == 404
        assert len(distinct_partitions(antichain(map(str, range(20))))) == 1

    def test_limit_refuses_exactly_the_larger_orders(self, monkeypatch):
        rng = np.random.default_rng(62)
        for _ in range(150):
            n = int(rng.integers(1, 8))
            perm = rng.permutation(n)
            density = rng.uniform(0.1, 0.6)
            pairs = {(int(perm[i]), int(perm[k])) for i in range(n)
                     for k in range(i + 1, n) if rng.random() < density}
            p = poset_from_pairs(map(str, range(n)), pairs)
            expected = sorted_blocks(closure_partitions(p))
            monkeypatch.setattr(engine, "FACE_LIMIT", len(expected))
            assert sorted_blocks(distinct_partitions(p)) == expected
            monkeypatch.setattr(engine, "FACE_LIMIT", len(expected) - 1)
            with pytest.raises(EnumerationTooLarge):
                distinct_partitions(p)

    @pytest.mark.parametrize("reversed_", [False, True])
    def test_one_side_over_limit_refused(self, reversed_):
        # the 16-element hypercube alone has more than FACE_LIMIT faces
        cube = hypercube(4)
        with pytest.raises(EnumerationTooLarge):
            distinct_partitions(reverse(cube) if reversed_ else cube)

    @pytest.mark.parametrize("reversed_", [False, True])
    def test_long_chain_refused(self, reversed_):
        chain = total_order([str(i) for i in range(600)])
        with pytest.raises(EnumerationTooLarge):
            distinct_partitions(reverse(chain) if reversed_ else chain)

    def test_wide_antichain_has_one_face(self):
        # far deeper than the interpreter's recursion limit would allow
        parts = distinct_partitions(antichain([str(i) for i in range(1200)]))
        assert len(parts) == 1
        assert parts[0].is_trivial()

    def test_isolated_elements_added_once(self):
        start = time.perf_counter()
        parts = distinct_partitions(antichain([str(i) for i in range(8000)]))
        assert time.perf_counter() - start < 0.5
        assert len(parts) == 1
        assert parts[0].is_trivial()

    @pytest.mark.parametrize("pairs", [
        {(1, 2), (2, 3)},                  # a chain between two isolated
        {(0, 2), (0, 4), (5, 6)},          # a vee and an edge, 1 and 3 alone
        {(2, 0), (4, 2), (4, 0)},          # a reversed chain, 1 and 3 alone
        {(1, 3), (1, 4), (3, 6), (4, 6)},  # a diamond, 0, 2 and 5 alone
    ])
    def test_isolated_elements_match_closure(self, pairs):
        size = 1 + max(max(pair) for pair in pairs)
        p = poset_from_pairs([str(i) for i in range(size)], pairs)
        assert sorted_blocks(distinct_partitions(p)) == \
            sorted_blocks(closure_partitions(p))

    @pytest.mark.parametrize("reversed_", [False, True])
    def test_wide_star_refused_before_listing(self, reversed_):
        # one element below 30 others: 2^30 down-sets, so 2^30 faces
        star = poset_from_pairs(map(str, range(31)),
                                {(0, k) for k in range(1, 31)})
        tracemalloc.start()
        try:
            with pytest.raises(EnumerationTooLarge):
                distinct_partitions(reverse(star) if reversed_ else star)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6


class TestCmcExact:
    def test_discordant_value_and_witness(self):
        j, px, py = discordant_uniform_pair()
        report = cmc_exact(j, px, py)
        assert report.value == pytest.approx(-1.0, abs=1e-9)
        assert np.allclose(report.witness.f, [-1.0, 1.0], atol=1e-8)
        assert np.allclose(report.witness.g, [1.0, -1.0], atol=1e-8)

    def test_antichain_collapses_to_maximal_correlation(self):
        rng = np.random.default_rng(20)
        for _ in range(20):
            j = random_pmf(rng, 3, 3)
            px = antichain(j.x_labels)
            py = antichain(j.y_labels)
            assert cmc_exact(j, px, py).value == pytest.approx(
                maximal_correlation(j).value, abs=1e-8)

    def test_dsbs_total_orders(self):
        j = dsbs()
        report = cmc_exact(j, *total_orders(j))
        assert report.value == pytest.approx(0.6, abs=1e-9)
        assert is_monotone(report.witness.f, total_orders(j)[0], 1e-9)

    def test_diagonal_is_one(self):
        j = joint_pmf([[0.5, 0], [0, 0.5]])
        assert cmc_exact(j, *total_orders(j)).value == pytest.approx(
            1.0, abs=1e-9)

    def test_zero_mass_symbol_stripped_and_witness_extended(self):
        j = joint_pmf([[0.3, 0.2], [0.0, 0.0], [0.2, 0.3]])
        px, py = total_orders(j)
        report = cmc_exact(j, px, py)
        assert len(report.witness.f) == 3
        assert is_monotone(report.witness.f, px, 1e-9)
        assert abs(pair_stats(j, report.witness).cov - report.value) <= 1e-7

    def test_enumeration_cap(self, monkeypatch):
        rng = np.random.default_rng(19)
        j = random_pmf(rng, 6, 6)
        report = cmc_exact(j, *total_orders(j))  # 32 x 32 faces
        assert report.diagnostics["partitions_enumerated"] == 1024
        check_report(j, report)

        def merge_past_guard(*args, **kwargs):
            raise AssertionError("merge ran past the face guard")

        monkeypatch.setattr(engine, "_solve_stack", merge_past_guard)
        j8 = joint_pmf(np.full((8, 8), 1 / 64))
        px = hypercube(3, j8.x_labels)
        py = hypercube(3, j8.y_labels)  # 404 x 404 faces
        assert 404 ** 2 > FACE_LIMIT
        with pytest.raises(EnumerationTooLarge):
            cmc_exact(j8, px, py)


class TestModes:
    def test_literal_mode_has_no_witness_on_discordant_pair(self):
        j, px, py = discordant_uniform_pair()
        report = cmc_exact(j, px, py, CmcOptions(mode="paper_faithful"))
        assert math.isnan(report.value)
        assert report.diagnostics["no_witness"]
        assert report.witness is None

    def test_extended_dominates_literal(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            j = random_pmf(rng, 3, 3)
            px, py = total_orders(j)
            lit = cmc_exact(j, px, py, CmcOptions(mode="paper_faithful"))
            ext = cmc_exact(j, px, py, CmcOptions(mode="extended"))
            if not math.isnan(lit.value):
                assert ext.value >= lit.value - 1e-9

    def test_literal_mode_exact_when_it_certifies(self):
        # whenever the literal candidate set produces a witness it attains
        # the same maximum as the extended set
        rng = np.random.default_rng(58)
        produced = 0
        for _ in range(40):
            j = random_pmf(rng, 3, 3)
            px, py = total_orders(j)
            lit = cmc_exact(j, px, py, CmcOptions(mode="paper_faithful"))
            if math.isnan(lit.value):
                continue
            produced += 1
            ext = cmc_exact(j, px, py).value
            assert lit.value == pytest.approx(ext, abs=1e-9)
        assert produced > 10  # concordant instances are common

    def test_plus_propagates_nan(self):
        j, px, py = discordant_uniform_pair()
        assert math.isnan(cmc_plus(j, px, py,
                                   CmcOptions(mode="paper_faithful")))


class TestCmcPlus:
    def test_discordant_clipped_to_zero(self):
        j, px, py = discordant_uniform_pair()
        assert cmc_plus(j, px, py) == 0.0

    def test_dsbs(self):
        j = dsbs()
        assert cmc_plus(j, *total_orders(j)) == pytest.approx(0.6, abs=1e-9)

    def test_independent(self):
        j = joint_pmf(np.outer([0.3, 0.7], [0.4, 0.6]))
        assert cmc_plus(j, *total_orders(j)) == pytest.approx(0.0, abs=1e-9)


class TestCmcXReversed:
    def test_diagonal_reversed_is_minus_one(self):
        j = joint_pmf([[0.5, 0], [0, 0.5]])
        assert cmc_x_reversed(j, *total_orders(j)).value == pytest.approx(
            -1.0, abs=1e-9)

    def test_independent(self):
        j = joint_pmf(np.outer([0.3, 0.7], [0.4, 0.6]))
        assert abs(cmc_x_reversed(j, *total_orders(j)).value) <= 1e-9

    def test_antichain_reversal_fixed_point(self):
        rng = np.random.default_rng(22)
        j = random_pmf(rng, 3, 3)
        px = antichain(j.x_labels)
        py = antichain(j.y_labels)
        assert cmc_x_reversed(j, px, py).value == pytest.approx(
            maximal_correlation(j).value, abs=1e-9)


def report_bits(report):
    """A report's measure, its value and witness as float.hex, and its
    diagnostics without the runtime."""
    def hexed(values):
        return [float(v).hex() for v in values]

    witness = None if report.witness is None else \
        (hexed(report.witness.f), hexed(report.witness.g))
    return (report.measure, float(report.value).hex(), witness,
            stable(report)[2])


def two_solves(j, px, py, opts):
    """The reports of a separate solve of each order."""
    return (cmc_exact(j, px, py, opts),
            replace(cmc_exact(j, reverse(px), py, opts),
                    measure="cmc_x_reversed"))


def assert_one_solve_is_two(j, px, py):
    for mode in MODES:
        opts = CmcOptions(mode=mode)
        one = cmc_with_x_reversed(j, px, py, opts)
        assert [report_bits(r) for r in one] == \
            [report_bits(r) for r in two_solves(j, px, py, opts)]
        assert report_bits(cmc_x_reversed(j, px, py, opts)) == \
            report_bits(one[1])


def n_shape(labels=("a", "b", "c", "d")):
    """a < b < c and a < d: d is maximal one level below c, so the
    reversed order's depths are not the negated depths."""
    return poset_from_pairs(labels, {(0, 1), (1, 2), (0, 3)})


class TestOneSolveBothWays:
    """One solve gives the report of each order, bit for bit as a solve of
    ``reverse(px)`` gives it: value, witness and every diagnostic but the
    runtime, in both modes."""

    def test_seeded_chains(self, monkeypatch):
        rng = np.random.default_rng(2101)
        stripped = 0
        for t in range(48):
            if t % 8 == 0:  # a cold memo now and then
                monkeypatch.setattr(engine, "_MEMO", engine._SideMemo())
            m, n = (int(k) for k in rng.integers(2, 7, size=2))
            px = total_order([f"x{i}" for i in range(m)])
            py = total_order([f"y{i}" for i in range(n)])
            px = reverse(px) if t % 3 == 1 else px
            py = reverse(py) if t % 2 else py
            kind = ("random", "independent", "sparse", "tiny")[t % 4]
            j = seeded_instance(rng, kind, px, py)[0]
            if t % 3 == 0 and m > 2 and n > 2:  # a zero-mass symbol a side
                p = j.p.copy()
                p[rng.integers(m)] = 0.0
                p[:, rng.integers(n)] = 0.0
                j = joint_pmf(p / p.sum(), j.x_labels, j.y_labels)
            stripped += strip_zero_support(j, px, py)[0] is not j
            assert_one_solve_is_two(j, px, py)
        assert stripped >= 8

    @pytest.mark.parametrize("x_order", [
        "vee", "wedge", "diamond", "n_shape", "antichain", "cube3"])
    @pytest.mark.parametrize("kind", ["random", "independent", "sparse"])
    def test_posets(self, x_order, kind):
        labels3 = ["a", "b", "c"]
        px = {"vee": poset_from_pairs(labels3, {(0, 1), (0, 2)}),
              "wedge": poset_from_pairs(labels3, {(1, 0), (2, 0)}),
              "diamond": reference_posets()["diamond"],
              "n_shape": n_shape(),
              "antichain": antichain(labels3),
              "cube3": hypercube(3)}[x_order]
        rng = np.random.default_rng(2102)
        for py in (total_order(["0", "1", "2"]),
                   reverse(total_order(["0", "1"])),
                   poset_from_pairs(labels3, {(0, 1), (0, 2)})):
            assert_one_solve_is_two(*seeded_instance(rng, kind, px, py))

    def test_reversed_depths_are_not_negated_depths(self):
        # so the reversed order needs its own structural row: on these
        # orders some face's reversed depths are no decreasing affine map
        # of its depths, as they are on chains, the vee and the diamond
        for p, count in ((n_shape(), 1), (hypercube(3), 54),
                         (total_order("abcd"), 0),
                         (reference_posets()["diamond"], 0)):
            table = engine._side_table(p, distinct_partitions(p))
            flipped = table.flip()
            assert flipped.parts == table.parts
            differ = 0
            for a, part in enumerate(table.parts):
                k = len(part.blocks)
                d, e = table.scores[a, :k], flipped.scores[a, :k]
                assert np.array_equal(e, reference_quotient_scores(
                    reverse(p), part))
                # e = c - b d with b > 0 means e + b d is constant
                b = (e.max() - e.min()) / (d.max() - d.min())
                differ += not (b > 0 and np.ptp(e + b * d) == 0.0)
            assert differ == count

    def test_independent_pmf_ties_both_ways(self):
        # +lambda and -lambda are both about 0: both orders tie across
        # orientations, and each picks the two-solve winner
        j = joint_pmf(np.outer([0.2, 0.3, 0.5], [0.6, 0.4]))
        px, py = total_orders(j)
        forward, backward = cmc_with_x_reversed(j, px, py)
        assert abs(forward.value) <= 1e-12 and abs(backward.value) <= 1e-12
        assert forward.diagnostics["tie_candidates"] > 1
        assert backward.diagnostics["tie_candidates"] > 1
        assert_one_solve_is_two(j, px, py)

    def test_literal_mode_without_witness(self):
        # concordant one way, discordant the other: the literal set
        # certifies only the concordant order
        j = joint_pmf([[0.5, 0.0], [0.0, 0.5]])
        opts = CmcOptions(mode="paper_faithful")
        for px, py in (total_orders(j), discordant_uniform_pair()[1:]):
            reports = cmc_with_x_reversed(j, px, py, opts)
            assert sorted(math.isnan(r.value) for r in reports) == \
                [False, True]
            assert_one_solve_is_two(j, px, py)

    def test_several_stacks(self):
        # 512 x 8 faces, solved as several stacks
        rng = np.random.default_rng(2103)
        j = random_pmf(rng, 10, 4)
        px, py = total_orders(j)
        side_x, side_y = engine._sides(px, py)
        assert len(list(engine._stacks(1, side_x.table,
                                       side_y.table))) > 1
        assert_one_solve_is_two(j, px, py)

    def test_forward_solve_builds_no_reversed_table(self, monkeypatch):
        calls = enumerate_with(monkeypatch, distinct_partitions)
        j = random_pmf(np.random.default_rng(2104), 4, 3)
        px, py = poset_from_pairs(j.x_labels, {(0, 1), (1, 2), (0, 3)}), \
            total_order(j.y_labels)
        cmc_exact(j, px, py)
        assert all(side.table.flipped is None
                   for side in engine._MEMO.entries.values())
        cmc_with_x_reversed(j, px, py)
        cmc_x_reversed(j, px, py)
        # the reversed order is never enumerated, and its tables are kept
        # with those of px
        assert len(calls) == 2
        held = engine._MEMO.entries[(px.size, px.strict_pairs)].table
        assert held.flipped is not None and held.flipped.flipped is None
        assert len(engine._MEMO.entries) == 2
        assert engine._MEMO.held == sum(
            side.faces for side in engine._MEMO.entries.values())


def assert_many_is_one_at_a_time(js, px, py):
    """``cmc_many`` gives each pmf, in both modes and both ways, the report
    bits of a call on that pmf alone."""
    for mode in MODES:
        opts = CmcOptions(mode=mode)
        assert [report_bits(r) for r in cmc_many(js, px, py, opts)] == \
            [report_bits(cmc_exact(j, px, py, opts)) for j in js]
        both = cmc_many(js, px, py, opts, x_reversed=True)
        assert [[report_bits(r) for r in pair] for pair in both] == \
            [[report_bits(r) for r in cmc_with_x_reversed(j, px, py, opts)]
             for j in js]


def with_zero_mass(rng, j, rows: bool, cols: bool):
    """``j`` with one random row and/or column emptied, renormalized."""
    p = j.p.copy()
    if rows:
        p[rng.integers(p.shape[0])] = 0.0
    if cols:
        p[:, rng.integers(p.shape[1])] = 0.0
    return joint_pmf(p / p.sum(), j.x_labels, j.y_labels)


class TestManyPmfs:
    """Many pmfs over one pair of orders in one call: each report is bit
    for bit that of a call on its pmf alone, in input order, in both modes
    and both ways: value, witness and every diagnostic but the runtime."""

    def test_seeded_chains_with_zero_mass(self, monkeypatch):
        # pmfs stripped to different orders share one call
        rng = np.random.default_rng(2201)
        for m in range(2, 5):
            for n in range(2, 5):
                if (m + n) % 2:  # a cold memo now and then
                    monkeypatch.setattr(engine, "_MEMO", engine._SideMemo())
                px = total_order([f"x{i}" for i in range(m)])
                py = total_order([f"y{i}" for i in range(n)])
                px = reverse(px) if n % 2 else px
                py = reverse(py) if m == 3 else py
                js = []
                for t in range(8):
                    kind = ("random", "independent", "tiny", "uniform")[t % 4]
                    j = seeded_instance(rng, kind, px, py)[0]
                    js.append(with_zero_mass(rng, j, m > 2 and t % 3 == 0,
                                             n > 2 and t % 3 != 2))
                keys = {tuple(q.size for q in strip_zero_support(j, px, py)[1:3])
                        for j in js}
                assert len(keys) == 1 + (m > 2) + (n > 2)
                assert_many_is_one_at_a_time(js, px, py)

    @pytest.mark.parametrize("x_order", ["vee", "diamond", "cube3"])
    def test_posets(self, x_order):
        labels3 = ["a", "b", "c"]
        px = {"vee": poset_from_pairs(labels3, {(0, 1), (0, 2)}),
              "diamond": reference_posets()["diamond"],
              "cube3": hypercube(3)}[x_order]
        rng = np.random.default_rng(2202)
        for py in (total_order(["0", "1", "2"]),
                   reverse(total_order(["0", "1"])),
                   poset_from_pairs(labels3, {(0, 1), (0, 2)})):
            js = [seeded_instance(rng, kind, px, py)[0] for kind in
                  ("random", "independent", "tiny", "uniform", "random")]
            js[-1] = with_zero_mass(rng, js[-1], True, False)
            assert_many_is_one_at_a_time(js, px, py)

    def test_literal_mode_without_witness_on_one_pmf(self):
        # the diagonal is discordant under a reversed Y: the literal set
        # certifies nothing on it, and everything on its neighbours
        px = total_order(["0", "1"])
        py = reverse(total_order(["0", "1"]))
        js = [joint_pmf(p) for p in ([[0.1, 0.4], [0.4, 0.1]],
                                     [[0.5, 0.0], [0.0, 0.5]],
                                     [[0.2, 0.3], [0.35, 0.15]])]
        reports = cmc_many(js, px, py, CmcOptions(mode="paper_faithful"))
        assert [math.isnan(r.value) for r in reports] == [False, True, False]
        assert reports[1].diagnostics["no_witness"]
        assert_many_is_one_at_a_time(js, px, py)

    def test_degenerate_spectra_per_pmf(self):
        # the uniform diagonal ties on its unmerged face; a random pmf
        # does not, and neither takes the other's count
        rng = np.random.default_rng(2203)
        j = joint_pmf(np.eye(3) / 3)
        js = [random_pmf(rng, 3, 3), j, random_pmf(rng, 3, 3)]
        px, py = total_orders(j)
        counts = [r.diagnostics["degenerate_spectra"]
                  for r in cmc_many(js, px, py)]
        assert counts[1] > 0 and counts[0] == counts[2] == 0
        assert_many_is_one_at_a_time(js, px, py)

    @pytest.mark.parametrize("entries", [1, 2000])
    def test_group_spans_many_stacks(self, monkeypatch, entries):
        # one pmf's face per stack, or three pmfs' faces per stack: the
        # running reductions give each pmf its whole-stack report
        rng = np.random.default_rng(2204)
        px = total_order([f"x{i}" for i in range(3)])
        py = reverse(total_order([f"y{i}" for i in range(3)]))
        js = [seeded_instance(rng, kind, px, py)[0] for kind in
              ("random", "independent", "tiny", "uniform") * 3]
        whole = [report_bits(r) for r in cmc_many(js, px, py)]
        monkeypatch.setattr(engine, "_STACK_ENTRIES", entries)
        side_x, side_y = engine._sides(px, py)
        stacks = [(pmfs.indices(len(js)), len(tx.parts) * len(ty.parts))
                  for pmfs, tx, ty in engine._stacks(len(js), side_x.table,
                                                     side_y.table)]
        widths = {len(range(*pmfs)) for pmfs, _ in stacks}
        assert len(stacks) == (len(js) * 9 if entries == 1 else 4)
        assert widths == ({1} if entries == 1 else {3})
        assert sum(len(range(*pmfs)) * faces for pmfs, faces in stacks) == \
            len(js) * 9
        assert [report_bits(r) for r in cmc_many(js, px, py)] == whole
        assert_many_is_one_at_a_time(js, px, py)

    def test_error_of_the_first_failing_pmf(self):
        rng = np.random.default_rng(2205)
        px, py = total_order("abc"), total_order("xyz")
        good = seeded_instance(rng, "random", px, py)[0]
        one_row = joint_pmf([[0.2, 0.3, 0.5], [0, 0, 0], [0, 0, 0]])
        small = joint_pmf([[0.5, 0.0], [0.0, 0.5]])
        with pytest.raises(DegenerateMarginal):
            cmc_many([good, one_row, small], px, py)
        with pytest.raises(ShapeMismatch):
            cmc_many([good, small, one_row], px, py, x_reversed=True)
        # an error of a group's shared faces is its first pmf's: the full
        # cubes have too many faces, a pmf stripped to smaller orders not
        cube = hypercube(3)
        full = joint_pmf(np.full((8, 8), 1 / 64))
        p = np.zeros((8, 8))
        p[:4, :4] = 1 / 16
        stripped = joint_pmf(p)
        p = np.zeros((8, 8))
        p[0] = 1 / 8
        one_row = joint_pmf(p)
        assert not math.isnan(cmc_many([stripped], cube, cube)[0].value)
        with pytest.raises(EnumerationTooLarge):
            cmc_many([stripped, full, one_row], cube, cube)
        with pytest.raises(DegenerateMarginal):
            cmc_many([stripped, one_row, full], cube, cube)
        assert cmc_many([], cube, cube) == []

    def test_large_batch_memory_bounded(self):
        # 3,000 pmfs of 9 faces each, in stacks of 462 pmfs: one stack of
        # them all would hold 1.7 million numbers per array
        rng = np.random.default_rng(2206)
        px, py = total_order("abc"), total_order("xyz")
        js = [joint_pmf(p) for p in rng.dirichlet(np.ones(9), 3000)
              .reshape(-1, 3, 3)]
        side_x, side_y = engine._sides(px, py)
        assert len(list(engine._stacks(len(js), side_x.table,
                                       side_y.table))) > 4
        tracemalloc.start()
        try:
            reports = cmc_many(js, px, py)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12e6  # 7.6 MB; one stack of all would take 21 MB
        for t in (0, 1499, 2999):
            assert report_bits(reports[t]) == \
                report_bits(cmc_exact(js[t], px, py))


class ReferenceReduction:
    """The reduction that built a lifted, copied Candidate for every cell
    within TIE_WINDOW of the best, as ``engine._Reduction`` did before it
    kept near cells as their key, covariance and block-function rows."""

    def __init__(self, mode, count):
        self.mode = mode
        self.best_cov = np.full(count, -math.inf)
        self.near = [[] for _ in range(count)]
        self.checked = np.zeros(count, dtype=np.intp)
        self.n_kept = np.zeros(count, dtype=np.intp)

    @staticmethod
    def candidate(k, i, a, b, c):
        bx, by = k.tx.parts[a], k.ty.parts[b]
        width = k.f.shape[-2] - 1
        svd = c < 2 * width
        orientation = -1 if width <= c < 2 * width else 1
        row = c % width if svd else width
        s = -1.0 if k.flip[i, a, b, c] else 1.0
        pair = ScoredPair(
            f=s * k.f[i, a, b, row][np.asarray(bx.block_of)],
            g=s * orientation * k.g[i, a, b, row][np.asarray(by.block_of)])
        return Candidate(
            partition_x=bx, partition_y=by,
            kind="svd" if svd else "structural",
            index=int(row) + 2 if svd else 0,
            orientation=orientation, pair=pair,
            cov=float(k.cov[i, a, b, c]),
        ), bool(k.ties[i, a, b])

    def add(self, pmfs, k):
        if self.mode == "paper_faithful":
            k = k._replace(hit=k.hit[..., :1], tested=k.tested[..., :1],
                           cov=k.cov[..., :1])
        cells = (1, 2, 3)
        self.checked[pmfs] += k.tested.sum(axis=cells)
        self.n_kept[pmfs] += k.hit.sum(axis=cells)
        best = np.maximum(self.best_cov[pmfs],
                          np.where(k.hit, k.cov, -math.inf).max(axis=cells))
        self.best_cov[pmfs] = best
        floor = best - engine.TIE_WINDOW
        for near, least in zip(self.near[pmfs], floor.tolist()):
            near[:] = [c for c in near if c[0].cov >= least]
        for i, *cell in zip(*np.nonzero(
                k.hit & (k.cov >= floor[:, None, None, None]))):
            self.near[pmfs.start + i].append(self.candidate(k, i, *cell))

    def report(self, i, measure, js, px, py, keep_x, keep_y, diagnostics,
               start):
        if not self.n_kept[i]:
            diagnostics["no_witness"] = True
            diagnostics["explanation"] = (
                "no singular-pair candidate was monotone on any merge "
                "subset; the literal candidate set cannot certify this "
                "instance (its optimum is negative or degenerate); use "
                "extended mode"
            )
            diagnostics["runtime_seconds"] = 0.0
            return CorrelationReport(measure=measure, value=float("nan"),
                                     witness=None, diagnostics=diagnostics)
        best, tied = min(self.near[i], key=lambda c: c[0].sort_key())
        diagnostics["tie_candidates"] = len(self.near[i])
        value = engine._clip_value(pair_stats(js, best.pair).cov)
        witness = ScoredPair(
            f=reference_extend_monotone(best.pair.f, keep_x, px),
            g=reference_extend_monotone(best.pair.g, keep_y, py))
        diagnostics["winning_partition_x"] = best.partition_x.blocks
        diagnostics["winning_partition_y"] = best.partition_y.blocks
        diagnostics["winning_kind"] = best.kind
        diagnostics["winning_index"] = best.index
        diagnostics["winning_orientation"] = best.orientation
        diagnostics["winning_face_degenerate"] = tied
        diagnostics["runtime_seconds"] = 0.0
        return CorrelationReport(measure=measure, value=value,
                                 witness=witness, diagnostics=diagnostics)


def reduction_cases():
    """Pmfs over order pairs where many cells tie: uniform, independent and
    uniform-diagonal pmfs (tied spectra), with random ones beside them and
    a zero-mass row or column now and then, on chains, reversed chains and
    general posets.  On 2-chains an independent pmf's one singular pair is
    about zero and kept in both orientations, so the orientation breaks
    the tie."""
    rng = np.random.default_rng(2301)
    cases = []
    for px, py in ((total_order("ab"), total_order("xy")),
                   (total_order("abc"), total_order("xyz")),
                   (total_order("abcd"), reverse(total_order("wxyz"))),
                   (reference_posets()["vee"], total_order("xyzw")),
                   (reference_posets()["diamond"],
                    reference_posets()["diamond"]),
                   (reference_posets()["chain3xchain2"], total_order("xy"))):
        js = [seeded_instance(rng, kind, px, py)[0] for kind in
              ("uniform", "independent", "random", "tiny", "sparse")]
        k = min(px.size, py.size)
        diagonal = np.zeros((px.size, py.size))
        diagonal[range(k), range(k)] = 1.0 / k
        js.append(joint_pmf(diagonal, px.labels, py.labels))
        js.append(with_zero_mass(rng, js[2], px.size > 2, py.size > 2))
        cases.append((js, px, py))
    return cases


class TestNearCells:
    """Near cells kept as arrays and rows give the reports that a Candidate
    built for every near cell gave: value, witness, tie-break and
    ``tie_candidates``, in both modes and both ways, with near cells
    spread over many stacks."""

    @pytest.mark.parametrize("entries", [1, 60, engine._STACK_ENTRIES])
    def test_matches_candidate_per_cell(self, monkeypatch, entries):
        monkeypatch.setattr(engine, "_STACK_ENTRIES", entries)
        ties = 0
        for js, px, py in reduction_cases():
            for mode in MODES:
                opts = CmcOptions(mode=mode)
                got = cmc_many(js, px, py, opts, x_reversed=True)
                with monkeypatch.context() as m:
                    m.setattr(engine, "_Reduction", ReferenceReduction)
                    want = cmc_many(js, px, py, opts, x_reversed=True)
                assert [[report_bits(r) for r in pair] for pair in got] == \
                    [[report_bits(r) for r in pair] for pair in want]
                ties += sum(r.diagnostics.get("tie_candidates", 0) > 1
                            for pair in got for r in pair)
        assert ties >= 20

    def test_synthetic_ties_follow_the_sort_key(self):
        # every cell of a face may tie with every other, in either
        # orientation, and over two stacks: kept cells and covariances
        # drawn at random from a few close values on 3-chains
        rng = np.random.default_rng(2308)
        px, py = total_order("abc"), total_order("xyz")
        j = random_pmf(rng, 3, 3)
        side_x, side_y = engine._sides(px, py)
        tx, ty = side_x.table, side_y.table
        shape = (1, len(tx.parts), len(ty.parts))
        width = 2
        orientations = 0
        for _ in range(200):
            hit = rng.random(shape + (2 * width + 1,)) < 0.6
            cov = rng.choice([0.25, 0.25 + 1e-16, 0.25 - 1e-15, 0.2],
                             size=hit.shape)
            k = engine._Kept(
                hit=hit, flip=rng.random(hit.shape) < 0.5,
                tested=hit.astype(np.intp), cov=cov,
                f=rng.normal(size=shape + (width + 1, 3)),
                g=rng.normal(size=shape + (width + 1, 3)),
                tx=tx, ty=ty, ties=rng.integers(0, 2, size=shape))
            cut = int(rng.integers(1, len(tx.parts)))
            stacks = [k._replace(
                hit=k.hit[:, rows], flip=k.flip[:, rows],
                tested=k.tested[:, rows], cov=k.cov[:, rows],
                f=k.f[:, rows], g=k.g[:, rows], ties=k.ties[:, rows],
                tx=tx.rows(rows.start, rows.stop))
                for rows in (slice(0, cut), slice(cut, len(tx.parts)))]
            for mode in MODES:
                reports = []
                for reduction in (engine._Reduction(mode, 1),
                                  ReferenceReduction(mode, 1)):
                    for stack in stacks:
                        reduction.add(slice(0, 1), stack)
                    reports.append(report_bits(reduction.report(
                        0, "cmc", j, px, py, (0, 1, 2), (0, 1, 2), {}, 0.0)))
                assert reports[0] == reports[1]
                orientations += reports[0][3].get(
                    "winning_orientation") == -1
        assert orientations >= 10

    def test_near_cells_hold_no_stack_array(self, monkeypatch):
        # every row a near cell keeps is cut from a gathered copy, never a
        # view of the stack's own block functions
        held = []

        class Watched(engine._Reduction):
            def add(self, pmfs, k):
                super().add(pmfs, k)
                held.append((k, [c for near in self.near for c in near]))

        monkeypatch.setattr(engine, "_Reduction", Watched)
        monkeypatch.setattr(engine, "_STACK_ENTRIES", 60)
        js, px, py = reduction_cases()[2]
        cmc_many(js, px, py)
        assert len(held) > 1
        for k, near in held:
            for cell in near:
                assert not np.shares_memory(cell.f, k.f)
                assert not np.shares_memory(cell.g, k.g)


class TestStructuralProperties:
    def test_sandwich(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            m, n = rng.integers(2, 5, size=2)
            j = random_pmf(rng, int(m), int(n))
            px, py = total_orders(j)
            mid = cmc_exact(j, px, py).value
            assert pearson(j) - 1e-8 <= mid <= \
                maximal_correlation(j).value + 1e-8

    def test_binary_coincidence(self):
        # on 2x2 with natural orders every measure collapses to the
        # binary correlation (p00 p11 - p01 p10) / sqrt(px0 px1 py0 py1)
        from cmcorr.classic import kendall_tau_b, spearman
        rng = np.random.default_rng(57)
        for _ in range(25):
            j = random_pmf(rng, 2, 2)
            px, py = total_orders(j)
            p = j.p
            rho = (p[0, 0] * p[1, 1] - p[0, 1] * p[1, 0]) / math.sqrt(
                p.sum(1).prod() * p.sum(0).prod())
            for value in (pearson(j), spearman(j), kendall_tau_b(j),
                          cmc_exact(j, px, py).value):
                assert value == pytest.approx(rho, abs=1e-12)
            assert maximal_correlation(j).value == pytest.approx(
                abs(rho), abs=1e-10)

    def test_global_reversal_invariance(self):
        rng = np.random.default_rng(24)
        for _ in range(15):
            j = random_pmf(rng, 3, 3)
            px, py = total_orders(j)
            a = cmc_exact(j, px, py).value
            b = cmc_exact(j, reverse(px), reverse(py)).value
            assert a == pytest.approx(b, abs=1e-9)

    def test_transpose_symmetry(self):
        rng = np.random.default_rng(25)
        for _ in range(15):
            j = random_pmf(rng, 3, 4)
            px, py = total_orders(j)
            a = cmc_exact(j, px, py).value
            b = cmc_exact(j.transpose(), py, px).value
            assert a == pytest.approx(b, abs=1e-9)

    def test_data_processing(self):
        rng = np.random.default_rng(26)
        for _ in range(15):
            j = random_pmf(rng, 4, 4)
            px, py = total_orders(j)
            base = cmc_exact(j, px, py).value
            # order-preserving surjections onto smaller chains
            phi = sorted(rng.integers(0, 3, size=4))
            phi = np.array(phi) - phi[0]
            psi = sorted(rng.integers(0, 3, size=4))
            psi = np.array(psi) - psi[0]
            m2, n2 = int(phi.max()) + 1, int(psi.max()) + 1
            if m2 < 2 or n2 < 2:
                continue
            pushed = np.zeros((m2, n2))
            for a in range(4):
                for b in range(4):
                    pushed[phi[a], psi[b]] += j.p[a, b]
            jp = joint_pmf(pushed)
            pxp, pyp = total_orders(jp)
            assert cmc_exact(jp, pxp, pyp).value <= base + 1e-8

    def test_order_isomorphism_equality(self):
        rng = np.random.default_rng(27)
        raw = rng.dirichlet(np.ones(9)).reshape(3, 3)
        j = joint_pmf(raw, x_values=(0, 1, 2), y_values=(0, 1, 2))
        px, py = total_orders(j)
        base = cmc_exact(j, px, py).value
        j2 = joint_pmf(raw, x_values=(10, 20, 35), y_values=(-4, 0, 1))
        assert cmc_exact(j2, px, py).value == base

    def test_witness_validity(self):
        rng = np.random.default_rng(28)
        for _ in range(20):
            j = random_pmf(rng, 3, 3)
            px, py = total_orders(j)
            report = cmc_exact(j, px, py)
            check_report(j, report)
            assert is_monotone(report.witness.f, px, 1e-9)
            assert is_monotone(report.witness.g, py, 1e-9)
            stats = pair_stats(j, report.witness)
            assert abs(stats.cov - report.value) <= 1e-7
            assert abs(stats.mean_f) <= 1e-7
            assert stats.var_f == pytest.approx(1.0, abs=1e-7)

    def test_oracle_cross_check_mixed_orders(self):
        # antichain X side against a chain Y side
        rng = np.random.default_rng(55)
        cfg = OracleConfig(grid_step=0.02, refine_iters=0)
        for _ in range(8):
            j = random_pmf(rng, 3, 3)
            px = antichain(j.x_labels)
            py = total_order(j.y_labels)
            engine = cmc_exact(j, px, py).value
            oracle = grid_oracle(j, px, py, cfg)
            assert oracle <= engine + 1e-9
            assert engine - oracle <= 1e-4  # grid resolution only

    def test_tiny_mass_reports_best_covariance(self):
        # DSBS rows at x = 0 and x = 2, in columns {0, 2} or {0, 1}, with
        # 1e-10 at one empty cell: a finer face's candidate lies up to
        # 4.4e-10 below the best covariance and must not win the tie
        cfg = OracleConfig(grid_step=0.02, refine_iters=50)
        cases = 0
        for cols in ((0, 2), (0, 1)):
            base = np.zeros((3, 3))
            base[np.ix_((0, 2), cols)] = DSBS
            for cell in zip(*np.nonzero(base == 0.0)):
                p = base.copy()
                p[cell] = 1e-10
                j = joint_pmf(p / p.sum())
                px, py = total_orders(j)
                assert cmc_exact(j, px, py).value >= \
                    grid_oracle(j, px, py, cfg) - 1e-12
                cases += 1
        assert cases == 10

    def test_oracle_cross_check_general_posets(self):
        rng = np.random.default_rng(56)
        for _ in range(8):
            j = random_pmf(rng, 3, 3)
            pv = poset_from_pairs(j.x_labels, {(0, 1), (0, 2)})
            qv = poset_from_pairs(j.y_labels, {(0, 2), (1, 2)})
            engine = cmc_exact(j, pv, qv).value
            oracle = grid_oracle(j, pv, qv, OracleConfig(grid_step=0.1))
            assert oracle <= engine + 1e-9
            assert engine - oracle <= 5e-3  # coarse two-sided grid
            assert engine <= maximal_correlation(j).value + 1e-8

    def test_determinism_across_face_order(self, monkeypatch):
        rng = np.random.default_rng(29)
        instances = [random_pmf(rng, 3, 4) for _ in range(5)]
        refs = [cmc_exact(j, *total_orders(j)) for j in instances]
        enumerate_faces = engine.distinct_partitions

        def shuffled(p):
            parts = enumerate_faces(p)
            rng.shuffle(parts)
            return parts

        calls = enumerate_with(monkeypatch, shuffled)
        for j, ref in zip(instances, refs):
            for _ in range(3):
                engine._MEMO.clear()  # a new shuffle for every solve
                other = cmc_exact(j, *total_orders(j))
                assert other.value == ref.value
                assert np.array_equal(other.witness.f, ref.witness.f)
                assert np.array_equal(other.witness.g, ref.witness.g)
                for key in ("winning_partition_x", "winning_partition_y",
                            "winning_kind", "winning_index",
                            "winning_orientation", "tie_candidates"):
                    assert other.diagnostics[key] == ref.diagnostics[key]
        assert len(calls) == 2 * 3 * len(instances)

    def test_reports_match_filtered_closure(self, monkeypatch):
        # pruning the cyclic faces never changes a report
        cases = filtered_closure_cases()
        modes = [CmcOptions(mode=mode) for mode in MODES]

        def run_all():
            return [cmc_exact(j, px, py, opts)
                    for j, px, py in cases for opts in modes]

        pruned = run_all()
        calls = enumerate_with(monkeypatch, closure_partitions)
        full = run_all()
        assert calls
        keys = ("winning_partition_x", "winning_partition_y", "winning_kind",
                "winning_index", "winning_orientation")
        for a, b in zip(pruned, full):
            assert a.value == b.value or (math.isnan(a.value)
                                          and math.isnan(b.value))
            if a.witness is None:
                assert b.witness is None
                continue
            assert np.array_equal(a.witness.f, b.witness.f)
            assert np.array_equal(a.witness.g, b.witness.g)
            assert [a.diagnostics[k] for k in keys] == \
                [b.diagnostics[k] for k in keys]

    @pytest.mark.parametrize("mode", MODES)
    def test_batched_solver_matches_per_face_reference(self, mode):
        opts = CmcOptions(mode=mode)
        keys = ("winning_partition_x", "winning_partition_y", "winning_kind",
                "winning_index", "winning_orientation", "candidates_checked",
                "candidates_kept", "degenerate_spectra", "tie_candidates")
        for j, px, py in filtered_closure_cases() + uneven_cases():
            got = cmc_exact(j, px, py, opts)
            ref = reference_cmc(j, px, py, opts)
            if math.isnan(ref.value):
                assert math.isnan(got.value) and got.witness is None
                assert got.diagnostics["no_witness"]
                keys_here = keys[5:8]
            else:
                assert abs(got.value - ref.value) <= 1e-12
                assert np.abs(got.witness.f - ref.witness.f).max() <= 1e-12
                assert np.abs(got.witness.g - ref.witness.g).max() <= 1e-12
                keys_here = keys
            assert [got.diagnostics.get(k) for k in keys_here] == \
                [ref.diagnostics.get(k) for k in keys_here]

    def test_stack_split_leaves_reports_unchanged(self, monkeypatch):
        # one face per stack: the running reduction across stacks gives
        # the report of one stack per face shape
        cases = filtered_closure_cases()
        modes = [CmcOptions(mode=mode) for mode in MODES]

        def run_all():
            return [cmc_exact(j, px, py, opts)
                    for j, px, py in cases for opts in modes]

        whole = run_all()
        monkeypatch.setattr(engine, "_STACK_ENTRIES", 1)
        split = run_all()
        for a, b in zip(whole, split):
            assert a.value == b.value or (math.isnan(a.value)
                                          and math.isnan(b.value))
            if a.witness is None:
                assert b.witness is None
            else:
                assert np.array_equal(a.witness.f, b.witness.f)
                assert np.array_equal(a.witness.g, b.witness.g)
            a.diagnostics.pop("runtime_seconds")
            b.diagnostics.pop("runtime_seconds")
            assert a.diagnostics == b.diagnostics

    @pytest.mark.parametrize("entries", ["default", 1])
    def test_padded_spectra_match_per_shape(self, monkeypatch, entries):
        # the stacked spectral step gives every face the values, vectors
        # and real mask of a per-shape decomposition of its contiguous
        # blocks, to the bit; zeros stand everywhere past them
        if entries != "default":
            monkeypatch.setattr(engine, "_STACK_ENTRIES", entries)
        padded = maxcorr.padded_residual_spectra
        shapes = set()

        def checked(p, runs_x, runs_y):
            got = padded(p, runs_x, runs_y)
            want = [np.zeros_like(a) for a in got]
            values, real, left, right, px, py = want
            for kx, xa, xb in runs_x:
                for ky, ya, yb in runs_y:
                    shapes.add((kx, ky))
                    block = np.ascontiguousarray(
                        p[..., xa:xb, ya:yb, :kx, :ky])
                    v, lv, rv = reference_residual_spectra(block)
                    r = v.shape[-1]
                    values[..., xa:xb, ya:yb, :r] = v
                    real[..., xa:xb, ya:yb, :r] = True
                    left[..., xa:xb, ya:yb, :r, :kx] = lv
                    right[..., xa:xb, ya:yb, :r, :ky] = rv
                    # the marginals are the face's own row and column sums
                    px[..., xa:xb, ya:yb, :kx] = block.sum(axis=-1)
                    py[..., xa:xb, ya:yb, :ky] = block.sum(axis=-2)
            assert all(np.array_equal(a, b) for a, b in zip(got, want))
            return got

        monkeypatch.setattr(engine, "padded_residual_spectra", checked)
        cases, modes = spectral_cases(), MODES
        if entries != "default":
            # one face per stack: the 1e-10-mass pmfs in extended mode,
            # without the 9 x 4 chains, keep the run short
            cases, modes = cases[4:-6:6] + cases[5:-6:6], ["extended"]
        for j, px, py in cases:
            for mode in modes:
                cmc_exact(j, px, py, CmcOptions(mode=mode))
        assert {(8, 3), (3, 8), (2, 5), (6, 6)} <= shapes

    def test_wide_antichain_matrix_too_large(self, monkeypatch):
        # 2,100 singleton blocks against 2 make a 4,200-entry face
        rng = np.random.default_rng(77)
        j = random_pmf(rng, 2100, 2)
        enumerate_with(monkeypatch, distinct_partitions)
        with pytest.raises(SizeTooLarge, match="4096 entries"):
            cmc_exact(j, antichain(j.x_labels), total_order(j.y_labels))

    def test_merge_adds_members_in_index_order(self):
        # each merged entry is the float sum of its members, X blocks
        # first, in index order, and the entries past a face's block
        # counts are zero
        rng = np.random.default_rng(64)
        for px, py in ((total_order("abcde"), reverse(total_order("xyz"))),
                       (hypercube(2), poset_from_pairs("abc", {(0, 1)}))):
            j = seeded_instance(rng, "random", px, py)[0]
            tx = engine._side_table(px, distinct_partitions(px))
            ty = engine._side_table(py, distinct_partitions(py))
            merged = engine._merge(j.p[None], tx.block_of,
                                   ty.block_of)[0]
            for a, bx in enumerate(tx.parts):
                for b, by in enumerate(ty.parts):
                    ref = np.zeros((px.size, py.size))
                    for r, rows in enumerate(bx.blocks):
                        for s, cols in enumerate(by.blocks):
                            for col in cols:
                                total = 0.0
                                for row in rows:
                                    total += j.p[row, col]
                                ref[r, s] += total
                    assert np.array_equal(merged[a, b], ref)

    def test_wide_antichain_memory_linear(self, monkeypatch):
        # a one-hot merge of 2,000 singleton blocks alone would take 32 MB
        rng = np.random.default_rng(76)
        j = random_pmf(rng, 2000, 2)
        px, py = antichain(j.x_labels), total_order(j.y_labels)
        enumerate_with(monkeypatch, distinct_partitions)
        tracemalloc.start()
        try:
            report = cmc_exact(j, px, py)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        check_report(j, report)
        assert peak < 8e6
        assert report.value == pytest.approx(
            maximal_correlation(j).value, abs=1e-9)

    @pytest.mark.parametrize("mode", MODES)
    def test_faces_solved_on_chains(self, mode):
        # the faces with at least two blocks on both sides
        rng = np.random.default_rng(77)
        for m, n in ((2, 2), (2, 5), (4, 3), (6, 4)):
            j = random_pmf(rng, m, n)
            diag = cmc_exact(j, *total_orders(j),
                             CmcOptions(mode=mode)).diagnostics
            assert diag["faces_solved"] == \
                (2 ** (m - 1) - 1) * (2 ** (n - 1) - 1)
            assert diag["partitions_enumerated"] == 2 ** (m - 1 + n - 1)
        j = random_pmf(rng, 4, 3)
        diag = cmc_exact(j, antichain(j.x_labels),
                         total_order(j.y_labels)).diagnostics
        assert diag["faces_solved"] == 3

    def test_face_limit_solve_memory_bounded(self, monkeypatch):
        # a 17-chain has 2^16 faces against an antichain, all FACE_LIMIT
        # admits; stacked (A, k, 2E) tables for all of them at once would
        # take over 1 GB, while one bounded stack at a time needs a few MB
        rng = np.random.default_rng(71)
        j = random_pmf(rng, 17, 2)
        px, py = total_order(j.x_labels), antichain(j.y_labels)
        listed = {17: distinct_partitions(px), 2: distinct_partitions(py)}
        assert len(listed[17]) == FACE_LIMIT
        calls = enumerate_with(monkeypatch, lambda p: listed[p.size])
        tracemalloc.start()
        try:
            report = cmc_exact(j, px, py)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        check_report(j, report)
        assert peak < 60e6
        assert [p.size for p in calls] == [17, 2]
        # the 17-chain's 2^16 partitions are more than the memo keeps
        assert [key[0] for key in engine._MEMO.entries] == [2]
        assert engine._MEMO.held <= engine.MEMO_PARTITIONS

    def test_winning_face_degenerate(self):
        # uniform on the diagonal: the residual spectrum of the unmerged
        # face is the tied pair (1, 1)
        j = joint_pmf(np.eye(3) / 3)
        report = cmc_exact(j, *total_orders(j))
        assert report.value == pytest.approx(1.0, abs=1e-9)
        assert report.diagnostics["winning_partition_x"] == \
            ((0,), (1,), (2,))
        assert report.diagnostics["winning_face_degenerate"] is True
        rng = np.random.default_rng(63)
        j = random_pmf(rng, 3, 3)
        report = cmc_exact(j, *total_orders(j))
        assert report.diagnostics["winning_face_degenerate"] is False


def reference_extend_monotone(sub_values, keep, poset):
    """The witness extension before it walked the strict pairs: every
    support symbol is looked up below each removed one."""
    pos = {old: i for i, old in enumerate(keep)}
    floor = float(np.min(sub_values))
    full = np.empty(poset.size)
    for z in range(poset.size):
        if z in pos:
            full[z] = sub_values[pos[z]]
            continue
        below = [sub_values[pos[s]] for s in keep
                 if (s, z) in poset.strict_pairs]
        full[z] = max(below) if below else floor
    return full


class TestExtendMonotone:
    @pytest.mark.parametrize("name", ["chain5", "chain5r", "vee", "diamond",
                                      "antichain", "chain3xchain2", "cube3"])
    def test_matches_reference(self, name):
        # same bits as the per-symbol scan, signed zeros and ties included
        p = reference_posets()[name]
        rng = np.random.default_rng(65)
        for _ in range(40):
            keep = tuple(sorted(rng.choice(p.size, int(rng.integers(
                1, p.size + 1)), replace=False).tolist()))
            values = rng.choice([-1.0, -0.0, 0.0, 0.5, 2.0], len(keep))
            got = engine._extend_monotone(values, keep, p)
            assert got.tobytes() == \
                reference_extend_monotone(values, keep, p).tobytes()

    @pytest.mark.parametrize("name", ["chain4", "chain4r", "vee", "diamond",
                                      "antichain"])
    def test_reports_match_reference(self, monkeypatch, name):
        # seeded pmfs with zero-mass symbols give the witness the per-symbol
        # scan gives
        px = reference_posets()[name]
        py = total_order(["0", "1", "2"])
        rng = np.random.default_rng(66)
        for _ in range(10):
            p = rng.dirichlet(np.ones(px.size * 3)).reshape(px.size, 3)
            p[rng.choice(px.size, px.size - 2, replace=False)] *= \
                rng.random() < 0.7
            p[:, int(rng.integers(3))] *= rng.random() < 0.5
            j = joint_pmf(p / p.sum(), px.labels, py.labels)
            got = cmc_exact(j, px, py)
            with monkeypatch.context() as m:
                m.setattr(engine, "_extend_monotone",
                          reference_extend_monotone)
                ref = cmc_exact(j, px, py)
            assert np.array_equal(got.witness.f, ref.witness.f)
            assert np.array_equal(got.witness.g, ref.witness.g)

    def test_wide_support_is_linear(self):
        # 2,000 support labels and 18,000 zero-mass ones: label 10k has
        # mass, 10k + 1 .. 10k + 4 lie above it and 10k + 5 .. 10k + 9 are
        # comparable to nothing; the per-symbol scan took about 3 s here
        # on a 2-vCPU Xeon
        rng = np.random.default_rng(78)
        p = np.zeros((20000, 2))
        p[::10] = rng.dirichlet(np.ones(4000)).reshape(2000, 2)
        j = joint_pmf(p)
        px = poset_from_pairs(j.x_labels, [(k, k + r)
                                           for k in range(0, 20000, 10)
                                           for r in range(1, 5)])
        start = time.perf_counter()
        report = cmc_exact(j, px, total_order(j.y_labels))
        assert time.perf_counter() - start < 1.0
        f = report.witness.f.reshape(2000, 10)
        assert (f[:, 1:5] == f[:, :1]).all()
        assert (f[:, 5:] == f[:, 0].min()).all()
        assert is_monotone(report.witness.f, px, 0.0)


class TestFaceMemo:
    @pytest.mark.parametrize("mode", MODES)
    def test_warm_and_cold_memo_give_equal_reports(self, monkeypatch, mode):
        opts = CmcOptions(mode=mode)
        cases = filtered_closure_cases()
        calls = enumerate_with(monkeypatch, distinct_partitions)
        cold = []
        for j, px, py in cases:
            engine._MEMO.clear()
            cold.append(stable(cmc_exact(j, px, py, opts)))
        # a cold solve enumerates each distinct order it solves once
        assert len(calls) == sum(
            len({(q.size, q.strict_pairs)
                 for q in strip_zero_support(*case)[1:3]})
            for case in cases)
        for j, px, py in cases:
            cmc_exact(j, px, py, opts)
        calls.clear()
        warm = [stable(cmc_exact(j, px, py, opts)) for j, px, py in cases]
        assert not calls
        assert warm == cold

    def test_labels_and_pmf_not_in_key(self, monkeypatch):
        calls = enumerate_with(monkeypatch, distinct_partitions)
        rng = np.random.default_rng(72)
        a = random_pmf(rng, 3, 3)
        b = joint_pmf(rng.dirichlet(np.ones(9)).reshape(3, 3),
                      ["p", "q", "r"], ["s", "t", "u"])
        cmc_exact(a, *total_orders(a))  # one 3-chain on both sides
        assert len(calls) == 1
        cmc_exact(b, *total_orders(b))
        assert len(calls) == 1
        # nor is the mode: paper_faithful filters the same solve
        cmc_exact(b, *total_orders(b), CmcOptions(mode="paper_faithful"))
        assert len(calls) == 1

    def test_square_instance_enumerates_once(self, monkeypatch):
        # the same order on both sides is enumerated and tabulated once
        calls = enumerate_with(monkeypatch, distinct_partitions)
        tables = []
        side_table = engine._side_table
        monkeypatch.setattr(engine, "_side_table",
                            lambda *args: tables.append(args)
                            or side_table(*args))
        j = random_pmf(np.random.default_rng(76), 5, 5)
        cmc_exact(j, *total_orders(j))
        assert len(calls) == len(tables) == 1

    def test_lowered_face_limit_refuses_held_orders(self, monkeypatch):
        # the limit is no part of the key: the instance's face count
        # refuses held orders without enumerating them again
        calls = enumerate_with(monkeypatch, distinct_partitions)
        j = random_pmf(np.random.default_rng(73), 4, 3)
        cmc_exact(j, *total_orders(j))  # 8 x 4 faces, both sides kept
        monkeypatch.setattr(engine, "FACE_LIMIT", 7)
        with pytest.raises(EnumerationTooLarge,
                           match="8 x 4 = 32 faces exceed the limit 7"):
            cmc_exact(j, *total_orders(j))
        assert len(calls) == 2

    def test_bounded_by_partitions_held(self, monkeypatch):
        enumerate_with(monkeypatch, distinct_partitions)
        monkeypatch.setattr(engine, "MEMO_PARTITIONS", 20)
        rng = np.random.default_rng(74)

        def solve(m, n):
            j = random_pmf(rng, m, n)
            cmc_exact(j, *total_orders(j))
            assert engine._MEMO.held <= 20
            assert engine._MEMO.held == sum(
                side.faces for side in engine._MEMO.entries.values())
            return [key[0] for key in engine._MEMO.entries]

        # least recently used first; a hit moves an order to the end
        assert solve(4, 3) == [4, 3]     # 8 + 4 partitions
        assert solve(2, 4) == [3, 4, 2]  # 2 more
        assert solve(5, 2) == [2, 5]     # 16 more: the 3 and 4 go
        assert solve(6, 2) == [5, 2]     # 32 partitions are never kept

    def test_threads_keep_the_count(self, monkeypatch):
        # more threads than cores, switching often, with constant eviction
        enumerate_with(monkeypatch, distinct_partitions)
        monkeypatch.setattr(engine, "MEMO_PARTITIONS", 20)
        chains = [total_order(map(str, range(n))) for n in range(2, 6)]
        errors = []

        def work(seed):
            rng = np.random.default_rng(seed)
            try:
                for _ in range(500):
                    # a solve of both X orders replaces its held entry
                    a, b, both = rng.integers(len(chains), size=3)
                    engine._sides(chains[a], chains[b], both % 2 == 1)
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(seed,))
                       for seed in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        assert engine._MEMO.held == sum(
            side.faces for side in engine._MEMO.entries.values())
        assert engine._MEMO.held <= 20

    def test_stored_arrays_read_only(self, monkeypatch):
        enumerate_with(monkeypatch, distinct_partitions)
        for j, px, py in filtered_closure_cases()[:12]:
            for mode in MODES:
                cmc_exact(j, px, py, CmcOptions(mode=mode))
        arrays = []
        for side in engine._MEMO.entries.values():
            table = side.table
            assert isinstance(table.parts, tuple)
            arrays += [table.block_of, table.pairs, table.scores]
        assert arrays and any(a.ndim == 2 and a.shape[1] >= 2
                              for a in arrays)
        for a in arrays:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[...] = 0

    def test_refused_instances_keep_nothing(self, monkeypatch):
        calls = enumerate_with(monkeypatch, distinct_partitions)
        j8 = joint_pmf(np.full((8, 8), 1 / 64))
        cube = hypercube(3, j8.x_labels)
        with pytest.raises(EnumerationTooLarge):  # 404 x 404 faces
            cmc_exact(j8, cube, hypercube(3, j8.y_labels))
        j = joint_pmf(np.full((16, 2), 1 / 32))
        with pytest.raises(EnumerationTooLarge):  # one side alone
            cmc_exact(j, hypercube(4, j.x_labels), total_order(j.y_labels))
        assert len(calls) == 2  # the 3-cube once, then the 4-cube
        assert not engine._MEMO.entries and engine._MEMO.held == 0


class TestMgf:
    def test_independent_vanishes(self):
        j = joint_pmf(np.outer([0.3, 0.7], [0.4, 0.6]),
                      x_values=(0, 1), y_values=(0, 1))
        assert mgf_rhs(j, 1.0, 1.0) <= 1e-12
        assert mgf_rhs(j, -0.5, 2.0) <= 1e-12

    def test_dsbs_hand_value(self):
        # numerator 0.15 (e - 1)^2, each denominator factor 0.5 (e - 1)
        assert mgf_rhs(dsbs(), 1.0, 1.0) == pytest.approx(0.6, abs=1e-12)

    def test_s_out_of_range(self):
        with pytest.raises(SOutOfRange):
            mgf_rhs(dsbs(), 0.0, 1.0)
        with pytest.raises(SOutOfRange):
            mgf_rhs(dsbs(), 1.0, 1e-6)

    def test_missing_values(self):
        with pytest.raises(MissingValues):
            mgf_rhs(joint_pmf(DSBS), 1.0, 1.0)

    def test_degenerate_denominator(self):
        j = joint_pmf(DSBS, x_values=(1, 1), y_values=(0, 1))
        with pytest.raises(DegenerateDenominator):
            mgf_rhs(j, 1.0, 1.0)

    def test_bound_sup_on_grid(self):
        j = dsbs()
        grid = default_mgf_grid()
        assert (1.0, 1.0) in grid
        bound = mgf_bound_sup(j, grid)
        assert bound >= 0.6 - 1e-9
        px, py = total_orders(j)
        target = max(cmc_exact(j, px, py).value,
                     cmc_x_reversed(j, px, py).value)
        assert bound <= target + 1e-7

    def test_diagonal_bounded_by_one(self):
        j = joint_pmf([[0.5, 0], [0, 0.5]], x_values=(0, 1), y_values=(0, 1))
        grid = default_mgf_grid((0.5, 1.0, 2.0))
        assert mgf_bound_sup(j, grid) <= 1.0 + 1e-12

    def test_bound_below_target_random(self):
        rng = np.random.default_rng(30)
        grid = default_mgf_grid()
        for _ in range(15):
            j = random_pmf(rng, 3, 3)
            px, py = total_orders(j)
            target = max(cmc_exact(j, px, py).value,
                         cmc_x_reversed(j, px, py).value)
            assert mgf_bound_sup(j, grid) <= target + 1e-7


def reference_mgf_rhs(j, s1, s2):
    """The pointwise formula: every moment recomputed at each point and
    squared by Python's ``**``.  The one-pass grid must match it bit for
    bit wherever it returns a value or raises a domain error."""
    if j.x_values is None or j.y_values is None:
        raise MissingValues("mgf bound needs numeric embeddings")
    if abs(s1) < engine._S_MIN or abs(s2) < engine._S_MIN:
        raise SOutOfRange(f"|s| must be at least {engine._S_MIN}")
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
    scale = dx * dy
    # the root factor by factor only where the product overflows
    scale = math.sqrt(scale) if math.isfinite(scale) else \
        math.sqrt(dx) * math.sqrt(dy)
    return abs(m_joint - m_x(s1) * m_y(s2)) / scale


def reference_mgf_bound_sup(j, grid):
    grid = list(grid)
    if not grid:
        raise EmptyInput("mgf grid must contain at least one point")
    return max(reference_mgf_rhs(j, float(s1), float(s2)) for s1, s2 in grid)


def outcome(f, *args):
    """A value as its float.hex, or an error as its class and message."""
    try:
        return f(*args).hex()
    except InputError as exc:
        return type(exc), str(exc)


MGF_GRIDS = {
    "default": default_mgf_grid(),
    "scales-0.3-0.7-1.9": default_mgf_grid((0.3, 0.7, 1.9)),
    "scales-0.01-3": default_mgf_grid((0.01, 3.0)),
    "one-point": [(0.7, -1.3)],
    "repeated": [(1.0, 1.0), (-0.5, 2.0), (1.0, 1.0), (1.0, 1.0)],
}


def mgf_instances(seed, count):
    """Seeded pmfs on 2-5 symbols per side, some cells empty, with integer
    or real (negative included) embeddings in turn."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        m, n = (int(a) for a in rng.integers(2, 6, size=2))
        p = rng.dirichlet(np.ones(m * n)).reshape(m, n)
        p[rng.random((m, n)) < 0.15] = 0.0
        if p.sum() == 0.0:
            p[0, 0] = 1.0
        if k % 2:
            xv, yv = range(m), range(n)
        else:
            xv, yv = 1.5 * rng.normal(size=m), 1.5 * rng.normal(size=n)
        yield joint_pmf(p / p.sum(), x_values=tuple(xv), y_values=tuple(yv))


def uniform_3x3():
    return joint_pmf(np.full((3, 3), 1 / 9), x_values=(0, 1, 2),
                     y_values=(0, 1, 2))


class TestMgfGrid:
    """The whole grid in one pass gives the pointwise formula's bits and
    errors."""

    @pytest.mark.parametrize("name", sorted(MGF_GRIDS))
    def test_bits_match_pointwise_reference(self, name):
        grid = MGF_GRIDS[name]
        results = [outcome(mgf_bound_sup, j, grid)
                   for j in mgf_instances(7, 40)]
        expected = [outcome(reference_mgf_bound_sup, j, grid)
                    for j in mgf_instances(7, 40)]
        assert results == expected
        assert sum(isinstance(r, str) for r in results) >= 30

    def test_rhs_is_the_one_point_grid(self):
        points = [(1.0, 1.0), (-0.25, 2.0), (0.3, -1.9), (3.0, 0.01)]
        for j in mgf_instances(11, 20):
            for a, b in points:
                assert outcome(mgf_rhs, j, a, b) == \
                    outcome(mgf_bound_sup, j, [(a, b)]) == \
                    outcome(reference_mgf_rhs, j, a, b)

    def test_stacks_keep_bits(self):
        # 15,000 cells a point: the 64 points run as stacks of 17, 17, 17, 13
        rng = np.random.default_rng(3)
        j = joint_pmf(rng.dirichlet(np.ones(150 * 100)).reshape(150, 100),
                      x_values=tuple(rng.normal(size=150)),
                      y_values=tuple(rng.normal(size=100)))
        grid = default_mgf_grid()
        assert engine._STACK_ENTRIES // j.p.size == 17
        assert mgf_bound_sup(j, grid).hex() == \
            reference_mgf_bound_sup(j, grid).hex()

    def test_large_alphabet_memory_bounded(self):
        rng = np.random.default_rng(256)
        j = joint_pmf(rng.dirichlet(np.ones(256 * 256)).reshape(256, 256),
                      x_values=tuple(rng.normal(size=256)),
                      y_values=tuple(rng.normal(size=256)))
        grid = default_mgf_grid()
        tracemalloc.start()
        try:
            value = mgf_bound_sup(j, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8e6
        assert value.hex() == reference_mgf_bound_sup(j, grid).hex()

    @pytest.mark.parametrize("grid, error", [
        # out of range before a later degenerate point, and the reverse
        ([(4.0, 1.0), (0.0005, 1.0), (0.25, 1.0)], SOutOfRange),
        ([(4.0, 1.0), (0.25, 1.0), (0.0005, 1.0)], DegenerateDenominator),
        ([(0.25, -1.0), (4.0, 1.0), (-0.5, 1.0)], DegenerateDenominator),
        ([(4.0, 1.0), (-2.0, 0.0), (0.0, 2.0)], SOutOfRange),
    ])
    def test_first_failing_point_in_grid_order(self, grid, error):
        # Var(e^{sX}) sits under its rounding floor for |s| below 0.28 only
        j = joint_pmf(DSBS, x_values=(0.0, 1e-5), y_values=(0, 1))
        result = outcome(mgf_bound_sup, j, grid)
        assert result[0] is error
        assert result == outcome(reference_mgf_bound_sup, j, grid)

    def test_degenerate_names_its_point(self):
        j = joint_pmf(DSBS, x_values=(0.0, 1e-5), y_values=(0, 1))
        with pytest.raises(DegenerateDenominator,
                           match=r"at \(-0\.25, 1\.0\)$"):
            mgf_bound_sup(j, [(4.0, 1.0), (-0.5, 1.0), (-0.25, 1.0),
                              (0.25, 1.0)])

    def test_empty_and_missing(self):
        with pytest.raises(EmptyInput):
            mgf_bound_sup(dsbs(), [])
        with pytest.raises(EmptyInput):
            mgf_bound_sup(joint_pmf(DSBS), iter(()))
        for grid in ([(1.0, 1.0)], [(0.0, 1.0), (1.0, 1.0)]):
            assert outcome(mgf_bound_sup, joint_pmf(DSBS), grid) == \
                (MissingValues, "mgf bound needs numeric embeddings") == \
                outcome(reference_mgf_bound_sup, joint_pmf(DSBS), grid)

    def test_overflowing_square_is_degenerate(self):
        # E e^{300 X} is about 1e260: finite, but its square overflows
        with pytest.raises(DegenerateDenominator,
                           match=r"at \(300, 1\)$"):
            mgf_rhs(uniform_3x3(), 300, 1)
        with pytest.raises(DegenerateDenominator,
                           match=r"at \(300\.0, 1\.0\)$"):
            mgf_bound_sup(uniform_3x3(), [(1.0, 1.0), (300, 1)])

    @pytest.mark.parametrize("s", [200, 300, 350])
    def test_product_of_variances_overflows(self, s):
        # both variances are finite, about e^{2s} / 4, but not their
        # product: the value is still the exact 0.6
        j = dsbs()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = mgf_rhs(j, s, s)
            assert mgf_bound_sup(j, [(s, s), (1.0, -1.0)]) == value
        assert abs(value - 0.6) <= 1e-12
        assert value.hex() == reference_mgf_rhs(j, s, s).hex()

    @pytest.mark.parametrize("entries", [5, 100, engine._STACK_ENTRIES])
    def test_many_pmfs_keep_their_bits(self, monkeypatch, entries):
        # pmfs of many shapes and embeddings in one call, some sharing
        # them, some failing: each value or error is the one its pmf gives
        # alone, with the exponentials in stacks of one point and one pmf
        # or more
        js = list(mgf_instances(23, 30))
        js += [replace(j, p=np.full(j.shape, 1 / j.p.size)) for j in js[:6]]
        js += [dsbs(), uniform_3x3(), dsbs()]
        js.insert(17, joint_pmf(DSBS, x_values=(0.0, 1e-5), y_values=(0, 1)))
        js.insert(25, joint_pmf(DSBS))
        failures = 0
        for name in ("default", "scales-0.01-3", "repeated"):
            grid = MGF_GRIDS[name]
            alone = [outcome(mgf_bound_sup, j, grid) for j in js]
            values = [r for r in alone if isinstance(r, str)]
            errors = [r for r in alone if not isinstance(r, str)]
            assert len(values) >= 20
            with monkeypatch.context() as m:
                m.setattr(engine, "_STACK_ENTRIES", entries)
                passing = [j for j, r in zip(js, alone)
                           if isinstance(r, str)]
                assert [v.hex() for v in mgf_bound_sups(passing, grid)] == \
                    values
                if errors:
                    with pytest.raises(errors[0][0]) as info:
                        mgf_bound_sups(js, grid)
                    assert str(info.value) == errors[0][1]
                    failures += 1
        assert failures == 3

    def test_many_pmfs_first_failure(self):
        # a pmf without embeddings, one degenerate at a grid point and one
        # over an out-of-range point each fail alone; the first one wins
        bare = joint_pmf(DSBS)
        flat = joint_pmf(DSBS, x_values=(0.0, 1e-5), y_values=(0, 1))
        grid = [(4.0, 1.0), (-0.25, 1.0)]
        for js, error in (([dsbs(), flat, bare], DegenerateDenominator),
                          ([dsbs(), bare, flat], MissingValues),
                          ([uniform_3x3(), dsbs(), flat],
                           DegenerateDenominator)):
            with pytest.raises(error) as info:
                mgf_bound_sups(js, grid)
            with pytest.raises(error) as alone:
                mgf_bound_sup(next(j for j in js if j is flat or j is bare),
                              grid)
            assert str(info.value) == str(alone.value)
        with pytest.raises(SOutOfRange):
            mgf_bound_sups([dsbs(), flat], [(1e-4, 1.0)])
        with pytest.raises(EmptyInput):
            mgf_bound_sups([dsbs()], [])
        assert mgf_bound_sups([], grid) == []

    def test_overflowing_exp_is_degenerate_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateDenominator):
                mgf_rhs(uniform_3x3(), 1000, 1)
            with pytest.raises(DegenerateDenominator):
                mgf_bound_sup(uniform_3x3(), default_mgf_grid((1.0, 1000.0)))
