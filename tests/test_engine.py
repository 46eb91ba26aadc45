import math
import sys
import threading
import time
import tracemalloc

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
    cmc_plus,
    cmc_x_reversed,
    default_mgf_grid,
    distinct_partitions,
    mgf_bound_sup,
    mgf_rhs,
)
from cmcorr.errors import (
    DegenerateDenominator,
    EnumerationTooLarge,
    InputError,
    MissingValues,
    SizeTooLarge,
    SOutOfRange,
)
import cmcorr.maxcorr as maxcorr
from cmcorr.maxcorr import (
    maximal_correlation,
    residual_singular_pairs,
    residual_spectra,
)
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
    near = [c for c in candidates if c.cov >= best_cov - engine.TIE_TOL]
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
        parts = distinct_partitions(p)
        assert [q.blocks for q in parts] == \
            [q.blocks for q in closure_partitions(p)]

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
            table = engine._side_table(p, distinct_partitions(p), True)
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
            expected = [q.blocks for q in closure_partitions(p)]
            monkeypatch.setattr(engine, "FACE_LIMIT", len(expected))
            assert [q.blocks for q in distinct_partitions(p)] == expected
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
        assert [q.blocks for q in distinct_partitions(p)] == \
            [q.blocks for q in closure_partitions(p)]

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
                    block = np.ascontiguousarray(p[xa:xb, ya:yb, :kx, :ky])
                    ref = reference_residual_spectra(block)
                    for spectra in (residual_spectra(block), ref):
                        assert all(np.array_equal(a, b)
                                   for a, b in zip(spectra, ref))
                    v, lv, rv = ref
                    r = v.shape[-1]
                    values[xa:xb, ya:yb, :r] = v
                    real[xa:xb, ya:yb, :r] = True
                    left[xa:xb, ya:yb, :r, :kx] = lv
                    right[xa:xb, ya:yb, :r, :ky] = rv
                    # the marginals are the face's own row and column sums
                    px[xa:xb, ya:yb, :kx] = block.sum(axis=-1)
                    py[xa:xb, ya:yb, :ky] = block.sum(axis=-2)
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
            tx = engine._side_table(px, distinct_partitions(px), False)
            ty = engine._side_table(py, distinct_partitions(py), False)
            merged = engine._merge(j.p, tx.block_of, ty.block_of)
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
        assert len(calls) == 2 * len(cases)
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
        cmc_exact(a, *total_orders(a))
        assert len(calls) == 2
        cmc_exact(b, *total_orders(b))
        assert len(calls) == 2
        cmc_exact(b, *total_orders(b), CmcOptions(mode="paper_faithful"))
        assert len(calls) == 4

    def test_face_limit_in_key(self, monkeypatch):
        calls = enumerate_with(monkeypatch, distinct_partitions)
        j = random_pmf(np.random.default_rng(73), 4, 3)
        cmc_exact(j, *total_orders(j))  # 8 x 4 faces, both sides kept
        monkeypatch.setattr(engine, "FACE_LIMIT", 7)
        with pytest.raises(EnumerationTooLarge,
                           match="4-element order has more than 7"):
            cmc_exact(j, *total_orders(j))
        assert len(calls) == 3

    def test_bounded_by_partitions_held(self, monkeypatch):
        enumerate_with(monkeypatch, distinct_partitions)
        monkeypatch.setattr(engine, "MEMO_PARTITIONS", 20)
        rng = np.random.default_rng(74)

        def solve(m, n):
            j = random_pmf(rng, m, n)
            cmc_exact(j, *total_orders(j))
            assert engine._MEMO.held <= 20
            assert engine._MEMO.held == sum(
                len(side.parts) for side in engine._MEMO.entries.values())
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
                    a, b = rng.integers(len(chains), size=2)
                    engine._sides(chains[a], chains[b], bool(seed % 2))
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
            len(side.parts) for side in engine._MEMO.entries.values())
        assert engine._MEMO.held <= 20

    def test_stored_arrays_read_only(self, monkeypatch):
        enumerate_with(monkeypatch, distinct_partitions)
        for j, px, py in filtered_closure_cases()[:12]:
            for mode in MODES:
                cmc_exact(j, px, py, CmcOptions(mode=mode))
        arrays = []
        for side in engine._MEMO.entries.values():
            assert isinstance(side.parts, tuple)
            table = side.table
            assert isinstance(table.parts, tuple)
            arrays += [table.block_of, table.pairs]
            if table.scores is not None:
                arrays.append(table.scores)
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
        assert len(calls) == 3
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
