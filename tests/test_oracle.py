import collections
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

from cmcorr import oracle
from cmcorr.cli import main
from cmcorr.dist import joint_pmf
from cmcorr.engine import cmc_exact
from cmcorr.errors import InputError, SizeTooLarge
from cmcorr.oracle import OracleConfig, grid_oracle
from cmcorr.order import (
    antichain,
    is_monotone,
    poset_from_pairs,
    reverse,
    total_order,
)

DSBS = [[0.4, 0.1], [0.1, 0.4]]
DIAMOND = [(0, 1), (0, 2), (1, 3), (2, 3)]


def clear_held():
    """Drop every table the oracle holds, so the next call builds afresh."""
    for held in (oracle._row_count, oracle._held_rows, oracle._pool_tables):
        held.cache_clear()


@pytest.fixture
def cold():
    """Run the test with the oracle's held tables emptied before and after
    it, so nothing it swaps in or holds reaches another test."""
    clear_held()
    yield
    clear_held()


def total_orders(j):
    return total_order(j.x_labels), total_order(j.y_labels)


def random_pmf(rng, m, n):
    return joint_pmf(rng.dirichlet(np.ones(m * n)).reshape(m, n))


class TestGridOracle:
    def test_discordant_pair_exact(self):
        j = joint_pmf([[0.5, 0.0], [0.0, 0.5]])
        px = total_order(j.x_labels)
        py = reverse(total_order(j.y_labels))
        assert grid_oracle(j, px, py) == pytest.approx(-1.0, abs=1e-12)

    def test_dsbs_tight(self):
        j = joint_pmf(DSBS)
        value = grid_oracle(j, *total_orders(j),
                            OracleConfig(grid_step=0.05))
        assert value == pytest.approx(0.6, abs=1e-9)

    def test_diagonal(self):
        j = joint_pmf([[0.5, 0], [0, 0.5]])
        assert grid_oracle(j, *total_orders(j)) == pytest.approx(1.0,
                                                                 abs=1e-12)

    def test_feasible_lower_bound(self):
        rng = np.random.default_rng(36)
        cfg = OracleConfig(grid_step=0.1, refine_iters=10)
        for _ in range(10):
            j = random_pmf(rng, 3, 3)
            px, py = total_orders(j)
            assert grid_oracle(j, px, py, cfg) <= \
                cmc_exact(j, px, py).value + 1e-9

    def test_matches_engine_with_fine_grid(self):
        rng = np.random.default_rng(37)
        cfg = OracleConfig(grid_step=0.02, refine_iters=50)
        for _ in range(10):
            j = random_pmf(rng, 3, 3)
            px, py = total_orders(j)
            assert grid_oracle(j, px, py, cfg) == pytest.approx(
                cmc_exact(j, px, py).value, abs=1e-6)

    def test_general_poset_two_sided(self):
        # antichain sides: the oracle grids both functions
        j = joint_pmf(DSBS)
        px = antichain(j.x_labels)
        py = antichain(j.y_labels)
        value = grid_oracle(j, px, py, OracleConfig(grid_step=0.25))
        assert value <= 0.6 + 1e-9
        assert value >= 0.5  # coarse grid still finds most of the signal

    def test_size_guard(self):
        j = joint_pmf(np.full((6, 6), 1 / 36))
        with pytest.raises(SizeTooLarge):
            grid_oracle(j, *total_orders(j))

    def test_config_validation(self):
        with pytest.raises(InputError):
            OracleConfig(grid_step=0.0)
        with pytest.raises(InputError):
            OracleConfig(refine_iters=-1)
        with pytest.raises(InputError):
            OracleConfig(restart_count=0)


def reference_monotone_profiles(p, weights, step):
    """The former oracle grid: the full product, filtered and deduplicated."""
    top = int(math.floor(1.0 / step + 1e-9))
    levels = np.minimum(np.arange(top + 1) * step, 1.0)
    n = p.size
    rows: list[np.ndarray] = []
    if p.is_total():
        sigma = p.linear_extension()
        for combo in itertools.combinations_with_replacement(levels, n):
            row = np.empty(n)
            row[sigma] = combo
            rows.append(row)
    else:
        for combo in itertools.product(levels, repeat=n):
            if is_monotone(combo, p, 0.0):
                rows.append(np.asarray(combo))
    if not rows:
        return np.empty((0, n))
    grid = np.vstack(rows)
    means = grid @ weights
    centered = grid - means[:, None]
    variances = (centered * centered) @ weights
    ok = variances > oracle._CONST_TOL
    normalized = centered[ok] / np.sqrt(variances[ok])[:, None]
    return np.unique(np.round(normalized, 12), axis=0)


def reference_signed_best_response(c, w, sigma):
    """The former per-partition loop behind the oracle's best responses."""
    n = len(sigma)
    cw = c[sigma]
    ww = w[sigma]
    best_val = None
    best_vec = None
    for mask in range(2 ** (n - 1)):
        bounds = [0]
        for gap in range(n - 1):
            if mask >> gap & 1:
                bounds.append(gap + 1)
        bounds.append(n)
        if len(bounds) == 2:
            continue
        pooled = np.empty(n)
        for a, b in zip(bounds[:-1], bounds[1:]):
            bw = ww[a:b].sum()
            pooled[a:b] = (ww[a:b] @ cw[a:b]) / bw
        norm2 = float(ww @ (pooled * pooled))
        if norm2 <= 1e-24:
            continue
        for sign in (1.0, -1.0):
            vec = sign * pooled
            if (np.diff(vec) < -1e-12 * np.abs(c).max()).any():
                continue
            val = float(ww @ (vec * cw)) / math.sqrt(norm2)
            if best_val is None or val > best_val:
                best_val = val
                best_vec = vec / math.sqrt(norm2)
    if best_val is None:
        return None, 0.0
    g = np.empty(len(c))
    g[sigma] = best_vec
    return g, best_val


def _orders(size):
    labels = [str(i) for i in range(size)]
    if size == 4:
        return {"total": total_order(labels),
                "diamond": poset_from_pairs(labels, DIAMOND)}
    return {
        "total": total_order(labels),
        "reversed": reverse(total_order(labels)),
        "vee": poset_from_pairs(labels, [(0, 1), (0, 2)]),
        "wedge": poset_from_pairs(labels, [(0, 2), (1, 2)]),
        "chain+1": poset_from_pairs(labels, [(0, 1)]),
        "antichain": antichain(labels),
    }


GRID_CASES = [
    (size, name, step, tiny)
    for size, steps in ((3, (0.5, 0.1, 0.02)), (4, (0.5, 0.1, 0.05)))
    for name in _orders(size)
    for step in steps
    for tiny in (None, 1e-10, 1e-12)
]


class TestMonotoneGrid:
    @pytest.mark.parametrize("size,name,step,tiny", GRID_CASES)
    def test_subset_of_reference_and_covers_it(self, size, name, step, tiny):
        p = _orders(size)[name]
        rng = np.random.default_rng(
            GRID_CASES.index((size, name, step, tiny)))
        w = rng.dirichlet(np.ones(size))
        if tiny is not None:
            w[rng.integers(size)] = tiny
            w /= w.sum()
        kept = oracle._monotone_profiles(p, w, step)
        ref = reference_monotone_profiles(p, w, step)
        ref_rows = set(map(tuple, ref))
        assert all(tuple(row) in ref_rows for row in kept)
        kept_rows = set(map(tuple, kept))
        for row in ref:
            if tuple(row) not in kept_rows:
                nearest = np.abs(kept - row).max(axis=1).min()
                assert nearest <= 1e-9 * max(1.0, np.abs(row).max())

    @pytest.mark.parametrize("size", (3, 4))
    def test_row_count_is_exact(self, size):
        for name, p in _orders(size).items():
            for top in (2, 3, 7, 20):
                rows = oracle._level_rows(p, top)
                assert len(rows) == oracle._grid_row_count(p, top), name
                assert len(set(map(tuple, rows))) == len(rows)
                assert (rows.min(axis=1) == 0).all()
                assert all(is_monotone(r, p, 0.0) for r in rows)
                brute = sum(
                    1 for r in itertools.product(range(top + 1), repeat=size)
                    if min(r) == 0 and is_monotone(r, p, 0.0))
                assert len(rows) == brute, name

    def test_chain_count_is_binomial(self):
        for n in range(2, 6):
            p = total_order([str(i) for i in range(n)])
            assert oracle._grid_row_count(p, 50) == math.comb(50 + n - 1,
                                                              n - 1)

    @pytest.mark.parametrize("shape,step", [((3, 3), 0.02), ((4, 4), 0.05)])
    def test_oracle_value_matches_reference_grid(self, shape, step,
                                                 monkeypatch, cold):
        rng = np.random.default_rng(38)
        cfg = OracleConfig(grid_step=step, refine_iters=50)
        instances = [random_pmf(rng, *shape) for _ in range(4)]
        values = [grid_oracle(j, *total_orders(j), cfg) for j in instances]
        monkeypatch.setattr(oracle, "_monotone_profiles",
                            reference_monotone_profiles)
        for j, value in zip(instances, values):
            assert value == pytest.approx(
                grid_oracle(j, *total_orders(j), cfg), abs=1e-12)


def sorted_unique_monotone_profiles(p, weights, step):
    """The former ``_monotone_profiles``: its rows sorted and deduplicated."""
    top = int(math.floor(1.0 / step + 1e-9))
    levels = np.minimum(np.arange(top + 1) * step, 1.0)
    rows = oracle._level_rows(p, top)
    rows = rows[np.gcd.reduce(rows, axis=1) == 1]
    grid = levels[rows * (top // rows.max(axis=1))[:, None]]
    grid -= (grid @ weights)[:, None]
    variances = (grid * grid) @ weights
    ok = variances > oracle._CONST_TOL
    normalized = grid[ok] / np.sqrt(variances[ok])[:, None]
    return np.unique(np.round(normalized, 12), axis=0)


def sorted_unique_restart_rows(rows, values, count):
    """The former restart rule: sort and deduplicate the rows, then take a
    stable argsort of the negated values."""
    _, first = np.unique(rows, axis=0, return_index=True)
    return first[np.argsort(-values[first], kind="stable")[:count]]


class TestRestartRows:
    @pytest.mark.parametrize("count", (1, 2, 3, 7, 40))
    def test_matches_sorted_unique_rule(self, count):
        rng = np.random.default_rng(50 + count)
        pool = np.array([-np.inf, -1.0, -0.0, 0.0, 0.5, 1.0])
        for _ in range(200):
            width = int(rng.integers(1, 4))
            distinct = rng.integers(-2, 3, size=(int(rng.integers(1, 12)),
                                                 width)) * 0.5
            rows = distinct[rng.integers(len(distinct),
                                         size=int(rng.integers(1, 30)))]
            flip = (rows == 0) & (rng.random(rows.shape) < 0.5)
            rows[flip] = -0.0                       # equal to 0.0 rows
            # equal rows get equal values, with ties across distinct rows
            table = {}
            values = np.array([
                table.setdefault(tuple(row), pool[rng.integers(len(pool))])
                for row in rows])
            values[values == -np.inf] = 0.0         # as the sweep does
            picks = oracle._restart_rows(rows, values, count)
            ref = sorted_unique_restart_rows(rows, values, count)
            assert len(picks) == len(ref) == min(count, len(set(table)))
            assert (rows[picks] == rows[ref]).all()
            assert (values[picks] == values[ref]).all()

    def test_profiles_are_the_sorted_unique_rows(self):
        rng = np.random.default_rng(52)
        for size, step in ((3, 0.02), (4, 0.05)):
            for name, p in _orders(size).items():
                w = rng.dirichlet(np.ones(size))
                kept = oracle._monotone_profiles(p, w, step)
                ref = sorted_unique_monotone_profiles(p, w, step)
                assert (np.unique(kept, axis=0) == ref).all(), name

    @pytest.mark.parametrize("restart_count", (1, 3, 7))
    def test_oracle_equals_sorted_unique_grid(self, restart_count,
                                              monkeypatch, cold):
        rng = np.random.default_rng(53 + restart_count)
        cfg = OracleConfig(grid_step=0.02, refine_iters=50,
                           restart_count=restart_count)
        orders = (
            total_order,
            lambda labels: reverse(total_order(labels)),
            lambda labels: poset_from_pairs(
                labels, [(0, k) for k in range(1, len(labels))]),
            antichain,
        )
        cases = []
        for shape in ((2, 5), (3, 3), (3, 4), (4, 4)):
            # a 4-element vee or antichain grid costs 0.3-0.8 s a call
            for order in orders[:2] if shape[0] == 4 else orders:
                p = rng.dirichlet(np.ones(shape[0] * shape[1])
                                  ).reshape(shape)
                indep = np.outer(p.sum(axis=1), p.sum(axis=0))
                sparse = p * (rng.random(shape) < 0.6)
                k = np.arange(max(shape))     # every symbol keeps some mass
                sparse[k % shape[0], k % shape[1]] += 0.01
                for pmf in (p, indep, sparse / sparse.sum()):
                    j = joint_pmf(pmf)
                    cases.append((j, order(j.x_labels)))
        values = [grid_oracle(j, px, total_order(j.y_labels), cfg)
                  for j, px in cases]
        monkeypatch.setattr(oracle, "_monotone_profiles",
                            sorted_unique_monotone_profiles)
        monkeypatch.setattr(oracle, "_restart_rows",
                            sorted_unique_restart_rows)
        for (j, px), value in zip(cases, values):
            assert value == grid_oracle(j, px, total_order(j.y_labels), cfg)


class TestPooledResponder:
    @pytest.mark.parametrize("n,entries", [(2, None), (3, None), (4, None),
                                           (5, None), (4, 1)])
    def test_matches_reference_loop(self, n, entries, monkeypatch):
        widths = stack_widths(monkeypatch)
        if entries is not None:     # one query per stack
            monkeypatch.setattr(oracle, "_POOL_ENTRIES", entries)
        rng = np.random.default_rng(40 + n)
        for _ in range(40):
            w = rng.dirichlet(np.ones(n))
            sigma = [int(i) for i in rng.permutation(n)]
            c = rng.normal(size=(6, n))
            c[1] = 0.0                              # degenerate: no response
            c[2] = np.round(c[2])                   # ties between faces
            c[3, sigma[1]] = c[3, sigma[0]]
            c -= (c @ w)[:, None]
            respond = oracle._pooled_responder(w, sigma)
            values, g = respond(c)
            assert (respond(c, with_g=False)[0] == values).all()
            for row, value, vec in zip(c, values, g):
                ref_g, ref_value = reference_signed_best_response(row, w,
                                                                  sigma)
                if ref_g is None:
                    assert value == -np.inf
                    assert np.isnan(vec).all()
                else:
                    assert value == pytest.approx(ref_value, abs=1e-12)
                    assert vec == pytest.approx(ref_g, abs=1e-12)
        assert set(widths) == ({6} if entries is None else {1})

    def test_tie_break_first_mask(self):
        # on a decreasing c no nondecreasing response is positive; the
        # negated faces {0}{1,2} (mask 1) and {0,1}{2} (mask 2) tie exactly
        # at -sqrt(3) with different g, and the first mask must win
        w = np.array([0.25, 0.5, 0.25])
        c = np.array([3.0, 0.0, -3.0])
        value, g = oracle._pooled_responder(w, [0, 1, 2])(c[None])
        ref_g, ref_value = reference_signed_best_response(c, w, [0, 1, 2])
        assert value[0] == ref_value
        assert value[0] == pytest.approx(-math.sqrt(3.0), abs=1e-15)
        assert g[0] == pytest.approx(
            np.array([-3.0, 1.0, 1.0]) / math.sqrt(3.0), abs=1e-15)
        assert g[0] == pytest.approx(ref_g, abs=1e-15)

    def test_step_cut_scales_with_the_query(self):
        # conditional means near 1e-11: against a fixed 1e-12 cut the face
        # {0}{1}{2}{3} passed with a -0.127 step in g; scaled by max|c|, the
        # cut picks the monotone face that 1e12 * c picks
        w = np.full(4, 0.25)
        c = np.array([0.0, 10.0, 9.1, 20.0]) * 1e-12
        c -= c @ w
        respond = oracle._pooled_responder(w, [0, 1, 2, 3])
        value, g = respond(c[None])
        big_value, big_g = respond(1e12 * c[None])
        assert (np.diff(g[0]) >= 0.0).all()
        assert g[0] == pytest.approx(big_g[0], abs=1e-12)
        assert value[0] == pytest.approx(1e-12 * big_value[0], rel=1e-12)
        ref_g, _ = reference_signed_best_response(c, w, [0, 1, 2, 3])
        assert g[0] == pytest.approx(ref_g, abs=1e-12)

    def test_dominates_exhaustive_g_grid(self):
        # the exact response to a standardized f must beat the covariance
        # of f with every monotone unit-variance g on the 5-level grid
        rng = np.random.default_rng(35)
        for _ in range(10):
            j = random_pmf(rng, 3, 3)
            py = total_order(j.y_labels)
            px_w = j.p.sum(axis=1)
            py_w = j.p.sum(axis=0)
            f = np.array([-1.2, 0.1, 1.4])
            fc = f - px_w @ f
            fc = fc / np.sqrt(px_w @ fc**2)
            respond = oracle._pooled_responder(py_w, py.linear_extension())
            value, _ = respond(
                oracle._centered_conditional(fc @ j.p, py_w)[None])
            best_grid = -np.inf
            for combo in np.ndindex(5, 5, 5):
                g = np.asarray(combo, dtype=float)
                if (np.diff(g) < 0).any():
                    continue
                gc = g - py_w @ g
                var = py_w @ gc**2
                if var <= 1e-12:
                    continue
                best_grid = max(best_grid, float(fc @ j.p @ (gc / np.sqrt(var))))
            assert value[0] >= best_grid - 1e-9


def stack_widths(monkeypatch):
    """Make the pooled responders log the queries of every stack they
    answer; returns the log.  A stack checks its faces once per sign, so
    each stack is logged twice in a row."""
    widths = []
    faces_clear = oracle._faces_clear

    def logged(flagged, face_pairs):
        widths.append(flagged.shape[1])
        return faces_clear(flagged, face_pairs)

    monkeypatch.setattr(oracle, "_faces_clear", logged)
    return widths


class TestStacks:
    @pytest.mark.parametrize("n", (4, 5))
    def test_stacks_change_no_bits_at_scale(self, n, monkeypatch):
        # the sweep of a 4-chain at step 0.02 (18,970 profiles) answered on
        # n symbols: the default budget cuts it into several stacks, and
        # one stack of the whole batch must give the same bits
        rng = np.random.default_rng(95 + n)
        j = random_pmf(rng, 4, n)
        px_w, py_w = j.p.sum(axis=1), j.p.sum(axis=0)
        profiles = oracle._monotone_profiles(total_order(j.x_labels), px_w,
                                             0.02)
        c = oracle._centered_conditional(profiles @ j.p, py_w)
        sigma = [int(i) for i in rng.permutation(n)]
        widths = stack_widths(monkeypatch)
        respond = oracle._pooled_responder(py_w, sigma)
        value, g = respond(c)
        assert len(widths) > 2 and sum(widths[::2]) == len(c)
        bare = respond(c, with_g=False)[0]
        monkeypatch.setattr(oracle, "_POOL_ENTRIES", 1 << 30)
        widths.clear()
        whole = oracle._pooled_responder(py_w, sigma)
        whole_value, whole_g = whole(c)
        assert widths == [len(c)] * 2
        assert value.tobytes() == whole_value.tobytes() == bare.tobytes()
        assert g.tobytes() == whole_g.tobytes()
        assert whole(c, with_g=False)[0].tobytes() == bare.tobytes()

    @pytest.mark.parametrize("n", (2, 3, 4, 5))
    def test_stacks_near_equal(self, n, monkeypatch):
        # a batch one query over the budget splits in two halves, never
        # into a full stack and a one-query stack
        faces = len(oracle._pool_tables(n).in_face)
        chunk = oracle._POOL_ENTRIES // (faces * n)
        rng = np.random.default_rng(97 + n)
        w = rng.dirichlet(np.ones(n))
        respond = oracle._pooled_responder(w, list(range(n)))
        widths = stack_widths(monkeypatch)
        for q in (chunk, chunk + 1, 2 * chunk + 1, 3 * chunk - 1):
            c = rng.normal(size=(q, n))
            c -= (c @ w)[:, None]
            widths.clear()
            respond(c, with_g=False)
            stacks = widths[::2]
            assert len(stacks) == -(-q // chunk) and sum(stacks) == q
            assert max(stacks) <= chunk and max(stacks) - min(stacks) <= 1
            assert min(stacks) > 1

    def test_warm_sweep_memory_bounded(self):
        # a warm call at the oracle benchmark's configuration on 4x4
        # chains; with its sweep in one stack of 1.5 MB arrays it peaked
        # at 13 MB traced
        rng = np.random.default_rng(98)
        j = random_pmf(rng, 4, 4)
        cfg = OracleConfig(grid_step=0.02, refine_iters=50, restart_count=3)
        value = grid_oracle(j, *total_orders(j), cfg)     # hold the tables
        tracemalloc.start()
        try:
            assert grid_oracle(j, *total_orders(j), cfg) == value
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6e6


def reference_face_incidence(n):
    """The former per-call face tables: the lower and upper spans of every
    adjacent block pair, face by face in mask order, and the float
    face-by-pair incidence the sweep multiplied with."""
    spans = [(a, b) for a in range(n) for b in range(a + 1, n + 1)]
    faces = []
    for mask in range(1, 2 ** (n - 1)):
        cuts = [0] + [gap + 1 for gap in range(n - 1) if mask >> gap & 1]
        faces.append([spans.index(ab) for ab in zip(cuts, cuts[1:] + [n])])
    pairs = [(m, lo, hi) for m, face in enumerate(faces)
             for lo, hi in zip(face, face[1:])]
    step_face = np.array([[m == p[0] for p in pairs]
                          for m in range(len(faces))], dtype=float)
    return [lo for _, lo, _ in pairs], [hi for _, _, hi in pairs], step_face


class TestFaceChecks:
    @pytest.mark.parametrize("n", (2, 3, 4, 5))
    def test_match_float_incidence(self, n):
        lower, upper, step_face = reference_face_incidence(n)
        t = oracle._pool_tables(n)
        assert t.lower.tolist() == lower and t.upper.tolist() == upper
        rng = np.random.default_rng(60 + n)
        # steps exactly at, just inside and just outside the +-1e-12 cut
        edges = np.array([-1e-12, 1e-12, 0.0, -0.0, 0.3, -0.3, np.nan,
                          np.nextafter(-1e-12, 0.0), np.nextafter(1e-12, 0.0),
                          np.nextafter(-1e-12, -1.0), np.nextafter(1e-12, 1.0)])
        placed = edges[rng.integers(len(edges), size=(len(lower), 500))]
        # and the steps of random queries, as the sweep forms them
        w = rng.dirichlet(np.ones(n))[:, None]
        c = rng.normal(size=(n, 500))
        c[:, :100] = np.round(c[:, :100])           # equal neighbours
        sums = t.member @ (c * w)
        means = sums / (t.member @ w)
        for steps in (placed, means[t.upper] - means[t.lower]):
            for flagged in (steps < -1e-12, steps > 1e-12):
                assert (oracle._faces_clear(flagged, t.face_pairs)
                        == (step_face @ flagged == 0)).all()


class TestGridLimit:
    def test_five_chain_fine_step_refused_before_building(self,
                                                          monkeypatch, cold):
        def never(*args):
            raise AssertionError("grid built")
        monkeypatch.setattr(oracle, "_level_rows", never)
        j = joint_pmf(np.full((5, 5), 1 / 25))
        with pytest.raises(SizeTooLarge, match="monotone rows"):
            grid_oracle(j, *total_orders(j), OracleConfig(grid_step=0.001))

    def test_limit_is_on_the_exact_count(self, monkeypatch):
        j = joint_pmf(DSBS)
        p = total_order(j.x_labels)
        count = oracle._grid_row_count(p, 20)          # step 0.05
        assert count == 21
        monkeypatch.setattr(oracle, "GRID_ROW_LIMIT", count)
        assert grid_oracle(j, *total_orders(j)) == pytest.approx(0.6,
                                                                 abs=1e-9)
        monkeypatch.setattr(oracle, "GRID_ROW_LIMIT", count - 1)
        with pytest.raises(SizeTooLarge):
            grid_oracle(j, *total_orders(j))

    def test_every_side_accepted_at_step_002(self):
        for n in range(2, 6):
            p = total_order([str(i) for i in range(n)])
            assert oracle._grid_row_count(p, 50) <= oracle.GRID_ROW_LIMIT
        for p in (antichain("abcd"), poset_from_pairs("abcd", DIAMOND)):
            assert oracle._grid_row_count(p, 50) <= oracle.GRID_ROW_LIMIT

    def test_cli_exits_one(self, tmp_path, capsys):
        doc = {
            "x": {"labels": [str(i) for i in range(5)]},
            "y": {"labels": [str(i) for i in range(5)]},
            "pmf": np.full((5, 5), 1 / 25).tolist(),
        }
        path = tmp_path / "five_by_five.json"
        path.write_text(json.dumps(doc))
        assert main(["oracle", str(path), "--step", "0.001"]) == 1
        assert "monotone rows" in capsys.readouterr().err

    def test_two_sided_pairs_refused_before_building(self, monkeypatch,
                                                     cold):
        # each diamond fits at step 0.02 (45,526 rows), their pairs do not
        def never(*args):
            raise AssertionError("grid built")
        monkeypatch.setattr(oracle, "_level_rows", never)
        j = joint_pmf(np.full((4, 4), 1 / 16))
        px = poset_from_pairs(j.x_labels, DIAMOND)
        py = poset_from_pairs(j.y_labels, DIAMOND)
        with pytest.raises(SizeTooLarge, match="row pairs"):
            grid_oracle(j, px, py, OracleConfig(grid_step=0.02))
        with pytest.raises(SizeTooLarge, match="row pairs"):
            grid_oracle(j, antichain(j.x_labels), antichain(j.y_labels),
                        OracleConfig(grid_step=0.05))

    def test_pair_limit_is_on_the_exact_product(self, monkeypatch):
        j = joint_pmf(DSBS)
        px, py = antichain(j.x_labels), antichain(j.y_labels)
        count = oracle._grid_row_count(px, 20)          # step 0.05
        assert count == 41
        monkeypatch.setattr(oracle, "GRID_PAIR_LIMIT", count * count)
        assert grid_oracle(j, px, py) == pytest.approx(0.6, abs=1e-9)
        monkeypatch.setattr(oracle, "GRID_PAIR_LIMIT", count * count - 1)
        with pytest.raises(SizeTooLarge, match="row pairs"):
            grid_oracle(j, px, py)

    def test_two_sided_memory_bounded(self, monkeypatch):
        # a diamond x vee at step 0.02 searches 118 million row pairs;
        # chunks of ten million covariances peaked at 161 MB traced
        rng = np.random.default_rng(41)
        j = random_pmf(rng, 4, 3)
        px = poset_from_pairs(j.x_labels, DIAMOND)
        py = poset_from_pairs(j.y_labels, [(0, 1), (0, 2)])
        cfg = OracleConfig(grid_step=0.02)
        tracemalloc.start()
        try:
            value = grid_oracle(j, px, py, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40e6
        monkeypatch.setattr(oracle, "_PAIR_CHUNK", 10_000_000)
        assert grid_oracle(j, px, py, cfg) == value

    def test_two_sided_cli_exits_one(self, tmp_path, capsys):
        diamond = {"pairs": [list(pair) for pair in DIAMOND]}
        doc = {
            "x": {"labels": list("abcd"), "order": diamond},
            "y": {"labels": list("efgh"), "order": diamond},
            "pmf": np.full((4, 4), 1 / 16).tolist(),
        }
        path = tmp_path / "diamonds.json"
        path.write_text(json.dumps(doc))
        assert main(["oracle", str(path), "--step", "0.02"]) == 1
        assert "row pairs" in capsys.readouterr().err


def never(*args):
    raise AssertionError("grid built")


class TestHeldTables:
    @staticmethod
    def held_cases(x_labels=None):
        """(j, px, py): 3x3 and 4x4 chains, vee/wedge/chain+1 x a 4-chain
        and a diamond x vee, with the X labels given, the same pmf bits
        whatever they are."""
        rng = np.random.default_rng(70)
        vee = [(0, 1), (0, 2)]
        cases = []
        for x_pairs, y_pairs, shape in (
                (None, None, (3, 3)), (None, None, (4, 4)),
                (vee, None, (3, 4)), ([(0, 2), (1, 2)], None, (3, 4)),
                ([(0, 1)], None, (3, 4)), (DIAMOND, vee, (4, 3))):
            raw = rng.dirichlet(np.ones(shape[0] * shape[1])).reshape(shape)
            labels = None if x_labels is None else x_labels[:shape[0]]
            j = joint_pmf(raw, labels)
            px, py = total_orders(j)
            if x_pairs is not None:
                px = poset_from_pairs(j.x_labels, x_pairs)
            if y_pairs is not None:
                py = poset_from_pairs(j.y_labels, y_pairs)
            cases.append((j, px, py))
        return cases

    def test_warm_equals_cold(self, monkeypatch, cold):
        cfg = OracleConfig(grid_step=0.02, refine_iters=50, restart_count=3)
        for (j, px, py), relabeled in zip(self.held_cases(),
                                          self.held_cases("abcd")):
            clear_held()
            value = grid_oracle(j, px, py, cfg).hex()
            with monkeypatch.context() as m:
                m.setattr(oracle, "_level_rows", never)   # nothing rebuilt
                assert grid_oracle(j, px, py, cfg).hex() == value
                # new orders of the same structure find the held rows
                assert grid_oracle(*relabeled, cfg).hex() == value

    def test_held_arrays_read_only(self):
        rows = oracle._held_rows(4, total_order("abcd").strict_pairs, 50)
        assert not rows.flags.writeable
        with pytest.raises(ValueError):
            rows[0, 0] = 1
        for n in range(2, 6):
            for table in oracle._pool_tables(n):
                assert not table.flags.writeable

    def test_lowered_limit_refuses_held_order(self, monkeypatch, cold):
        rng = np.random.default_rng(71)
        j = random_pmf(rng, 4, 4)
        cfg = OracleConfig(grid_step=0.02)
        value = grid_oracle(j, *total_orders(j), cfg)
        monkeypatch.setattr(oracle, "_level_rows", never)
        assert grid_oracle(j, *total_orders(j), cfg) == value
        count = oracle._grid_row_count(total_order(j.x_labels), 50)
        monkeypatch.setattr(oracle, "GRID_ROW_LIMIT", count - 1)
        with pytest.raises(SizeTooLarge, match="monotone rows"):
            grid_oracle(j, *total_orders(j), cfg)

    def test_grid_over_hold_bound_not_kept(self, monkeypatch, cold):
        rng = np.random.default_rng(72)
        cfg = OracleConfig(grid_step=0.05, refine_iters=10)
        labels = [str(i) for i in range(5)]
        orders = [total_order(labels[:n]) for n in (2, 3, 4, 5)] + [
            poset_from_pairs(labels[:3], pairs)
            for pairs in ([(0, 1), (0, 2)], [(0, 2), (1, 2)], [(0, 1)])]
        cases = [(joint_pmf(rng.dirichlet(np.ones(3 * p.size)
                                          ).reshape(p.size, 3)), p)
                 for p in orders]
        unbounded = [grid_oracle(j, p, total_order(j.y_labels), cfg).hex()
                     for j, p in cases]
        clear_held()
        bound = 300                     # the 5-chain (10,626 rows) is over
        monkeypatch.setattr(oracle, "_HELD_ROWS", bound)
        keys = []
        for (j, p), value in zip(cases, unbounded):
            key = (p.size, p.strict_pairs, 20)
            over = oracle._grid_row_count(p, 20) > bound
            misses = oracle._held_rows.cache_info().misses
            assert grid_oracle(j, p, total_order(j.y_labels),
                               cfg).hex() == value
            assert (oracle._held_rows.cache_info().misses == misses) == over
            keys.append((key, over))
        monkeypatch.setattr(oracle, "_level_rows", never)
        held = []
        for key, over in keys:
            try:
                rows = oracle._held_rows(*key)
            except AssertionError:
                continue
            assert not over
            held.append(len(rows))
        assert any(over for _, over in keys)
        assert 0 < len(held) <= oracle._HELD_GRIDS
        assert max(held) <= bound


def reference_refine(j, px, py, cfg, exits):
    """The oracle on two chains with each restart refined alone, one
    query per response, as the loop was before the restarts were batched.

    The conditionals are one-row products, the products the batched loop
    makes on a single restart, so near the 1e-12 cut rounding cannot give
    a response here to a query that goes unanswered there.  ``exits``
    counts the restarts stopped because no Y response exists (``"vg"``),
    because no X response exists (``"vf"``), and of the latter those whose
    Y response had still risen by more than 1e-15 (``"vf rising"``).
    """
    px_w, py_w = j.p.sum(axis=1), j.p.sum(axis=0)
    profiles = oracle._monotone_profiles(px, px_w, cfg.grid_step)
    respond_y = oracle._pooled_responder(py_w, py.linear_extension())
    best_vals, _ = respond_y(
        oracle._centered_conditional(profiles @ j.p, py_w), with_g=False)
    best_vals[best_vals == -np.inf] = 0.0
    top = oracle._restart_rows(profiles, best_vals, cfg.restart_count)
    overall = float(best_vals[top[0]])
    if cfg.refine_iters == 0:
        return overall
    respond_x = oracle._pooled_responder(px_w, px.linear_extension())
    for k in top:
        f = profiles[k].copy()
        value = float(best_vals[k])
        for _ in range(cfg.refine_iters):
            vg, g = respond_y(
                oracle._centered_conditional(f[None] @ j.p, py_w))
            vg = float(vg[0])
            if vg == -np.inf:
                exits["vg"] += 1
                break
            vf, f_new = respond_x(
                oracle._centered_conditional(g @ j.p.T, px_w))
            vf = float(vf[0])
            if vf == -np.inf:
                exits["vf"] += 1
                exits["vf rising"] += vg > value + 1e-15
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


def counting_responder(monkeypatch):
    """Make every pooled responder log the number of queries of each call
    and refuse a query that is not finite; returns the log."""
    calls = []
    responder = oracle._pooled_responder

    def counted(w, sigma):
        respond = responder(w, sigma)

        def logged(c, with_g=True):
            assert np.isfinite(c).all()
            calls.append(len(c))
            return respond(c, with_g)
        return logged

    monkeypatch.setattr(oracle, "_pooled_responder", counted)
    return calls


class TestBatchedRefinement:
    CONFIGS = [OracleConfig(refine_iters=iters, restart_count=count)
               for iters in (0, 1, 50) for count in (1, 3, 7)]

    @staticmethod
    def near_cut_pairs(rng, count):
        """2x2 pmfs whose correlation lies within 3e-5 (relative) of the
        1e-12 cut below which a response is degenerate: there rounding
        alone decides whether a side has a response, and the Y side can
        answer while the X side cannot."""
        for _ in range(count):
            a, b = rng.uniform(0.2, 0.8, size=2)
            scale = 1e-12 * math.sqrt(a * (1 - a) * b * (1 - b))
            for t in np.linspace(0.99997, 1.00003, 7):
                d = t * scale
                yield joint_pmf([[(1 - a) * (1 - b) + d, (1 - a) * b - d],
                                 [a * (1 - b) - d, a * b + d]])

    def test_matches_one_restart_at_a_time(self, monkeypatch):
        counting_responder(monkeypatch)
        rng = np.random.default_rng(90)
        cases = []
        for m, n in itertools.product(range(2, 6), repeat=2):
            j = random_pmf(rng, m, n)
            px, py = total_orders(j)
            cases += [(j, px, py), (j, px, reverse(py))]
        # independent: every response is -inf, so each restart stops at
        # its first Y response
        j = joint_pmf(np.outer(rng.dirichlet(np.ones(3)),
                               rng.dirichlet(np.ones(4))))
        cases.append((j, *total_orders(j)))
        runs = [(case, cfg) for case in cases for cfg in self.CONFIGS]
        runs += [((j, *total_orders(j)), cfg)
                 for j in self.near_cut_pairs(rng, 40)
                 for cfg in self.CONFIGS if cfg.refine_iters == 50]
        exits = collections.Counter()
        for (j, px, py), cfg in runs:
            value = grid_oracle(j, px, py, cfg)
            reference = reference_refine(j, px, py, cfg, exits)
            if cfg.refine_iters == 0:
                assert value.hex() == reference.hex()
            else:
                assert abs(value - reference) <= 1e-15
        assert exits["vg"] > 0
        assert exits["vf"] > 0

    def test_row_without_x_response_leaves_the_batch(self, monkeypatch):
        # the X side stops answering after its first call, so restarts
        # still rising stop at the vf exit: they keep max(value, vg) and
        # pass no NaN row on (counting_responder refuses one)
        counting_responder(monkeypatch)
        responder = oracle._pooled_responder
        built = []

        def x_answers_once(w, sigma):
            respond = responder(w, sigma)
            built.append(sigma)
            if len(built) % 2:                  # Y side: unchanged
                return respond
            answered = []

            def refuse_after_first(c, with_g=True):
                if answered:
                    return (np.full(len(c), -np.inf),
                            np.full(c.shape, np.nan))
                answered.append(True)
                return respond(c, with_g)
            return refuse_after_first

        monkeypatch.setattr(oracle, "_pooled_responder", x_answers_once)
        rng = np.random.default_rng(92)
        cfg = OracleConfig(grid_step=0.25, refine_iters=5, restart_count=1)
        exits = collections.Counter()
        for m, n in itertools.product(range(3, 6), repeat=2):
            j = random_pmf(rng, m, n)
            px, py = total_orders(j)
            value = grid_oracle(j, px, py, cfg)
            assert abs(value - reference_refine(j, px, py, cfg, exits)) \
                <= 1e-15
        assert exits["vf rising"] > 0

    @pytest.mark.parametrize("restart_count", [1, 7])
    def test_calls_do_not_grow_with_restarts(self, monkeypatch,
                                             restart_count):
        calls = counting_responder(monkeypatch)
        rng = np.random.default_rng(91)
        for refine_iters in (1, 2, 5, 50):
            cfg = OracleConfig(refine_iters=refine_iters,
                               restart_count=restart_count)
            for _ in range(5):
                j = random_pmf(rng, 3, 3)
                calls.clear()
                grid_oracle(j, *total_orders(j), cfg)
                assert len(calls) <= 2 * refine_iters + 1
                # the restarts are refined side by side, all in one query
                assert calls[1] == restart_count


def test_never_above_engine_beyond_rounding():
    # the sweep's profiles are rounded to 12 decimals, so the oracle may
    # sit a few 1e-13 above the exact value, but no further
    rng = np.random.default_rng(80)
    cases = []
    for shape in ((2, 2), (2, 3), (3, 2), (3, 3), (3, 4), (4, 4)):
        for flip in (False, True):
            j = random_pmf(rng, *shape)
            px, py = total_orders(j)
            cases.append((j, px, reverse(py) if flip else py))
    for pairs in ([(0, 1), (0, 2)], [(0, 2), (1, 2)], [(0, 1)], []):
        j = random_pmf(rng, 3, 4)
        cases.append((j, poset_from_pairs(j.x_labels, pairs),
                      total_order(j.y_labels)))
    j = random_pmf(rng, 4, 3)
    cases.append((j, poset_from_pairs(j.x_labels, DIAMOND),
                  total_order(j.y_labels)))
    j = random_pmf(rng, 3, 3)
    cases.append((j, poset_from_pairs(j.x_labels, [(0, 1)]),
                  poset_from_pairs(j.y_labels, [(1, 2)])))
    for step in (0.5, 0.1, 0.05):
        cfg = OracleConfig(grid_step=step, refine_iters=25)
        for j, px, py in cases:
            assert grid_oracle(j, px, py, cfg) <= \
                cmc_exact(j, px, py).value + 1e-11


def mutual_best_responses(j, f, iters=100):
    """Alternate exact best responses from ``f`` until each side answers
    the other; None when no such pair is reached in ``iters`` rounds."""
    wx, wy = j.p.sum(axis=1), j.p.sum(axis=0)
    respond_x = oracle._pooled_responder(wx, list(range(len(wx))))
    respond_y = oracle._pooled_responder(wy, list(range(len(wy))))
    for _ in range(iters):
        _, g = respond_y(oracle._centered_conditional(f @ j.p, wy)[None])
        _, f_new = respond_x(
            oracle._centered_conditional(j.p @ g[0], wx)[None])
        if np.abs(f_new[0] - f).max() <= 1e-12:
            return f, g[0]
        f = f_new[0]
    return None


def test_alternating_responses_stop_below_the_cmc():
    # the CMC is non-convex: a monotone pair where each function is the
    # other's exact best response can lie well below the optimum, which
    # only the exhaustive face enumeration reaches
    found = []
    for seed in range(40):
        rng = np.random.default_rng(seed)
        m, n = (int(k) for k in rng.integers(3, 6, size=2))
        j = random_pmf(rng, m, n)
        wx, wy = j.p.sum(axis=1), j.p.sum(axis=0)
        f = np.sort(rng.normal(size=m))
        f -= wx @ f
        f /= np.sqrt(wx @ f ** 2)
        pair = mutual_best_responses(j, f)
        if pair is None:
            continue
        f, g = pair
        cov = float(f @ j.p @ g)
        if cov < cmc_exact(j, *total_orders(j)).value - 1e-6:
            found.append(seed)
            px, py = total_orders(j)
            for h, w, p in ((f, wx, px), (g, wy, py)):
                assert is_monotone(h, p, 1e-12)
                assert abs(w @ h) <= 1e-12
                assert abs(w @ h ** 2 - 1.0) <= 1e-12
            # each is the other's best response, to within 1e-12
            vg, g_best = oracle._pooled_responder(wy, list(range(n)))(
                oracle._centered_conditional(f @ j.p, wy)[None])
            vf, f_best = oracle._pooled_responder(wx, list(range(m)))(
                oracle._centered_conditional(j.p @ g, wx)[None])
            assert np.abs(g_best[0] - g).max() <= 1e-12
            assert np.abs(f_best[0] - f).max() <= 1e-12
            assert vg[0] == pytest.approx(cov, abs=1e-12)
            assert vf[0] == pytest.approx(cov, abs=1e-12)
    assert found


def test_diamond_against_engine():
    rng = np.random.default_rng(39)
    cfg = OracleConfig(grid_step=0.02, refine_iters=50, restart_count=3)
    for _ in range(3):
        j = random_pmf(rng, 4, 4)
        px = poset_from_pairs(j.x_labels, DIAMOND)
        py = total_order(j.y_labels)
        value = grid_oracle(j, px, py, cfg)
        engine = cmc_exact(j, px, py).value
        assert value <= engine + 1e-9
        assert engine - value <= 1e-4
