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
from cmcorr.errors import (
    InputError,
    RequiresTotalOrder,
    ShapeMismatch,
    SizeTooLarge,
    ZeroVariance,
)
from cmcorr.oracle import (
    OracleConfig,
    best_response_g,
    grid_oracle,
    pava_isotonic,
)
from cmcorr.order import (
    antichain,
    is_monotone,
    poset_from_pairs,
    reverse,
    total_order,
)

DSBS = [[0.4, 0.1], [0.1, 0.4]]
DIAMOND = [(0, 1), (0, 2), (1, 3), (2, 3)]


def total_orders(j):
    return total_order(j.x_labels), total_order(j.y_labels)


def random_pmf(rng, m, n):
    return joint_pmf(rng.dirichlet(np.ones(m * n)).reshape(m, n))


class TestPava:
    def test_already_monotone_unchanged(self):
        out = pava_isotonic([1, 2, 3], [1, 1, 1])
        assert out == pytest.approx([1, 2, 3])

    def test_two_point_pool(self):
        assert pava_isotonic([1, 0], [0.5, 0.5]) == pytest.approx([0.5, 0.5])

    def test_sequential_pooling(self):
        assert pava_isotonic([3, 1, 2], [1, 1, 1]) == pytest.approx([2, 2, 2])

    def test_weighted_pool(self):
        # pooled average of (3, w=3) and (1, w=1) is 2.5
        assert pava_isotonic([3, 1], [3, 1]) == pytest.approx([2.5, 2.5])

    def test_idempotent(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            n = int(rng.integers(2, 8))
            t = rng.normal(size=n)
            w = rng.uniform(0.1, 2.0, size=n)
            once = pava_isotonic(t, w)
            assert pava_isotonic(once, w) == pytest.approx(once, abs=1e-12)

    def test_output_is_monotone(self):
        rng = np.random.default_rng(32)
        chain = total_order([str(i) for i in range(6)])
        for _ in range(25):
            out = pava_isotonic(rng.normal(size=6),
                                rng.uniform(0.1, 2.0, size=6))
            assert is_monotone(out, chain, 0.0)

    def test_preserves_weighted_mean(self):
        rng = np.random.default_rng(33)
        for _ in range(25):
            t = rng.normal(size=5)
            w = rng.uniform(0.1, 2.0, size=5)
            out = pava_isotonic(t, w)
            assert float(w @ out) == pytest.approx(float(w @ t), abs=1e-12)

    def test_nonexpansive_in_weighted_norm(self):
        rng = np.random.default_rng(34)
        for _ in range(25):
            a = rng.normal(size=5)
            b = rng.normal(size=5)
            w = rng.uniform(0.1, 2.0, size=5)
            pa = pava_isotonic(a, w)
            pb = pava_isotonic(b, w)
            assert float(w @ (pa - pb) ** 2) <= float(w @ (a - b) ** 2) + 1e-12

    def test_guards(self):
        with pytest.raises(ShapeMismatch):
            pava_isotonic([1, 2], [1, 2, 3])
        with pytest.raises(InputError):
            pava_isotonic([1, 2], [1, 0])


class TestBestResponse:
    def test_diagonal(self):
        j = joint_pmf([[0.5, 0], [0, 0.5]])
        g, value = best_response_g(j, [-1, 1], total_order(j.y_labels))
        assert g == pytest.approx([-1, 1])
        assert value == pytest.approx(1.0)

    def test_independent_returns_none(self):
        j = joint_pmf(np.outer([0.3, 0.7], [0.4, 0.6]))
        assert best_response_g(j, [-1, 1], total_order(j.y_labels)) is None

    def test_dsbs(self):
        j = joint_pmf(DSBS)
        g, value = best_response_g(j, [-1, 1], total_order(j.y_labels))
        assert g == pytest.approx([-1, 1])
        assert value == pytest.approx(0.6, abs=1e-12)

    def test_requires_total_order(self):
        j = joint_pmf(np.full((2, 3), 1 / 6))
        with pytest.raises(RequiresTotalOrder):
            best_response_g(j, [-1, 1], antichain(j.y_labels))

    def test_zero_variance_f(self):
        j = joint_pmf(DSBS)
        with pytest.raises(ZeroVariance):
            best_response_g(j, [2, 2], total_order(j.y_labels))

    def test_dominates_exhaustive_g_grid(self):
        # the projection value must beat every monotone unit-variance grid g
        rng = np.random.default_rng(35)
        for _ in range(10):
            j = random_pmf(rng, 3, 3)
            py = total_order(j.y_labels)
            f = np.array([-1.2, 0.1, 1.4])
            resp = best_response_g(j, f, py)
            if resp is None:
                continue
            _, value = resp
            px_w = j.p.sum(axis=1)
            py_w = j.p.sum(axis=0)
            fc = f - px_w @ f
            fc = fc / np.sqrt(px_w @ fc**2)
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
            assert value >= best_grid - 1e-9


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
            if (np.diff(vec) < -1e-12).any():
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
                                                 monkeypatch):
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
                                              monkeypatch):
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

    def test_tie_break_first_mask(self):
        # on a decreasing c no nondecreasing response is positive; the
        # negated faces {0}{1,2} (mask 1) and {0,1}{2} (mask 2) tie exactly
        # at -sqrt(3) with different g, and the first mask must win
        w = np.array([0.25, 0.5, 0.25])
        c = np.array([3.0, 0.0, -3.0])
        value, g = oracle._pooled_responder(w, [0, 1, 2])(c)
        ref_g, ref_value = reference_signed_best_response(c, w, [0, 1, 2])
        assert value[0] == ref_value
        assert value[0] == pytest.approx(-math.sqrt(3.0), abs=1e-15)
        assert g[0] == pytest.approx(
            np.array([-3.0, 1.0, 1.0]) / math.sqrt(3.0), abs=1e-15)
        assert g[0] == pytest.approx(ref_g, abs=1e-15)


class TestGridLimit:
    def test_five_chain_fine_step_refused_before_building(self,
                                                          monkeypatch):
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

    def test_two_sided_pairs_refused_before_building(self, monkeypatch):
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
