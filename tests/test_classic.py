import itertools

import numpy as np
import pytest

import cmcorr.classic as classic
from cmcorr.classic import (
    PairComparator,
    _check_comparator,
    grades,
    kendall_tau_b,
    pair_rank_correlation,
    pearson,
    rank_correlations,
    sign_comparator,
    spearman,
    x_grades,
    y_grades,
)
from cmcorr.dist import joint_pmf, marginal_x, marginal_y, pair_stats
from cmcorr.dist import ScoredPair
from cmcorr.errors import (
    InputError,
    MissingValues,
    NotMonotoneComparator,
    ZeroVariance,
)

DSBS = [[0.4, 0.1], [0.1, 0.4]]


def dsbs():
    return joint_pmf(DSBS, x_values=(0, 1), y_values=(0, 1))


def difference_comparator(scores) -> PairComparator:
    """Reference: the comparator v[a, b] = s(a) - s(b) of the scores s."""
    s = np.asarray(scores, dtype=float)
    return PairComparator(values=np.subtract.outer(s, s))


def random_pmf(rng, m, n):
    return joint_pmf(rng.dirichlet(np.ones(m * n)).reshape(m, n),
                     x_values=tuple(range(m)), y_values=tuple(range(n)))


def brute_kendall(j):
    """Independent check: plain quadruple loop over outcome pairs."""
    m, n = j.shape
    xv = j.x_values or tuple(range(m))
    yv = j.y_values or tuple(range(n))
    num = es1 = es2 = 0.0
    for a in range(m):
        for b in range(n):
            for c in range(m):
                for d in range(n):
                    w = j.p[a, b] * j.p[c, d]
                    s1 = np.sign(xv[a] - xv[c])
                    s2 = np.sign(yv[b] - yv[d])
                    num += w * s1 * s2
                    es1 += w * s1 * s1
                    es2 += w * s2 * s2
    return num / np.sqrt(es1 * es2)


def reference_tau_b(j):
    """The former standalone tau-b: its own sign matrices and zero-mean
    moments, with no comparator means."""
    def keys(vals, k):
        return np.arange(k, dtype=float) if vals is None \
            else np.asarray(vals, dtype=float)
    kx, ky = keys(j.x_values, j.shape[0]), keys(j.y_values, j.shape[1])
    sx = np.sign(np.subtract.outer(kx, kx))
    sy = np.sign(np.subtract.outer(ky, ky))
    px, py = j.p.sum(axis=1), j.p.sum(axis=0)
    es1sq = float(np.einsum("a,c,ac->", px, px, sx * sx))
    es2sq = float(np.einsum("b,d,bd->", py, py, sy * sy))
    if es1sq <= 0.0 or es2sq <= 0.0:
        return None
    es1s2 = float(np.einsum("ab,cd,ac,bd->", j.p, j.p, sx, sy))
    return es1s2 / np.sqrt(es1sq * es2sq)


def seeded_keyed_pmfs(seed, count, keys, independent):
    """Seeded 2..5 x 2..5 pmfs whose embeddings are distinct integers, tied
    integers or real numbers; ``independent`` draws product pmfs."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        m, n = (int(v) for v in rng.integers(2, 6, size=2))
        if keys == "distinct":
            xv, yv = range(m), range(n)
        elif keys == "tied":
            xv, yv = rng.integers(0, 3, size=m), rng.integers(0, 3, size=n)
        else:
            xv, yv = rng.normal(size=m), rng.normal(size=n)
        if independent:
            p = np.outer(rng.dirichlet(np.ones(m)), rng.dirichlet(np.ones(n)))
        else:
            p = rng.dirichlet(np.ones(m * n)).reshape(m, n)
        yield joint_pmf(p, x_values=tuple(float(v) for v in xv),
                        y_values=tuple(float(v) for v in yv))


class TestPearson:
    def test_hand_value(self):
        # Cov = 0.15, Var = 0.25 on each side
        assert pearson(dsbs()) == pytest.approx(0.6, abs=1e-12)

    def test_independent(self):
        j = joint_pmf(np.outer([0.3, 0.7], [0.6, 0.4]),
                      x_values=(0, 1), y_values=(0, 1))
        assert pearson(j) == pytest.approx(0.0, abs=1e-12)

    def test_identical_embeddings(self):
        j = joint_pmf([[0.5, 0], [0, 0.5]], x_values=(3, 9), y_values=(3, 9))
        assert pearson(j) == pytest.approx(1.0, abs=1e-12)

    def test_missing_values(self):
        with pytest.raises(MissingValues):
            pearson(joint_pmf(DSBS))

    def test_zero_variance(self):
        j = joint_pmf(DSBS, x_values=(2, 2), y_values=(0, 1))
        with pytest.raises(ZeroVariance):
            pearson(j)


class TestGrades:
    def test_uniform_two(self):
        assert grades([0.5, 0.5]) == pytest.approx([0.25, 0.75])

    def test_single(self):
        assert grades([1.0]) == pytest.approx([0.5])

    def test_cumulative(self):
        assert grades([0.2, 0.3, 0.5]) == pytest.approx([0.1, 0.35, 0.75])

    def test_value_order_respected(self):
        # grades follow the numeric embedding, not the listing order
        j = joint_pmf([[0.2, 0.3], [0.1, 0.4]], x_values=(5, 2),
                      y_values=(0, 1))
        gx = x_grades(j)
        assert gx == pytest.approx([0.75, 0.25])


class TestSpearman:
    def test_binary_equals_pearson(self):
        # binary grades are affine in the indicators
        assert spearman(dsbs()) == pytest.approx(0.6, abs=1e-12)

    def test_independent(self):
        j = joint_pmf(np.outer([0.3, 0.7], [0.6, 0.4]),
                      x_values=(0, 1), y_values=(0, 1))
        assert spearman(j) == pytest.approx(0.0, abs=1e-12)

    def test_concordant_diagonal(self):
        j = joint_pmf(np.diag([0.2, 0.3, 0.5]), x_values=(0, 1, 2),
                      y_values=(0, 1, 2))
        assert spearman(j) == pytest.approx(1.0, abs=1e-12)

    def test_reembedding_invariance_exact(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            raw = rng.dirichlet(np.ones(12)).reshape(3, 4)
            j = joint_pmf(raw, x_values=(0, 1, 2), y_values=(0, 1, 2, 3))
            j2 = joint_pmf(raw,
                           x_values=tuple(np.exp(v) for v in j.x_values),
                           y_values=tuple(v ** 3 + 2 * v for v in j.y_values))
            assert spearman(j2) == spearman(j)


class TestKendall:
    def test_perfect_concordance(self):
        j = joint_pmf([[0.5, 0], [0, 0.5]], x_values=(0, 1), y_values=(0, 1))
        assert kendall_tau_b(j) == pytest.approx(1.0, abs=1e-12)

    def test_independent(self):
        j = joint_pmf(np.outer([0.4, 0.6], [0.5, 0.5]),
                      x_values=(0, 1), y_values=(0, 1))
        assert kendall_tau_b(j) == pytest.approx(0.0, abs=1e-12)

    def test_sixteen_outcome_enumeration(self):
        j = dsbs()
        assert kendall_tau_b(j) == pytest.approx(0.6, abs=1e-12)
        assert kendall_tau_b(j) == pytest.approx(brute_kendall(j), abs=1e-13)

    def test_matches_brute_force_random(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            j = random_pmf(rng, 3, 3)
            assert kendall_tau_b(j) == pytest.approx(
                brute_kendall(j), abs=1e-12)

    def test_reembedding_invariance_exact(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            raw = rng.dirichlet(np.ones(12)).reshape(4, 3)
            j = joint_pmf(raw, x_values=(0, 1, 2, 3), y_values=(0, 1, 2))
            j2 = joint_pmf(raw,
                           x_values=tuple(10 * v + 1 for v in j.x_values),
                           y_values=tuple(np.tanh(v) for v in j.y_values))
            assert kendall_tau_b(j2) == kendall_tau_b(j)

    def test_tied_values_signed_zero(self):
        # labels stay distinct but the embedding ties two y symbols
        j = joint_pmf([[0.2, 0.1, 0.1], [0.1, 0.3, 0.2]],
                      x_values=(0, 1), y_values=(0, 0, 1))
        gy = y_grades(j)
        assert gy[0] == gy[1]  # tied symbols share a mid-grade
        # tau-b and Spearman agree here: both sides are effectively binary
        assert kendall_tau_b(j) == pytest.approx(spearman(j), abs=1e-12)

    @pytest.mark.parametrize("keys", ["distinct", "tied", "real"])
    @pytest.mark.parametrize("independent", [False, True])
    def test_bits_of_the_standalone_formula(self, keys, independent):
        # the sign case of the functional keeps the former formula's bits
        checked = 0
        for j in seeded_keyed_pmfs(21, 400, keys, independent):
            want = reference_tau_b(j)
            if want is None:
                with pytest.raises(ZeroVariance):
                    kendall_tau_b(j)
                continue
            assert kendall_tau_b(j).hex() == want.hex()
            checked += 1
        assert checked >= 250

    def test_all_tied_raises(self):
        # the message names the tied side
        for x_values, y_values, side in (((1, 1), (0, 1), "x"),
                                         ((0, 1), (1, 1), "y")):
            j = joint_pmf(DSBS, x_values=x_values, y_values=y_values)
            with pytest.raises(ZeroVariance) as info:
                kendall_tau_b(j)
            assert str(info.value).startswith(f"the {side} side ")


class TestPairRankCorrelation:
    def test_sign_comparator_is_kendall(self):
        j = dsbs()
        got = pair_rank_correlation(j, sign_comparator(j.x_values),
                                    sign_comparator(j.y_values))
        assert got == pytest.approx(kendall_tau_b(j), abs=1e-12)

    def test_sign_comparator_matches_kendall_random(self):
        # the sign means are exactly zero, so Kendall is the functional bit
        # for bit; rounded means once moved it on independent products
        rng = np.random.default_rng(10)
        cases = []
        for _ in range(100):
            m, n = rng.integers(2, 5, size=2)
            cases.append(random_pmf(rng, int(m), int(n)))
        for keys in ("distinct", "tied", "real"):
            cases += seeded_keyed_pmfs(22, 400, keys, independent=True)
        checked = 0
        for j in cases:
            try:
                want = kendall_tau_b(j)
            except ZeroVariance:
                continue
            got = pair_rank_correlation(j, sign_comparator(j.x_values),
                                        sign_comparator(j.y_values))
            assert got.hex() == want.hex()
            checked += 1
        assert checked >= 900

    def test_grade_difference_is_spearman(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            j = random_pmf(rng, 3, 3)
            got = pair_rank_correlation(
                j,
                difference_comparator(x_grades(j)),
                difference_comparator(y_grades(j)),
            )
            assert got == pytest.approx(spearman(j), abs=1e-12)

    def test_independent_gives_zero(self):
        j = joint_pmf(np.outer([0.3, 0.7], [0.6, 0.4]),
                      x_values=(0, 1), y_values=(0, 1))
        got = pair_rank_correlation(j, sign_comparator(j.x_values),
                                    sign_comparator(j.y_values))
        assert got == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("side", ["x", "y"])
    def test_constant_comparator_names_the_side(self, side):
        j = dsbs()
        flat = difference_comparator([2.0, 2.0])
        live = sign_comparator((0, 1))
        fx, gy = (flat, live) if side == "x" else (live, flat)
        with pytest.raises(ZeroVariance) as info:
            pair_rank_correlation(j, fx, gy)
        assert str(info.value).startswith(f"the {side} side ")

    def test_bad_comparator_rejected(self):
        j = dsbs()
        bad = difference_comparator([1.0, 0.0])  # decreasing in first arg
        with pytest.raises(NotMonotoneComparator):
            pair_rank_correlation(j, bad, sign_comparator(j.y_values))


def loop_violations(vals, keys, tol=1e-12):
    """Reference: the arguments an O(k^2) loop over the key-ordered pairs
    (a strictly below b) finds violated, first and second."""
    first = second = False
    for a, b in itertools.product(range(len(keys)), repeat=2):
        if keys[a] < keys[b]:
            first |= bool((vals[a, :] > vals[b, :] + tol).any())
            second |= bool((vals[:, a] < vals[:, b] - tol).any())
    return first, second


class TestCheckComparator:
    FIRST = "x comparator is not non-decreasing in its first argument"
    SECOND = "x comparator is not non-increasing in its second argument"

    def test_matches_loop_reference(self):
        rng = np.random.default_rng(13)
        seen = set()
        for _ in range(3000):
            k = int(rng.integers(1, 7))
            keys = rng.integers(0, 4, size=k).astype(float)  # with ties
            # a sign or a difference comparator: monotone in the keys
            scores = np.sort(rng.normal(size=4))[keys.astype(int)]
            vals = np.sign(np.subtract.outer(keys, keys)) \
                if rng.random() < 0.5 else np.subtract.outer(scores, scores)
            for _ in range(int(rng.integers(0, 3))):
                a, b = rng.integers(0, k, size=2)
                vals[a, b] += rng.choice([-0.3, -2e-12, -5e-13, 5e-13,
                                          2e-12, 0.3, np.nan])
            first, second = loop_violations(vals, keys)
            seen.add((first, second))
            comp = PairComparator(vals)
            if not (first or second):
                _check_comparator(comp, keys, "x")
                continue
            with pytest.raises(NotMonotoneComparator) as info:
                _check_comparator(comp, keys, "x")
            if first != second:
                assert str(info.value) == (self.FIRST if first
                                           else self.SECOND)
        assert seen == {(False, False), (True, False), (False, True),
                        (True, True)}


class TestRange:
    def test_all_measures_in_unit_interval(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            m, n = rng.integers(2, 5, size=2)
            j = random_pmf(rng, int(m), int(n))
            for value in (pearson(j), spearman(j), kendall_tau_b(j)):
                assert -1.0 - 1e-9 <= value <= 1.0 + 1e-9


def reference_value_grades(weights, keys):
    """The grades before the padded pass: per distinct key, a masked sum
    of the weights below it and of those at it."""
    out = np.empty_like(weights)
    for v in np.unique(keys):
        mask = keys == v
        below = float(weights[keys < v].sum())
        out[mask] = below + float(weights[mask].sum()) / 2.0
    return out


def reference_keys(j, side):
    vals, k = (j.x_values, j.shape[0]) if side == "x" else \
        (j.y_values, j.shape[1])
    return np.arange(k, dtype=float) if vals is None \
        else np.asarray(vals, dtype=float)


def reference_spearman(j):
    """``spearman`` as it was: masked-sum grades, then Pearson of them."""
    stats = pair_stats(j, ScoredPair(
        f=reference_value_grades(marginal_x(j), reference_keys(j, "x")),
        g=reference_value_grades(marginal_y(j), reference_keys(j, "y"))))
    if stats.var_f <= 0.0 or stats.var_g <= 0.0:
        raise ZeroVariance("grades are constant on one side")
    return stats.cov / np.sqrt(stats.var_f * stats.var_g)


def reference_kendall(j):
    """``kendall_tau_b`` as it was: validated sign comparators, and both
    comparator operands rebuilt inside the functional's body."""
    fv = sign_comparator(reference_keys(j, "x")).values
    gv = sign_comparator(reference_keys(j, "y")).values
    moments = []
    for side, w, v in (("x", marginal_x(j), fv), ("y", marginal_y(j), gv)):
        mean = float(np.einsum("a,c,ac->", w, w, (v + v.T) / 2.0))
        var = float(np.einsum("a,c,ac->", w, w, v * v)) - mean ** 2
        if var <= 0.0:
            raise ZeroVariance(f"the {side} side is almost surely tied "
                               "or its comparator almost surely constant")
        moments.append((mean, var))
    (mean_f, var_f), (mean_g, var_g) = moments
    cross = float(np.einsum("ab,cd,ac,bd->", j.p, j.p, fv, gv))
    return (cross - mean_f * mean_g) / np.sqrt(var_f * var_g)


def keyed_alphabet_pmfs(seed, sizes, count):
    """Seeded pmfs with m symbols on X for each m of ``sizes`` and 2 to 40
    on Y, about a tenth of the cells and now and then a whole row empty
    (zero-mass keys) when X has more than two symbols, keyed by a
    permutation (unsorted), by few integers (tied) or by sorted reals.
    Only pmfs with two distinct keys in the support of each side are kept:
    on a side whose support is one key the grades vary by rounding alone,
    so a correlation of them is noise."""
    rng = np.random.default_rng(seed)
    for m in sizes:
        kept = 0
        while kept < count:
            n = int(rng.integers(2, 41))
            p = rng.dirichlet(np.ones(m * n)).reshape(m, n)
            p[rng.random((m, n)) < 0.1] = 0.0
            if kept % 3 == 0 and m > 2:
                p[rng.integers(m)] = 0.0
            if p.sum() == 0.0:
                continue
            style = kept % 3

            def keys(size):
                if style == 0:
                    return tuple(rng.permutation(size).astype(float))
                if style == 1:
                    return tuple(rng.integers(0, max(2, size // 3), size)
                                 .astype(float))
                return tuple(np.sort(rng.normal(size=size)))

            j = joint_pmf(p / p.sum(), x_values=keys(m), y_values=keys(n))
            if min(len(set(reference_keys(j, side)[w > 0].tolist()))
                   for side, w in (("x", marginal_x(j)),
                                   ("y", marginal_y(j)))) < 2:
                continue
            kept += 1
            yield j


def hexed(f, j):
    try:
        return f(j).hex()
    except InputError as exc:
        return type(exc), str(exc)


# The padded grade sums of 8 or more symbols move Spearman by at most this
# (absolute, |rho| <= 1); measured at most 10.3 eps on 23,400 such pmfs.
SPEARMAN_BOUND = 16 * np.finfo(float).eps


class TestRankMeasuresKeepTheirBits:
    """Grades from one padded pass, and tau-b's sign matrices built once
    without the comparator's validation copy, against copies of the code
    they replaced."""

    def test_small_alphabets_bit_for_bit(self):
        # both sides below 8 symbols: every grade sum runs one by one
        rng = np.random.default_rng(2303)
        checked = 0
        for t in range(600):
            m, n = (int(v) for v in rng.integers(2, 8, size=2))
            p = rng.dirichlet(np.ones(m * n)).reshape(m, n)
            p[rng.random((m, n)) < 0.15] = 0.0
            if t % 4 == 0:
                p[:, rng.integers(n)] = 0.0
            if p.sum() == 0.0:
                continue
            keys = [rng.permutation(k).astype(float) if t % 3 == 0 else
                    rng.integers(0, 3, size=k).astype(float) if t % 3 == 1
                    else rng.normal(size=k) for k in (m, n)]
            j = joint_pmf(p / p.sum(), x_values=tuple(keys[0]),
                          y_values=tuple(keys[1]))
            for side, w in (("x", marginal_x(j)), ("y", marginal_y(j))):
                got = classic._value_grades(w, reference_keys(j, side))
                assert got.tobytes() == reference_value_grades(
                    w, reference_keys(j, side)).tobytes()
            assert hexed(spearman, j) == hexed(reference_spearman, j)
            assert hexed(kendall_tau_b, j) == hexed(reference_kendall, j)
            checked += isinstance(hexed(spearman, j), str)
        assert checked >= 300

    def test_large_alphabets_within_the_bound(self):
        moved = 0
        for j in keyed_alphabet_pmfs(2304, range(8, 41, 4), 30):
            assert kendall_tau_b(j).hex() == reference_kendall(j).hex()
            got, want = spearman(j), reference_spearman(j)
            assert abs(got - want) <= SPEARMAN_BOUND
            moved += got != want
        assert moved > 0  # the bound is needed, not just stated

    def test_sliced_grades_keep_their_bits(self, monkeypatch):
        # symbols in slices of one to a few symbols give the grades of one
        # pass
        for j in keyed_alphabet_pmfs(2305, (6, 12, 40), 4):
            w, keys = marginal_y(j), reference_keys(j, "y")
            whole = classic._value_grades(w, keys)
            for entries in (1, 2 * len(keys), 5 * len(keys)):
                with monkeypatch.context() as m:
                    m.setattr(classic, "_GRADE_ENTRIES", entries)
                    assert classic._value_grades(w, keys).tobytes() == \
                        whole.tobytes()

    def test_rank_correlations_are_the_two_measures(self):
        # pmfs of many shapes and keys in one call, in input order
        js = list(keyed_alphabet_pmfs(2306, (2, 3, 5, 9), 6))
        js += [j for j in seeded_keyed_pmfs(2307, 40, "tied", False)
               if isinstance(hexed(kendall_tau_b, j), str)
               and isinstance(hexed(spearman, j), str)]
        js += [joint_pmf(DSBS), joint_pmf(DSBS, x_values=(0, 1),
                                          y_values=(0, 1))] * 2
        got = [(tau.hex(), rho.hex()) for tau, rho in rank_correlations(js)]
        assert got == [(kendall_tau_b(j).hex(), spearman(j).hex())
                       for j in js]
        assert rank_correlations([]) == []

    def test_rank_correlations_raise_the_first_failure(self):
        good = joint_pmf(DSBS)
        tied_x = joint_pmf(DSBS, x_values=(1, 1), y_values=(0, 1))
        tied_y = joint_pmf(DSBS, x_values=(0, 1), y_values=(2, 2))
        for js, side in (([good, tied_y, tied_x], "y"),
                         ([tied_x, good, tied_y], "x")):
            with pytest.raises(ZeroVariance) as info:
                rank_correlations(js)
            assert str(info.value).startswith(f"the {side} side ")
