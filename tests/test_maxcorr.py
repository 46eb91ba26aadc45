import math
from dataclasses import dataclass

import numpy as np
import pytest

from cmcorr.dist import joint_pmf, marginal_x, marginal_y, pair_stats
from cmcorr.errors import (
    DegenerateMarginal,
    InputError,
    NonFiniteValue,
    NumericalFailure,
    SizeTooLarge,
    ZeroMarginal,
)
import cmcorr.maxcorr as maxcorr
from cmcorr.maxcorr import (
    maximal_correlation,
    maximal_correlations,
    residual_singular_pairs,
)

DSBS = [[0.4, 0.1], [0.1, 0.4]]


@dataclass(frozen=True)
class SvdBundle:
    """Singular values (descending) with matched orthonormal vector families.

    ``left_vectors[i]`` and ``right_vectors[i]`` are the vectors paired with
    ``singular_values[i]``; each family is orthonormal within 1e-8 and the
    weighted outer-product sum reconstructs the input within 1e-8.
    """

    singular_values: np.ndarray
    left_vectors: np.ndarray
    right_vectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.left_vectors.T * self.singular_values) @ \
            self.right_vectors


def witsenhausen_matrix(j):
    """Reference: p(x, y) / sqrt(p(x) p(y)); marginals must be strictly
    positive."""
    return maxcorr._normalized(j.p, marginal_x(j), marginal_y(j))


def decompose(m) -> SvdBundle:
    """Reference: the full thin SVD of one matrix, under the guards and the
    sign convention of the engine's stacked spectra."""
    arr = np.asarray(m, dtype=float)
    if arr.ndim != 2:
        raise NonFiniteValue("input must be a matrix")
    maxcorr._check(arr, arr.size)
    u, s, vt = maxcorr._lapack(arr)
    left = np.ascontiguousarray(u.T)
    maxcorr._fix_signs(left, vt)
    return SvdBundle(singular_values=s, left_vectors=left, right_vectors=vt)


def binary_closed_form(p):
    """(p00 p11 - p01 p10) / sqrt(px0 px1 py0 py1) for a 2x2 pmf."""
    p = np.asarray(p, dtype=float)
    p = p / p.sum()
    px = p.sum(axis=1)
    py = p.sum(axis=0)
    return (p[0, 0] * p[1, 1] - p[0, 1] * p[1, 0]) / math.sqrt(
        px[0] * px[1] * py[0] * py[1])


class TestWitsenhausenMatrix:
    def test_diagonal_gives_identity(self):
        j = joint_pmf([[0.5, 0], [0, 0.5]])
        assert np.allclose(witsenhausen_matrix(j), np.eye(2))

    def test_independent_rank_one(self):
        px = np.array([0.3, 0.7])
        py = np.array([0.25, 0.75])
        j = joint_pmf(np.outer(px, py))
        expected = np.outer(np.sqrt(px), np.sqrt(py))
        assert np.allclose(witsenhausen_matrix(j), expected)

    def test_hand_entries(self):
        j = joint_pmf(DSBS)
        assert np.allclose(witsenhausen_matrix(j),
                           [[0.8, 0.2], [0.2, 0.8]])

    def test_zero_marginal_rejected(self):
        j = joint_pmf([[0.3, 0.2, 0.0], [0.2, 0.3, 0.0]])
        with pytest.raises(ZeroMarginal):
            witsenhausen_matrix(j)


class TestDecompose:
    def test_identity(self):
        b = decompose(np.eye(2))
        assert b.singular_values == pytest.approx([1.0, 1.0])

    def test_symmetric_two_by_two(self):
        # eigenvalues 0.8 +/- 0.2
        b = decompose(np.array([[0.8, 0.2], [0.2, 0.8]]))
        assert b.singular_values == pytest.approx([1.0, 0.6], abs=1e-12)

    def test_rank_one_second_value_vanishes(self):
        j = joint_pmf(np.outer([0.4, 0.6], [0.7, 0.3]))
        b = decompose(witsenhausen_matrix(j))
        assert b.singular_values[1] <= 1e-10

    def test_bundle_contract_random(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            m, n = rng.integers(2, 6, size=2)
            mat = rng.normal(size=(int(m), int(n)))
            b = decompose(mat)
            assert np.allclose(b.reconstruct(), mat, atol=1e-8)
            assert np.allclose(b.left_vectors @ b.left_vectors.T,
                               np.eye(len(b.singular_values)), atol=1e-8)
            assert np.allclose(b.right_vectors @ b.right_vectors.T,
                               np.eye(len(b.singular_values)), atol=1e-8)
            assert (np.diff(b.singular_values) <= 1e-12).all()

    def test_sign_convention_deterministic(self):
        mat = np.array([[0.8, 0.2], [0.2, 0.8]])
        b = decompose(mat)
        for row in b.left_vectors:
            nz = np.nonzero(np.abs(row) > 1e-12)[0]
            assert row[nz[0]] > 0

    def test_stacked_sign_fix_matches_loop(self):
        # the per-vector loop the stacked convention replaced
        def loop_fix(left, right):
            for i in range(left.shape[0]):
                nz = np.nonzero(np.abs(left[i]) > 1e-12)[0]
                if nz.size and left[i, nz[0]] < 0:
                    left[i] *= -1.0
                    right[i] *= -1.0

        rng = np.random.default_rng(65)
        left = rng.normal(size=(6, 5, 4))
        tiny = 5e-13 * rng.choice([-1.0, 1.0], size=left.shape)
        left = np.where(rng.random(left.shape) < 0.3, tiny, left)
        left[0, 0] = 0.0
        left[1, 2] = -1e-12
        right = rng.normal(size=(6, 5, 3))
        got_l, got_r = left.copy(), right.copy()
        maxcorr._fix_signs(got_l, got_r)
        for k in range(left.shape[0]):
            loop_fix(left[k], right[k])
        assert np.array_equal(got_l, left) and np.array_equal(got_r, right)

    def test_guards(self):
        with pytest.raises(NonFiniteValue):
            decompose(np.array([[1.0, float("nan")]]))
        with pytest.raises(SizeTooLarge):
            decompose(np.zeros((65, 65)))


class TestMaximalCorrelation:
    def test_dsbs_value_and_witness(self):
        j = joint_pmf(DSBS)
        report = maximal_correlation(j)
        assert report.value == pytest.approx(0.6, abs=1e-10)
        assert report.value == pytest.approx(binary_closed_form(DSBS),
                                             abs=1e-10)
        f = report.witness.f
        assert np.allclose(np.abs(f), [1.0, 1.0], atol=1e-8)

    def test_independent_is_zero(self):
        j = joint_pmf(np.outer([0.3, 0.7], [0.25, 0.75]))
        assert maximal_correlation(j).value <= 1e-10

    def test_deterministic_relation_is_one(self):
        j = joint_pmf([[0.5, 0], [0, 0.5]])
        assert maximal_correlation(j).value == pytest.approx(1.0, abs=1e-10)

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateMarginal,
                           match="two support symbols per side"):
            maximal_correlation(joint_pmf([[0.6, 0.4]]))

    def test_zero_mass_symbols_stripped(self):
        # DSBS with an empty middle symbol on each side
        j = joint_pmf([[0.4, 0.0, 0.1], [0.0, 0.0, 0.0], [0.1, 0.0, 0.4]])
        report = maximal_correlation(j)
        assert report.value == pytest.approx(0.6, abs=1e-12)
        assert report.diagnostics["support_shape"] == (2, 2)
        assert report.witness.f[1] == 0.0 and report.witness.g[1] == 0.0

    def test_range_on_random_instances(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            j = joint_pmf(rng.dirichlet(np.ones(12)).reshape(3, 4))
            v = maximal_correlation(j).value
            assert -1e-9 <= v <= 1.0 + 1e-9

    def test_zero_iff_product_form(self):
        rng = np.random.default_rng(15)
        for t in range(200):
            if t % 2 == 0:
                j = joint_pmf(rng.dirichlet(np.ones(9)).reshape(3, 3))
            else:
                j = joint_pmf(np.outer(rng.dirichlet(np.ones(3)),
                                       rng.dirichlet(np.ones(3))))
            deviation = np.abs(
                j.p - np.outer(marginal_x(j), marginal_y(j))).max()
            value = maximal_correlation(j).value
            assert (value <= 1e-8) == (deviation <= 1e-8)

    def test_witness_moments(self):
        rng = np.random.default_rng(16)
        for _ in range(25):
            j = joint_pmf(rng.dirichlet(np.ones(9)).reshape(3, 3))
            report = maximal_correlation(j)
            stats = pair_stats(j, report.witness)
            assert abs(stats.cov - report.value) <= 1e-7
            assert abs(stats.mean_f) <= 1e-8
            assert abs(stats.mean_g) <= 1e-8
            assert stats.var_f == pytest.approx(1.0, abs=1e-8)
            assert stats.var_g == pytest.approx(1.0, abs=1e-8)

    def test_label_permutation_equivariance(self):
        rng = np.random.default_rng(17)
        j = joint_pmf(rng.dirichlet(np.ones(9)).reshape(3, 3))
        perm = [2, 0, 1]
        jp = joint_pmf(j.p[perm, :])
        r1 = maximal_correlation(j)
        r2 = maximal_correlation(jp)
        assert r2.value == pytest.approx(r1.value, abs=1e-12)
        assert np.allclose(np.sort(np.abs(r2.witness.f)),
                           np.sort(np.abs(r1.witness.f)), atol=1e-8)


class TestResidualPairs:
    def test_top_pair_is_exactly_deflated(self):
        rng = np.random.default_rng(18)
        for _ in range(20):
            j = joint_pmf(rng.dirichlet(np.ones(12)).reshape(4, 3))
            values, left, right = residual_singular_pairs(j)
            u1 = np.sqrt(marginal_x(j))
            w1 = np.sqrt(marginal_y(j))
            for t in range(len(values)):
                if values[t] > 1e-10:
                    assert abs(left[t] @ u1) <= 1e-8
                    assert abs(right[t] @ w1) <= 1e-8

    def test_degenerate_top_value_handled(self):
        # diagonal pmf: the full spectrum is {1, 1}; deflation still
        # exposes the informative second pair
        j = joint_pmf([[0.5, 0], [0, 0.5]])
        values, left, right = residual_singular_pairs(j)
        assert values[0] == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(np.abs(left[0]), [math.sqrt(0.5)] * 2, atol=1e-10)


def outcome(f, js):
    """``f(js)`` as a list of float.hex, or its error's class and message."""
    try:
        return [v.hex() for v in f(js)]
    except (InputError, NumericalFailure) as exc:
        return type(exc), str(exc)


def one_at_a_time(js):
    """Each value as ``maximal_correlation`` gives it alone; an error is
    that of the first pmf that fails alone."""
    return [maximal_correlation(j).value for j in js]


def batch_cases():
    """Seeded 2x2 to 4x4 pmfs in one list: random, independent (second
    singular value about 1e-17), uniform and diagonal ones, and a quarter
    with an empty row or column, so support shapes differ within a shape."""
    rng = np.random.default_rng(2302)
    js = []
    for t in range(96):
        m, n = (int(a) for a in rng.integers(2, 5, size=2))
        kind = t % 4
        if kind == 0:
            p = rng.dirichlet(np.ones(m * n)).reshape(m, n)
        elif kind == 1:
            p = np.outer(rng.dirichlet(np.ones(m)), rng.dirichlet(np.ones(n)))
        elif kind == 2:
            p = np.full((m, n), 1.0 / (m * n))
        else:
            p = np.zeros((m, n))
            p[range(min(m, n)), range(min(m, n))] = 1.0
        if t % 8 in (1, 6) and m > 2:
            p[rng.integers(m)] = 0.0
        if t % 8 in (2, 6) and n > 2:
            p[:, rng.integers(n)] = 0.0
        js.append(joint_pmf(p / p.sum()))
    return js


class TestMaximalCorrelations:
    """The batched values are ``maximal_correlation(j).value`` bit for bit,
    and the error is that of the first pmf that fails alone."""

    @pytest.mark.parametrize("entries", [1, 20, maxcorr._BATCH_ENTRIES])
    def test_bits_match_one_at_a_time(self, monkeypatch, entries):
        js = batch_cases()
        assert len({j.shape for j in js}) == 9
        assert sum(maximal_correlation(j).value < 1e-12 for j in js) >= 20
        monkeypatch.setattr(maxcorr, "_BATCH_ENTRIES", entries)
        got = [v.hex() for v in maximal_correlations(js)]
        assert got == [maximal_correlation(j).value.hex() for j in js]

    def test_one_decomposition_per_support_shape(self, monkeypatch):
        calls = []
        spectra = maxcorr.padded_residual_spectra

        def counted(p, runs_x, runs_y):
            calls.append(p.shape)
            return spectra(p, runs_x, runs_y)

        monkeypatch.setattr(maxcorr, "padded_residual_spectra", counted)
        js = batch_cases()
        maximal_correlations(js)
        shapes = {maxcorr.restrict_to_support(j, "")[0].shape for j in js}
        assert sorted(shape[-2:] for shape in calls) == sorted(shapes)
        assert sum(shape[0] for shape in calls) == len(js)
        assert maximal_correlations([]) == []

    def test_first_failing_pmf_in_input_order(self, monkeypatch):
        # every second singular value tripled: 0.2 stays inside [0, 1],
        # 0.6 and the 3x3 pmf's do not
        lapack = maxcorr._lapack

        def tripled(arr):
            u, s, vt = lapack(arr)
            return u, 3.0 * s, vt

        monkeypatch.setattr(maxcorr, "_lapack", tripled)
        weak = joint_pmf([[0.3, 0.2], [0.2, 0.3]])
        strong = joint_pmf(DSBS)
        strong3 = joint_pmf(np.eye(3) * 0.3 + 0.1 / 9)
        one_row = joint_pmf([[0.5, 0.5], [0.0, 0.0]])
        assert isinstance(outcome(one_at_a_time, [weak]), list)
        for js in ([weak, strong, one_row], [weak, one_row, strong],
                   [strong3, weak, strong], [weak, strong, strong3],
                   [one_row, strong3], [weak, weak]):
            assert outcome(maximal_correlations, js) == \
                outcome(one_at_a_time, js)
        # the 3x3 shape is decomposed first, but the 2x2 pmf fails first
        free3 = joint_pmf(np.full((3, 3), 1 / 9))
        with pytest.raises(NumericalFailure, match=r"1\.79"):
            maximal_correlations([free3, strong, strong3])
