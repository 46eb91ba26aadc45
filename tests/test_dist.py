import dataclasses

import numpy as np
import pytest

from cmcorr.dist import (
    CorrelationReport,
    JointPmf,
    ScoredPair,
    empirical_from_samples,
    joint_pmf,
    marginal_x,
    marginal_y,
    merge_pmf,
    pair_stats,
    product_pmf,
    strip_zero_support,
)
from cmcorr.errors import (
    DegenerateMarginal,
    EmptyInput,
    MassNotOne,
    NegativeMass,
    NonFiniteValue,
    ShapeMismatch,
)
from cmcorr.order import partition_from_blocks, total_order

DSBS = [[0.4, 0.1], [0.1, 0.4]]


def validate(j):
    """Re-run the construction-time checks and return the pmf unchanged."""
    JointPmf(x_labels=j.x_labels, y_labels=j.y_labels, p=j.p,
             x_values=j.x_values, y_values=j.y_values)
    return j


class TestValidate:
    def test_ok(self):
        j = joint_pmf(DSBS)
        assert validate(j) is j

    def test_mass_not_one(self):
        with pytest.raises(MassNotOne):
            joint_pmf([[0.5, 0.6]])

    def test_negative_mass(self):
        with pytest.raises(NegativeMass):
            joint_pmf([[-0.1, 1.1]])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            JointPmf(x_labels=("a",), y_labels=("u", "v"),
                     p=np.array([[1.0]]))

    def test_renormalized_once(self):
        j = joint_pmf([[0.2 + 1e-10, 0.8]])
        assert j.p.sum() == pytest.approx(1.0, abs=1e-15)

    def test_values_length_checked(self):
        with pytest.raises(ShapeMismatch):
            joint_pmf(DSBS, x_values=(0.0,))

    def test_values_finite(self):
        with pytest.raises(NonFiniteValue):
            joint_pmf(DSBS, x_values=(0.0, float("inf")))


class TestMarginals:
    def test_row_sums(self):
        j = joint_pmf(DSBS)
        assert marginal_x(j) == pytest.approx([0.5, 0.5])

    def test_product_recovers_factors(self):
        p = np.outer([0.3, 0.7], [0.5, 0.5])
        j = joint_pmf(p)
        assert marginal_x(j) == pytest.approx([0.3, 0.7])
        assert marginal_y(j) == pytest.approx([0.5, 0.5])

    def test_one_hot(self):
        j = joint_pmf([[1.0]])
        assert marginal_x(j) == pytest.approx([1.0])


class TestReports:
    def test_frozen_without_instance_dict(self):
        # a caller may hold many reports: each is a frozen object with
        # slots, no per-instance dict
        pair = ScoredPair(f=[-1, 1], g=[-1, 1])
        report = CorrelationReport(measure="cmc", value=0.6, witness=pair)
        for obj, field in ((pair, "f"), (report, "value")):
            assert not hasattr(obj, "__dict__")
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, field, None)
        assert report.diagnostics == {} and report.has_witness
        moved = dataclasses.replace(report, measure="other")
        assert moved.measure == "other" and moved.witness is pair


class TestPairStats:
    def test_hand_covariance(self):
        j = joint_pmf(DSBS)
        s = pair_stats(j, ScoredPair(f=[-1, 1], g=[-1, 1]))
        assert s.cov == pytest.approx(0.6, abs=1e-12)
        assert s.var_f == pytest.approx(1.0, abs=1e-12)
        assert s.var_g == pytest.approx(1.0, abs=1e-12)

    def test_independent_zero_cov(self):
        j = joint_pmf(np.outer([0.3, 0.7], [0.2, 0.8]))
        s = pair_stats(j, ScoredPair(f=[2.5, -1], g=[0.3, 4]))
        assert s.cov == pytest.approx(0.0, abs=1e-12)

    def test_constant_f(self):
        j = joint_pmf(DSBS)
        s = pair_stats(j, ScoredPair(f=[3, 3], g=[-1, 1]))
        assert s.var_f == pytest.approx(0.0, abs=1e-12)
        assert s.cov == pytest.approx(0.0, abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            pair_stats(joint_pmf(DSBS), ScoredPair(f=[1, 2, 3], g=[0, 1]))

    def test_bilinear_and_shift_invariant(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            j = joint_pmf(rng.dirichlet(np.ones(12)).reshape(3, 4))
            f1, f2 = rng.normal(size=3), rng.normal(size=3)
            g = rng.normal(size=4)
            a, b, c = rng.normal(size=3)
            lhs = pair_stats(j, ScoredPair(f=a * f1 + b * f2 + c, g=g)).cov
            rhs = (a * pair_stats(j, ScoredPair(f=f1, g=g)).cov
                   + b * pair_stats(j, ScoredPair(f=f2, g=g)).cov)
            assert lhs == pytest.approx(rhs, abs=1e-12)


class TestStripZeroSupport:
    def test_identity_when_full_support(self):
        j = joint_pmf(DSBS)
        px, py = total_order(j.x_labels), total_order(j.y_labels)
        sub, pxs, pys, kx, ky = strip_zero_support(j, px, py)
        assert kx == (0, 1) and ky == (0, 1)
        assert sub is j and pxs is px and pys is py

    def test_relation_persists_through_removed_symbol(self):
        j = joint_pmf([[0.3, 0.2], [0.0, 0.0], [0.2, 0.3]])
        px = total_order(j.x_labels)
        py = total_order(j.y_labels)
        sub, pxs, _, kx, _ = strip_zero_support(j, px, py)
        assert kx == (0, 2)
        assert pxs.strict_pairs == {(0, 1)}

    def test_degenerate(self):
        j = joint_pmf([[0.5, 0.5], [0.0, 0.0]])
        px, py = total_order(j.x_labels), total_order(j.y_labels)
        with pytest.raises(DegenerateMarginal,
                           match="fewer than two symbols carry positive"):
            strip_zero_support(j, px, py)


class TestMergePmf:
    def test_trivial_partitions(self):
        j = joint_pmf(DSBS)
        bx = partition_from_blocks([[0], [1]], 2)
        assert np.allclose(merge_pmf(j, bx, bx).p, j.p)

    def test_merge_both_x(self):
        j = joint_pmf(DSBS)
        bx = partition_from_blocks([[0, 1]], 2)
        by = partition_from_blocks([[0], [1]], 2)
        merged = merge_pmf(j, bx, by)
        assert np.allclose(merged.p, [[0.5, 0.5]], atol=1e-12)
        assert merged.x_labels == ("x0+x1",)

    def test_block_sums_three_by_three(self):
        j = joint_pmf(np.full((3, 3), 1 / 9))
        bx = partition_from_blocks([[0, 1], [2]], 3)
        merged = merge_pmf(j, bx, bx)
        assert np.allclose(merged.p,
                           [[4 / 9, 2 / 9], [2 / 9, 1 / 9]], atol=1e-12)

    def test_mass_conserved_exactly(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            j = joint_pmf(rng.dirichlet(np.ones(16)).reshape(4, 4))
            bx = partition_from_blocks([[0, 2], [1], [3]], 4)
            by = partition_from_blocks([[0, 1, 2, 3]], 4)
            assert abs(merge_pmf(j, bx, by).p.sum() - j.p.sum()) <= 1e-12


class TestProductPmf:
    def test_point_mass_relabels(self):
        j = joint_pmf(DSBS)
        point = joint_pmf([[1.0]])
        prod = product_pmf(j, point)
        assert np.allclose(prod.p, j.p)

    def test_entry_multiplication(self):
        j = joint_pmf(DSBS)
        prod = product_pmf(j, j)
        assert prod.p[0, 0] == pytest.approx(0.16, abs=1e-12)
        assert prod.shape == (4, 4)

    def test_composite_labels(self):
        j1 = joint_pmf(DSBS, x_labels=("a", "b"), y_labels=("u", "v"))
        j2 = joint_pmf([[1.0]], x_labels=("c",), y_labels=("w",))
        prod = product_pmf(j1, j2)
        assert prod.x_labels == ("(a,c)", "(b,c)")
        assert prod.y_labels == ("(u,w)", "(v,w)")

    def test_marginals_factor(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            m1, n1, m2, n2 = rng.integers(2, 5, size=4)
            j1 = joint_pmf(rng.dirichlet(np.ones(m1 * n1)).reshape(m1, n1))
            j2 = joint_pmf(rng.dirichlet(np.ones(m2 * n2)).reshape(m2, n2))
            prod = product_pmf(j1, j2)
            assert marginal_x(prod) == pytest.approx(
                np.kron(marginal_x(j1), marginal_x(j2)), abs=1e-12)
            assert marginal_y(prod) == pytest.approx(
                np.kron(marginal_y(j1), marginal_y(j2)), abs=1e-12)


class TestEmpirical:
    def test_single_point(self):
        j = empirical_from_samples([(1, 2), (1, 2)])
        assert j.shape == (1, 1)
        assert np.allclose(j.p, [[1.0]])
        assert j.x_values == (1.0,)

    def test_diagonal(self):
        j = empirical_from_samples([(0, 0), (1, 1)])
        assert np.allclose(j.p, [[0.5, 0.0], [0.0, 0.5]])

    def test_counting(self):
        j = empirical_from_samples([(0, 0), (0, 1), (1, 1), (1, 1)])
        assert np.allclose(j.p, [[0.25, 0.25], [0.0, 0.5]])

    def test_masses_are_multiples_of_inverse_n(self):
        rng = np.random.default_rng(6)
        rows = [(int(a), int(b)) for a, b in rng.integers(0, 3, size=(40, 2))]
        j = empirical_from_samples(rows)
        scaled = j.p * len(rows)
        assert np.allclose(scaled, np.round(scaled), atol=1e-9)
        assert j.p.sum() == pytest.approx(1.0, abs=1e-12)

    def test_empty(self):
        with pytest.raises(EmptyInput):
            empirical_from_samples([])

    def test_non_finite(self):
        with pytest.raises(NonFiniteValue):
            empirical_from_samples([(0.0, float("nan"))])
