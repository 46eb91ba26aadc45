import json

import numpy as np
import pytest

import cmcorr.harness as harness
from cmcorr.dist import JointPmf
from cmcorr.errors import CapExceeded, InputError, SizeTooLarge
from cmcorr.harness import (
    example3_min_disagreement,
    random_instances,
    verify_example3,
    verify_fkg,
    verify_independence,
    verify_mgf,
    verify_rank_dominance,
    verify_sandwich,
    verify_tensorization,
)
from cmcorr.order import product, total_order


def validate(j):
    """Re-run the construction-time checks and return the pmf unchanged."""
    JointPmf(x_labels=j.x_labels, y_labels=j.y_labels, p=j.p,
             x_values=j.x_values, y_values=j.y_values)
    return j


class TestRandomInstances:
    def test_deterministic_in_seed(self):
        a = random_instances(1, 2, (3, 3))
        b = random_instances(1, 2, (3, 3))
        for ja, jb in zip(a, b):
            assert np.array_equal(ja.p, jb.p)

    def test_count_zero(self):
        assert random_instances(1, 0, (2, 2)) == []

    def test_all_valid(self):
        for j in random_instances(9, 5, (4, 2)):
            assert validate(j) is j

    def test_shape_guard(self):
        with pytest.raises(SizeTooLarge):
            random_instances(0, 1, (1, 3))


class TestSuites:
    def test_sandwich_passes(self):
        report = verify_sandwich(seed=7, trials=25)
        assert report.passed
        assert report.max_violation <= 1e-8

    def test_rank_dominance_passes(self):
        report = verify_rank_dominance(seed=11, trials=25)
        assert report.passed

    def test_tensorization_passes(self):
        report = verify_tensorization(seed=42, trials=10)
        assert report.passed
        assert "discordant_self_product_value" in report.details

    def test_mgf_passes(self):
        report = verify_mgf(seed=3, trials=10)
        assert report.passed

    def test_independence_passes(self):
        report = verify_independence(seed=5, trials=25)
        assert report.passed

    def test_deterministic_reports(self):
        a = verify_sandwich(seed=19, trials=10)
        b = verify_sandwich(seed=19, trials=10)
        assert a == b

    def test_worst_instance_replays(self):
        from cmcorr.classic import pearson
        from cmcorr.dist import JointPmf
        from cmcorr.engine import cmc_exact
        from cmcorr.maxcorr import maximal_correlation
        from cmcorr.order import total_order

        report = verify_sandwich(seed=19, trials=10)
        doc = json.loads(report.worst_instance)
        j = JointPmf(x_labels=tuple(doc["x_labels"]),
                     y_labels=tuple(doc["y_labels"]),
                     p=np.asarray(doc["pmf"]),
                     x_values=tuple(range(len(doc["x_labels"]))),
                     y_values=tuple(range(len(doc["y_labels"]))))
        mid = cmc_exact(j, total_order(j.x_labels),
                        total_order(j.y_labels)).value
        violation = max(pearson(j) - mid,
                        mid - maximal_correlation(j).value)
        assert violation == pytest.approx(report.max_violation, abs=1e-12)

    def test_summary_line(self):
        report = verify_example3()
        assert report.summary().startswith("[pass]")

    def test_example3_report(self):
        # one trial per n through the shared suite loop; the CMC is
        # recorded at n = 1 and 2 only
        report = verify_example3()
        assert (report.suite, report.trials, report.tolerance,
                report.max_violation, report.passed, report.seed,
                report.worst_instance) == ("example3", 3, 0.0, 0.0, True,
                                           None, None)
        assert report.details["values"] == [
            1.0, 0.5, example3_min_disagreement(3)]
        assert report.details["cmc"] == pytest.approx([-1.0, 0.0], abs=1e-9)


class TestFkg:
    def test_single_bit_is_perfectly_discordant(self):
        report = verify_fkg(1, [[0.5]])
        assert report.passed
        assert report.max_violation == pytest.approx(-1.0, abs=1e-9)

    def test_two_bits_uniform(self):
        assert verify_fkg(2, [[0.5, 0.5]]).passed

    def test_two_bits_biased(self):
        assert verify_fkg(2, [[0.3, 0.8]]).passed

    def test_cap_exceeded_for_three_bits(self):
        with pytest.raises(CapExceeded):
            verify_fkg(3, [[0.5, 0.5, 0.5]])


class TestExample3:
    def test_single_bit(self):
        assert example3_min_disagreement(1) == 1.0

    def test_two_bits(self):
        # the only balanced monotone functions are the two dictators
        assert example3_min_disagreement(2) == 0.5

    def test_three_bits_positive(self):
        assert example3_min_disagreement(3) > 0.0

    def test_four_bits(self):
        # 168 monotone functions on the 16-element cube, 24 of them balanced
        assert example3_min_disagreement(4) == 0.5

    def test_size_guard(self):
        # the 32-element cube is past the monotone enumerator's limit
        with pytest.raises(SizeTooLarge) as info:
            example3_min_disagreement(5)
        assert info.traceback[-1].frame.f_globals["__name__"] == \
            "cmcorr.order"

    @pytest.mark.parametrize("n, error", [(0, InputError), (-1, InputError),
                                          (5, SizeTooLarge),
                                          (40, SizeTooLarge)])
    def test_refused_before_the_cube_is_built(self, monkeypatch, n, error):
        # no balanced function exists below one bit, and 2^n past the
        # enumerator's limit is refused without building 2^n labels
        def build(*args):
            raise AssertionError("the cube was built")

        monkeypatch.setattr(harness, "_hypercube_order", build)
        with pytest.raises(error):
            example3_min_disagreement(n)

    def test_hypercube_is_the_repeated_product(self):
        chain = total_order(["0", "1"])
        cube = chain
        for n in range(1, 5):
            labels = [format(i, f"0{n}b") for i in range(2 ** n)]
            got = harness._hypercube_order(n, labels)
            assert got.strict_pairs == cube.strict_pairs
            assert got.labels == tuple(labels)
            cube = product(cube, chain)

    def test_suite(self):
        report = verify_example3()
        assert report.passed
        assert report.details["values"][0] == 1.0
        assert report.details["values"][1] == 0.5
        # the minimum attains the CMC bound (1 - cmc) / 2 at n = 1 and 2
        cmc = report.details["cmc"]
        assert cmc[0] == pytest.approx(-1.0, abs=1e-9)
        assert cmc[1] == pytest.approx(0.0, abs=1e-9)

    def test_suite_fails_off_the_cmc_bound(self, monkeypatch):
        monkeypatch.setattr(harness, "_complemented_cube_cmc", lambda n: 0.0)
        report = verify_example3()
        assert not report.passed
        assert report.max_violation == 1.0
