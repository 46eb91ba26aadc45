import json
import math
import tracemalloc

import numpy as np
import pytest

import cmcorr.harness as harness
from cmcorr.classic import kendall_tau_b, pearson, spearman
from cmcorr.dist import (
    JointPmf,
    joint_pmf,
    marginal_x,
    marginal_y,
    product_pmf,
)
from cmcorr.engine import (
    cmc_exact,
    cmc_plus,
    cmc_with_x_reversed,
    default_mgf_grid,
    mgf_bound_sup,
)
from cmcorr.errors import (
    CapExceeded,
    DegenerateMarginal,
    InputError,
    SizeTooLarge,
)
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
from cmcorr.maxcorr import maximal_correlation
from cmcorr.order import product, reverse, total_order


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


def reference_seeded_suite(suite, seed, trials, tolerance, trial):
    """The suite loop that solves one trial at a time, each instance when
    its trial comes: ``trial(j, px, py) -> (violation, extra)``."""
    def gen():
        shapes = np.random.default_rng(seed ^ 0x5EED).integers(
            2, 5, size=(trials, 2))
        for t, shape in enumerate(shapes.tolist()):
            j = random_instances(seed + t, 1, shape)[0]
            violation, extra = trial(j, *harness._total_orders(j))
            yield violation, j, extra
    return harness._run_suite(suite, seed, tolerance, gen())


def reference_sandwich(seed, trials):
    def trial(j, px, py):
        mid = cmc_exact(j, px, py).value
        return max(pearson(j) - mid,
                   mid - maximal_correlation(j).value), {}
    return reference_seeded_suite("sandwich", seed, trials, 1e-8, trial)


def reference_rank_dominance(seed, trials):
    def trial(j, px, py):
        plus = cmc_plus(j, px, py)
        return max(kendall_tau_b(j) - plus, spearman(j) - plus), {}
    return reference_seeded_suite("rank-dominance", seed, trials, 1e-8,
                                  trial)


def reference_tensorization(seed, trials):
    def gen():
        for t in range(trials):
            j1 = random_instances(seed + 2 * t, 1, (2, 2))[0]
            j2 = random_instances(seed + 2 * t + 1, 1, (2, 2))[0]
            px1, py1 = harness._total_orders(j1)
            px2, py2 = harness._total_orders(j2)
            factor = max(cmc_plus(j1, px1, py1), cmc_plus(j2, px2, py2))
            prod = cmc_plus(product_pmf(j1, j2), product(px1, px2),
                            product(py1, py2))
            yield abs(prod - factor), j1, {}
        j = joint_pmf([[0.5, 0.0], [0.0, 0.5]],
                      x_values=(0, 1), y_values=(0, 1))
        px, py = harness._total_orders(j)
        value = cmc_exact(product_pmf(j, j), product(px, px),
                          product(reverse(py), reverse(py))).value
        yield -1e-9 - value, j, {
            "discordant_self_product_value": value}
    return harness._run_suite("tensorization", seed, 1e-6, gen())


def reference_mgf(seed, trials):
    grid = default_mgf_grid()

    def trial(j, px, py):
        target = max(r.value for r in cmc_with_x_reversed(j, px, py))
        return mgf_bound_sup(j, grid) - target, {}
    return reference_seeded_suite("mgf", seed, trials, 1e-7, trial)


def reference_independence(seed, trials):
    def trial(j, px, py):
        tv = 0.5 * float(np.abs(
            j.p - np.outer(marginal_x(j), marginal_y(j))).sum())
        both = max(r.value for r in cmc_with_x_reversed(j, px, py))
        violation = (1e-6 - both) if tv > 0.01 else -math.inf
        return violation, {"near_zero_cmc_tv": tv} if both <= 1e-9 else {}
    return reference_seeded_suite("independence", seed, trials, 0.0, trial)


def fkg_biases(seed, trials):
    """The bias vectors ``cmcorr verify fkg --n 2`` draws."""
    return np.random.default_rng(seed).uniform(
        0.05, 0.95, size=(trials, 2)).tolist()


def reference_fkg(seed, trials):
    def gen():
        for biases in fkg_biases(seed, trials):
            biases = tuple(float(b) for b in biases)
            j = harness._independent_bits_pmf(biases)
            px = harness._hypercube_order(2, j.x_labels)
            py = reverse(harness._hypercube_order(2, j.y_labels))
            yield (cmc_exact(j, px, py).value,
                   j, {"biases": biases})
    return harness._run_suite("fkg", None, 1e-9, gen())


# (suite, trials per seed, reference loop); the trial counts are those of
# the cli-small benchmark workload
SUITES_AND_REFERENCES = {
    "sandwich": (verify_sandwich, 24, reference_sandwich),
    "rank-dominance": (verify_rank_dominance, 24, reference_rank_dominance),
    "tensorization": (verify_tensorization, 8, reference_tensorization),
    "mgf": (verify_mgf, 12, reference_mgf),
    "independence": (verify_independence, 12, reference_independence),
    "fkg": (lambda seed, trials: verify_fkg(2, fkg_biases(seed, trials)),
            12, reference_fkg),
}


class TestOneSolvePerGroup:
    """Each suite solves its instances in groups that share a pair of
    orders, and reports exactly what solving one trial at a time reports:
    every field, the worst instance and the order of the details (fkg
    logs each trial's biases)."""

    @pytest.mark.parametrize("suite", sorted(SUITES_AND_REFERENCES))
    def test_matches_one_trial_at_a_time(self, suite):
        verify, trials, reference = SUITES_AND_REFERENCES[suite]
        for seed in range(1, 21):
            assert verify(seed, trials) == reference(seed, trials), seed

    def test_one_call_per_shape(self, monkeypatch):
        calls = []
        many = harness.cmc_many

        def counted(js, px, py, *args, **kwargs):
            calls.append((len(js), px.size, py.size))
            return many(js, px, py, *args, **kwargs)

        monkeypatch.setattr(harness, "cmc_many", counted)
        verify_sandwich(3, 60)
        assert len(calls) == len({(m, n) for _, m, n in calls}) <= 9
        assert sum(count for count, _, _ in calls) == 60
        calls.clear()
        verify_tensorization(3, 8)
        assert calls == [(16, 2, 2), (8, 4, 4)]
        calls.clear()
        verify_fkg(2, fkg_biases(3, 12))
        assert calls == [(12, 4, 4)]
        calls.clear()
        verify_mgf(3, 5)
        verify_independence(3, 5)
        assert sum(count for count, _, _ in calls) == 10

    def test_fkg_bias_error_after_the_pmfs_before_it(self):
        # a bad vector is refused only once the pmfs before it are solved,
        # so a pmf before it that fails to solve raises first
        with pytest.raises(SizeTooLarge, match="not length 2"):
            verify_fkg(2, [[0.5, 0.5], [0.5]])
        with pytest.raises(DegenerateMarginal):
            verify_fkg(2, [[0.0, 0.0], [0.5]])


class TestChunkedTrials:
    """A seeded suite draws, solves and folds its trials one chunk at a
    time, so its memory does not grow with the number of trials."""

    def test_long_run_peak_near_a_short_one(self, monkeypatch):
        monkeypatch.setattr(harness, "_CHUNK_TRIALS", 8)
        verify_sandwich(1, 480)  # every shape's tables in the memo

        def traced_peak(trials):
            tracemalloc.start()
            try:
                verify_sandwich(2, trials)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        short, long = traced_peak(48), traced_peak(480)
        # holding every instance and report until the fold would add about
        # 3 MB over the 432 more trials; measured 0.26 MB more
        assert long < short + 600e3

    @pytest.mark.parametrize("suite", ["sandwich", "rank-dominance", "mgf",
                                       "independence"])
    def test_chunks_leave_reports_unchanged(self, monkeypatch, suite):
        verify, _, _ = SUITES_AND_REFERENCES[suite]
        whole = verify(3, 40)
        for chunk in (1, 7, 40):
            monkeypatch.setattr(harness, "_CHUNK_TRIALS", chunk)
            assert verify(3, 40) == whole
