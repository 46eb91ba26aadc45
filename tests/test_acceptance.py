"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single pass/fail line (visible with ``pytest -s`` or in
the captured output of a failing run) and enforces its runtime budget.
"""

import time

import numpy as np

import cmcorr as c
from test_maxcorr import decompose, witsenhausen_matrix

DSBS = [[0.4, 0.1], [0.1, 0.4]]


def _criterion(num, name, violations, limit_s, elapsed, tolerance):
    worst = max(violations) if violations else 0.0
    ok = worst <= tolerance and elapsed < limit_s
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num:02d} {name}: "
          f"max_violation={worst:.3e} (tol {tolerance:.1e}) "
          f"runtime={elapsed:.2f}s (< {limit_s:.0f}s)")
    assert worst <= tolerance, f"criterion {num} {name}: violation {worst}"
    assert elapsed < limit_s, f"criterion {num} {name}: too slow {elapsed}"


def dsbs():
    return c.joint_pmf(DSBS, x_values=(0, 1), y_values=(0, 1))


def total_orders(j):
    return c.total_order(j.x_labels), c.total_order(j.y_labels)


def discordant_pair():
    j = c.joint_pmf([[0.5, 0.0], [0.0, 0.5]])
    return j, c.total_order(j.x_labels), c.reverse(c.total_order(j.y_labels))


def random_pmf(seed, m, n):
    return c.random_instances(seed, 1, (m, n))[0]


def test_c01_discordant_regression():
    start = time.perf_counter()
    j, px, py = discordant_pair()
    value = c.cmc_exact(j, px, py).value
    prod = c.cmc_exact(c.product_pmf(j, j), c.product(px, px),
                       c.product(py, py)).value
    _criterion(1, "discordant pair and its self-product",
               [abs(value + 1.0), (-1e-9) - prod],
               1.0, time.perf_counter() - start, 1e-9)


def test_c02_antichain_collapse():
    start = time.perf_counter()
    violations = []
    for t in range(100):
        j = random_pmf(20_000 + t, 3, 3)
        px = c.antichain(j.x_labels)
        py = c.antichain(j.y_labels)
        violations.append(abs(c.cmc_exact(j, px, py).value -
                              c.maximal_correlation(j).value))
    _criterion(2, "antichain orders collapse to maximal correlation",
               violations, 10.0, time.perf_counter() - start, 1e-8)


def test_c03_oracle_equivalence():
    start = time.perf_counter()
    cfg = c.OracleConfig(grid_step=0.02, refine_iters=50, restart_count=3)
    violations = []
    for t in range(100):
        j = random_pmf(30_000 + t, 3, 3)
        px, py = total_orders(j)
        gap = abs(c.cmc_exact(j, px, py).value -
                  c.grid_oracle(j, px, py, cfg))
        violations.append(gap)
    worst_3x3 = max(violations)
    violations_4 = []
    for t in range(25):
        j = random_pmf(31_000 + t, 4, 4)
        px, py = total_orders(j)
        gap = abs(c.cmc_exact(j, px, py).value -
                  c.grid_oracle(j, px, py, cfg))
        violations_4.append(gap)
    elapsed = time.perf_counter() - start
    scaled = [v / 1e-6 for v in violations] + \
        [v / 1e-4 for v in violations_4]
    print(f"    3x3 worst gap {worst_3x3:.3e}, "
          f"4x4 worst gap {max(violations_4):.3e}")
    _criterion(3, "engine matches the brute-force oracle",
               scaled, 300.0, elapsed, 1.0)


def test_c04_tensorization():
    start = time.perf_counter()
    violations = []
    for t in range(50):
        j1 = random_pmf(40_000 + 2 * t, 2, 2)
        j2 = random_pmf(40_001 + 2 * t, 2, 2)
        px1, py1 = total_orders(j1)
        px2, py2 = total_orders(j2)
        factor = max(c.cmc_plus(j1, px1, py1), c.cmc_plus(j2, px2, py2))
        prod = c.cmc_plus(c.product_pmf(j1, j2), c.product(px1, px2),
                          c.product(py1, py2))
        violations.append(abs(prod - factor))
    _criterion(4, "clipped value tensorizes over independent products",
               violations, 120.0, time.perf_counter() - start, 1e-6)


def test_c05_rank_dominance():
    start = time.perf_counter()
    rng = np.random.default_rng(50_000)
    violations = []
    for t in range(100):
        m, n = rng.integers(2, 5, size=2)
        j = random_pmf(51_000 + t, int(m), int(n))
        px, py = total_orders(j)
        plus = c.cmc_plus(j, px, py)
        violations.append(max(c.kendall_tau_b(j) - plus,
                              c.spearman(j) - plus))
    j = dsbs()
    px, py = total_orders(j)
    plus = c.cmc_plus(j, px, py)
    equality_gap = max(abs(c.kendall_tau_b(j) - plus),
                       abs(c.spearman(j) - plus))
    assert equality_gap <= 1e-9, equality_gap
    _criterion(5, "Kendall and Spearman never exceed the clipped value",
               violations, 60.0, time.perf_counter() - start, 1e-8)


def test_c06_sandwich():
    start = time.perf_counter()
    rng = np.random.default_rng(60_000)
    violations = []
    for t in range(200):
        m, n = rng.integers(2, 5, size=2)
        j = random_pmf(61_000 + t, int(m), int(n))
        px, py = total_orders(j)
        mid = c.cmc_exact(j, px, py).value
        violations.append(max(c.pearson(j) - mid,
                              mid - c.maximal_correlation(j).value))
    _criterion(6, "Pearson <= value <= maximal correlation",
               violations, 60.0, time.perf_counter() - start, 1e-8)


def test_c07_fkg():
    start = time.perf_counter()
    rng = np.random.default_rng(70_000)
    violations = []
    for n in (1, 2):
        biases = rng.uniform(0.05, 0.95, size=(20, n))
        report = c.verify_fkg(n, biases.tolist())
        violations.append(report.max_violation)
    _criterion(7, "reversed-order copies are never concordant",
               violations, 120.0, time.perf_counter() - start, 1e-9)


def test_c08_mgf_bound():
    start = time.perf_counter()
    grid = c.default_mgf_grid((0.25, 0.5, 1.0, 2.0))
    rng = np.random.default_rng(80_000)
    violations = []
    for t in range(50):
        m, n = rng.integers(2, 5, size=2)
        j = random_pmf(81_000 + t, int(m), int(n))
        px, py = total_orders(j)
        target = max(c.cmc_exact(j, px, py).value,
                     c.cmc_x_reversed(j, px, py).value)
        violations.append(c.mgf_bound_sup(j, grid) - target)
    j = dsbs()
    assert abs(c.mgf_rhs(j, 1.0, 1.0) - 0.6) <= 1e-9
    px, py = total_orders(j)
    target = max(c.cmc_exact(j, px, py).value,
                 c.cmc_x_reversed(j, px, py).value)
    assert abs(c.mgf_bound_sup(j, grid) - target) <= 1e-9
    _criterion(8, "moment-generating bound stays below its target",
               violations, 60.0, time.perf_counter() - start, 1e-7)


def test_c09_witsenhausen_contract():
    start = time.perf_counter()
    violations = []
    for t in range(200):
        j = random_pmf(90_000 + t, 3, 3)
        bundle = decompose(witsenhausen_matrix(j))
        u1 = bundle.left_vectors[0]
        root = np.sqrt(c.marginal_x(j))
        violations.append(abs(bundle.singular_values[0] - 1.0) / 1e-8)
        align = min(float(np.abs(u1 - root).max()),
                    float(np.abs(u1 + root).max()))
        violations.append(align / 1e-6)
    rng = np.random.default_rng(91_000)
    for _ in range(50):
        j = c.joint_pmf(np.outer(rng.dirichlet(np.ones(3)),
                                 rng.dirichlet(np.ones(3))))
        violations.append(c.maximal_correlation(j).value / 1e-10)
    _criterion(9, "Witsenhausen top pair and independent collapse",
               violations, 30.0, time.perf_counter() - start, 1.0)


def test_c10_determinism_across_face_order(monkeypatch):
    start = time.perf_counter()
    violations = []
    instances = [random_pmf(100_000 + t, 3, 4) for t in range(20)]
    refs = [c.cmc_exact(j, *total_orders(j)) for j in instances]
    enumerate_faces = c.engine.distinct_partitions
    rng = np.random.default_rng(100_100)

    calls = []

    def shuffled(p):
        calls.append(p)
        parts = enumerate_faces(p)
        rng.shuffle(parts)
        return parts

    def solve(j):
        c.engine._MEMO.clear()  # so every solve enumerates a new shuffle
        return c.cmc_exact(j, *total_orders(j))

    monkeypatch.setattr(c.engine, "distinct_partitions", shuffled)
    monkeypatch.setattr(c.engine, "_MEMO", c.engine._SideMemo())
    for j, ref in zip(instances, refs):
        reports = [solve(j) for _ in range(3)]
        same = all(
            r.value == ref.value
            and np.array_equal(r.witness.f, ref.witness.f)
            and np.array_equal(r.witness.g, ref.witness.g)
            and {k: v for k, v in r.diagnostics.items()
                 if k != "runtime_seconds"} ==
            {k: v for k, v in ref.diagnostics.items()
             if k != "runtime_seconds"}
            for r in reports
        )
        violations.append(0.0 if same else 1.0)
    violations.append(0.0 if len(calls) == 2 * 3 * len(instances) else 1.0)
    _criterion(10, "reports identical under shuffled face order",
               violations, 60.0, time.perf_counter() - start, 0.0)


def test_c11_balanced_boolean_disagreement():
    start = time.perf_counter()
    v1 = c.example3_min_disagreement(1)
    v2 = c.example3_min_disagreement(2)
    v3 = c.example3_min_disagreement(3)
    violations = [abs(v1 - 1.0), abs(v2 - 0.5), 1.0 if v3 <= 0.0 else 0.0]
    # the CMC bound P(f != g) >= (1 - cmc) / 2 is attained at n = 1 and 2:
    # X uniform on {0,1}^n, Y its complement, both componentwise ordered
    for n, v in ((1, v1), (2, v2)):
        cube = c.total_order(["0", "1"])
        for _ in range(n - 1):
            cube = c.product(cube, c.total_order(["0", "1"]))
        j = c.joint_pmf(np.fliplr(np.eye(cube.size)) / cube.size,
                        cube.labels, cube.labels)
        cmc = c.cmc_exact(j, cube, cube).value
        violations.append(0.0 if abs(v - (1.0 - cmc) / 2) <= 1e-9 else 1.0)
    print(f"    disagreement floor at n=3: {v3}")
    _criterion(11, "balanced monotone boolean disagreement floor",
               violations, 10.0, time.perf_counter() - start, 0.0)
