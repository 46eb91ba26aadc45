"""Runnable verification suites for the structural properties of the CMC.

Each suite draws deterministic random instances, checks one inequality or
identity at a stated tolerance, and reports the worst violation together
with the instance that produced it, so failures replay in isolation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .classic import kendall_tau_b, pearson, spearman
from .dist import JointPmf, joint_pmf, marginal_x, marginal_y, product_pmf
from .engine import (
    FACE_LIMIT,
    CmcOptions,
    cmc_exact,
    cmc_plus,
    cmc_x_reversed,
    default_mgf_grid,
    mgf_bound_sup,
)
from .errors import CapExceeded, SizeTooLarge
from .maxcorr import maximal_correlation
from .order import (
    Poset,
    enumerate_monotone_boolean,
    product,
    reverse,
    total_order,
)

_EXTENDED = CmcOptions(mode="extended")


@dataclass(frozen=True)
class VerifyReport:
    suite: str
    trials: int
    tolerance: float
    max_violation: float
    passed: bool
    seed: int | None = None
    worst_instance: str | None = None
    details: dict = field(default_factory=dict)

    def summary(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return (f"[{status}] {self.suite}: trials={self.trials} "
                f"max_violation={self.max_violation:.3e} "
                f"tolerance={self.tolerance:.1e}")


def _serialize_instance(j: JointPmf) -> str:
    return json.dumps({
        "x_labels": list(j.x_labels),
        "y_labels": list(j.y_labels),
        "pmf": j.p.tolist(),
    }, sort_keys=True)


def random_instances(seed: int, count: int, shape: tuple[int, int]):
    """Deterministic symmetric-Dirichlet(1) joint pmfs with index embeddings."""
    m, n = shape
    if m < 2 or n < 2:
        raise SizeTooLarge("instances need at least two symbols per side")
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        mass = rng.dirichlet(np.ones(m * n)).reshape(m, n)
        out.append(joint_pmf(mass,
                             x_values=tuple(range(m)),
                             y_values=tuple(range(n))))
    return out


def _random_shapes(seed: int, count: int):
    """``count`` seeded alphabet sizes, 2 to 4 symbols per side."""
    rng = np.random.default_rng(seed ^ 0x5EED)
    return [(int(a), int(b)) for a, b in rng.integers(2, 5, size=(count, 2))]


def _total_orders(j: JointPmf) -> tuple[Poset, Poset]:
    return total_order(j.x_labels), total_order(j.y_labels)


def _run_suite(suite: str, seed: int | None, tolerance: float,
               violations) -> VerifyReport:
    """Fold per-trial (violation, instance) pairs into a report."""
    worst = -math.inf
    worst_instance = None
    count = 0
    details: dict = {}
    for violation, instance, extra in violations:
        count += 1
        if violation > worst:
            worst = violation
            worst_instance = instance
        for key, val in extra.items():
            details.setdefault(key, []).append(val)
    if worst == -math.inf:
        worst = 0.0
    return VerifyReport(
        suite=suite,
        trials=count,
        tolerance=tolerance,
        max_violation=worst,
        passed=worst <= tolerance,
        seed=seed,
        worst_instance=worst_instance,
        details=details,
    )


def verify_sandwich(seed: int = 7, trials: int = 100) -> VerifyReport:
    """pearson <= cmc <= maximal correlation on total-order instances."""
    def gen():
        shapes = _random_shapes(seed, trials)
        for t, shape in enumerate(shapes):
            j = random_instances(seed + t, 1, shape)[0]
            px, py = _total_orders(j)
            low = pearson(j)
            mid = cmc_exact(j, px, py, _EXTENDED).value
            high = maximal_correlation(j).value
            violation = max(low - mid, mid - high)
            yield violation, _serialize_instance(j), {}
    return _run_suite("sandwich", seed, 1e-8, gen())


def verify_rank_dominance(seed: int = 11, trials: int = 100) -> VerifyReport:
    """Kendall tau-b and Spearman never exceed the clipped CMC."""
    def gen():
        shapes = _random_shapes(seed, trials)
        for t, shape in enumerate(shapes):
            j = random_instances(seed + t, 1, shape)[0]
            px, py = _total_orders(j)
            plus = cmc_plus(j, px, py, _EXTENDED)
            violation = max(kendall_tau_b(j) - plus, spearman(j) - plus)
            yield violation, _serialize_instance(j), {}
    return _run_suite("rank-dominance", seed, 1e-8, gen())


def _example2_factor() -> tuple[JointPmf, Poset, Poset]:
    """Uniform binary pair with Y = X and the Y order reversed."""
    j = joint_pmf([[0.5, 0.0], [0.0, 0.5]],
                  x_values=(0, 1), y_values=(0, 1))
    px = total_order(j.x_labels)
    py = reverse(total_order(j.y_labels))
    return j, px, py


def verify_tensorization(seed: int = 42, trials: int = 50) -> VerifyReport:
    """Clipped CMC of independent products equals the max of the factors.

    Also checks the one-sided failure of unclipped tensorization on the
    discordant uniform binary factor: the self-product value is about 0,
    far above the factor value of -1.
    """
    def gen():
        shapes = [(2, 2)] * trials
        for t, shape in enumerate(shapes):
            j1 = random_instances(seed + 2 * t, 1, shape)[0]
            j2 = random_instances(seed + 2 * t + 1, 1, shape)[0]
            px1, py1 = _total_orders(j1)
            px2, py2 = _total_orders(j2)
            factor = max(cmc_plus(j1, px1, py1, _EXTENDED),
                         cmc_plus(j2, px2, py2, _EXTENDED))
            prod = cmc_plus(product_pmf(j1, j2),
                            product(px1, px2), product(py1, py2), _EXTENDED)
            yield abs(prod - factor), _serialize_instance(j1), {}
        j, px, py = _example2_factor()
        value = cmc_exact(product_pmf(j, j), product(px, px),
                          product(py, py), _EXTENDED).value
        yield -1e-9 - value, _serialize_instance(j), {
            "discordant_self_product_value": value}
    return _run_suite("tensorization", seed, 1e-6, gen())


def _independent_bits_pmf(biases) -> JointPmf:
    """Y = X for X made of independent biased bits, on {0,1}^n row-major."""
    n = len(biases)
    probs = np.ones(1)
    for q in biases:
        probs = np.kron(probs, np.array([1.0 - q, q]))
    mass = np.diag(probs)
    labels = [format(i, f"0{n}b") for i in range(2 ** n)]
    return JointPmf(x_labels=tuple("x" + s for s in labels),
                    y_labels=tuple("y" + s for s in labels), p=mass)


def _hypercube_order(n: int, labels) -> Poset:
    chain = total_order(["0", "1"])
    cube = chain
    for _ in range(n - 1):
        cube = product(cube, chain)
    return Poset(size=cube.size, labels=tuple(labels),
                 strict_pairs=cube.strict_pairs)


def verify_fkg(n: int, bias_list) -> VerifyReport:
    """Positive association: CMC <= 0 when one copy carries the reversed order.

    X is a vector of independent bits under the componentwise order and
    Y = X under the reversed order; exact enumeration requires n <= 2
    (at n = 3 each 8-element hypercube has 404 faces, and 404 x 404 =
    163,216 exceeds the engine's ``FACE_LIMIT``).
    """
    if n not in (1, 2):
        raise CapExceeded(
            "exact FKG verification supports n in {1, 2}; the face count "
            f"at n >= 3 exceeds the engine's limit of {FACE_LIMIT} faces"
        )
    def gen():
        for biases in bias_list:
            biases = tuple(float(b) for b in biases)
            if len(biases) != n:
                raise SizeTooLarge(f"bias vector {biases} is not length {n}")
            j = _independent_bits_pmf(biases)
            px = _hypercube_order(n, j.x_labels)
            py = reverse(_hypercube_order(n, j.y_labels))
            value = cmc_exact(j, px, py, _EXTENDED).value
            yield value, _serialize_instance(j), {"biases": biases}
    return _run_suite("fkg", None, 1e-9, gen())


def verify_mgf(seed: int = 3, trials: int = 50,
               grid=None) -> VerifyReport:
    """The moment-generating-function bound never exceeds its target."""
    grid = default_mgf_grid() if grid is None else list(grid)
    def gen():
        shapes = _random_shapes(seed, trials)
        for t, shape in enumerate(shapes):
            j = random_instances(seed + t, 1, shape)[0]
            px, py = _total_orders(j)
            bound = mgf_bound_sup(j, grid)
            target = max(cmc_exact(j, px, py, _EXTENDED).value,
                         cmc_x_reversed(j, px, py, _EXTENDED).value)
            yield bound - target, _serialize_instance(j), {}
    return _run_suite("mgf", seed, 1e-7, gen())


def verify_independence(seed: int = 5, trials: int = 100) -> VerifyReport:
    """Dependence is detected: TV > 0.01 forces a nonzero CMC either way.

    The forward direction (both CMC values about zero implies a tiny TV
    distance) is logged in the details, not asserted, since no quantitative
    modulus is available.
    """
    def gen():
        shapes = _random_shapes(seed, trials)
        for t, shape in enumerate(shapes):
            j = random_instances(seed + t, 1, shape)[0]
            px, py = _total_orders(j)
            tv = 0.5 * float(np.abs(
                j.p - np.outer(marginal_x(j), marginal_y(j))).sum())
            both = max(cmc_exact(j, px, py, _EXTENDED).value,
                       cmc_x_reversed(j, px, py, _EXTENDED).value)
            violation = (1e-6 - both) if tv > 0.01 else -math.inf
            extra = {}
            if both <= 1e-9:
                extra["near_zero_cmc_tv"] = tv
            yield violation, _serialize_instance(j), extra
    return _run_suite("independence", seed, 0.0, gen())


def example3_min_disagreement(n: int) -> float:
    """Minimum disagreement of balanced monotone boolean pairs under bit flip.

    For uniform X on {0,1}^n and Y the componentwise complement of X, this
    is the least P(f(X) != g(Y)) over all balanced (2^{n-1} ones) monotone
    boolean f, g; it is strictly positive because complementation reverses
    the order.
    """
    if n > 3:
        raise SizeTooLarge("disagreement check supported for n <= 3")
    labels = [format(i, f"0{n}b") for i in range(2 ** n)]
    cube = _hypercube_order(n, labels)
    balanced = [np.asarray(f) for f in enumerate_monotone_boolean(cube)
                if sum(f) == 2 ** (n - 1)]
    size = 2 ** n
    complement = np.array([size - 1 - i for i in range(size)])
    best = 1.0
    for f in balanced:
        for g in balanced:
            best = min(best, float(np.mean(f != g[complement])))
    return best


def verify_example3() -> VerifyReport:
    """Desk check of the disagreement values at n = 1, 2, 3."""
    v1 = example3_min_disagreement(1)
    v2 = example3_min_disagreement(2)
    v3 = example3_min_disagreement(3)
    violation = max(abs(v1 - 1.0), abs(v2 - 0.5),
                    0.0 if v3 > 0.0 else 1.0)
    return VerifyReport(
        suite="example3",
        trials=3,
        tolerance=0.0,
        max_violation=violation,
        passed=violation <= 0.0,
        seed=None,
        worst_instance=None,
        details={"values": [v1, v2, v3]},
    )
