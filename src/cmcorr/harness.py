"""Runnable verification suites for the structural properties of the CMC.

Each suite draws deterministic random instances, checks one inequality or
identity at a stated tolerance, and reports the worst violation together
with the instance that produced it, so failures replay in isolation.

The seeded suites take their trials in chunks of ``_CHUNK_TRIALS``: a
chunk's instances are drawn, the CMC of all of them over one pair of
orders comes from one :func:`engine.cmc_many` call, which solves them in
shared stacks, and their reference measures come from one batched pass
(:func:`maxcorr.maximal_correlations`, :func:`classic.rank_correlations`,
:func:`engine.mgf_bound_sups`).  Each value is bit for bit that of its
instance alone, so a suite reports what solving and measuring one trial at
a time reports, and only the worst instance is serialized.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .classic import pearson, rank_correlations
from .dist import JointPmf, joint_pmf, marginal_x, marginal_y, product_pmf
from .engine import (
    FACE_LIMIT,
    cmc_exact,
    cmc_many,
    default_mgf_grid,
    mgf_bound_sups,
)
from .errors import CapExceeded, InputError, SizeTooLarge
from .maxcorr import maximal_correlations
from .order import (
    Poset,
    check_enumerable,
    enumerate_monotone_boolean,
    product,
    reverse,
    total_order,
)


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


def _total_orders(j: JointPmf) -> tuple[Poset, Poset]:
    return total_order(j.x_labels), total_order(j.y_labels)


def _run_suite(suite: str, seed: int | None, tolerance: float,
               violations) -> VerifyReport:
    """Fold per-trial (violation, instance, extra) triples into a report;
    an instance is a pmf or None, and only the worst is serialized."""
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
        worst_instance=None if worst_instance is None
        else _serialize_instance(worst_instance),
        details=details,
    )


def _plus(report) -> float:
    """A CMC report's value clipped at zero, as ``engine.cmc_plus`` gives
    it; the suites solve in extended mode, which always has a value."""
    return max(0.0, report.value)


# The trials of a seeded suite are drawn, solved and folded this many at a
# time, so a long run holds one chunk's instances and reports at once.
_CHUNK_TRIALS = 256


def _seeded_suite(suite: str, seed: int, trials: int, tolerance: float,
                  measure, x_reversed: bool = False) -> VerifyReport:
    """Run ``measure(js, cmcs) -> [(violation, extra), ...]`` on
    ``trials`` seeded instances of 2 to 4 symbols per side, both sides
    total orders, where ``cmcs[t]`` is the ``cmc_exact`` report of
    ``js[t]`` or, with ``x_reversed``, the pair ``cmc_with_x_reversed``
    gives.

    Trial ``t`` is drawn from seed ``seed + t``.  The trials are taken
    ``_CHUNK_TRIALS`` at a time: a chunk's instances are drawn and grouped
    by shape (at most 9 groups), each group is solved by one ``cmc_many``
    call, the chunk is measured in one batched pass, and its violations
    are folded in trial order before the next chunk is drawn.
    """
    shapes = np.random.default_rng(seed ^ 0x5EED).integers(
        2, 5, size=(trials, 2)).tolist()

    def gen():
        for first in range(0, trials, _CHUNK_TRIALS):
            js = [random_instances(seed + t, 1, shape)[0] for t, shape in
                  enumerate(shapes[first:first + _CHUNK_TRIALS], first)]
            for j, (violation, extra) in zip(
                    js, measure(js, _solve_by_shape(js, x_reversed))):
                yield violation, j, extra
    return _run_suite(suite, seed, tolerance, gen())


def _solve_by_shape(js, x_reversed: bool) -> list:
    """The ``cmc_many`` report of each total-order instance of ``js``, in
    order, from one call per shape."""
    groups: dict[tuple[int, int], list[int]] = {}
    for t, j in enumerate(js):
        groups.setdefault(j.shape, []).append(t)
    solved: list = [None] * len(js)
    for members in groups.values():
        group = [js[t] for t in members]
        for t, cmc in zip(members, cmc_many(group, *_total_orders(group[0]),
                                            x_reversed=x_reversed)):
            solved[t] = cmc
    return solved


def verify_sandwich(seed: int = 7, trials: int = 100) -> VerifyReport:
    """pearson <= cmc <= maximal correlation on total-order instances."""
    def measure(js, cmcs):
        return [(max(pearson(j) - cmc.value, cmc.value - top), {})
                for j, cmc, top in zip(js, cmcs, maximal_correlations(js))]
    return _seeded_suite("sandwich", seed, trials, 1e-8, measure)


def verify_rank_dominance(seed: int = 11, trials: int = 100) -> VerifyReport:
    """Kendall tau-b and Spearman never exceed the clipped CMC."""
    def measure(js, cmcs):
        return [(max(tau - _plus(cmc), rho - _plus(cmc)), {})
                for cmc, (tau, rho) in zip(cmcs, rank_correlations(js))]
    return _seeded_suite("rank-dominance", seed, trials, 1e-8, measure)


def verify_tensorization(seed: int = 42, trials: int = 50) -> VerifyReport:
    """Clipped CMC of independent products equals the max of the factors.

    Also checks the one-sided failure of unclipped tensorization on the
    discordant uniform binary factor: the self-product value is about 0,
    far above the factor value of -1.  Every factor is a 2x2 pmf over two
    2-chains, so all 2 * ``trials`` factors are solved in one call and all
    products, over the product of those chains, in another.
    """
    # Example 2: a uniform binary pair with Y = X, Y's order reversed
    j = joint_pmf([[0.5, 0.0], [0.0, 0.5]],
                  x_values=(0, 1), y_values=(0, 1))
    px, py = _total_orders(j)
    factors = [random_instances(seed + k, 1, (2, 2))[0]
               for k in range(2 * trials)]
    plus = [_plus(r) for r in cmc_many(factors, px, py)]
    products = cmc_many([product_pmf(j1, j2) for j1, j2 in
                         zip(factors[::2], factors[1::2])],
                        product(px, px), product(py, py))

    def gen():
        for t, prod in enumerate(products):
            factor = max(plus[2 * t], plus[2 * t + 1])
            yield abs(_plus(prod) - factor), factors[2 * t], {}
        value = cmc_exact(product_pmf(j, j), product(px, px),
                          product(reverse(py), reverse(py))).value
        yield -1e-9 - value, j, {
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
    """{0,1}^n under the componentwise order, element i being the bits of i:
    i lies below j iff every bit set in i is set in j."""
    size = 2 ** n
    return Poset(size=size, labels=tuple(labels), strict_pairs=frozenset(
        (i, j) for i in range(size) for j in range(size)
        if i != j and i & ~j == 0))


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
    vectors, pmfs, error = [], [], None
    for biases in bias_list:
        try:
            biases = tuple(float(b) for b in biases)
            if len(biases) != n:
                raise SizeTooLarge(f"bias vector {biases} is not length {n}")
            pmfs.append(_independent_bits_pmf(biases))
        except (TypeError, ValueError) as exc:
            error = exc  # raised after the pmfs before it are solved
            break
        vectors.append(biases)
    # every pmf has the labels of this one, so one pair of orders serves all
    cube = _independent_bits_pmf((0.5,) * n)
    reports = cmc_many(pmfs, _hypercube_order(n, cube.x_labels),
                       reverse(_hypercube_order(n, cube.y_labels)))
    if error is not None:
        raise error
    return _run_suite("fkg", None, 1e-9, (
        (r.value, j, {"biases": biases})
        for r, j, biases in zip(reports, pmfs, vectors)))


def verify_mgf(seed: int = 3, trials: int = 50,
               grid=None) -> VerifyReport:
    """The moment-generating-function bound never exceeds its target."""
    grid = default_mgf_grid() if grid is None else list(grid)

    def measure(js, cmcs):
        return [(sup - max(r.value for r in cmc), {})
                for cmc, sup in zip(cmcs, mgf_bound_sups(js, grid))]
    return _seeded_suite("mgf", seed, trials, 1e-7, measure,
                         x_reversed=True)


def verify_independence(seed: int = 5, trials: int = 100) -> VerifyReport:
    """Dependence is detected: TV > 0.01 forces a nonzero CMC either way.

    The forward direction (both CMC values about zero implies a tiny TV
    distance) is logged in the details, not asserted, since no quantitative
    modulus is available.
    """
    def measure(js, cmcs):
        out = []
        for j, cmc in zip(js, cmcs):
            tv = 0.5 * float(np.abs(
                j.p - np.outer(marginal_x(j), marginal_y(j))).sum())
            both = max(r.value for r in cmc)
            violation = (1e-6 - both) if tv > 0.01 else -math.inf
            out.append((violation,
                        {"near_zero_cmc_tv": tv} if both <= 1e-9 else {}))
        return out
    return _seeded_suite("independence", seed, trials, 0.0, measure,
                         x_reversed=True)


def example3_min_disagreement(n: int) -> float:
    """Minimum disagreement of balanced monotone boolean pairs under bit flip.

    For uniform X on {0,1}^n and Y the componentwise complement of X, this
    is the least P(f(X) != g(Y)) over all balanced (2^{n-1} ones) monotone
    boolean f, g; it is strictly positive because complementation reverses
    the order.  ``enumerate_monotone_boolean`` bounds the brute force: n = 4
    (16 elements) is the largest cube it accepts, and a larger n is refused
    before its cube is built.  n < 1 has no balanced function.
    """
    if n < 1:
        raise InputError(f"example 3 needs at least one bit, not n = {n}")
    size = 2 ** n
    check_enumerable(size)
    cube = _hypercube_order(n, map(str, range(size)))
    balanced = [np.asarray(f) for f in enumerate_monotone_boolean(cube)
                if sum(f) == 2 ** (n - 1)]
    complement = np.arange(size)[::-1]
    best = 1.0
    for f in balanced:
        for g in balanced:
            best = min(best, float(np.mean(f != g[complement])))
    return best


def _complemented_cube_cmc(n: int) -> float:
    """CMC of X uniform on {0,1}^n and Y its complement, both cubes."""
    size = 2 ** n
    j = joint_pmf(np.fliplr(np.eye(size)) / size)
    return cmc_exact(j, _hypercube_order(n, j.x_labels),
                     _hypercube_order(n, j.y_labels)).value


def verify_example3() -> VerifyReport:
    """Desk check of the disagreement values at n = 1, 2, 3, and of the CMC
    bound P(f != g) >= (1 - cmc) / 2, which they attain within 1e-9 at
    n = 1 and 2.  At n = 3 the cube pair has more than ``FACE_LIMIT``
    faces, so only positivity is checked there."""
    def gen():
        for n, expected in ((1, 1.0), (2, 0.5)):
            value = example3_min_disagreement(n)
            cmc = _complemented_cube_cmc(n)
            bound = 0.0 if abs(value - (1.0 - cmc) / 2) <= 1e-9 else 1.0
            yield (max(abs(value - expected), bound), None,
                   {"values": value, "cmc": cmc})
        value = example3_min_disagreement(3)
        yield 0.0 if value > 0.0 else 1.0, None, {"values": value}
    return _run_suite("example3", None, 0.0, gen())
