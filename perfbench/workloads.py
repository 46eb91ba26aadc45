"""Seeded workloads: the inputs, the ops that run on them, and output checks.

An op is one call into the library or the CLI.  Ops come in rounds with a
fixed composition per workload, so every round does the same mix of work
and only the seeded numbers differ.  Inputs are drawn here with
``numpy.random.default_rng(seed)``, never with the package's own instance
generators, so a change to the package cannot change the workload.

Every op has a check that runs after the timed region.  A check returns
``(ok, token)``; the tokens of a run are hashed into its result digest.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import cmcorr.cli as cli
import cmcorr.classic as classic
import cmcorr.dist as dist
import cmcorr.engine as engine
import cmcorr.maxcorr as maxcorr
import cmcorr.oracle as oracle
import cmcorr.order as order

# Distinct instances per op slot; a run that outlasts them reuses them.
# cli-small writes its inputs as files, so it keeps fewer to keep set-up
# short.
POOL_ROUNDS = 24
CLI_POOL_ROUNDS = 8

# The engine's own monotone and feasibility tolerances.
MONOTONE_TOL = 1e-9
FEASIBILITY_TOL = 1e-8
VALUE_TOL = 1e-9


@dataclass(frozen=True)
class Op:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], tuple[bool, str]]


@dataclass(frozen=True)
class Workload:
    name: str
    # the highest percentile with >= 10 ops beyond it in a 30 s run, except
    # on oracle: there that percentile falls among the few fastest 4x4 ops
    # and swings with the seed, so the tail is read in the poset ops instead
    tail_pct: int
    rounds: list            # rounds[r] is the op list of pool round r

    def ops(self, r: int) -> list[Op]:
        return self.rounds[r % len(self.rounds)]


def _fmt(v: float) -> str:
    return f"{v:.9f}"


def _face(diag: dict) -> str:
    return json.dumps([diag.get("winning_partition_x"),
                       diag.get("winning_partition_y")])


def _chain_pmf(rng, m: int, n: int) -> dist.JointPmf:
    p = rng.dirichlet(np.ones(m * n)).reshape(m, n)
    return dist.joint_pmf(p, x_values=range(m), y_values=range(n))


# ---------------------------------------------------------------- chains

CHAIN_ROUND = (  # (m, n, reversed Y) per op; half the instances reversed
    (3, 3, False), (3, 3, True), (3, 3, False), (3, 3, True),
    (4, 4, False), (4, 4, True), (4, 4, False), (4, 4, True),
    (5, 5, False), (5, 5, True), (6, 4, False), (6, 4, True),
)


def _check_cmc(j, px, py, forward: bool):
    def check(report) -> tuple[bool, str]:
        dist.check_report(j, report)
        w = report.witness
        stats = dist.pair_stats(j, w)
        ok = (order.is_monotone(w.f, px, MONOTONE_TOL)
              and order.is_monotone(w.g, py, MONOTONE_TOL)
              and abs(stats.mean_f) <= FEASIBILITY_TOL
              and abs(stats.mean_g) <= FEASIBILITY_TOL
              and abs(stats.var_f - 1.0) <= FEASIBILITY_TOL
              and abs(stats.var_g - 1.0) <= FEASIBILITY_TOL
              and abs(report.value)
              <= maxcorr.maximal_correlation(j).value + VALUE_TOL)
        if forward:
            ok = ok and classic.pearson(j) <= report.value + VALUE_TOL
        return ok, _fmt(report.value) + _face(report.diagnostics)
    return check


def chains(seed: int, workdir: str) -> Workload:
    """``cmc_exact`` with default options on total orders."""
    rng = np.random.default_rng(seed)
    orders = {}
    rounds = []
    for _ in range(POOL_ROUNDS):
        ops = []
        for m, n, rev in CHAIN_ROUND:
            j = _chain_pmf(rng, m, n)
            if (m, n) not in orders:
                orders[m, n] = (order.total_order(j.x_labels),
                                order.total_order(j.y_labels))
            px, py = orders[m, n]
            if rev:
                py = order.reverse(py)
            ops.append(Op(
                kind=f"{m}x{n}{'r' if rev else ''}",
                call=lambda j=j, px=px, py=py: engine.cmc_exact(j, px, py),
                check=_check_cmc(j, px, py, forward=not rev),
            ))
        rounds.append(ops)
    return Workload("chains", 92, rounds)


# ---------------------------------------------------------------- oracle

ORACLE_CONFIG = dict(grid_step=0.02, refine_iters=50, restart_count=3)
# Three-element non-chain posets; each pairs with a 4-chain on Y and takes
# the oracle's product-grid path.  The diamond is left out: too slow there.
ORACLE_POSETS = {
    "vee": [(0, 1), (0, 2)],
    "wedge": [(0, 2), (1, 2)],
    "chain+1": [(0, 1)],
}
ORACLE_ROUND = ("3x3",) * 6 + tuple(sorted(ORACLE_POSETS)) + ("4x4",) * 2
# c03's gap tolerances, by the larger alphabet of the instance
ORACLE_GAP_TOL = {3: 1e-6, 4: 1e-4}


def _check_oracle(j, px, py):
    def check(value) -> tuple[bool, str]:
        exact = engine.cmc_exact(j, px, py).value
        gap = exact - value
        tol = ORACLE_GAP_TOL[max(j.shape)]
        return -VALUE_TOL <= gap <= tol, _fmt(value)
    return check


def oracle_sweep(seed: int, workdir: str) -> Workload:
    """``grid_oracle`` at the acceptance configuration."""
    rng = np.random.default_rng(seed)
    cfg = oracle.OracleConfig(**ORACLE_CONFIG)
    rounds = []
    for _ in range(POOL_ROUNDS):
        ops = []
        for kind in ORACLE_ROUND:
            if kind in ORACLE_POSETS:
                j = _chain_pmf(rng, 3, 4)
                px = order.poset_from_pairs(j.x_labels, ORACLE_POSETS[kind])
            else:
                j = _chain_pmf(rng, int(kind[0]), int(kind[2]))
                px = order.total_order(j.x_labels)
            py = order.total_order(j.y_labels)
            ops.append(Op(
                kind=kind,
                call=lambda j=j, px=px, py=py: oracle.grid_oracle(
                    j, px, py, cfg),
                check=_check_oracle(j, px, py),
            ))
        rounds.append(ops)
    return Workload("oracle", 75, rounds)


# ---------------------------------------------------------------- cli-small

def _order_spec(kind: str, k: int):
    if kind in ("total", "antichain"):
        return kind
    if kind == "reversed":
        return {"pairs": [[i + 1, i] for i in range(k - 1)]}
    if kind == "vee":                      # 0 below 1 and 2
        return {"pairs": [[0, 1], [0, 2]]}
    if kind == "diamond":                  # the 2-bit hypercube
        return {"pairs": [[0, 1], [0, 2], [1, 3], [2, 3]]}
    raise ValueError(kind)


CLI_FILES = (  # (m, n, X order, Y order) per compute op of a round
    (2, 2, "total", "total"), (2, 2, "total", "reversed"),
    (2, 2, "antichain", "total"), (2, 3, "total", "total"),
    (2, 3, "total", "reversed"), (3, 2, "reversed", "total"),
    (3, 3, "total", "antichain"), (3, 3, "total", "total"),
    (3, 3, "total", "reversed"), (3, 3, "reversed", "total"),
    (3, 3, "antichain", "total"), (3, 3, "vee", "total"),
    (3, 3, "vee", "reversed"), (3, 4, "total", "diamond"),
    (4, 3, "antichain", "reversed"), (4, 3, "diamond", "total"),
    (4, 4, "total", "total"), (4, 4, "diamond", "diamond"),
)
CLI_SUITES = (  # (suite, trials, extra argv)
    ("sandwich", 24, ()),
    ("rank-dominance", 24, ()),
    ("tensorization", 8, ()),
    ("fkg", 12, ("--n", "2")),
    ("mgf", 12, ()),
    ("independence", 12, ()),
)


def _run_cli(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def _check_compute(out_path: str):
    def check(code) -> tuple[bool, str]:
        if code != 0:
            return False, f"exit {code}"
        with open(out_path, encoding="utf-8") as fh:
            doc = json.load(fh)
        cmc = doc["measures"]["cmc"]
        values = [m["value"] for m in doc["measures"].values()]
        ok = all(v is not None and math.isfinite(v)
                 and abs(v) <= 1.0 + VALUE_TOL for v in values)
        return ok, _fmt(cmc["value"]) + _face(cmc["diagnostics"])
    return check


def _check_verify(out_path: str):
    def check(code) -> tuple[bool, str]:
        if code != 0:
            return False, f"exit {code}"
        with open(out_path, encoding="utf-8") as fh:
            doc = json.load(fh)
        return doc["pass"] is True, doc["suite"] + _fmt(doc["max_violation"])
    return check


def cli_small(seed: int, workdir: str) -> Workload:
    """``cmcorr.cli.main`` in-process: compute on small files, then verify."""
    rng = np.random.default_rng(seed)
    rounds = []
    n_out = 0
    for r in range(CLI_POOL_ROUNDS):
        ops = []
        for slot, (m, n, ox, oy) in enumerate(CLI_FILES):
            p = rng.dirichlet(np.ones(m * n)).reshape(m, n)
            doc = {
                "x": {"labels": [f"x{i}" for i in range(m)],
                      "values": list(range(m)), "order": _order_spec(ox, m)},
                "y": {"labels": [f"y{i}" for i in range(n)],
                      "values": list(range(n)), "order": _order_spec(oy, n)},
                "pmf": p.tolist(),
            }
            path = os.path.join(workdir, f"in_{r}_{slot}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(doc))
            out = os.path.join(workdir, f"out_{n_out}.json")
            n_out += 1
            argv = ["compute", path, "--measure", "all", "--out", out]
            ops.append(Op(kind=f"compute-{m}x{n}-{ox}-{oy}",
                          call=lambda argv=argv: _run_cli(argv),
                          check=_check_compute(out)))
        for suite, trials, extra in CLI_SUITES:
            out = os.path.join(workdir, f"out_{n_out}.json")
            n_out += 1
            argv = ["verify", suite, "--seed", str(int(rng.integers(2**31))),
                    "--trials", str(trials), *extra, "--out", out]
            ops.append(Op(kind=f"verify-{suite}",
                          call=lambda argv=argv: _run_cli(argv),
                          check=_check_verify(out)))
        rounds.append(ops)
    return Workload("cli-small", 96, rounds)


WORKLOADS = {
    "chains": chains,
    "oracle": oracle_sweep,
    "cli-small": cli_small,
}
