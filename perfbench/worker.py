"""Runs one workload in a fresh process; started by ``run.py``.

Protocol: after set-up (interpreter start, ``import cmcorr``, input
generation) the worker prints ``READY`` and starts the first op at once;
with ``--setup-only`` it exits there.  When done it prints one JSON line.

The timed loop is closed: one client, and the next op starts only after
the previous one returns.  It runs whole rounds until ``--seconds`` have
passed, so every run does the same mix of work.  With ``--trace 1`` the
loop runs untraced for half the time, then runs the same rounds again with
the layer tracer installed.  Output checks run after each timed pass.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback

# The result digest covers the ops of the first rounds, which every run
# completes, so runs of different lengths can be compared.
DIGEST_ROUNDS = 2


def _import_package(root: str) -> None:
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "cmcorr", "__init__.py")):
        sys.exit(f"perfbench: no cmcorr package under {src}")
    sys.path.insert(0, src)
    import cmcorr
    if not os.path.abspath(cmcorr.__file__).startswith(src + os.sep):
        sys.exit(f"perfbench: cmcorr imported from {cmcorr.__file__}")


def _run_pass(workload, rounds: range | None, seconds: float):
    """Run whole rounds; either the given ones or until ``seconds`` pass."""
    outcomes = []      # (round, op, latency_s, result or None)
    start = time.perf_counter()
    deadline = start + seconds
    r = 0
    while (r < len(rounds)) if rounds is not None else \
            (r == 0 or time.perf_counter() < deadline):
        for op in workload.ops(r):
            t0 = time.perf_counter()
            try:
                result = op.call()
            except Exception:  # an op that raises counts as failed
                latency = time.perf_counter() - t0
                traceback.print_exc(file=sys.stderr)
                result = None
            else:
                latency = time.perf_counter() - t0
            outcomes.append((r, op, latency, result))
        r += 1
    return outcomes, time.perf_counter() - start, r


def _check(outcomes):
    """Failed count, and digests of the first rounds and of all rounds."""
    failed = 0
    digest = hashlib.sha256()
    prefix = None
    for r, op, _, result in outcomes:
        if r == DIGEST_ROUNDS and prefix is None:
            prefix = digest.copy()
        ok, token = False, "raised"
        if result is not None:
            try:
                ok, token = op.check(result)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                ok, token = False, "check raised"
        failed += not ok
        digest.update(f"{op.kind}:{token}\n".encode())
    prefix = prefix or digest
    return failed, prefix.hexdigest()[:16], digest.hexdigest()[:16]


def _latency_summary(latencies: list[float], tail_pct: int) -> dict:
    ordered = sorted(latencies)
    rank = max(1, math.ceil(tail_pct / 100 * len(ordered)))  # nearest rank
    return {
        "latency_p50_ms": statistics.median(ordered) * 1e3,
        "latency_tail_ms": ordered[rank - 1] * 1e3,
        "tail_pct": tail_pct,
        "tail_beyond": len(ordered) - rank,
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    _import_package(args.root)
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    import numpy
    out: dict = {"workload": workload.name, "numpy": numpy.__version__}
    if not args.trace:
        outcomes, wall, rounds = _run_pass(workload, None, args.seconds)
        out["peak_rss_mb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        failed, digest, _ = _check(outcomes)
        out.update(_latency_summary([o[2] for o in outcomes],
                                    workload.tail_pct))
        out.update(ops=len(outcomes), failed=failed, rounds=rounds,
                   wall_s=wall, ops_per_s=len(outcomes) / wall,
                   result_digest=digest)
    else:
        from tracer import Tracer
        plain, plain_wall, rounds = _run_pass(workload, None,
                                              args.seconds / 2)
        plain_failed, digest, plain_all = _check(plain)
        tracer = Tracer()
        tracer.install()
        try:
            traced, traced_wall, _ = _run_pass(workload, range(rounds), 0.0)
        finally:
            tracer.uninstall()
        traced_failed, _, traced_all = _check(traced)
        mismatch = plain_all != traced_all
        out.update(
            ops=len(plain) + len(traced),
            failed=plain_failed + traced_failed + mismatch * len(traced),
            rounds=rounds,
            result_digest=digest, untraced_pass_digest=plain_all,
            traced_pass_digest=traced_all,
            layers=tracer.metrics(len(traced), sum(o[2] for o in traced),
                                  plain_wall, traced_wall),
        )
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
