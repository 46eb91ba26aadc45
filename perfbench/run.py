"""cmcorr benchmark: seeded closed-loop workloads with checked outputs.

Usage (from the repository root)::

    python3 perfbench/run.py --workload chains --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py            # every workload, one after another

Each workload runs in its own fresh worker process (``worker.py``) with one
BLAS thread, so ``setup_s`` and ``peak_rss_mb`` belong to that workload.
``setup_s`` is the time from spawning a worker to its first op: interpreter
start, ``import cmcorr`` and input generation.  It is measured on the
measuring worker and on ``SETUP_PROBES`` extra workers that stop after
set-up, and the median is reported.

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced pass (see ``tracer.py``).  Lines before it give every metric with
its unit, the tail percentile used, the failure fraction, the result digest
and the environment.  The exit code is 0 only when the run completed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

from tracer import METRICS as LAYER_METRICS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("chains", "oracle", "cli-small")
SETUP_PROBES = 6
WORKLOAD_TIMEOUT_S = 170.0  # all workers of one workload together
END_TO_END = (  # (name, unit)
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


class BenchError(RuntimeError):
    pass


def _environment() -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "cpu": model}


def _worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("PYTHONPATH", None)
    return env


def _start_worker(args, workdir: str, setup_only: bool, deadline: float):
    """Spawn a worker, time it to READY and wait; return (out, setup_s)."""
    os.makedirs(workdir)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--root", ROOT, "--workdir", workdir,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_worker_env(),
                            stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(0.0, deadline - start), proc.kill)
    timer.start()
    try:
        line = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        if line.strip() != "READY":
            raise BenchError(f"worker did not start: {line!r}")
        out, _ = proc.communicate()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return out, setup_s


def run_workload(args, workdir: str) -> dict:
    """Probes before and after the measuring worker spread the set-up
    samples over the run, so one slow moment of the host moves few."""
    deadline = time.perf_counter() + WORKLOAD_TIMEOUT_S

    def probe(k: int) -> float:
        return _start_worker(args, os.path.join(workdir, f"probe{k}"),
                             True, deadline)[1]

    probes = 0 if args.trace else SETUP_PROBES  # a traced run has no setup_s
    setups = [probe(k) for k in range(probes // 2)]
    out, setup_s = _start_worker(args, os.path.join(workdir, "run"),
                                 False, deadline)
    setups.append(setup_s)
    setups += [probe(k) for k in range(probes // 2, probes)]
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    result = json.loads(lines[-1])
    result["setup_s"] = statistics.median(setups)
    return result


def _report(args, result: dict) -> dict:
    """Print the human-readable lines; return the contract's result object."""
    name, ops, failed = result["workload"], result["ops"], result["failed"]
    print(f"{name} ops_attempted {ops}")
    print(f"{name} failed_frac {failed / ops} ({failed}/{ops})")
    print(f"{name} result_digest {result['result_digest']}")
    if args.trace:
        print(f"{name} traced_pass_digest {result['traced_pass_digest']} "
              f"untraced_pass_digest {result['untraced_pass_digest']}")
        metrics = result["layers"]
        absent = [key for key, _ in LAYER_METRICS if key not in metrics]
        if absent:
            print(f"{name} absent_layer_metrics {' '.join(absent)}")
    else:
        metrics = {key: {"value": result[key], "unit": unit}
                   for key, unit in END_TO_END}
    for key, m in metrics.items():
        extra = ""
        if key == "latency_tail_ms":
            extra = (f" (p{result['tail_pct']}, {result['tail_beyond']} "
                     f"of {ops} ops beyond)")
        print(f"{name} {key} {m['value']:.6g} {m['unit']}{extra}")
    return {"correct": failed == 0, "attempted": ops, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "cmcorr", "__init__.py")):
        print("perfbench: run from a checkout that holds src/cmcorr",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        workdir = os.path.join(ROOT, ".perfbench_work",
                               f"{name}-{os.getpid()}")
        try:
            results.append(run_workload(
                argparse.Namespace(**{**vars(args), "workload": name}),
                workdir))
        except BenchError as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 1
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
            with contextlib.suppress(OSError):
                os.rmdir(os.path.dirname(workdir))
    env = _environment()
    env["numpy"] = results[0]["numpy"]
    print(f"perfbench env {json.dumps(env)}")
    summaries = [_report(args, r) for r in results]
    if len(summaries) == 1:
        print(json.dumps(summaries[0]))
    else:
        print(json.dumps({
            "correct": all(s["correct"] for s in summaries),
            "attempted": sum(s["attempted"] for s in summaries),
            "failed": sum(s["failed"] for s in summaries),
            "metrics": {f"{r['workload']}.{k}": v
                        for r, s in zip(results, summaries)
                        for k, v in s["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
