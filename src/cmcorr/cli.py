"""Command-line front end: ingest instances, run measures, verify properties.

Instance files are JSON documents::

    {
      "x": {"labels": [...], "values": [...], "order": "total"},
      "y": {"labels": [...], "order": {"pairs": [[0, 1], ...]}},
      "pmf": [[...], ...]
    }

Order specs are "total" (chain in listed index order, the default),
"antichain", or an explicit strict-pair list.  Reports are stable JSON:
the same input and flags produce byte-identical output (volatile fields
such as runtimes are excluded).

Exit codes: 0 success, 1 input or validation error, 2 numerical failure,
3 property violation.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import harness
from .classic import kendall_tau_b, pearson, spearman
from .dist import JointPmf, empirical_from_samples
from .engine import (
    CmcOptions,
    cmc_exact,
    cmc_with_x_reversed,
    default_mgf_grid,
)
from .errors import InputError, NumericalFailure
from .maxcorr import maximal_correlation
from .oracle import OracleConfig, grid_oracle
from .order import Poset, antichain, poset_from_pairs, total_order

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NUMERIC = 2
EXIT_VIOLATION = 3

MEASURES = ("cmc", "cmc_plus", "cmc_xrev", "maxcorr", "pearson",
            "spearman", "kendall", "all")
SUITES = ("sandwich", "rank-dominance", "tensorization", "fkg", "mgf",
          "independence", "example3")


def _list_of(name: str, items, ok, what: str) -> list:
    """``items``, when it is a list whose entries all pass ``ok``."""
    if not isinstance(items, list) or not all(map(ok, items)):
        raise InputError(f"{name} must be a list of {what}")
    return items


def _is_number(v) -> bool:
    return isinstance(v, (int, float))


def _is_pair(pair) -> bool:
    """Two integer indices; a float must be integral."""
    return isinstance(pair, list) and len(pair) == 2 and all(
        isinstance(i, int) or isinstance(i, float) and i.is_integer()
        for i in pair)


def _parse_order(spec, labels) -> Poset:
    if spec is None or spec == "total":
        return total_order(labels)
    if spec == "antichain":
        return antichain(labels)
    if isinstance(spec, dict) and "pairs" in spec:
        pairs = _list_of("order pairs", spec["pairs"], _is_pair,
                         "[i, j] pairs of integer indices")
        return poset_from_pairs(labels, [(int(i), int(j)) for i, j in pairs])
    raise InputError(f"unrecognized order spec {spec!r}")


def _side(doc: dict, side: str) -> dict:
    """One side's spec, its labels and values checked.  The reports key
    witnesses by label, so a side's labels are all strings or all finite
    numbers: distinct labels then stay distinct as JSON keys, and sort."""
    spec = doc.get(side)
    if not isinstance(spec, dict) or "labels" not in spec:
        raise InputError(f"instance file must define {side}.labels")
    labels = spec["labels"]
    if not (isinstance(labels, list)
            and all(isinstance(v, str) for v in labels)):
        _list_of(f"{side}.labels", labels, lambda v: isinstance(v, int)
                 or isinstance(v, float) and math.isfinite(v),
                 "strings or a list of finite numbers")
    if spec.get("values") is not None:
        _list_of(f"{side}.values", spec["values"], _is_number, "numbers")
    return spec


def load_instance(path: str) -> tuple[JointPmf, Poset, Poset]:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise InputError("instance file must hold a JSON object")
    x, y = _side(doc, "x"), _side(doc, "y")
    if "pmf" not in doc:
        raise InputError("instance file must define pmf")
    pmf = _list_of("pmf", doc["pmf"], lambda row: isinstance(row, list)
                   and all(map(_is_number, row)), "rows of numbers")
    j = JointPmf(
        x_labels=tuple(x["labels"]),
        y_labels=tuple(y["labels"]),
        p=np.asarray(pmf, dtype=float),
        x_values=x.get("values"),
        y_values=y.get("values"),
    )
    px = _parse_order(x.get("order"), j.x_labels)
    py = _parse_order(y.get("order"), j.y_labels)
    return j, px, py


def _write_out(doc: dict, out_path: str | None) -> None:
    text = json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"
    if out_path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(out_path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, out_path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


_VOLATILE_KEYS = ("runtime_seconds",)


def _stable_diagnostics(diag: dict) -> dict:
    # tuples, such as the winning partitions, are written as JSON arrays
    return {key: val for key, val in diag.items()
            if key not in _VOLATILE_KEYS}


def _witness_doc(j: JointPmf, witness) -> dict:
    return {
        "f": {label: witness.f[i] for i, label in enumerate(j.x_labels)},
        "g": {label: witness.g[i] for i, label in enumerate(j.y_labels)},
    }


def _report_entry(j, report) -> dict:
    entry: dict = {"diagnostics": _stable_diagnostics(report.diagnostics)}
    entry["value"] = None if math.isnan(report.value) else report.value
    if report.witness is not None:
        entry["witness"] = _witness_doc(j, report.witness)
    return entry


def cmd_compute(args) -> int:
    j, px, py = load_instance(args.input)
    opts = CmcOptions(mode=args.mode.replace("-", "_"))
    measures = (args.measure,)
    if args.measure == "all":  # every measure the file supports
        measures = tuple(m for m in MEASURES[:-1] if m != "pearson"
                         or None not in (j.x_values, j.y_values))
    # cmc, cmc_plus and cmc_xrev come from one solve
    cmc = xrev = None
    if "cmc_xrev" in measures:
        cmc, xrev = cmc_with_x_reversed(j, px, py, opts)
    elif {"cmc", "cmc_plus"} & set(measures):
        cmc = cmc_exact(j, px, py, opts)
    out: dict = {}
    for measure in measures:
        if measure == "cmc":
            out[measure] = _report_entry(j, cmc)
        elif measure == "cmc_plus":
            # as engine.cmc_plus: clipped at zero, and NaN stays NaN (null)
            value = None if math.isnan(cmc.value) else max(0.0, cmc.value)
            out[measure] = {"value": value}
        elif measure == "cmc_xrev":
            out[measure] = _report_entry(j, xrev)
        elif measure == "maxcorr":
            out[measure] = _report_entry(j, maximal_correlation(j))
        elif measure == "pearson":
            out[measure] = {"value": pearson(j)}
        elif measure == "spearman":
            out[measure] = {"value": spearman(j)}
        elif measure == "kendall":
            out[measure] = {"value": kendall_tau_b(j)}
    _write_out({
        "schema": "cmcorr.compute.v1",
        "input": args.input,
        "mode": args.mode,
        "measures": out,
    }, args.out)
    return EXIT_OK


def cmd_oracle(args) -> int:
    j, px, py = load_instance(args.input)
    cfg = OracleConfig(grid_step=args.step, refine_iters=args.refine_iters,
                       restart_count=args.restarts)
    oracle_value = grid_oracle(j, px, py, cfg)
    engine_value = cmc_exact(j, px, py).value
    _write_out({
        "schema": "cmcorr.oracle.v1",
        "input": args.input,
        "grid_step": args.step,
        "refine_iters": args.refine_iters,
        "restarts": args.restarts,
        "oracle": oracle_value,
        "engine": engine_value,
        "gap": engine_value - oracle_value,
    }, args.out)
    return EXIT_OK


def _parse_grid(text: str) -> list[tuple[float, float]]:
    scales = tuple(float(tok) for tok in text.split(",") if tok.strip())
    if not scales:
        raise InputError("empty mgf grid")
    return default_mgf_grid(scales)


def cmd_verify(args) -> int:
    # no trials certify nothing, and a negative count is no count at all
    if args.trials < 1:
        raise InputError(f"--trials must be at least 1, not {args.trials}")
    if args.suite == "fkg":
        rng = np.random.default_rng(args.seed)
        biases = rng.uniform(0.05, 0.95, size=(args.trials, args.n))
        report = harness.verify_fkg(args.n, biases.tolist())
    elif args.suite == "mgf":
        report = harness.verify_mgf(args.seed, args.trials,
                                    _parse_grid(args.grid))
    elif args.suite == "example3":
        report = harness.verify_example3()
    else:  # the suites that take only a seed and a trial count
        verify = getattr(harness, "verify_" + args.suite.replace("-", "_"))
        report = verify(args.seed, args.trials)
    print(report.summary())
    _write_out({
        "schema": "cmcorr.verify.v1",
        "suite": report.suite,
        "trials": report.trials,
        "seed": report.seed,
        "tolerance": report.tolerance,
        "max_violation": report.max_violation,
        "pass": report.passed,
        "worst_instance": report.worst_instance,
        "details": report.details,
    }, args.out)
    return EXIT_OK if report.passed else EXIT_VIOLATION


def cmd_from_samples(args) -> int:
    with open(args.input, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["x", "y"]:
            raise InputError('CSV must start with the header "x,y"')
        rows = []
        for row in filter(None, reader):  # blank lines are skipped
            if len(row) != 2:
                raise InputError(f"CSV line {reader.line_num}: expected 2 "
                                 f"fields (x,y), got {len(row)}")
            rows.append(row)
    j = empirical_from_samples(
        (float(x), float(y)) for x, y in rows
    )
    _write_out({
        "x": {"labels": list(j.x_labels), "values": list(j.x_values),
              "order": "total"},
        "y": {"labels": list(j.y_labels), "values": list(j.y_values),
              "order": "total"},
        "pmf": j.p.tolist(),
    }, args.out)
    return EXIT_OK


# One parser per process: parsing leaves it unchanged, and callers must not
# add to it.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cmcorr",
        description="Concordant monotone correlation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="run measures on an instance")
    p_compute.add_argument("input")
    p_compute.add_argument("--measure", choices=MEASURES, default="all")
    p_compute.add_argument("--mode",
                           choices=("paper-faithful", "extended"),
                           default="extended")
    p_compute.add_argument("--out", default=None)
    p_compute.set_defaults(func=cmd_compute)

    p_oracle = sub.add_parser("oracle", help="brute-force reference value")
    p_oracle.add_argument("input")
    p_oracle.add_argument("--step", type=float, default=0.05)
    p_oracle.add_argument("--refine-iters", type=int, default=25)
    p_oracle.add_argument("--restarts", type=int, default=3)
    p_oracle.add_argument("--out", default=None)
    p_oracle.set_defaults(func=cmd_oracle)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", choices=SUITES)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--trials", type=int, default=50)
    p_verify.add_argument("--n", type=int, default=2,
                          help="bit count for the fkg suite")
    p_verify.add_argument("--grid", default="0.25,0.5,1,2",
                          help="mgf scales; expands to all sign pairs")
    p_verify.add_argument("--out", default=None)
    p_verify.set_defaults(func=cmd_verify)

    p_samples = sub.add_parser("from-samples",
                               help="build an instance file from a CSV")
    p_samples.add_argument("input")
    p_samples.add_argument("--out", default=None)
    p_samples.set_defaults(func=cmd_from_samples)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; fold into the input-error code
        return EXIT_INPUT if exc.code else EXIT_OK
    try:
        return args.func(args)
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, OSError, KeyError, StopIteration) as exc:
        # InputError and json.JSONDecodeError are ValueErrors too
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entrypoint() -> None:  # console-script shim
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
