"""The traced benchmark's names must exist in the package.

``perfbench/tracer.py`` skips a target that is gone and drops the metrics
that depend on it, so a deletion or rename in the package would otherwise
show only in a traced benchmark run.  The tracer is read as source and
executed in a fresh namespace; nothing under ``perfbench/`` is imported as
a module or written.
"""

import importlib
import json
from pathlib import Path

import numpy as np
import pytest

from cmcorr.dist import joint_pmf
from cmcorr.engine import MODES, CmcOptions, cmc_exact
from cmcorr.order import reverse, total_order

ROOT = Path(__file__).resolve().parent.parent


def tracer():
    path = ROOT / "perfbench" / "tracer.py"
    namespace = {"__name__": "perfbench_tracer"}
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"),
         namespace)
    return namespace


@pytest.mark.parametrize("target", tracer()["TARGETS"],
                         ids=lambda t: f"{t[0]}.{t[1]}")
def test_target_is_callable(target):
    module, func = target[:2]
    assert callable(getattr(importlib.import_module(f"cmcorr.{module}"),
                            func, None))


def test_cmc_counters_in_every_report():
    # a report with a witness in each mode, and one without
    rng = np.random.default_rng(79)
    j = joint_pmf(rng.dirichlet(np.ones(9)).reshape(3, 3))
    px, py = total_order(j.x_labels), total_order(j.y_labels)
    diagonal = joint_pmf([[0.5, 0.0], [0.0, 0.5]])
    reports = [cmc_exact(j, px, py, CmcOptions(mode=mode)) for mode in MODES]
    reports.append(cmc_exact(diagonal, total_order(diagonal.x_labels),
                             reverse(total_order(diagonal.y_labels)),
                             CmcOptions(mode="paper_faithful")))
    assert reports[-1].diagnostics.get("no_witness")
    for report in reports:
        for metric, keys in tracer()["_CMC_COUNTERS"]:
            assert any(key in report.diagnostics for key in keys), metric


def test_declared_layer_metrics_are_traced():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = [m["name"] for m in json.load(fh)["per_layer"]]
    traced = {name for name, _ in tracer()["METRICS"]}
    assert [name for name in declared if name not in traced] == []
