import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cmcorr.cli import load_instance, main
from cmcorr.engine import CmcOptions, cmc_plus
from cmcorr.errors import NumericalFailure
from cmcorr.order import product, total_order

SRC = str(Path(__file__).resolve().parents[1] / "src")

DSBS_DOC = {
    "x": {"labels": ["0", "1"], "values": [0, 1], "order": "total"},
    "y": {"labels": ["0", "1"], "values": [0, 1], "order": "total"},
    "pmf": [[0.4, 0.1], [0.1, 0.4]],
}

DISCORDANT_DOC = {
    "x": {"labels": ["0", "1"], "values": [0, 1], "order": "total"},
    "y": {"labels": ["0", "1"], "values": [0, 1],
          "order": {"pairs": [[1, 0]]}},
    "pmf": [[0.5, 0.0], [0.0, 0.5]],
}


@pytest.fixture
def dsbs_path(tmp_path):
    path = tmp_path / "dsbs.json"
    path.write_text(json.dumps(DSBS_DOC))
    return str(path)


@pytest.fixture
def discordant_path(tmp_path):
    path = tmp_path / "discordant.json"
    path.write_text(json.dumps(DISCORDANT_DOC))
    return str(path)


class TestCompute:
    def test_all_measures_agree_on_dsbs(self, dsbs_path, tmp_path):
        out = tmp_path / "report.json"
        assert main(["compute", dsbs_path, "--measure", "all",
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        for name in ("pearson", "spearman", "kendall", "maxcorr", "cmc"):
            assert doc["measures"][name]["value"] == pytest.approx(
                0.6, abs=1e-9), name

    def test_discordant_extended(self, discordant_path, tmp_path):
        out = tmp_path / "r.json"
        assert main(["compute", discordant_path, "--measure", "cmc",
                     "--mode", "extended", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["measures"]["cmc"]["value"] == pytest.approx(-1.0,
                                                                abs=1e-9)
        witness = doc["measures"]["cmc"]["witness"]
        assert witness["f"]["0"] == pytest.approx(-1.0, abs=1e-8)
        assert witness["g"]["0"] == pytest.approx(1.0, abs=1e-8)

    def test_discordant_literal_mode_reports_null(self, discordant_path,
                                                  tmp_path):
        out = tmp_path / "r.json"
        assert main(["compute", discordant_path, "--measure", "cmc",
                     "--mode", "paper-faithful", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["measures"]["cmc"]["value"] is None
        assert doc["measures"]["cmc"]["diagnostics"]["no_witness"]

    def test_clipped_and_reversed_measures(self, discordant_path, dsbs_path,
                                           tmp_path):
        out = tmp_path / "p.json"
        assert main(["compute", discordant_path, "--measure", "cmc_plus",
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["measures"]["cmc_plus"][
            "value"] == 0.0
        assert main(["compute", dsbs_path, "--measure", "cmc_xrev",
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["measures"]["cmc_xrev"][
            "value"] == pytest.approx(-0.6, abs=1e-9)

    def test_malformed_pmf_exits_one(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "x": {"labels": ["a"]}, "y": {"labels": ["b"]},
            "pmf": [[0.5, 0.6]],
        }))
        assert main(["compute", str(path)]) == 1

    def test_missing_file_exits_one(self):
        assert main(["compute", "/nonexistent/instance.json"]) == 1

    def test_invalid_json_exits_one(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["compute", str(path)]) == 1

    def test_unknown_measure_exits_one(self, dsbs_path):
        assert main(["compute", dsbs_path, "--measure", "bogus"]) == 1

    def test_order_spec_defaults_to_total(self, tmp_path):
        doc = {
            "x": {"labels": ["0", "1"], "values": [0, 1]},
            "y": {"labels": ["0", "1"], "values": [0, 1]},
            "pmf": [[0.4, 0.1], [0.1, 0.4]],
        }
        path = tmp_path / "bare.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "r.json"
        assert main(["compute", str(path), "--measure", "cmc",
                     "--out", str(out)]) == 0
        got = json.loads(out.read_text())
        assert got["measures"]["cmc"]["value"] == pytest.approx(0.6,
                                                                abs=1e-9)

    def test_antichain_order_spec(self, tmp_path):
        doc = {
            "x": {"labels": ["0", "1"], "order": "antichain"},
            "y": {"labels": ["0", "1"], "order": "antichain"},
            "pmf": [[0.4, 0.1], [0.1, 0.4]],
        }
        path = tmp_path / "anti.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "r.json"
        assert main(["compute", str(path), "--measure", "cmc",
                     "--out", str(out)]) == 0
        got = json.loads(out.read_text())
        assert got["measures"]["cmc"]["value"] == pytest.approx(0.6,
                                                                abs=1e-9)

    def test_byte_identical_reports(self, dsbs_path, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        assert main(["compute", dsbs_path, "--out", str(out1)]) == 0
        assert main(["compute", dsbs_path, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_numerical_failure_exits_two(self, dsbs_path, monkeypatch):
        import cmcorr.cli as cli_mod

        def boom(*args, **kwargs):
            raise NumericalFailure("synthetic contract breach")

        monkeypatch.setattr(cli_mod, "cmc_exact", boom)
        assert main(["compute", dsbs_path, "--measure", "cmc"]) == 2

    def test_face_limit_exits_one(self, tmp_path, capsys):
        # 8-element hypercubes on both sides: 404 x 404 faces
        cube = product(product(total_order(["0", "1"]),
                               total_order(["0", "1"])),
                       total_order(["0", "1"]))
        side = {"labels": [str(i) for i in range(8)],
                "order": {"pairs": sorted(map(list, cube.strict_pairs))}}
        doc = {"x": side, "y": side,
               "pmf": np.full((8, 8), 1 / 64).tolist()}
        path = tmp_path / "cubes.json"
        path.write_text(json.dumps(doc))
        assert main(["compute", str(path), "--measure", "cmc"]) == 1
        assert "404 x 404 = 163216 faces exceed" in capsys.readouterr().err

    def test_long_chain_exits_one(self, tmp_path, capsys):
        labels = [str(i) for i in range(600)]
        doc = {"x": {"labels": labels, "order": "total"},
               "y": {"labels": ["0", "1"], "order": "total"},
               "pmf": np.full((600, 2), 1 / 1200).tolist()}
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(doc))
        assert main(["compute", str(path), "--measure", "cmc"]) == 1
        assert "600-element order has more than" in capsys.readouterr().err


    @pytest.mark.parametrize("mode", ["paper-faithful", "extended"])
    def test_all_matches_single_measures(self, tmp_path, mode):
        # cmc_plus comes from the cmc solve of the same run; in the
        # literal mode the discordant pair has no witness, so cmc and
        # cmc_plus are both null
        rng = np.random.default_rng(75)
        docs = [DSBS_DOC, DISCORDANT_DOC, {
            "x": {"labels": ["a", "b", "c"], "values": [0, 1, 2],
                  "order": {"pairs": [[0, 1], [0, 2]]}},
            "y": {"labels": ["u", "v", "w", "z"], "values": [0, 1, 2, 3],
                  "order": {"pairs": [[3, 2], [2, 1], [1, 0]]}},
            "pmf": rng.dirichlet(np.ones(12)).reshape(3, 4).tolist(),
        }]
        nulls = 0
        for k, doc in enumerate(docs):
            path = tmp_path / f"in{k}.json"
            path.write_text(json.dumps(doc))
            out = tmp_path / "all.json"
            assert main(["compute", str(path), "--mode", mode,
                         "--out", str(out)]) == 0
            got = out.read_text()
            single = {}
            for measure in json.loads(got)["measures"]:
                assert main(["compute", str(path), "--mode", mode,
                             "--measure", measure, "--out", str(out)]) == 0
                single.update(json.loads(out.read_text())["measures"])
            expected = {"schema": "cmcorr.compute.v1", "input": str(path),
                        "mode": mode, "measures": single}
            assert got == json.dumps(expected, sort_keys=True, indent=2,
                                     allow_nan=False) + "\n"
            # and cmc_plus is what the library function gives
            plus = cmc_plus(*load_instance(str(path)),
                            CmcOptions(mode=mode.replace("-", "_")))
            assert single["cmc_plus"]["value"] == \
                (None if math.isnan(plus) else plus)
            nulls += single["cmc_plus"]["value"] is None
        assert nulls == (mode == "paper-faithful")


class TestOracle:
    def test_dsbs_gap(self, dsbs_path, tmp_path):
        out = tmp_path / "o.json"
        assert main(["oracle", dsbs_path, "--step", "0.05",
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["oracle"] == pytest.approx(0.6, abs=1e-9)
        assert abs(doc["gap"]) <= 1e-9

    def test_discordant(self, discordant_path, tmp_path):
        out = tmp_path / "o.json"
        assert main(["oracle", discordant_path, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["oracle"] == pytest.approx(-1.0, abs=1e-9)
        assert doc["gap"] == pytest.approx(0.0, abs=1e-9)

    def test_six_by_six_exits_one(self, tmp_path):
        doc = {
            "x": {"labels": [str(i) for i in range(6)]},
            "y": {"labels": [str(i) for i in range(6)]},
            "pmf": np.full((6, 6), 1 / 36).tolist(),
        }
        path = tmp_path / "six.json"
        path.write_text(json.dumps(doc))
        assert main(["oracle", str(path)]) == 1


class TestVerify:
    def test_tensorization_passes(self, tmp_path):
        out = tmp_path / "v.json"
        assert main(["verify", "tensorization", "--seed", "42",
                     "--trials", "5", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["pass"] is True

    def test_fkg_with_n(self, tmp_path):
        assert main(["verify", "fkg", "--n", "2", "--trials", "3",
                     "--out", str(tmp_path / "v.json")]) == 0

    def test_example3(self, tmp_path):
        assert main(["verify", "example3",
                     "--out", str(tmp_path / "v.json")]) == 0

    def test_unknown_suite_exits_one(self):
        assert main(["verify", "unknown"]) == 1

    def test_violation_exits_three(self, tmp_path, monkeypatch):
        import cmcorr.cli as cli_mod
        from cmcorr.harness import VerifyReport

        def fail(seed, trials):
            return VerifyReport(suite="sandwich", trials=trials,
                                tolerance=1e-8, max_violation=1.0,
                                passed=False, seed=seed)

        monkeypatch.setattr(cli_mod.harness, "verify_sandwich", fail)
        assert main(["verify", "sandwich", "--trials", "1",
                     "--out", str(tmp_path / "v.json")]) == 3
        doc = json.loads((tmp_path / "v.json").read_text())
        assert doc["pass"] is False


class TestFromSamples:
    def test_round_trip(self, tmp_path):
        csv = tmp_path / "samples.csv"
        csv.write_text("x,y\n0,0\n0,1\n1,1\n1,1\n")
        inst = tmp_path / "inst.json"
        assert main(["from-samples", str(csv), "--out", str(inst)]) == 0
        doc = json.loads(inst.read_text())
        assert doc["pmf"] == [[0.25, 0.25], [0.0, 0.5]]
        out = tmp_path / "r.json"
        assert main(["compute", str(inst), "--out", str(out)]) == 0

    def test_diagonal(self, tmp_path):
        csv = tmp_path / "samples.csv"
        csv.write_text("x,y\n0,0\n1,1\n")
        inst = tmp_path / "inst.json"
        assert main(["from-samples", str(csv), "--out", str(inst)]) == 0
        doc = json.loads(inst.read_text())
        assert doc["pmf"] == [[0.5, 0.0], [0.0, 0.5]]

    def test_non_numeric_exits_one(self, tmp_path):
        csv = tmp_path / "samples.csv"
        csv.write_text("x,y\n0,zero\n")
        assert main(["from-samples", str(csv)]) == 1

    def test_empty_exits_one(self, tmp_path):
        csv = tmp_path / "samples.csv"
        csv.write_text("x,y\n")
        assert main(["from-samples", str(csv)]) == 1

    def test_wrong_header_exits_one(self, tmp_path):
        csv = tmp_path / "samples.csv"
        csv.write_text("a,b\n0,0\n")
        assert main(["from-samples", str(csv)]) == 1


class TestRepeatedCalls:
    """``main`` reuses one parser per process; back-to-back calls must
    behave as if each ran in a fresh process."""

    def test_matches_fresh_processes(self, dsbs_path, monkeypatch,
                                     capfdbinary):
        monkeypatch.setenv("COLUMNS", "80")     # argparse's usage width
        calls = [
            (["compute", dsbs_path, "--measure", "all"], 0),
            (["compute", dsbs_path, "--measure", "bogus"], 1),
            (["verify", "tensorization", "--seed", "3", "--trials", "2"], 0),
            (["oracle", dsbs_path, "--step", "0.1"], 0),
        ]
        path = filter(None, [SRC, os.environ.get("PYTHONPATH")])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
        script = ("import sys; from cmcorr.cli import main; "
                  "sys.exit(main(sys.argv[1:]))")
        fresh = []
        for argv, code in calls:
            proc = subprocess.run([sys.executable, "-c", script, *argv],
                                  capture_output=True, env=env, check=False)
            assert proc.returncode == code, proc.stderr
            fresh.append((proc.returncode, proc.stdout, proc.stderr))
        capfdbinary.readouterr()
        for _ in range(2):
            for (argv, _), expected in zip(calls, fresh):
                code = main(argv)
                out, err = capfdbinary.readouterr()
                assert (code, out, err) == expected, argv
