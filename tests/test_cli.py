import copy
import csv
import datetime
import functools
import json
import math
import operator
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from parcornet import analytics, cli, selection
from parcornet.em import EMConfig
from parcornet.errors import ParcornetError, SelectionError
from parcornet.elastic_net import PenaltyConfig
from parcornet.matrices import Dataset, PartialCorrelationMatrix
from parcornet.pipeline import PriceTable, simulate_ar_garch
from parcornet.selection import build_grid, select


def write_json(path, obj):
    path.write_text(json.dumps(obj) + "\n")
    return str(path)


def write_data_csv(path, x, names):
    np.savetxt(path, x, fmt="%.17g", delimiter=",", header=",".join(names), comments="")
    return str(path)


def read_csv_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def star_network(weight=0.3):
    return {
        "p": 5,
        "nodes": ["hub", "a", "b", "c", "d"],
        "edges": [{"i": 1, "j": k, "weight": weight} for k in range(2, 6)],
        "lambda": 0.1,
        "bic": 0.0,
    }


SMOKE_MANIFEST = {
    "seed": 5,
    "p": 10,
    "topologies": ["scale-free"],
    "distributions": [{"kind": "normal"}],
    "sample_sizes": [200],
    "runs": 1,
    "modes": ["gaussian", "t"],
    "alphas": [0.5],
    "lambda": {"lo": 0.1, "hi": 1.0, "count": 5},
}


class TestSimulate:
    def test_smoke_one_row_per_estimator(self, tmp_path):
        man = write_json(tmp_path / "man.json", SMOKE_MANIFEST)
        out = tmp_path / "out"
        assert cli.main(["simulate", man, "--out", str(out)]) == 0
        rows = read_csv_rows(out / "metrics.csv")
        assert [r["estimator"] for r in rows] == ["gaussian", "t"]
        for r in rows:
            assert r["failed"] == "0" and r["error"] == ""
            assert np.isfinite(float(r["f1"])) and np.isfinite(float(r["fdr"]))
            assert np.isfinite(float(r["frobenius"]))
            assert int(r["edges"]) == int(r["tp"]) + int(r["fp"])
        summary = json.loads((out / "summary.json").read_text())
        assert summary["rows"] == 2
        assert summary["manifest"]["seed"] == 5
        assert all("median_f1" in a for a in summary["aggregates"])

    def test_identical_seed_identical_bytes(self, tmp_path):
        man = write_json(tmp_path / "man.json", SMOKE_MANIFEST)
        assert cli.main(["simulate", man, "--out", str(tmp_path / "a")]) == 0
        assert cli.main(["simulate", man, "--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a/metrics.csv").read_bytes() == (tmp_path / "b/metrics.csv").read_bytes()

    def test_seed_override_changes_data(self, tmp_path):
        man = write_json(tmp_path / "man.json", SMOKE_MANIFEST)
        assert cli.main(["simulate", man, "--out", str(tmp_path / "a")]) == 0
        assert cli.main(["simulate", man, "--seed", "77", "--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a/metrics.csv").read_text() != (tmp_path / "b/metrics.csv").read_text()

    def test_threads_capped_at_cell_count(self, tmp_path, monkeypatch):
        started = []

        class Pool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize):
                return map(fn, items)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", Pool)
        monkeypatch.setattr(cli, "_simulate_cell", lambda manifest, cell: [])
        man = write_json(tmp_path / "man.json", {**SMOKE_MANIFEST, "runs": 3})
        assert cli.main(["simulate", man, "--threads", "64", "--out", str(tmp_path / "a")]) == 0
        one = write_json(tmp_path / "one.json", SMOKE_MANIFEST)
        assert cli.main(["simulate", one, "--threads", "64", "--out", str(tmp_path / "b")]) == 0
        assert started == [3]

    def test_unknown_manifest_key_rejected(self, tmp_path):
        man = write_json(tmp_path / "man.json", {**SMOKE_MANIFEST, "typo_key": 1})
        assert cli.main(["simulate", man, "--out", str(tmp_path / "out")]) == 2

    def test_bad_grid_rejected(self, tmp_path):
        bad = {**SMOKE_MANIFEST, "lambda": {"lo": 2.0, "hi": 1.0, "count": 5}}
        man = write_json(tmp_path / "man.json", bad)
        assert cli.main(["simulate", man, "--out", str(tmp_path / "out")]) == 2

    def test_missing_manifest(self, tmp_path):
        assert cli.main(["simulate", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("change, named", [
        ({"topologies": ["random", {"kind": "scale-free", "hubs": 3}]},
         "topologies[1] ('scale-free'): unknown field 'hubs'"),
        ({"topologies": [{"kind": "band", "seed": 3}]}, "topologies[0] ('band'): unknown field 'seed'"),
        ({"distributions": [{"kind": "t", "df": 4}]}, "distributions[0] ('t'): unknown field 'df'"),
        ({"sample_sizes": [200, "abc"]}, "sample_sizes[1] must be an integer >= 2, got 'abc'"),
        ({"sample_sizes": [2.7]}, "sample_sizes[0] must be an integer >= 2, got 2.7"),
        ({"runs": True}, "runs must be a positive integer, got True"),
        ({"topologies": [{"p": 10}]}, "topologies[0]: missing field 'kind'"),
        ({"topologies": ["band", {"kind": "random", "p": "ten"}]},
         "topologies[1] ('random'): field 'p' must be an integer, got 'ten'"),
        ({"distributions": ["normal", 5]}, "distributions[1] must be a kind name or an object, got 5"),
        ({"v": "x"}, "topologies[0] ('scale-free'): field 'v' must be a number, got 'x'"),
        ({"topologies": ["band", "random", "band"]}, "topologies: label 'band' appears twice"),
        ({"distributions": [{"kind": "t", "nu": 3}, {"kind": "t", "nu": 3.0}]},
         "distributions: label 't3' appears twice"),
        ({"modes": ["gaussian", "laplace"]},
         "modes: estimator mode must be one of ('gaussian', 't'), got 'laplace'"),
        ({"lambda": {"lo": 0.1, "hi": 1.0, "steps": 5}}, "lambda: unknown grid keys ['steps']"),
    ])
    def test_malformed_manifest_names_entry_and_field_exit_2(self, tmp_path, capsys, change,
                                                             named):
        man = write_json(tmp_path / "man.json", {**SMOKE_MANIFEST, **change})
        assert cli.main(["simulate", man, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert named in err
        assert "bad input" not in err

    @pytest.mark.parametrize("change, named", [
        ({"seed": 1.5}, "seed must be a non-negative integer, got 1.5"),
        ({"lambda": {"lo": 0.01, "hi": 1.5, "count": 2.5}}, "grid count must be an integer, got 2.5"),
        ({"lambda": {"lo": "x", "hi": 1.5, "count": 3}}, "lambda: field 'lo' must be a number, got 'x'"),
        ({"lambda": {"lo": 0.01, "hi": "x", "count": 3}}, "lambda: field 'hi' must be a number, got 'x'"),
        ({"alphas": [0.5, "x"]}, "alphas[1]: field 'alpha' must be a number, got 'x'"),
        ({"nu": "x"}, "manifest: field 'nu' must be a number, got 'x'"),
        ({"delta": "x"}, "manifest: field 'delta' must be a number, got 'x'"),
        ({"max_iter": "x"}, "manifest: field 'max_iter' must be an integer, got 'x'"),
        ({"alphas": [1.5]}, "alpha must be in [0, 1], got 1.5"),
        ({"modes": "gaussian"}, "modes must be a list, got 'gaussian'"),
        ({"distributions": "normal"}, "distributions must be a list, got 'normal'"),
        ({"topologies": 5}, "topologies must be a list, got 5"),
        ({"sample_sizes": 60}, "sample_sizes must be a list, got 60"),
        ({"alphas": 0.5}, "alphas must be a list, got 0.5"),
        ({"lambda": 5}, "lambda must be an object, got 5"),
    ])
    def test_mistyped_manifest_value_names_field_before_any_cell_exit_2(
            self, tmp_path, capsys, monkeypatch, change, named):
        monkeypatch.setattr(cli, "_simulate_cell", lambda *args: pytest.fail("a cell ran"))
        man = write_json(tmp_path / "man.json", {**SMOKE_MANIFEST, **change})
        assert cli.main(["simulate", man, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert named in err
        assert "bad input" not in err

    @pytest.mark.parametrize("manifest, flags, named", [
        (5, [], "manifest must be a JSON object, got int"),
        ({**SMOKE_MANIFEST, "topologies": [{"kind": "band", "label": ["x"]}]}, [],
         "topologies[0]: field 'label' must be a string, got ['x']"),
        (SMOKE_MANIFEST, ["--seed", "-1"], "--seed must be a non-negative integer, got -1"),
        # above sys.maxsize: rejected before anything the size of runs is built
        ({**SMOKE_MANIFEST, "runs": 10**30}, [], f"runs must be at most {sys.maxsize}, got {10**30}"),
        (SMOKE_MANIFEST, ["--threads", "0"], "--threads must be a positive integer, got 0"),
        (SMOKE_MANIFEST, ["--threads", "-3"], "--threads must be a positive integer, got -3"),
    ])
    def test_bad_manifest_or_seed_names_field_before_any_cell_exit_2(
            self, tmp_path, capsys, monkeypatch, manifest, flags, named):
        monkeypatch.setattr(cli, "_simulate_cell", lambda *args: pytest.fail("a cell ran"))
        man = write_json(tmp_path / "man.json", manifest)
        assert cli.main(["simulate", man, *flags, "--out", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()
        err = capsys.readouterr().err
        assert named in err
        assert "bad input" not in err

    def test_manifest_syntax_error_names_line_and_column_exit_2(self, tmp_path, capsys):
        man = tmp_path / "man.json"
        man.write_text('{\n  "seed": 5,\n  "runs": 1,\n}\n')
        assert cli.main(["simulate", str(man), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"error: {man}: line 4 column 1: Expecting property name" in err
        assert "bad input" not in err


class TestEstimate:
    @staticmethod
    def _correlated_csv(tmp_path, seed=4):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(400)
        y = x + 0.4 * rng.standard_normal(400)
        return write_data_csv(tmp_path / "data.csv", np.column_stack([x, y]), ("x", "y"))

    def test_two_correlated_columns_one_positive_edge(self, tmp_path):
        data = self._correlated_csv(tmp_path)
        out = tmp_path / "net.json"
        rc = cli.main(["estimate", data, "--mode", "gaussian", "--out", str(out)])
        assert rc == 0
        net = json.loads(out.read_text())
        assert net["p"] == 2 and net["nodes"] == ["x", "y"]
        assert len(net["edges"]) == 1
        edge = net["edges"][0]
        assert (edge["i"], edge["j"]) == (1, 2) and edge["weight"] > 0
        assert net["em_converged"] is True
        assert len(net["bic_table"]) == 20
        # a lambda has a BIC when fitted and a bic_bound when skipped
        assert all((r["bic"] is None) == (r["bic_bound"] is not None) for r in net["bic_table"])

    def test_nu_required_only_in_t_mode(self, tmp_path):
        data = self._correlated_csv(tmp_path)
        assert cli.main(["estimate", data, "--mode", "t", "--out", str(tmp_path / "o.json")]) == 2
        assert cli.main(["estimate", data, "--mode", "t", "--nu", "4",
                         "--out", str(tmp_path / "o.json")]) == 0
        assert cli.main(["estimate", data, "--mode", "gaussian",
                         "--out", str(tmp_path / "o2.json")]) == 0

    def test_t_mode_with_fewer_rows_than_columns(self, tmp_path):
        rng = np.random.default_rng(0)
        names = tuple(f"x{k}" for k in range(12))
        data = write_data_csv(tmp_path / "wide.csv", rng.standard_normal((8, 12)), names)
        out = tmp_path / "net.json"
        assert cli.main(["estimate", data, "--mode", "t", "--nu", "3", "--lambda-count", "3",
                         "--lambda-lo", "0.3", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["nodes"] == list(names)

    def test_independent_noise_mostly_empty(self, tmp_path):
        # Monte Carlo through the same selection path the command runs
        grid = build_grid(0.01, 1.5, 20)
        cfg = EMConfig(PenaltyConfig(0.5, grid.lo), mode="gaussian")
        empty = 0
        for s in range(100):
            rng = np.random.default_rng(2000 + s)
            rep = select(Dataset(rng.standard_normal((500, 4))), grid, cfg)
            empty += not rep.state.edges.pairs
        assert empty >= 95
        # and once through the actual command
        rng = np.random.default_rng(2000)
        path = write_data_csv(tmp_path / "noise.csv", rng.standard_normal((500, 4)),
                              ("x1", "x2", "x3", "x4"))
        out = tmp_path / "net.json"
        assert cli.main(["estimate", path, "--mode", "gaussian", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["edges"] == []

    @pytest.mark.parametrize("text, named", [
        ("x,y\n1.0,oops\n2.0,3.0\n", "data row 1, column 'y': 'oops' is not a number"),
        ("1.0,2.0\n3.0,x\n", "data row 2, column 2: 'x' is not a number"),
        ("x,y\n1.0,2.0\n3.0\n", "data row 2: 1 cells for 2 columns"),
        ("a,a,b\n1,2,3\n4,5,6\n", "column name 'a' appears twice"),
    ])
    def test_bad_data_cell_names_row_and_column_exit_2(self, tmp_path, capsys, text, named):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        assert cli.main(["estimate", str(path), "--mode", "gaussian",
                         "--out", str(tmp_path / "o.json")]) == 2
        err = capsys.readouterr().err
        assert named in err
        assert "bad input" not in err

    @pytest.mark.parametrize("mode", [["--mode", "gaussian"], ["--mode", "t", "--nu", "3"]])
    def test_constant_column_exit_2(self, tmp_path, capsys, mode):
        x = np.random.default_rng(5).standard_normal((100, 3))
        x[:, 1] = 1.0
        path = write_data_csv(tmp_path / "flat.csv", x, ("a", "b", "c"))
        assert cli.main(["estimate", path, *mode, "--out", str(tmp_path / "o.json")]) == 2
        assert "column 'b' has zero variance" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", [["--mode", "gaussian"], ["--mode", "t", "--nu", "3"]])
    def test_column_out_of_float_range_exit_2(self, tmp_path, capsys, mode):
        x = np.random.default_rng(5).standard_normal((100, 3))
        x[:, 2] *= 1e200
        path = write_data_csv(tmp_path / "huge.csv", x, ("a", "b", "c"))
        assert cli.main(["estimate", path, *mode, "--out", str(tmp_path / "o.json")]) == 2
        assert "column 'c' is out of floating-point range" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", [["--mode", "gaussian"], ["--mode", "t", "--nu", "3"]])
    def test_every_lambda_failing_names_the_first_exit_3(self, tmp_path, capsys, mode):
        # no pair is collinear, so check_columns passes, but the scatter is singular
        x = np.random.default_rng(6).integers(-5, 6, size=(60, 3)).astype(float)
        x = np.column_stack([x, x[:, 0] + x[:, 1] - x[:, 2]])
        path = write_data_csv(tmp_path / "sum.csv", x, ("a", "b", "c", "d"))
        assert cli.main(["estimate", path, *mode, "--out", str(tmp_path / "o.json")]) == 3
        err = capsys.readouterr().err
        assert ("error: no lambda value produced a fit; lambda 0.01 failed with: "
                "iteration 1: ") in err

    def test_seed_flag_rejected(self, tmp_path):
        data = self._correlated_csv(tmp_path)
        prices = make_price_csv(tmp_path / "px.csv")
        with pytest.raises(SystemExit) as err:
            cli.main(["estimate", data, "--seed", "1"])
        assert err.value.code == 2
        with pytest.raises(SystemExit) as err:
            cli.main(["pipeline", prices, "--seed", "1", "--out", str(tmp_path / "out")])
        assert err.value.code == 2

    def test_unreadable_input_exit_2(self, tmp_path):
        assert cli.main(["estimate", str(tmp_path / "missing.csv")]) == 2
        bad = tmp_path / "bad.csv"
        bad.write_text("x,y\n1.0,oops\n2.0,3.0\n")
        assert cli.main(["estimate", str(bad)]) == 2


class TestAnalyze:
    def test_star_hub_dominates(self, tmp_path):
        net = write_json(tmp_path / "net.json", star_network())
        assert cli.main(["analyze", net, "--out", str(tmp_path)]) == 0
        cent = read_csv_rows(tmp_path / "centralities.csv")
        assert [r["name"] for r in cent] == ["hub", "a", "b", "c", "d"]
        assert cent[0]["degree"] == "4"
        assert float(cent[0]["eigenvector"]) == pytest.approx(1.0)
        for r in cent[1:]:
            assert float(r["eigenvector"]) == pytest.approx(0.5, abs=1e-6)
        meas = read_csv_rows(tmp_path / "measures.csv")[0]
        assert meas["edge_count"] == "4"
        assert float(meas["mean_degree"]) == pytest.approx(8 / 5)

    def test_round_trip_matches_library(self, tmp_path):
        data = TestEstimate._correlated_csv(tmp_path)
        net_path = tmp_path / "net.json"
        assert cli.main(["estimate", data, "--mode", "gaussian", "--out", str(net_path)]) == 0
        assert cli.main(["analyze", str(net_path), "--out", str(tmp_path)]) == 0
        pc, _ = cli.network_from_json_dict(json.loads(net_path.read_text()))
        want = analytics.measures(pc)
        meas = read_csv_rows(tmp_path / "measures.csv")[0]
        assert float(meas["mean_strength"]) == pytest.approx(want.mean_strength, rel=1e-10)
        assert int(meas["edge_count"]) == want.edge_count

    def test_empty_network_zero_measures(self, tmp_path):
        net = write_json(tmp_path / "net.json", {"p": 3, "nodes": ["a", "b", "c"], "edges": []})
        assert cli.main(["analyze", net, "--out", str(tmp_path)]) == 0
        meas = read_csv_rows(tmp_path / "measures.csv")[0]
        for key in ("edge_count", "mean_degree", "mean_distance", "mean_clustering", "mean_strength"):
            assert float(meas[key]) == 0.0

    def test_near_tied_components_exit_0(self, tmp_path):
        # Perron roots 0.3 and 0.3001 on two disjoint edges
        net = write_json(tmp_path / "net.json", {
            "p": 4, "nodes": ["a", "b", "c", "d"],
            "edges": [{"i": 1, "j": 2, "weight": 0.3}, {"i": 3, "j": 4, "weight": 0.3001}],
        })
        assert cli.main(["analyze", net, "--out", str(tmp_path)]) == 0
        cent = read_csv_rows(tmp_path / "centralities.csv")
        assert [r["eigenvector"] for r in cent] == ["0", "0", "1", "1"]

    def test_malformed_json_exit_2(self, tmp_path):
        bad = tmp_path / "net.json"
        bad.write_text("{not json")
        assert cli.main(["analyze", str(bad), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("command", [["analyze"], ["shock", "--node", "1"]])
    def test_network_syntax_error_names_line_and_column_exit_2(self, tmp_path, capsys, command):
        net = tmp_path / "net.json"
        net.write_text('{"p": 2,\n "edges": [{"i": 1, "j": 2 "weight": 0.2}]}\n')
        argv = [command[0], str(net), *command[1:], "--out", str(tmp_path / "out")]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert f"error: {net}: line 2 column 28: Expecting ',' delimiter" in err
        assert "bad input" not in err

    def test_edge_out_of_range_exit_2(self, tmp_path):
        net = write_json(tmp_path / "net.json",
                         {"p": 2, "edges": [{"i": 1, "j": 5, "weight": 0.2}]})
        assert cli.main(["analyze", net, "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("edge", [{"i": 1, "weight": 0.2}, {"i": 1, "j": 2, "weight": "x"}])
    def test_malformed_edge_named_exit_2(self, tmp_path, capsys, edge):
        net = write_json(tmp_path / "net.json", {"p": 2, "edges": [edge]})
        assert cli.main(["analyze", net, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"edge 1 {edge!r}: needs numeric i, j and weight" in err
        assert "bad input" not in err

    @pytest.mark.parametrize("doc, named", [
        ([{"p": 2}], "must be an object"),
        ({"edges": []}, "no field 'p'"),
        ({"p": "3", "edges": []}, "field 'p' must be a positive integer, got '3'"),
        ({"p": 2.5, "edges": []}, "field 'p' must be a positive integer, got 2.5"),
        ({"p": 3, "nodes": 5, "edges": []}, "field 'nodes' must be a list of names, got 5"),
        ({"p": 3, "nodes": ["a", "b", "a"], "edges": []}, "network lists node 'a' twice"),
        # a second weight for a pair would silently replace the first
        ({"p": 3, "edges": [{"i": 1, "j": 2, "weight": 0.5}, {"i": 2, "j": 3, "weight": 0.2},
                            {"i": 2, "j": 1, "weight": -0.5}]},
         "edge 3 (2,1) repeats the pair (1,2)"),
        ({"p": 3, "edges": [{"i": 1, "j": 2, "weight": 0.5}, {"i": 1, "j": 2, "weight": 0.5}]},
         "edge 2 (1,2) repeats the pair (1,2)"),
    ])
    def test_malformed_network_names_field_exit_2(self, tmp_path, capsys, doc, named):
        net = write_json(tmp_path / "net.json", doc)
        assert cli.main(["analyze", net, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert named in err
        assert "bad input" not in err

    @pytest.mark.parametrize("edges, named", [
        ([{"i": 1, "j": 2, "weight": 0.1}, {"i": 1.9, "j": 3, "weight": 0.3}],
         "edge 2 {'i': 1.9, 'j': 3, 'weight': 0.3}: node numbers i and j must be integers"),
        ([{"i": True, "j": 2, "weight": 0.2}],
         "edge 1 {'i': True, 'j': 2, 'weight': 0.2}: node numbers i and j must be integers"),
        (5, "field 'edges' must be a list of edges, got 5"),
        ([{"i": 1, "j": 2, "weight": "nan"}],
         "edge 1 {'i': 1, 'j': 2, 'weight': 'nan'}: needs numeric i, j and weight"),
        ([{"i": 1, "j": 2, "weight": float("nan")}],
         "edge 1 {'i': 1, 'j': 2, 'weight': nan}: weight must be finite"),
    ])
    def test_mistyped_edge_named_exit_2(self, tmp_path, capsys, edges, named):
        net = write_json(tmp_path / "net.json", {"p": 3, "edges": edges})
        assert cli.main(["analyze", net, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert named in err
        assert "bad input" not in err


class TestShock:
    def test_two_node_closed_form(self, tmp_path):
        net = write_json(tmp_path / "net.json",
                         {"p": 2, "nodes": ["aa", "bb"],
                          "edges": [{"i": 1, "j": 2, "weight": 0.5}]})
        out = tmp_path / "shock.json"
        assert cli.main(["shock", net, "--node", "1", "--out", str(out)]) == 0
        res = json.loads(out.read_text())
        assert res["steady_state"] == pytest.approx([4 / 3, 2 / 3])
        assert res["total"] == pytest.approx(2.0)

    def test_zero_network_total_one(self, tmp_path):
        net = write_json(tmp_path / "net.json", {"p": 3, "edges": []})
        out = tmp_path / "shock.json"
        assert cli.main(["shock", net, "--node", "2", "--out", str(out)]) == 0
        res = json.loads(out.read_text())
        assert res["total"] == 1.0
        assert res["steady_state"] == [0.0, 1.0, 0.0]

    def test_node_by_name(self, tmp_path):
        net = write_json(tmp_path / "net.json",
                         {"p": 2, "nodes": ["aa", "bb"],
                          "edges": [{"i": 1, "j": 2, "weight": 0.5}]})
        out = tmp_path / "shock.json"
        assert cli.main(["shock", net, "--node", "bb", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["node"] == 2

    def test_explosive_network_exit_3(self, tmp_path):
        net = write_json(tmp_path / "net.json",
                         {"p": 2, "edges": [{"i": 1, "j": 2, "weight": 1.0}]})
        assert cli.main(["shock", net, "--node", "1", "--out", str(tmp_path / "s.json")]) == 3

    def test_bad_node_exit_2(self, tmp_path):
        net = write_json(tmp_path / "net.json", {"p": 2, "edges": []})
        assert cli.main(["shock", net, "--node", "9", "--out", str(tmp_path / "s.json")]) == 2
        assert cli.main(["shock", net, "--node", "zz", "--out", str(tmp_path / "s.json")]) == 2


def make_price_csv(path, n_prices=506, p=3, seed=100):
    dates = [datetime.date(2018, 1, 1) + datetime.timedelta(days=i) for i in range(n_prices)]
    cols = [simulate_ar_garch(n_prices - 1, 2e-4, 0.05, 2e-5, 0.05, 0.9, rng=seed + j)
            for j in range(p)]
    prices = 100.0 * np.exp(np.cumsum(np.column_stack(cols), axis=0))
    prices = np.vstack([np.full(p, 100.0), prices])
    names = [f"s{j}" for j in range(p)]
    lines = ["date," + ",".join(names)]
    for d, row in zip(dates, prices):
        lines.append(d.isoformat() + "," + ",".join(f"{v:.17g}" for v in row))
    path.write_text("\n".join(lines) + "\n")
    return str(path)


PIPE_FLAGS = ["--mode", "gaussian", "--window", "252", "--step", "63",
              "--lambda-lo", "0.2", "--lambda-hi", "0.8", "--lambda-count", "3"]


class TestPipeline:
    def test_smoke_counts_and_outputs(self, tmp_path):
        prices = make_price_csv(tmp_path / "px.csv")
        out = tmp_path / "out"
        assert cli.main(["pipeline", prices, *PIPE_FLAGS, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        # 506 prices -> 505 returns -> 504 residual rows -> (504-252)//63+1 windows
        assert summary["rows"] == 504
        assert summary["windows"] == 5 and summary["failed_windows"] == 0
        assert sorted(f.name for f in (out / "windows").iterdir()) == [
            f"window_{i:03d}.json" for i in range(5)
        ]
        garch = read_csv_rows(out / "garch.csv")
        assert len(garch) == 3
        for r in garch:
            for key in ("c", "phi", "omega", "a", "b", "loglik", "ks_normal"):
                assert np.isfinite(float(r[key]))
            assert r["ks_t"] == ""  # gaussian mode leaves the t columns blank
        strength = read_csv_rows(out / "strength.csv")
        assert len(strength) == 5
        assert all(np.isfinite(float(r["mean_strength"])) for r in strength)
        win0 = json.loads((out / "windows/window_000.json").read_text())
        assert win0["start_row"] == 0 and win0["stop_row"] == 252
        assert "measures" in win0 and win0["p"] == 3

    def test_failed_window_outputs(self, tmp_path, monkeypatch):
        real_select = selection.select
        calls = []

        def second_fails(data, grid, config):
            calls.append(1)
            if len(calls) == 2:
                raise SelectionError("no fit, at all")
            return real_select(data, grid, config)

        monkeypatch.setattr(selection, "select", second_fails)
        prices = make_price_csv(tmp_path / "px.csv")
        out = tmp_path / "out"
        assert cli.main(["pipeline", prices, *PIPE_FLAGS, "--out", str(out)]) == 0
        win1 = json.loads((out / "windows/window_001.json").read_text())
        assert win1["error"] == "SelectionError: no fit, at all"
        assert "edges" not in win1
        assert "error" not in json.loads((out / "windows/window_000.json").read_text())
        rows = [line.split(",") for line in (out / "strength.csv").read_text().splitlines()]
        assert [len(r) for r in rows] == [5] * 6
        assert rows[2][0] == "1" and rows[2][3:] == ["", "SelectionError: no fit; at all"]
        assert all(r[4] == "" for i, r in enumerate(rows[1:]) if i != 1)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["windows"] == 5 and summary["failed_windows"] == 1

    def test_rerun_is_deterministic(self, tmp_path):
        prices = make_price_csv(tmp_path / "px.csv")
        assert cli.main(["pipeline", prices, *PIPE_FLAGS, "--out", str(tmp_path / "a")]) == 0
        assert cli.main(["pipeline", prices, *PIPE_FLAGS, "--out", str(tmp_path / "b")]) == 0
        for name in ("strength.csv", "garch.csv", "residuals.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_missing_price_cell_fails_with_stage_name(self, tmp_path, capsys):
        prices = make_price_csv(tmp_path / "px.csv")
        lines = (tmp_path / "px.csv").read_text().splitlines()
        parts = lines[10].split(",")
        parts[1] = ""
        lines[10] = ",".join(parts)
        (tmp_path / "px.csv").write_text("\n".join(lines) + "\n")
        assert cli.main(["pipeline", str(tmp_path / "px.csv"), *PIPE_FLAGS,
                         "--out", str(tmp_path / "out")]) == 2
        assert "returns:" in capsys.readouterr().err

    def test_non_numeric_price_names_date_and_column(self, tmp_path, capsys):
        make_price_csv(tmp_path / "px.csv")
        lines = (tmp_path / "px.csv").read_text().splitlines()
        parts = lines[10].split(",")
        parts[2] = "x"
        lines[10] = ",".join(parts)
        (tmp_path / "px.csv").write_text("\n".join(lines) + "\n")
        assert cli.main(["pipeline", str(tmp_path / "px.csv"), *PIPE_FLAGS,
                         "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "returns:" in err and f"date {parts[0]}" in err and "column 's1'" in err

    def test_duplicate_series_name_exit_2(self, tmp_path, capsys):
        make_price_csv(tmp_path / "px.csv")
        lines = (tmp_path / "px.csv").read_text().splitlines()
        lines[0] = "date,s1,s1,s2"
        (tmp_path / "px.csv").write_text("\n".join(lines) + "\n")
        assert cli.main(["pipeline", str(tmp_path / "px.csv"), *PIPE_FLAGS,
                         "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "returns: column name 's1' appears twice" in err
        assert "bad input" not in err

    def test_short_series_names_stage_and_series(self, tmp_path, capsys):
        prices = make_price_csv(tmp_path / "px.csv", n_prices=120)
        assert cli.main(["pipeline", prices, *PIPE_FLAGS, "--out", str(tmp_path / "out")]) == 2
        assert "garch: series s0" in capsys.readouterr().err

    def test_t_mode_fills_ks_t_columns(self, tmp_path):
        prices = make_price_csv(tmp_path / "px.csv")
        out = tmp_path / "out"
        flags = ["--mode", "t", "--nu", "5", "--window", "252", "--step", "126",
                 "--lambda-lo", "0.2", "--lambda-hi", "0.8", "--lambda-count", "2"]
        assert cli.main(["pipeline", prices, *flags, "--out", str(out)]) == 0
        garch = read_csv_rows(out / "garch.csv")
        for r in garch:
            assert np.isfinite(float(r["ks_t"]))
            assert r["ks_t_reject"] in ("0", "1")


PINNED_NETWORK = {
    "p": 4,
    "nodes": ["a", "b", "c", "d"],
    "edges": [{"i": 1, "j": 2, "weight": 0.25}, {"i": 1, "j": 3, "weight": 0.3},
              {"i": 2, "j": 3, "weight": -0.125}, {"i": 3, "j": 4, "weight": 0.2}],
    "lambda": 0.1,
    "bic": 0.0,
}

PINNED_MEASURES = (
    "p,edge_count,mean_degree,mean_distance,mean_eccentricity,mean_clustering,mean_strength\n"
    "4,4,2,1.33333333333,1.75,0.583333333333,0.3125\n"
)

PINNED_CENTRALITIES = (
    "node,name,degree,strength,eigenvector\n"
    "1,a,2,0.55,1\n"
    "2,b,2,0.125,0.766776819771\n"
    "3,c,3,0.375,0.980770635111\n"
    "4,d,1,0.2,0.403671281329\n"
)

PINNED_STRENGTH = (
    "window,start_date,end_date,mean_strength,error\n"
    "0,2018-01-03,2018-09-11,0,\n"
    "1,2018-03-07,2018-11-13,0,\n"
    "2,2018-05-09,2019-01-15,-0.0767812713268,\n"
    "3,2018-07-11,2019-03-19,-0.0778356800083,\n"
    "4,2018-09-12,2019-05-21,-0.0649573584827,\n"
)

PINNED_GARCH_HEADER = (
    "series,c,phi,omega,a,b,loglik,ks_normal,ks_normal_reject,ks_t,ks_t_reject\n"
)
PINNED_GARCH_FITS = (
    "s0,0.00215330836099,-0.0178259703293,1.6656464851e-05,0.00161966057852,"
    "0.95717320568,1254.17022709,0.0206132771857,0,",
    "s1,-0.00114459386634,0.07880172828,7.12619733716e-05,0.0782805043519,"
    "0.776102721224,1210.79631033,0.0270922995168,0,",
    "s2,-0.00149734857391,0.0579869967941,3.52465074475e-05,0.0528863361761,"
    "0.850143536681,1280.82203528,0.0251227545663,0,",
)
PINNED_KS_T = ("0.0554119977905,0", "0.0545356800299,0", "0.0455871138684,0")

PINNED_RESIDUALS_HEAD = (
    "date,s0,s1,s2\n"
    "2018-01-03,0.618832999104,-0.81859739424,0.956727425482\n"
    "2018-01-04,0.846189526303,1.22206431114,-0.841928350637\n"
)


# p=6 is the smallest p every topology kind accepts with its defaults
PINNED_SIMULATE_MANIFEST = {
    "seed": 11,
    "p": 6,
    "topologies": ["scale-free", "random", "band", "cluster", "hub", "small-world",
                   "core-periphery"],
    "distributions": [{"kind": "normal"}, {"kind": "t", "nu": 3.0},
                      {"kind": "contaminated", "keep_prob": 0.8}],
    "sample_sizes": [60],
    "runs": 1,
    "modes": ["gaussian", "t"],
    "alphas": [0.5],
    "lambda": {"lo": 0.05, "hi": 1.0, "count": 3},
}

PINNED_METRICS = (
    "topology,distribution,n,run,estimator,alpha,lambda,bic,"
    "edges,tp,fp,fn,f1,fdr,frobenius,em_converged,failed,error\n"
    "scale-free,normal,60,0,gaussian,0.5,1,1257.27158182,"
    "5,4,1,1,0.8,0.2,0.608120994445,1,0,\n"
    "scale-free,normal,60,0,t,0.5,1,1294.38633726,"
    "5,4,1,1,0.8,0.2,0.655710607992,1,0,\n"
    "scale-free,t3,60,0,gaussian,0.5,0.22360679775,1029.19617091,"
    "9,5,4,0,0.714285714286,0.444444444444,0.602633960277,1,0,\n"
    "scale-free,t3,60,0,t,0.5,0.22360679775,958.025403065,"
    "6,5,1,0,0.909090909091,0.166666666667,0.304272784797,1,0,\n"
    "scale-free,contaminated0.8,60,0,gaussian,0.5,1,1213.96300467,"
    "5,4,1,1,0.8,0.2,0.692320723786,1,0,\n"
    "scale-free,contaminated0.8,60,0,t,0.5,1,1251.76373938,"
    "5,4,1,1,0.8,0.2,0.685049892092,1,0,\n"
    "random,normal,60,0,gaussian,0.5,0.22360679775,1219.59694708,"
    "13,10,3,0,0.869565217391,0.230769230769,0.488316724997,1,0,\n"
    "random,normal,60,0,t,0.5,0.22360679775,1241.0931129,"
    "12,10,2,0,0.909090909091,0.166666666667,0.356048820386,1,0,\n"
    "random,t3,60,0,gaussian,0.5,0.22360679775,1217.70713533,"
    "13,10,3,0,0.869565217391,0.230769230769,0.808827947853,1,0,\n"
    "random,t3,60,0,t,0.5,0.22360679775,1011.1480616,"
    "7,6,1,4,0.705882352941,0.142857142857,1.05794780873,1,0,\n"
    "random,contaminated0.8,60,0,gaussian,0.5,1,1245.76640253,"
    "4,4,0,6,0.571428571429,0,1.23720266032,1,0,\n"
    "random,contaminated0.8,60,0,t,0.5,1,1273.11410544,"
    "3,3,0,7,0.461538461538,0,1.33751914419,1,0,\n"
    "band,normal,60,0,gaussian,0.5,1,1292.95823187,"
    "6,6,0,3,0.8,0,1.04607556922,1,0,\n"
    "band,normal,60,0,t,0.5,0.22360679775,1333.79723556,"
    "10,9,1,0,0.947368421053,0.1,0.44291379201,1,0,\n"
    "band,t3,60,0,gaussian,0.5,0.22360679775,1141.86716431,"
    "12,9,3,0,0.857142857143,0.25,0.873984393703,1,0,\n"
    "band,t3,60,0,t,0.5,0.22360679775,1057.14679099,"
    "8,7,1,2,0.823529411765,0.125,0.93362413603,1,0,\n"
    "band,contaminated0.8,60,0,gaussian,0.5,1,1316.53058867,"
    "10,7,3,2,0.736842105263,0.3,1.16282112893,1,0,\n"
    "band,contaminated0.8,60,0,t,0.5,0.22360679775,1339.93259729,"
    "13,9,4,0,0.818181818182,0.307692307692,0.828471986903,1,0,\n"
    "cluster,normal,60,0,gaussian,0.5,1,1593.92354831,"
    "3,0,3,0,0,1,0.471623981289,1,0,\n"
    "cluster,normal,60,0,t,0.5,1,1631.92266986,"
    "4,0,4,0,0,1,0.62951393463,1,0,\n"
    "cluster,t3,60,0,gaussian,0.5,1,1514.96457115,"
    "4,0,4,0,0,1,0.487230120319,1,0,\n"
    "cluster,t3,60,0,t,0.5,1,1434.882458,"
    "0,0,0,0,1,0,0,1,0,\n"
    "cluster,contaminated0.8,60,0,gaussian,0.5,1,1650.21911649,"
    "7,0,7,0,0,1,0.6835978493,1,0,\n"
    "cluster,contaminated0.8,60,0,t,0.5,1,1665.35679752,"
    "4,0,4,0,0,1,0.698017830897,1,0,\n"
    "hub,normal,60,0,gaussian,0.5,1,1339.93282792,"
    "1,1,0,0,1,0,0.105486902951,1,0,\n"
    "hub,normal,60,0,t,0.5,1,1370.1004,"
    "1,1,0,0,1,0,0.151765243292,1,0,\n"
    "hub,t3,60,0,gaussian,0.5,1,1292.91870462,"
    "4,1,3,0,0.4,0.75,0.951038917214,1,0,\n"
    "hub,t3,60,0,t,0.5,0.22360679775,1163.81722174,"
    "7,1,6,0,0.25,0.857142857143,0.780652626432,1,0,\n"
    "hub,contaminated0.8,60,0,gaussian,0.5,1,1327.72343572,"
    "1,1,0,0,1,0,0.267774786383,1,0,\n"
    "hub,contaminated0.8,60,0,t,0.5,1,1362.51768219,"
    "1,1,0,0,1,0,0.266606322733,1,0,\n"
    "small-world,normal,60,0,gaussian,0.5,0.22360679775,1263.5609543,"
    "14,12,2,0,0.923076923077,0.142857142857,0.493767331167,1,0,\n"
    "small-world,normal,60,0,t,0.5,0.22360679775,1298.31581168,"
    "14,12,2,0,0.923076923077,0.142857142857,0.542063245022,1,0,\n"
    "small-world,t3,60,0,gaussian,0.5,0.05,1158.86412142,"
    "14,11,3,1,0.846153846154,0.214285714286,1.07029719164,1,0,\n"
    "small-world,t3,60,0,t,0.5,0.22360679775,1045.0901228,"
    "9,8,1,4,0.761904761905,0.111111111111,1.26252603654,1,0,\n"
    "small-world,contaminated0.8,60,0,gaussian,0.5,1,1311.05829709,"
    "8,5,3,7,0.5,0.375,1.66582077537,1,0,\n"
    "small-world,contaminated0.8,60,0,t,0.5,1,1336.96105418,"
    "4,2,2,10,0.25,0.5,1.75903115606,1,0,\n"
    "core-periphery,normal,60,0,gaussian,0.5,1,1321.88373287,"
    "1,1,0,0,1,0,0.106929159679,1,0,\n"
    "core-periphery,normal,60,0,t,0.5,1,1351.77236851,"
    "1,1,0,0,1,0,0.0559031230126,1,0,\n"
    "core-periphery,t3,60,0,gaussian,0.5,1,1130.10092967,"
    "2,1,1,0,0.666666666667,0.5,0.580350799692,1,0,\n"
    "core-periphery,t3,60,0,t,0.5,0.22360679775,1061.41996555,"
    "4,1,3,0,0.4,0.75,0.669463839763,1,0,\n"
    "core-periphery,contaminated0.8,60,0,gaussian,0.5,1,1342.05387016,"
    "1,1,0,0,1,0,0.212734437472,1,0,\n"
    "core-periphery,contaminated0.8,60,0,t,0.5,1,1366.44926007,"
    "1,1,0,0,1,0,0.224391951744,1,0,\n"
)


class TestPinnedBytes:
    """Exact text of the CSV files the CLI writes, fixed on known inputs."""

    def test_analyze_files(self, tmp_path):
        net = write_json(tmp_path / "net.json", PINNED_NETWORK)
        assert cli.main(["analyze", net, "--out", str(tmp_path)]) == 0
        assert (tmp_path / "measures.csv").read_text() == PINNED_MEASURES
        assert (tmp_path / "centralities.csv").read_text() == PINNED_CENTRALITIES

    def test_pipeline_gaussian_files(self, tmp_path):
        prices = make_price_csv(tmp_path / "px.csv")
        out = tmp_path / "out"
        flags = ["--mode", "gaussian", "--window", "252", "--step", "63",
                 "--lambda-lo", "0.02", "--lambda-hi", "0.2", "--lambda-count", "3"]
        assert cli.main(["pipeline", prices, *flags, "--out", str(out)]) == 0
        assert (out / "strength.csv").read_text() == PINNED_STRENGTH
        assert (out / "garch.csv").read_text() == PINNED_GARCH_HEADER + "".join(
            f"{row},\n" for row in PINNED_GARCH_FITS)
        resid = (out / "residuals.csv").read_text()
        assert resid.startswith(PINNED_RESIDUALS_HEAD)
        assert resid.count("\n") == 505 and resid.endswith("\n")

    def test_simulate_metrics(self, tmp_path):
        man = write_json(tmp_path / "man.json", PINNED_SIMULATE_MANIFEST)
        assert cli.main(["simulate", man, "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out/metrics.csv").read_text() == PINNED_METRICS

    def test_pipeline_t_garch_file(self, tmp_path):
        prices = make_price_csv(tmp_path / "px.csv")
        out = tmp_path / "out"
        flags = ["--mode", "t", "--nu", "5", "--window", "252", "--step", "126",
                 "--lambda-lo", "0.2", "--lambda-hi", "0.8", "--lambda-count", "2"]
        assert cli.main(["pipeline", prices, *flags, "--out", str(out)]) == 0
        assert (out / "garch.csv").read_text() == PINNED_GARCH_HEADER + "".join(
            f"{row}{ks}\n" for row, ks in zip(PINNED_GARCH_FITS, PINNED_KS_T))


class TestNetworkJson:
    def test_round_trip_exact(self):
        vals = np.zeros((4, 4))
        vals[0, 1] = vals[1, 0] = 0.25
        vals[2, 3] = vals[3, 2] = -0.125
        pc = PartialCorrelationMatrix(vals)
        d = cli.network_to_json_dict(pc, ["a", "b", "c", "d"], 0.3, -12.0)
        back, names = cli.network_from_json_dict(d)
        assert names == ["a", "b", "c", "d"]
        assert np.array_equal(back.values, pc.values)

    def test_default_names(self):
        pc, names = cli.network_from_json_dict({"p": 3, "edges": []})
        assert names == ["x1", "x2", "x3"]


NOT_UTF8 = b'{"p": \xff}\n'  # byte 6 does not decode
TINY_PRICES = "date,a,b\n2020-01-01,1.0,2.0\n2020-01-02,1.1,2.1\n"
BIG = str(10**30)


class TestInputErrors:
    @pytest.mark.parametrize("argv, files, named", [
        # a file that is not UTF-8, for every command that reads one
        (["estimate", "in", "--mode", "gaussian"], {"in": NOT_UTF8}, "in: byte 6: not UTF-8"),
        (["pipeline", "in", "--mode", "gaussian", "--out", "o"], {"in": NOT_UTF8},
         "in: byte 6: not UTF-8"),
        (["simulate", "in", "--out", "o"], {"in": NOT_UTF8}, "in: byte 6: not UTF-8"),
        (["analyze", "in"], {"in": NOT_UTF8}, "in: byte 6: not UTF-8"),
        (["shock", "in", "--node", "1"], {"in": NOT_UTF8}, "in: byte 6: not UTF-8"),
        # JSON that the parser rejects past its syntax errors
        (["simulate", "in", "--out", "o"], {"in": b'{"seed": ' + b"9" * 5000 + b"}"},
         "in: Exceeds the limit (4300 digits) for integer string conversion"),
        (["analyze", "in"], {"in": b"[" * 100000}, "in: maximum recursion depth exceeded"),
        # sizes whose arrays would pass numpy's limit of sys.maxsize bytes
        (["simulate", "m", "--out", "o"], {"m": {**SMOKE_MANIFEST, "p": 10**30}},
         f"need p <= 1073741823, got {BIG}"),
        (["simulate", "m", "--out", "o"], {"m": {**SMOKE_MANIFEST, "sample_sizes": [10**30]}},
         f"sample_sizes[0] must be at most {sys.maxsize // 80} for p=10, got {BIG}"),
        (["simulate", "m", "--out", "o"],
         {"m": {**SMOKE_MANIFEST, "lambda": {"lo": 0.1, "hi": 1.0, "count": 10**30}}},
         f"grid count must be at most {sys.maxsize // 8}, got {BIG}"),
        (["estimate", "in", "--mode", "gaussian", "--lambda-count", BIG], {},
         f"grid count must be at most {sys.maxsize // 8}, got {BIG}"),
        (["pipeline", "in", "--mode", "gaussian", "--lambda-count", BIG, "--out", "o"], {},
         f"grid count must be at most {sys.maxsize // 8}, got {BIG}"),
        # an int past int64 is a number, but no numpy scalar
        (["simulate", "m", "--out", "o"],
         {"m": {**SMOKE_MANIFEST, "lambda": {"lo": 10**30, "hi": 1.0, "count": 5}}},
         "grid hi must be finite and >= lo, got 1.0"),
        (["analyze", "net"], {"net": {"p": 10**12, "nodes": ["a", "b"]}},
         f"field 'p' must be at most 1073741823, got {10**12}"),
        # numbers that are not finite
        (["simulate", "m", "--out", "o"], {"m": {**SMOKE_MANIFEST, "v": math.inf}},
         "topologies[0] ('scale-free'): field 'v' must be finite, got inf"),
        (["simulate", "m", "--out", "o"], {"m": {**SMOKE_MANIFEST, "u": math.inf}},
         "topologies[0] ('scale-free'): field 'u' must be finite, got inf"),
        (["simulate", "m", "--out", "o"], {"m": {**SMOKE_MANIFEST, "nu": math.inf}},
         "manifest: field 'nu' must be finite, got inf"),
        (["simulate", "m", "--out", "o"],
         {"m": {**SMOKE_MANIFEST, "distributions": [{"kind": "t", "nu": math.inf}]}},
         "distributions[0] ('t'): field 'nu' must be finite, got inf"),
        (["analyze", "net"], {"net": {"p": 2, "edges": [{"i": 1, "j": 2, "weight": 10**400}]}},
         "edge 1 {'i': 1, 'j': 2, 'weight': 1000"),
        (["estimate", "in", "--nu", "inf"], {"in": b"a,b\n1,2\n2,1\n3,5\n"},
         "argument --nu: must be a finite number, got 'inf'"),
        (["estimate", "in", "--nu", "5", "--alpha", "nan"], {},
         "argument --alpha: must be a finite number, got 'nan'"),
        (["estimate", "in", "--nu", "5", "--lambda-lo=-inf"], {},
         "argument --lambda-lo: must be a finite number, got '-inf'"),
        (["pipeline", "in", "--nu", "5", "--lambda-hi", "inf", "--out", "o"], {},
         "argument --lambda-hi: must be a finite number, got 'inf'"),
        (["pipeline", "in", "--nu", "5", "--delta", "1e999", "--out", "o"], {},
         "argument --delta: must be a finite number, got '1e999'"),
        # --out at an existing file, or under one
        (["analyze", "net", "--out", "f"], {"net": star_network(), "f": b""},
         "File exists: 'f'"),
        (["simulate", "m", "--out", "f"], {"m": SMOKE_MANIFEST, "f": b""}, "File exists: 'f'"),
        (["pipeline", "px", "--mode", "gaussian", "--out", "f"],
         {"px": TINY_PRICES.encode(), "f": b""}, "File exists: 'f'"),
        (["shock", "net", "--node", "1", "--out", "f/s.json"], {"net": star_network(), "f": b""},
         "Not a directory: 'f/s.json'"),
    ])
    def test_bad_input_names_offender_exit_2(self, tmp_path, capsys, monkeypatch, argv, files,
                                             named):
        monkeypatch.setattr(cli, "_simulate_cell", lambda *args: pytest.fail("a cell ran"))
        monkeypatch.setattr("parcornet.pipeline.fit_ar_garch",
                            lambda *args: pytest.fail("a GARCH fit ran"))
        monkeypatch.chdir(tmp_path)
        for name, content in files.items():
            if isinstance(content, bytes):
                (tmp_path / name).write_bytes(content)
            else:
                write_json(tmp_path / name, content)
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects a flag
            code = exc.code
        assert code == 2
        assert named in capsys.readouterr().err


def _paths(doc, path=()):
    """The path (keys and indices) of every value nested in doc."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _paths(value, path + (key,))


@st.composite
def mutated(draw, doc):
    """doc after one to three edits: drop a key, swap a value's type, nest a
    value in a list, or set it to an infinite, NaN or oversized number."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        if not paths:
            break
        *head, last = draw(st.sampled_from(paths))
        parent = functools.reduce(operator.getitem, head, doc)
        edit = draw(st.sampled_from(["drop", "swap", "nest", "number"]))
        if edit == "drop":
            del parent[last]
        elif edit == "swap":
            parent[last] = draw(st.sampled_from(["x", 1, 2.5, None, True, {}, []]))
        elif edit == "nest":
            parent[last] = [parent[last]]
        else:
            parent[last] = draw(st.sampled_from([math.inf, -math.inf, math.nan, 10**30, -10**30]))
    return doc


@st.composite
def mutated_text(draw, text):
    """text with one to three slices replaced by short runs of CSV-ish characters."""
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 8)))
        text = text[:i] + draw(st.text(',"\n\r.-+e0123456789nainf\x00x', max_size=6)) + text[j:]
    return text


class TestMutatedInput:
    """A mutated input exits 0 or 2; any other exception escapes cli.main
    and fails the test, as it would print a traceback and exit 1."""

    FUZZ = settings(deadline=None, max_examples=150,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])

    @FUZZ
    @given(manifest=mutated(SMOKE_MANIFEST))
    def test_manifest_exits_0_or_2(self, tmp_path, monkeypatch, manifest):
        monkeypatch.setattr(cli, "_simulate_cell", lambda manifest, cell: [])
        man = write_json(tmp_path / "man.json", manifest)
        assert cli.main(["simulate", man, "--out", str(tmp_path / "out")]) in (0, 2)

    @FUZZ
    @given(network=mutated(star_network()))
    def test_network_exits_0_or_2(self, tmp_path, network):
        net = write_json(tmp_path / "net.json", network)
        assert cli.main(["analyze", net, "--out", str(tmp_path / "out")]) in (0, 2)

    @FUZZ
    @given(text=mutated_text("a,b,c\n1.5,2,-3e-2\n4,5.25,6\n7,8,9\n"))
    def test_data_csv_raises_only_named_errors(self, text):
        try:
            Dataset.from_csv_text(text)
        except ParcornetError:
            pass

    @FUZZ
    @given(text=mutated_text(TINY_PRICES + "2020-01-03,1.2,2.2\n"))
    def test_price_csv_raises_only_named_errors(self, text):
        try:
            PriceTable.from_csv_text(text)
        except ParcornetError:
            pass
