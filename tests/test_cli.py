import csv
import datetime
import json

import numpy as np
import pytest

from parcornet import analytics, cli
from parcornet.em import EMConfig
from parcornet.elastic_net import PenaltyConfig
from parcornet.matrices import Dataset, PartialCorrelationMatrix
from parcornet.pipeline import simulate_ar_garch
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
    ])
    def test_malformed_manifest_names_entry_and_field_exit_2(self, tmp_path, capsys, change,
                                                             named):
        man = write_json(tmp_path / "man.json", {**SMOKE_MANIFEST, **change})
        assert cli.main(["simulate", man, "--out", str(tmp_path / "out")]) == 2
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

    def test_nu_required_only_in_t_mode(self, tmp_path):
        data = self._correlated_csv(tmp_path)
        assert cli.main(["estimate", data, "--mode", "t", "--out", str(tmp_path / "o.json")]) == 2
        assert cli.main(["estimate", data, "--mode", "t", "--nu", "4",
                         "--out", str(tmp_path / "o.json")]) == 0
        assert cli.main(["estimate", data, "--mode", "gaussian",
                         "--out", str(tmp_path / "o2.json")]) == 0

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
    ])
    def test_malformed_network_names_field_exit_2(self, tmp_path, capsys, doc, named):
        net = write_json(tmp_path / "net.json", doc)
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
    "6,5,1,0,0.909090909091,0.166666666667,0.304272784796,1,0,\n"
    "scale-free,contaminated0.8,60,0,gaussian,0.5,1,1213.96300467,"
    "5,4,1,1,0.8,0.2,0.692320723786,1,0,\n"
    "scale-free,contaminated0.8,60,0,t,0.5,1,1251.76373938,"
    "5,4,1,1,0.8,0.2,0.685049892092,1,0,\n"
    "random,normal,60,0,gaussian,0.5,0.22360679775,1219.59694708,"
    "13,10,3,0,0.869565217391,0.230769230769,0.488316724997,1,0,\n"
    "random,normal,60,0,t,0.5,0.22360679775,1241.0931129,"
    "12,10,2,0,0.909090909091,0.166666666667,0.356048820677,1,0,\n"
    "random,t3,60,0,gaussian,0.5,0.22360679775,1217.70713533,"
    "13,10,3,0,0.869565217391,0.230769230769,0.808827947853,1,0,\n"
    "random,t3,60,0,t,0.5,0.22360679775,1011.1480616,"
    "7,6,1,4,0.705882352941,0.142857142857,1.05794780862,1,0,\n"
    "random,contaminated0.8,60,0,gaussian,0.5,1,1245.76640253,"
    "4,4,0,6,0.571428571429,0,1.23720266032,1,0,\n"
    "random,contaminated0.8,60,0,t,0.5,1,1273.11410544,"
    "3,3,0,7,0.461538461538,0,1.33751914419,1,0,\n"
    "band,normal,60,0,gaussian,0.5,1,1292.95823187,"
    "6,6,0,3,0.8,0,1.04607556922,1,0,\n"
    "band,normal,60,0,t,0.5,0.22360679775,1333.79723556,"
    "10,9,1,0,0.947368421053,0.1,0.442913791971,1,0,\n"
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
    "9,8,1,4,0.761904761905,0.111111111111,1.26252603653,1,0,\n"
    "small-world,contaminated0.8,60,0,gaussian,0.5,1,1311.05829709,"
    "8,5,3,7,0.5,0.375,1.66582077537,1,0,\n"
    "small-world,contaminated0.8,60,0,t,0.5,1,1336.96105418,"
    "4,2,2,10,0.25,0.5,1.75903115587,1,0,\n"
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
