"""The import graph: `import parcornet` and `import parcornet.cli` load no
scipy module that only the pipeline command needs, the scipy.special
laws that pipeline's KS test uses equal the scipy.stats ones exactly, and
every layer boundary is looked up through its module at call time.
"""
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from parcornet import analytics, cli, constrained_mle, em, neighborhood, pipeline, selection
from parcornet.elastic_net import PenaltyConfig
from parcornet.matrices import Dataset
from parcornet.pipeline import KS_CRITICAL_COEF, PriceTable, ks_statistic, simulate_ar_garch

SRC = Path(__file__).resolve().parents[1] / "src"
PIPELINE_ONLY = ("scipy.optimize", "scipy.signal", "scipy.stats", "scipy.sparse")


def _loaded(module: str, then: str = "") -> list:
    """Import module, run then, in a new interpreter with PYTHONPATH=src.

    Returns its stdout lines; the last lists the PIPELINE_ONLY modules loaded.
    """
    code = (f"import sys\nimport {module}\n{then}\n"
            f"print(sorted(m for m in {PIPELINE_ONLY!r} if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(SRC)),
                         capture_output=True, text=True, check=True)
    return out.stdout.splitlines()


class TestImportGraph:
    @pytest.mark.parametrize("module", ["parcornet", "parcornet.cli"])
    def test_no_pipeline_only_scipy_modules(self, module):
        assert _loaded(module) == ["[]"]

    def test_cli_parser_defaults_without_pipeline(self):
        then = ("from parcornet import cli\n"
                "a = cli.build_parser().parse_args(['pipeline', 'p.csv', '--out', 'o'])\n"
                "print(a.window, a.step)")
        assert _loaded("parcornet.cli", then) == ["252 21", "[]"]


def _ks_from_stats(x, cdf):
    """The KS statistic and 5 percent decision, built on a scipy.stats cdf."""
    x = np.sort(x)
    n = x.size
    c = cdf(x)
    i = np.arange(1, n + 1)
    d = float(np.max(np.maximum(i / n - c, c - (i - 1) / n)))
    return d, bool(d > KS_CRITICAL_COEF / np.sqrt(n))


class TestKSAgainstStats:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_normal_reference(self, seed):
        x = np.random.default_rng(seed).standard_t(4.0, size=3000)
        assert ks_statistic(x, "normal") == _ks_from_stats(x, stats.norm.cdf)

    @pytest.mark.parametrize("nu", [3.0, 4.5, 5.0, 30.0, 200.0])
    def test_t_reference(self, nu):
        x = np.random.default_rng(int(nu * 10)).standard_normal(3000) * 1.3
        scale = np.sqrt((nu - 2.0) / nu)
        want = _ks_from_stats(x, lambda v: stats.t.cdf(v / scale, df=nu))
        assert ks_statistic(x, "t", nu=nu) == want


# (module, name) of each layer boundary that a caller reaches as module.name
BOUNDARIES = [(em, "select_edges"), (neighborhood, "solve_gram"), (constrained_mle, "fit"),
              (selection, "bic"), (selection, "select"), (pipeline, "fit_ar_garch"),
              (pipeline, "rolling_estimate"), (analytics, "measures")]


class TestCallTimeLookups:
    """Replacing a layer's module attribute reaches every caller, so a
    wrapper over it, as perfbench's tracer installs, sees each call: a
    caller that bound the function at import would bypass the wrapper and
    leave its counts at zero. selection.estimate is the one deliberate
    exclusion: no caller has used it since select began fitting its whole
    grid through em.estimate_grid, and the tracer's em counters stay on it
    until they move to that function (ROADMAP direction 1)."""

    def test_every_boundary_is_called_through_its_module(self, monkeypatch, tmp_path):
        select = selection.select  # called directly, so its count comes from the pipeline
        calls = Counter()
        for module, name in BOUNDARIES:
            def counted(*args, _real=getattr(module, name), _key=(module, name), **kwargs):
                calls[_key] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)

        x = np.random.default_rng(5).standard_t(5.0, size=(120, 4))
        x[:, 1] += 0.6 * x[:, 0]
        config = em.EMConfig(PenaltyConfig(0.5, 0.1), mode="t", nu=5.0)
        select(Dataset(x), selection.build_grid(0.05, 0.5, 3), config)

        r = np.column_stack([simulate_ar_garch(300, 2e-4, 0.05, 2e-5, 0.05, 0.9, rng=j)
                             for j in range(3)])
        prices = 100.0 * np.exp(np.cumsum(np.vstack([np.zeros((1, 3)), r]), axis=0))
        dates = [str(np.datetime64("2020-01-01") + k) for k in range(prices.shape[0])]
        path = tmp_path / "prices.csv"
        path.write_text(PriceTable(dates, ("s1", "s2", "s3"), prices).to_csv_text())
        assert cli.main(["pipeline", str(path), "--mode", "t", "--nu", "5", "--window", "150",
                         "--step", "150", "--lambda-count", "3", "--absolute-strength",
                         "--out", str(tmp_path / "out")]) == 0
        assert [f"{m.__name__}.{n}" for m, n in BOUNDARIES if not calls[m, n]] == []
