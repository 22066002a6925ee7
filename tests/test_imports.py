"""The import graph: `import parcornet` and `import parcornet.cli` load no
scipy module that only the pipeline command needs, and the scipy.special
laws that pipeline's KS test uses equal the scipy.stats ones exactly.
"""
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from parcornet.pipeline import KS_CRITICAL_COEF, ks_statistic

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
