"""Command-line interface.

Subcommands: simulate (Monte Carlo study from a JSON manifest),
estimate (network from a data CSV), analyze (measures and centralities
from a network JSON), shock (propagation from a network JSON), and
pipeline (prices CSV to rolling networks).

Exit codes: 0 success (possibly with flagged rows), 2 input or config
error, 3 estimation failure or a diverging shock.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import math
import os
import statistics
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import analytics
from .elastic_net import PenaltyConfig
from .em import DELTA, EMConfig, MAX_ITER, MODES
from .errors import (
    ConfigError,
    DataError,
    DivergenceError,
    DomainError,
    EstimationError,
    FitError,
    ParcornetError,
    SelectionError,
    ShapeError,
)
from .matrices import (MAX_ENTRIES, Dataset, PartialCorrelationMatrix, first_repeat,
                       precision_to_partial_correlation)
from .metrics import confusion, f1_score, false_discovery_rate, frobenius_distance
from .neighborhood import RULES
from .netgen import TopologySpec, generate_precision
from .samplers import DistributionSpec, sample, spawned_rng
from .selection import LambdaGrid, build_grid, select

INPUT_ERRORS = (ConfigError, DataError, ShapeError, DomainError)
RUN_ERRORS = (EstimationError, SelectionError, DivergenceError, FitError)

TRADING_DAYS_PER_YEAR = 252  # pipeline --window default
TRADING_DAYS_PER_MONTH = 21  # pipeline --step default

SIM_COLUMNS = (
    "topology", "distribution", "n", "run", "estimator", "alpha", "lambda", "bic", "edges",
    "tp", "fp", "fn", "f1", "fdr", "frobenius", "em_converged", "failed", "error",
)

MANIFEST_DEFAULTS = {
    "seed": 0,
    "p": 20,
    "v": 0.3,
    "u": 0.1,
    "topologies": ["scale-free"],
    "distributions": [{"kind": "normal"}],
    "sample_sizes": [100],
    "runs": 10,
    "modes": ["gaussian", "t"],
    "alphas": [0.5],
    "nu": 3.0,
    "rule": "and",
    "lambda": {"lo": 0.01, "hi": 1.5, "count": 20},
    "delta": DELTA,
    "max_iter": MAX_ITER,
}


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.12g}" if math.isfinite(v) else ""
    return str(v)


def _clean_msg(msg: str) -> str:
    return str(msg).replace(",", ";").replace("\n", " ")


def _write_csv(path: str, header, rows) -> None:
    """One line per row, cells formatted by _fmt and joined by commas."""
    with open(path, "w") as fh:
        fh.writelines(",".join(_fmt(v) for v in row) + "\n" for row in (header, *rows))


# ---------------------------------------------------------------- simulate

def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return _is_int(v) or isinstance(v, float)


def _is_finite(v) -> bool:
    """Whether v is an int or float whose float value is finite: not inf or
    NaN, nor an int past the float range (compared, as float() overflows)."""
    if _is_int(v):
        return abs(v) <= sys.float_info.max
    return isinstance(v, float) and math.isfinite(v)


def _check_number(value, what: str) -> None:
    """ConfigError naming what unless value is a finite number."""
    if not _is_number(value):
        raise ConfigError(f"{what} must be a number, got {value!r}")
    if not _is_finite(value):
        raise ConfigError(f"{what} must be finite, got {value!r}")


def _manifest_entry(entry, where: str) -> dict:
    """A topology or distribution entry as a dict of its fields (a bare
    string is its kind); ConfigError naming where for anything else, or for
    an entry without a kind."""
    if isinstance(entry, str):
        return {"kind": entry}
    if not isinstance(entry, dict):
        raise ConfigError(f"{where} must be a kind name or an object, got {entry!r}")
    if "kind" not in entry:
        raise ConfigError(f"{where}: missing field 'kind'")
    return dict(entry)


def _check_fields(entry: dict, spec, where: str) -> None:
    """ConfigError naming where and the first key of entry that spec has no
    field for, or the first numeric field whose value is not a finite number
    (an integer for an int field; None only where spec's default is None)."""
    fields = {f.name: f for f in dataclasses.fields(spec) if f.name != "seed"}
    unknown = sorted(set(entry) - set(fields))
    if unknown:
        raise ConfigError(f"{where}: unknown field {unknown[0]!r}")
    for name in sorted(set(entry) - {"kind"}):
        value, field = entry[name], fields[name]
        if value is None and field.default is None:
            continue
        if field.type in ("int", int):
            if not _is_int(value):
                raise ConfigError(f"{where}: field {name!r} must be an integer, got {value!r}")
        else:
            _check_number(value, f"{where}: field {name!r}")


def _resolve_manifest(raw: dict) -> dict:
    if not isinstance(raw, dict):
        raise ConfigError(f"manifest must be a JSON object, got {type(raw).__name__}")
    unknown = set(raw) - set(MANIFEST_DEFAULTS)
    if unknown:
        raise ConfigError(f"unknown manifest keys: {sorted(unknown)}")
    m = dict(MANIFEST_DEFAULTS)
    m.update(raw)
    if not _is_int(m["seed"]) or m["seed"] < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {m['seed']!r}")
    if not _is_int(m["runs"]) or m["runs"] < 1:
        raise ConfigError(f"runs must be a positive integer, got {m['runs']!r}")
    if m["runs"] > sys.maxsize:
        raise ConfigError(f"runs must be at most {sys.maxsize}, got {m['runs']}")
    for key in ("topologies", "distributions", "sample_sizes", "modes", "alphas"):
        if not isinstance(m[key], list):
            raise ConfigError(f"{key} must be a list, got {m[key]!r}")
    if not isinstance(m["lambda"], dict):
        raise ConfigError(f"lambda must be an object, got {m['lambda']!r}")
    _check_fields({key: m[key] for key in ("nu", "delta", "max_iter")}, EMConfig, "manifest")
    for i, alpha in enumerate(m["alphas"]):
        _check_fields({"alpha": alpha}, PenaltyConfig, f"alphas[{i}]")
    topologies = []
    for i, entry in enumerate(m["topologies"]):
        t = _manifest_entry(entry, f"topologies[{i}]")
        t.setdefault("p", m["p"])
        t.setdefault("v", m["v"])
        t.setdefault("u", m["u"])
        label = t.pop("label", t["kind"])
        _check_fields(t, TopologySpec, f"topologies[{i}] ({label!r})")
        TopologySpec(seed=0, **t)  # validates kind and parameters
        if not isinstance(label, str):
            raise ConfigError(f"topologies[{i}]: field 'label' must be a string, got {label!r}")
        topologies.append({"label": label, "kwargs": t})
    dup = first_repeat([t["label"] for t in topologies])
    if dup is not None:
        raise ConfigError(f"topologies: label {dup!r} appears twice")
    dists = []
    for i, entry in enumerate(m["distributions"]):
        d = _manifest_entry(entry, f"distributions[{i}]")
        _check_fields(d, DistributionSpec, f"distributions[{i}] ({d.get('kind')!r})")
        spec = DistributionSpec(**d)
        dists.append({"label": spec.label(), "kwargs": d})
    dup = first_repeat([d["label"] for d in dists])
    if dup is not None:
        raise ConfigError(f"distributions: label {dup!r} appears twice")
    for mode in m["modes"]:
        if mode not in MODES:
            raise ConfigError(f"modes: estimator mode must be one of {MODES}, got {mode!r}")
    grid = {**MANIFEST_DEFAULTS["lambda"], **m["lambda"]}
    unknown = set(grid) - {"lo", "hi", "count"}
    if unknown:
        raise ConfigError(f"lambda: unknown grid keys {sorted(unknown)}")
    for key in ("lo", "hi"):
        _check_number(grid[key], f"lambda: field {key!r}")
    # every estimator's config, so that a bad value stops the run before any cell
    list(_estimators(m, build_grid(grid["lo"], grid["hi"], grid["count"]).lo))
    m["lambda"] = grid
    m["topologies"] = topologies
    m["distributions"] = dists
    p_max = max((t["kwargs"]["p"] for t in topologies), default=1)
    for i, n in enumerate(m["sample_sizes"]):
        if not _is_int(n) or n < 2:
            raise ConfigError(f"sample_sizes[{i}] must be an integer >= 2, got {n!r}")
        if n * p_max > MAX_ENTRIES:  # the n x p sample
            raise ConfigError(f"sample_sizes[{i}] must be at most {MAX_ENTRIES // p_max} "
                              f"for p={p_max}, got {n}")
    return m


def _estimators(manifest: dict, lam: float):
    """(mode, alpha, EMConfig at lam) of every estimator a simulate cell runs."""
    for mode, alpha in itertools.product(manifest["modes"], manifest["alphas"]):
        yield mode, alpha, EMConfig(
            penalty=PenaltyConfig(float(alpha), lam),
            mode=mode,
            nu=float(manifest["nu"]),
            rule=manifest["rule"],
            delta=manifest["delta"],
            max_iter=manifest["max_iter"],
        )


def _truth_seed(seed: int, topo_index: int) -> int:
    ss = np.random.SeedSequence(int(seed), spawn_key=(1, int(topo_index)))
    return int(ss.generate_state(1)[0])


def _simulate_cell(manifest: dict, cell: tuple) -> list:
    """metrics.csv rows of one (topology, distribution, n, run) cell of the
    resolved manifest: one truth and one sample, fitted by every mode x
    alpha estimator."""
    ti, di, ni, run = cell
    topo = manifest["topologies"][ti]
    dist = manifest["distributions"][di]
    n = manifest["sample_sizes"][ni]
    truth_edges, theta = generate_precision(
        TopologySpec(seed=_truth_seed(manifest["seed"], ti), **topo["kwargs"]))
    truth_pc = precision_to_partial_correlation(theta)
    rng = spawned_rng(manifest["seed"], 2, ti, di, ni, run)
    data = sample(theta, n, DistributionSpec(**dist["kwargs"]), rng)
    grid = build_grid(**manifest["lambda"])
    rows = []
    for mode, alpha, config in _estimators(manifest, grid.lo):
        row = dict.fromkeys(SIM_COLUMNS)
        row.update(topology=topo["label"], distribution=dist["label"], n=n, run=run,
                   estimator=mode, alpha=float(alpha))
        try:
            report = select(data, grid, config)
        except (EstimationError, SelectionError) as exc:
            row.update(failed=1, error=_clean_msg(exc))
        else:
            est_pc = precision_to_partial_correlation(report.state.psi)
            counts = confusion(est_pc.edge_set(), truth_edges)
            row.update({
                "lambda": report.chosen_lambda,
                "bic": report.bic_value,
                "edges": len(report.state.edges),
                "tp": counts.tp,
                "fp": counts.fp,
                "fn": counts.fn,
                "f1": f1_score(counts),
                "fdr": false_discovery_rate(counts),
                "frobenius": frobenius_distance(est_pc, truth_pc),
                "em_converged": int(report.state.converged),
                "failed": 0,
                "error": "",
            })
        rows.append(row)
    return rows


def _read_text(path: str, error: type) -> str:
    """The text of the UTF-8 file at path; a byte that does not decode raises
    error naming the file and the byte's offset."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: byte {exc.start}: not UTF-8 ({exc.reason})") from None


def _load_json(path: str, error: type) -> object:
    """The JSON document in the file at path; a syntax error raises error
    naming the file, line and column."""
    try:
        return json.loads(_read_text(path, error))
    except json.JSONDecodeError as exc:
        raise error(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from None
    except (ValueError, RecursionError) as exc:  # an int past 4300 digits, or deep nesting
        raise error(f"{path}: {exc}") from None


def cmd_simulate(args) -> int:
    manifest = _resolve_manifest(_load_json(args.manifest, ConfigError))
    if args.seed is not None:
        if args.seed < 0:
            raise ConfigError(f"--seed must be a non-negative integer, got {args.seed}")
        manifest["seed"] = args.seed
    if args.threads < 1:
        raise ConfigError(f"--threads must be a positive integer, got {args.threads}")
    os.makedirs(args.out, exist_ok=True)
    sizes = [len(manifest[key]) for key in ("topologies", "distributions", "sample_sizes")]
    cells = itertools.product(*map(range, sizes), range(manifest["runs"]))
    run_cell = functools.partial(_simulate_cell, manifest)
    workers = min(args.threads, math.prod(sizes) * manifest["runs"])
    if workers > 1:  # the pool starts all its workers at the first submit
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_cell, cells, chunksize=1))
    else:
        results = map(run_cell, cells)
    rows = [row for chunk in results for row in chunk]

    csv_path = os.path.join(args.out, "metrics.csv")
    _write_csv(csv_path, SIM_COLUMNS, ([r[c] for c in SIM_COLUMNS] for r in rows))

    groups = {}
    for r in rows:
        key = (r["topology"], r["distribution"], r["n"], r["estimator"], r["alpha"])
        groups.setdefault(key, []).append(r)
    aggregates = []
    for key in sorted(groups, key=str):
        g = groups[key]
        ok = [r for r in g if not r["failed"]]
        agg = {
            "topology": key[0], "distribution": key[1], "n": key[2],
            "estimator": key[3], "alpha": key[4],
            "rows": len(g), "failures": len(g) - len(ok),
        }
        if ok:
            agg["median_f1"] = statistics.median(r["f1"] for r in ok)
            agg["median_fdr"] = statistics.median(r["fdr"] for r in ok)
            agg["median_frobenius"] = statistics.median(r["frobenius"] for r in ok)
        aggregates.append(agg)
    summary = {"manifest": manifest, "rows": len(rows), "aggregates": aggregates}
    _write_json(summary, os.path.join(args.out, "summary.json"))
    print(f"wrote {len(rows)} rows to {csv_path}")
    return 0


# ---------------------------------------------------------------- estimate

def _estimator_config(args) -> tuple:
    if args.mode == "t" and args.nu is None:
        raise ConfigError("--nu is required with --mode t")
    nu = 3.0 if args.nu is None else float(args.nu)
    grid = build_grid(args.lambda_lo, args.lambda_hi, args.lambda_count)
    config = EMConfig(
        penalty=PenaltyConfig(args.alpha, grid.lo),
        mode=args.mode,
        nu=nu,
        rule=args.rule,
        delta=args.delta,
        max_iter=args.max_iter,
    )
    return config, grid


def _config_echo(config: EMConfig, grid: LambdaGrid) -> dict:
    return {
        "mode": config.mode,
        "nu": config.nu if config.mode == "t" else None,
        "alpha": config.penalty.alpha,
        "rule": config.rule,
        "delta": config.delta,
        "max_iter": config.max_iter,
        "lambda_grid": grid.to_json_dict(),
    }


def network_to_json_dict(pc: PartialCorrelationMatrix, names, lam: float, bic: float,
                         extra: dict | None = None) -> dict:
    names = list(names)
    edges = [
        {"i": j + 1, "j": k + 1, "weight": float(pc.values[j, k])}
        for j, k in pc.edge_set()
    ]
    d = {"p": pc.p, "nodes": names, "edges": edges, "lambda": lam, "bic": bic}
    if extra:
        d.update(extra)
    return d


def network_from_json_dict(d: dict) -> tuple:
    if not isinstance(d, dict):
        raise DataError(f"network JSON must be an object with fields p, nodes and edges, "
                        f"got {type(d).__name__}")
    if "p" not in d:
        raise DataError("network JSON has no field 'p'")
    p = d["p"]
    if isinstance(p, bool) or not isinstance(p, int) or p < 1:
        raise DataError(f"network JSON field 'p' must be a positive integer, got {p!r}")
    if p * p > MAX_ENTRIES:  # the p x p matrix
        raise DataError(f"network JSON field 'p' must be at most {math.isqrt(MAX_ENTRIES)}, "
                        f"got {p}")
    names = d["nodes"] if "nodes" in d else [f"x{j + 1}" for j in range(p)]
    if not isinstance(names, list):
        raise DataError(f"network JSON field 'nodes' must be a list of names, got {names!r}")
    names = [str(s) for s in names]
    if len(names) != p:
        raise DataError(f"network lists {len(names)} nodes for p={p}")
    dup = first_repeat(names)
    if dup is not None:
        raise DataError(f"network lists node {dup!r} twice")
    edges = d.get("edges", [])
    if not isinstance(edges, list):
        raise DataError(f"network JSON field 'edges' must be a list of edges, got {edges!r}")
    vals = np.zeros((p, p))
    seen = set()
    for k, e in enumerate(edges):
        try:
            i, j, w = e["i"], e["j"], e["weight"]
        except (KeyError, TypeError):
            raise DataError(f"edge {k + 1} {e!r}: needs numeric i, j and weight") from None
        if not _is_number(w):
            raise DataError(f"edge {k + 1} {e!r}: needs numeric i, j and weight")
        if not (_is_int(i) and _is_int(j)):
            raise DataError(f"edge {k + 1} {e!r}: node numbers i and j must be integers")
        if not _is_finite(w):
            raise DataError(f"edge {k + 1} {e!r}: weight must be finite")
        i, j = i - 1, j - 1
        if not (0 <= i < p and 0 <= j < p) or i == j:
            raise DataError(f"edge ({e['i']},{e['j']}) invalid for p={p}")
        pair = (min(i, j) + 1, max(i, j) + 1)
        if pair in seen:
            raise DataError(f"edge {k + 1} ({e['i']},{e['j']}) repeats the pair "
                            f"({pair[0]},{pair[1]})")
        seen.add(pair)
        vals[i, j] = vals[j, i] = w
    return PartialCorrelationMatrix(vals), names


def _write_json(obj: dict, path: str | None) -> None:
    text = json.dumps(obj, indent=2) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_estimate(args) -> int:
    config, grid = _estimator_config(args)
    data = Dataset.from_csv_text(_read_text(args.data, DataError))
    report = select(data, grid, config)
    pc = precision_to_partial_correlation(report.state.psi)
    out = network_to_json_dict(
        pc, data.column_names(), report.chosen_lambda, report.bic_value,
        extra={
            "config": _config_echo(config, grid),
            "em_converged": report.state.converged,
            "bic_table": report.to_json_dict()["records"],
        },
    )
    _write_json(out, args.out)
    return 0


# ---------------------------------------------------------------- analyze

def cmd_analyze(args) -> int:
    pc, names = network_from_json_dict(_load_json(args.network, DataError))
    meas = analytics.measures(pc, absolute_strength=args.absolute_strength)
    cent = analytics.node_centralities(pc, absolute_strength=args.absolute_strength)
    os.makedirs(args.out, exist_ok=True)
    mpath = os.path.join(args.out, "measures.csv")
    d = meas.to_json_dict()
    _write_csv(mpath, d.keys(), [d.values()])
    cpath = os.path.join(args.out, "centralities.csv")
    rows = [(j + 1, name, int(cent.degree[j]), float(cent.strength[j]), float(cent.eigenvector[j]))
            for j, name in enumerate(names)]
    _write_csv(cpath, ("node", "name", "degree", "strength", "eigenvector"), rows)
    print(f"wrote {mpath} and {cpath}")
    return 0


# ---------------------------------------------------------------- shock

def cmd_shock(args) -> int:
    pc, names = network_from_json_dict(_load_json(args.network, DataError))
    try:
        node = int(args.node) - 1
    except ValueError:
        if args.node not in names:
            raise DataError(f"node {args.node!r} not in network") from None
        node = names.index(args.node)
    if not (0 <= node < pc.p):
        raise DataError(f"node index {args.node} out of range 1..{pc.p}")
    res = analytics.shock(pc, node)
    out = {
        "node": node + 1,
        "name": names[node],
        "total": res.total,
        "spectral_radius": res.spectral_radius,
        "abs_radius_bound": res.abs_radius_bound,
        "steady_state": [float(v) for v in res.steady_state],
    }
    _write_json(out, args.out)
    return 0


# ---------------------------------------------------------------- pipeline

def cmd_pipeline(args) -> int:
    # Imported here, not at module level: pipeline loads scipy.optimize and
    # scipy.signal, which no other command needs and which would more than
    # double every command's start-up time.
    from . import pipeline

    config, grid = _estimator_config(args)
    try:
        prices = pipeline.PriceTable.from_csv_text(_read_text(args.prices, DataError))
        returns = pipeline.log_returns(prices)
    except ParcornetError as exc:
        raise type(exc)(f"returns: {exc}") from exc
    if not np.all(np.isfinite(returns)):
        raise DataError("returns: missing values present; clean the price panel first")
    os.makedirs(args.out, exist_ok=True)

    fits = []
    for name, series in zip(prices.names, returns.T):
        try:
            fits.append(pipeline.fit_ar_garch(series))
        except ParcornetError as exc:
            raise type(exc)(f"garch: series {name}: {exc}") from exc
    resid = np.column_stack([f.residuals for f in fits])
    resid_dates = prices.dates[2:]  # one row to the returns, one to the AR(1) lag
    _write_csv(os.path.join(args.out, "residuals.csv"), ("date", *prices.names),
               ((d, *row) for d, row in zip(resid_dates, resid.tolist())))

    garch_rows = []
    for name, f in zip(prices.names, fits):
        ksn, rejn = pipeline.ks_statistic(f.residuals, "normal")
        if config.mode == "t":
            kst, rejt = pipeline.ks_statistic(f.residuals, "t", nu=config.nu)
            t_cells = (kst, int(rejt))
        else:
            t_cells = (None, None)
        garch_rows.append((name, f.c, f.phi, f.omega, f.a, f.b, f.loglik, ksn, int(rejn),
                           *t_cells))
    _write_csv(os.path.join(args.out, "garch.csv"),
               ("series", "c", "phi", "omega", "a", "b", "loglik", "ks_normal",
                "ks_normal_reject", "ks_t", "ks_t_reject"), garch_rows)

    try:
        windows = pipeline.rolling_estimate(resid, args.window, args.step, config, grid)
    except ParcornetError as exc:
        raise type(exc)(f"windows: {exc}") from exc

    wdir = os.path.join(args.out, "windows")
    os.makedirs(wdir, exist_ok=True)
    strength_rows = []
    for w in windows:
        path = os.path.join(wdir, f"window_{w.index:03d}.json")
        base = {
            "window": w.index,
            "start_row": w.start,
            "stop_row": w.stop,
            "start_date": resid_dates[w.start],
            "end_date": resid_dates[w.stop - 1],
        }
        strength = None
        if w.report is not None:
            pc = precision_to_partial_correlation(w.report.state.psi)
            meas = analytics.measures(pc, absolute_strength=args.absolute_strength)
            strength = meas.mean_strength
            net = network_to_json_dict(
                pc, prices.names, w.report.chosen_lambda, w.report.bic_value,
                extra={"measures": meas.to_json_dict()},
            )
            _write_json({**base, **net}, path)
        else:
            _write_json({**base, "error": w.error}, path)
        strength_rows.append((w.index, base["start_date"], base["end_date"], strength,
                              _clean_msg(w.error) if w.error else ""))
    _write_csv(os.path.join(args.out, "strength.csv"),
               ("window", "start_date", "end_date", "mean_strength", "error"), strength_rows)

    summary = {
        "config": _config_echo(config, grid),
        "window": args.window,
        "step": args.step,
        "series": list(prices.names),
        "rows": resid.shape[0],
        "windows": len(windows),
        "failed_windows": sum(1 for w in windows if w.error),
    }
    _write_json(summary, os.path.join(args.out, "summary.json"))
    print(f"wrote {len(windows)} windows to {args.out}")
    return 0


# ---------------------------------------------------------------- parser

def _finite_float(text: str) -> float:
    """argparse type of the float flags: a finite number."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not _is_finite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _add_estimator_flags(sp) -> None:
    sp.add_argument("--mode", choices=MODES, default="t")
    sp.add_argument("--nu", type=_finite_float, default=None,
                    help="tail parameter; required with --mode t")
    m, grid = MANIFEST_DEFAULTS, MANIFEST_DEFAULTS["lambda"]
    sp.add_argument("--alpha", type=_finite_float, default=m["alphas"][0])
    sp.add_argument("--lambda-lo", type=_finite_float, default=grid["lo"])
    sp.add_argument("--lambda-hi", type=_finite_float, default=grid["hi"])
    sp.add_argument("--lambda-count", type=int, default=grid["count"])
    sp.add_argument("--rule", choices=RULES, default=m["rule"])
    sp.add_argument("--delta", type=_finite_float, default=m["delta"])
    sp.add_argument("--max-iter", type=int, default=m["max_iter"])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="parcornet",
        description="Sparse partial-correlation networks for heavy-tailed data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("simulate", help="Monte Carlo study from a JSON manifest")
    sp.add_argument("manifest")
    sp.add_argument("--out", required=True, help="output directory")
    sp.add_argument("--seed", type=int, default=None, help="override the manifest seed")
    sp.add_argument("--threads", type=int, default=1)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("estimate", help="estimate a network from a data CSV")
    sp.add_argument("data")
    _add_estimator_flags(sp)
    sp.add_argument("--out", default=None, help="output JSON path (default stdout)")
    sp.set_defaults(func=cmd_estimate)

    sp = sub.add_parser("analyze", help="measures and centralities from a network JSON")
    sp.add_argument("network")
    sp.add_argument("--out", default=".", help="output directory")
    sp.add_argument("--absolute-strength", action="store_true")
    sp.set_defaults(func=cmd_analyze)

    sp = sub.add_parser("shock", help="propagate a unit shock from one node")
    sp.add_argument("network")
    sp.add_argument("--node", required=True, help="1-based index or node name")
    sp.add_argument("--out", default=None, help="output JSON path (default stdout)")
    sp.set_defaults(func=cmd_shock)

    sp = sub.add_parser("pipeline", help="prices CSV to rolling-window networks")
    sp.add_argument("prices")
    _add_estimator_flags(sp)
    sp.add_argument("--window", type=int, default=TRADING_DAYS_PER_YEAR)
    sp.add_argument("--step", type=int, default=TRADING_DAYS_PER_MONTH)
    sp.add_argument("--absolute-strength", action="store_true")
    sp.add_argument("--out", required=True, help="output directory")
    sp.set_defaults(func=cmd_pipeline)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (*INPUT_ERRORS, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RUN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
