"""Seeded input generator for every benchmark workload.

Uses numpy and the standard library only and never imports compresslaw, so
the program under test receives nothing but files and arguments.  The same
seed gives byte-identical files.  Floats are written with ``repr`` of Python
floats, the shortest exact form, which ``compresslaw.io.read_records``
accepts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

SCHEMA = "compresslaw/v1"
HEADER = "model_id,metric,l0,r,d,l\r\n"
EPSILON = 1.0

FIT_TRUTH = (0.63, 1.72, 1.16)  # loss law of the ROADMAP Baseline
FIT_GRID = (20, 50, 100)
FIT_NOISE = 0.05
FIT_CORRUPT_SHARE = 0.001

WRITE_SYNTH_GRID = (20, 50, 100)
WRITE_FRONTIER_GRID = (10, 100, 100)
WRITE_NOISE = 0.05

SMALL_GRID = (3, 3, 5)  # the 45-row fit of the interactive workload
SMALL_CORRUPT = 2
VARIANTS = 8  # seeded argument sets per interactive CLI operation kind

# Each corruption makes read_records reject the row: a non-number, an
# out-of-domain value, a non-finite value or an unknown metric.
_CORRUPTIONS = (
    lambda f: [f[0], f[1], "abc", f[3], f[4], f[5]],
    lambda f: [f[0], f[1], f[2], "1.5", f[4], f[5]],
    lambda f: [f[0], f[1], f[2], f[3], "-2.5", f[5]],
    lambda f: [f[0], f[1], f[2], f[3], f[4], "0.0"],
    lambda f: [f[0], f[1], f[2], f[3], f[4], "nan"],
    lambda f: [f[0], "bogus", f[2], f[3], f[4], f[5]],
)


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def grid_axes(rng: np.random.Generator, sizes: tuple[int, int, int]) -> tuple[list, list, list]:
    """Distinct sorted ``l0``, ``r`` and ``d`` axes; ``r`` and ``d`` start at 0."""
    n_l0, n_r, n_d = sizes
    l0 = np.sort(rng.uniform(1.2, 4.0, n_l0))
    r = np.sort(np.concatenate([[0.0], rng.uniform(0.0, 0.9, n_r - 1)]))
    d = np.sort(np.concatenate([[0.0], 10.0 ** rng.uniform(0.0, 5.0, n_d - 1)]))
    return l0.tolist(), r.tolist(), d.tolist()


def log_prediction(law: tuple[float, float, float], l0, r, d, epsilon: float = EPSILON) -> np.ndarray:
    """``log`` of the compression law, evaluated with numpy."""
    alpha, beta, gamma = law
    l0, r, d = (np.asarray(v, dtype=float) for v in (l0, r, d))
    return alpha * np.log(l0) + beta * np.log1p(r) + gamma * np.log1p(1.0 / (d + epsilon))


def mesh(l0: list, r: list, d: list) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The grid's points in lexicographic ``(l0, r, d)`` order."""
    a, b, c = np.meshgrid(l0, r, d, indexing="ij")
    return a.ravel(), b.ravel(), c.ravel()


def record_lines(model_id: str, metric: str, l0, r, d, l) -> list[list[str]]:
    return [
        [model_id, metric, repr(a), repr(b), repr(c), repr(v)]
        for a, b, c, v in zip(l0.tolist(), r.tolist(), d.tolist(), l.tolist())
    ]


def csv_text(rows: list[list[str]]) -> str:
    return HEADER + "".join(",".join(row) + "\r\n" for row in rows)


def corrupt(rng: np.random.Generator, rows: list[list[str]], count: int) -> list[list[str]]:
    """A copy of ``rows`` with ``count`` distinct rows made invalid."""
    rows = list(rows)
    picks = rng.choice(len(rows), size=count, replace=False)
    kinds = rng.integers(0, len(_CORRUPTIONS), size=count)
    for i, k in zip(picks.tolist(), kinds.tolist()):
        rows[i] = _CORRUPTIONS[k](rows[i])
    return rows


def law_doc(metric: str, alpha: float, beta: float, gamma: float) -> dict:
    return {
        "schema_version": SCHEMA,
        "kind": "compression",
        "metric": metric,
        "alpha": alpha,
        "beta": beta,
        "gamma": gamma,
        "epsilon": EPSILON,
        "stats": None,
    }


def runtime_doc(c: float, beta: float) -> dict:
    return {"schema_version": SCHEMA, "kind": "runtime", "c": c, "beta": beta, "stats": None}


def _write(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8", newline="")


def _write_json(path: Path, doc: dict) -> None:
    _write(path, json.dumps(doc, indent=2) + "\n")


# ---------------------------------------------------------------------------
# fit_100k
# ---------------------------------------------------------------------------


@dataclass
class FitInputs:
    records: Path
    corrupt: Path
    truth: tuple[float, float, float]
    n: int
    corrupted: int


def fit_inputs(seed: int, out: Path, grid: tuple[int, int, int] = FIT_GRID, corrupt_count: int | None = None) -> FitInputs:
    """A noisy records CSV from the Baseline truth law, plus a copy with corrupted rows."""
    rng = _rng(seed, 1)
    l0, r, d = mesh(*grid_axes(rng, grid))
    l = np.exp(log_prediction(FIT_TRUTH, l0, r, d) + rng.normal(0.0, FIT_NOISE, l0.size))
    rows = record_lines("bench", "loss", l0, r, d, l)
    n = len(rows)
    count = max(1, round(n * FIT_CORRUPT_SHARE)) if corrupt_count is None else corrupt_count
    inputs = FitInputs(out / "records.csv", out / "records_corrupt.csv", FIT_TRUTH, n, count)
    _write(inputs.records, csv_text(rows))
    _write(inputs.corrupt, csv_text(corrupt(rng, rows, count)))
    return inputs


# ---------------------------------------------------------------------------
# write_100k
# ---------------------------------------------------------------------------


@dataclass
class WriteInputs:
    truth_path: Path
    grid_path: Path
    truth: tuple[float, float, float]
    synth_axes: tuple[list, list, list]
    synth_seed: int
    noise_std: float
    frontier_axes: tuple[list, list, list]

    @property
    def synth_rows(self) -> int:
        return int(np.prod([len(a) for a in self.synth_axes]))

    @property
    def frontier_rows(self) -> int:
        return int(np.prod([len(a) for a in self.frontier_axes]))


def write_inputs(
    seed: int,
    out: Path,
    synth_grid: tuple[int, int, int] = WRITE_SYNTH_GRID,
    frontier_grid: tuple[int, int, int] = WRITE_FRONTIER_GRID,
) -> WriteInputs:
    """A seeded loss law, a synth grid file and the frontier axes."""
    rng = _rng(seed, 2)
    truth = (float(rng.uniform(0.5, 0.8)), float(rng.uniform(1.4, 2.0)), float(rng.uniform(0.8, 1.4)))
    synth_axes = grid_axes(rng, synth_grid)
    frontier_axes = grid_axes(rng, frontier_grid)
    inputs = WriteInputs(
        out / "truth.json",
        out / "grid.json",
        truth,
        synth_axes,
        int(rng.integers(0, 2**31)),
        WRITE_NOISE,
        frontier_axes,
    )
    _write_json(inputs.truth_path, law_doc("loss", *truth))
    l0, r, d = synth_axes
    _write_json(inputs.grid_path, {"l0_values": l0, "r_values": r, "d_values": d, "model_id": "bench"})
    return inputs


# ---------------------------------------------------------------------------
# interactive
# ---------------------------------------------------------------------------


@dataclass
class InteractiveInputs:
    fit: FitInputs
    laws: dict[str, list[Path]] = field(default_factory=dict)
    law_params: dict[str, list[tuple]] = field(default_factory=dict)
    registry: Path | None = None
    ops: list[dict] = field(default_factory=list)


def _law_params(rng: np.random.Generator, metric: str) -> tuple[float, float, float]:
    if metric == "loss":
        return float(rng.uniform(0.4, 0.9)), float(rng.uniform(1.2, 2.4)), float(rng.uniform(0.2, 1.6))
    return float(rng.uniform(0.6, 1.2)), float(rng.uniform(-1.5, -0.5)), float(rng.uniform(-0.25, -0.04))


def _sigma(rng: np.random.Generator, metric: str, beta: float, conditional: bool) -> tuple[float, float | None]:
    """A threshold in the chosen regime and, when conditional, its critical ratio."""
    if conditional:
        r_critical = float(rng.uniform(0.1, 0.9))
        return (1.0 + r_critical) ** beta, r_critical
    boundary = 2.0**beta
    if metric == "loss":
        return boundary * float(rng.uniform(1.05, 1.5)), None
    return boundary * float(rng.uniform(0.5, 0.95)), None


def _l0(rng: np.random.Generator, metric: str) -> float:
    return float(rng.uniform(1.5, 3.5)) if metric == "loss" else float(rng.uniform(0.3, 0.8))


def _d(rng: np.random.Generator) -> float:
    return 0.0 if rng.random() < 0.25 else float(10.0 ** rng.uniform(0.0, 5.0))


def interactive_inputs(seed: int, out: Path, fixtures: Path) -> InteractiveInputs:
    """A 45-row records CSV, law files, a planner registry and seeded CLI arguments.

    The registry is the bundled fixture registry (read as plain JSON) with a
    seeded ``l0`` on every entry that carries ``param_count``.  Budgets are
    drawn so that the largest models sometimes need a ratio above the 0.9
    cap and are skipped.
    """
    rng = _rng(seed, 3)
    small = fit_inputs(seed, out, SMALL_GRID, SMALL_CORRUPT)
    inputs = InteractiveInputs(fit=small)
    for metric in ("loss", "accuracy"):
        paths, params = [], []
        for i in range(VARIANTS):
            law = _law_params(rng, metric)
            path = out / f"law_{metric}_{i}.json"
            _write_json(path, law_doc(metric, *law))
            paths.append(path)
            params.append(law)
        inputs.laws[metric], inputs.law_params[metric] = paths, params
    paths, params = [], []
    for i in range(VARIANTS):
        law = (float(rng.uniform(0.5, 2.0)), float(rng.uniform(-2.0, -0.2)))
        path = out / f"law_runtime_{i}.json"
        _write_json(path, runtime_doc(*law))
        paths.append(path)
        params.append(law)
    inputs.laws["runtime"], inputs.law_params["runtime"] = paths, params

    registry = json.loads(fixtures.read_text(encoding="utf-8"))
    for entry in registry["entries"]:
        if "param_count" in entry and entry["metric"] in ("loss", "accuracy"):
            entry["l0"] = _l0(rng, entry["metric"])
    inputs.registry = out / "registry.json"
    _write_json(inputs.registry, registry)

    for i in range(VARIANTS):
        metric = "loss" if i % 2 == 0 else "accuracy"
        k = int(rng.integers(0, VARIANTS))
        beta = inputs.law_params[metric][k][1]
        sigma, r_critical = _sigma(rng, metric, beta, conditional=i % 3 != 2)
        inputs.ops.append({"op": "critical", "metric": metric, "beta": beta, "sigma": sigma, "r_critical": r_critical})

        # min-rft: recoverable below the critical ratio, unrecoverable above it,
        # and the always-recoverable regime.
        case = i % 3
        sigma, r_critical = _sigma(rng, metric, beta, conditional=case != 2)
        if case == 0:
            r = r_critical * float(rng.uniform(0.2, 0.9))
        elif case == 1:
            r = r_critical + float(rng.uniform(0.01, 0.99 - r_critical))
        else:
            r = float(rng.uniform(0.0, 0.9))
        inputs.ops.append({"op": "min-rft", "metric": metric, "law": k, "sigma": sigma, "r": r})

        inputs.ops.append(
            {
                "op": "predict",
                "metric": metric,
                "law": int(rng.integers(0, VARIANTS)),
                "l0": _l0(rng, metric),
                "r": float(rng.uniform(0.0, 0.9)),
                "d": _d(rng),
            }
        )
        inputs.ops.append(
            {"op": "predict", "metric": "runtime", "law": int(rng.integers(0, VARIANTS)), "r": float(rng.uniform(0.0, 0.9))}
        )
        inputs.ops.append(
            {"op": "plan", "metric": metric, "budget": float(rng.uniform(0.4e9, 3.0e9)), "d": _d(rng)}
        )
        inputs.ops.append({"op": "fit"})
    return inputs
