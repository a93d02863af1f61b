"""Command-line entry points.

Three subcommands: ``fit`` estimates one model from a dataset CSV,
``simulate`` runs the estimator comparison grid, ``analyze`` fits the
shared-row-covariance class models and writes the projection, distance,
clustering, and classification reports.

Exit codes: 0 on success, 1 on input or data errors, 3 when a fit ran but
did not converge (outputs are still written).
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .io import _csv_text, _write_json, atomic_write_text, load_dataset, save_params
from .mle import _STEP_TOL, EstimationError, FitConfig, fit_mle
from .missing import fit_em, fit_gem, fit_mm
from .model import DataError, ObservationSet
from .simulate import SimConfig, run_grid
from .spectral import (
    LabeledObservationSet,
    distance_matrix,
    fit_class_models,
    hierarchical_cluster,
    mle_classify,
    pca_row_cov,
    project,
    projected_class_stats,
    separability,
)

_EXIT_OK = 0
_EXIT_INPUT = 1
_EXIT_NO_CONVERGE = 3
_TOL_HELP = (
    "log-likelihood change per observed entry to stop at; a parameter step on the model's "
    f"unit-free coordinates below {_STEP_TOL:g} stops the fit too"
)


class _CliError(Exception):
    """Bad command-line input; reported on stderr with exit code 1."""


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matnorm",
        description="Matrix-variate normal estimation with missing data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the fit knobs every subcommand takes, defaulting to FitConfig's
    fitting = argparse.ArgumentParser(add_help=False)
    fitting.add_argument("--tol", type=float, default=FitConfig.tol, help=_TOL_HELP)
    fitting.add_argument(
        "--max-iters", type=_positive_int, default=FitConfig.max_iters, help="fit iteration cap"
    )

    fit = sub.add_parser("fit", parents=[fitting], help="fit one model to a dataset CSV")
    fit.add_argument("--input", required=True, help="dataset CSV path")
    fit.add_argument(
        "--method",
        required=True,
        choices=("mle", "mm", "gem", "em"),
        help="estimator to run",
    )
    fit.add_argument("--p", required=True, type=_positive_int, help="rows per observation")
    fit.add_argument("--q", required=True, type=_positive_int, help="columns per observation")
    fit.add_argument("--verbose", action="store_true", help="per-iteration summary lines on stderr")
    fit.add_argument("--output", required=True, help="parameter JSON path")
    fit.set_defaults(func=cmd_fit)

    sim = sub.add_parser("simulate", parents=[fitting], help="run the estimator comparison grid")
    sim.add_argument("--dims", default="3x5,3x7", help="comma list of PxQ shapes, e.g. 3x5,3x7")
    sim.add_argument("--sizes", default="250,500,1000", help="comma list of sample sizes")
    sim.add_argument("--miss", default="0.05,0.1,0.15,0.2", help="comma list of missingness proportions")
    sim.add_argument("--replicates", type=_positive_int, default=100, help="replicates per cell")
    sim.add_argument("--methods", default="mm,gem,em", help="comma list drawn from mm,gem,em")
    sim.add_argument("--seed", type=int, default=0, help="grid seed")
    sim.add_argument("--output", required=True, help="results CSV path")
    sim.add_argument("--summary", default=None, help="optional per-cell summary JSON path")
    sim.set_defaults(func=cmd_simulate)

    ana = sub.add_parser(
        "analyze", parents=[fitting], help="class models, projection, and clustering report"
    )
    ana.add_argument("--input", required=True, help="labeled dataset CSV path")
    ana.add_argument("--method", required=True, choices=("mm", "em"), help="missing-data strategy")
    ana.add_argument("--pcs", required=True, type=_positive_int, help="number of components to keep")
    ana.add_argument("--outdir", required=True, help="directory for report files")
    ana.set_defaults(func=cmd_analyze)

    return parser


def _load_values(path: str, p: int, q: int) -> np.ndarray:
    values, _ = load_dataset(path)
    got = values.shape[1:]
    if got != (p, q):
        raise _CliError(
            f"{path}: header describes a {got[0]}x{got[1]} observation, "
            f"but --p {p} --q {q} was requested"
        )
    return values


def _meta(method: str, result) -> dict:
    return {
        "method": method,
        "iterations": int(result.iterations),
        "converged": bool(result.converged),
        "loglik": float(result.loglik_trace[-1]),
    }


def cmd_fit(args: argparse.Namespace) -> int:
    values = _load_values(args.input, args.p, args.q)
    if args.method == "mle" and np.isnan(values).any():
        i, r, c = np.argwhere(np.isnan(values))[0]
        raise _CliError(
            f"{args.input}: method mle needs complete data, but data row "
            f"{i + 1}, column x_r{r + 1}_c{c + 1} is missing; "
            "use mm, gem, or em"
        )
    data = ObservationSet(values)
    cfg = FitConfig(max_iters=args.max_iters, tol=args.tol)

    if args.method == "gem":
        params, result = fit_gem(data, cfg)
    else:
        fitter = {"mle": fit_mle, "mm": fit_mm, "em": fit_em}[args.method]
        result = fitter(data, cfg)
        params = result.params

    if args.verbose:
        for k, value in enumerate(result.loglik_trace):
            print(f"iter {k}: loglik {value:.10f}", file=sys.stderr)

    save_params(args.output, params, _meta(args.method, result))
    if not result.converged:
        print(
            f"warning: {args.method} stopped after {result.iterations} "
            "iterations without meeting the tolerance",
            file=sys.stderr,
        )
        return _EXIT_NO_CONVERGE
    return _EXIT_OK


def _parse_dims(text: str) -> tuple:
    dims = []
    for chunk in text.split(","):
        chunk = chunk.strip().lower()
        if not chunk:
            continue
        parts = chunk.split("x")
        if len(parts) != 2:
            raise _CliError(f"cannot parse shape {chunk!r}; expected PxQ like 3x5")
        try:
            dims.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise _CliError(f"cannot parse shape {chunk!r}; expected PxQ like 3x5")
    if not dims:
        raise _CliError("--dims produced no shapes")
    return tuple(dims)


def _parse_numbers(text: str, flag: str, kind: type) -> tuple:
    out = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            out.append(kind(chunk))
        except ValueError:
            raise _CliError(f"cannot parse {chunk!r} in {flag}")
    if not out:
        raise _CliError(f"{flag} produced no values")
    return tuple(out)


def cmd_simulate(args: argparse.Namespace) -> int:
    try:
        cfg = SimConfig(
            dims=_parse_dims(args.dims),
            sample_sizes=_parse_numbers(args.sizes, "--sizes", int),
            miss_props=_parse_numbers(args.miss, "--miss", float),
            replicates=args.replicates,
            seed=args.seed,
            methods=tuple(m.strip() for m in args.methods.split(",") if m.strip()),
            fit=FitConfig(max_iters=args.max_iters, tol=args.tol),
        )
    except ValueError as exc:
        raise _CliError(str(exc))

    total = len(cfg.dims) * len(cfg.sample_sizes) * len(cfg.miss_props)
    done = [0]

    def progress(status: str) -> None:
        done[0] += 1
        print(f"[{done[0]}/{total}] {status}", file=sys.stderr)

    report = run_grid(cfg, progress=progress)
    atomic_write_text(args.output, report.csv_text())
    if args.summary is not None:
        _write_json(args.summary, report.summary())
    return _EXIT_OK


def _keyed_rows(keys, table: np.ndarray) -> list:
    """Each row of ``table`` after its key, as one CSV row."""
    return [[key] + row for key, row in zip(keys, table.tolist())]


def cmd_analyze(args: argparse.Namespace) -> int:
    values, labels = load_dataset(args.input)
    if labels is None:
        raise _CliError(
            f"{args.input}: analyze needs a leading label column with class ids"
        )
    try:
        data = LabeledObservationSet(values, labels)
    except ValueError as exc:
        raise _CliError(f"{args.input}: {exc}")
    p = data.p
    if data.n_classes < 2:
        raise _CliError("analyze needs at least two classes")
    if args.pcs > p:
        raise _CliError(
            f"--pcs {args.pcs} exceeds the {p} rows of one observation"
        )

    cfg = FitConfig(max_iters=args.max_iters, tol=args.tol)
    model = fit_class_models(data, method=args.method, config=cfg)
    pca = pca_row_cov(model, args.pcs)

    scores = project(model.completions, pca)
    stats = projected_class_stats(scores, data.labels)
    dist = distance_matrix(stats)
    total_d, log_d = separability(dist)
    merges = hierarchical_cluster(dist)
    predicted = mle_classify(model.completions, model, pca, args.pcs)

    k_classes = data.n_classes
    classes = range(1, k_classes + 1)
    confusion = np.bincount(
        (data.labels - 1) * k_classes + (predicted - 1), minlength=k_classes**2
    ).reshape(k_classes, k_classes)
    # Cluster ids are shifted by one so leaves 1..K line up with the class
    # labels; merged clusters continue as K+1, K+2, ...
    dendrogram = {
        "format_version": 1,
        "leaves": list(classes),
        "merges": [
            {
                "left": int(m.left) + 1,
                "right": int(m.right) + 1,
                "height": float(m.height),
                "size": int(m.size),
            }
            for m in merges
        ],
    }
    summary = {
        "format_version": 1,
        "n_obs": int(data.n_obs),
        "p": int(p),
        "q": int(data.q),
        "n_classes": int(k_classes),
        "method": args.method,
        "pcs": int(args.pcs),
        "converged": bool(model.converged),
        "iterations": int(model.iterations),
        "loglik": float(model.loglik_trace[-1]),
        "separability": {"total": float(total_d), "log": float(log_d)},
        "accuracy": float(np.mean(predicted == data.labels)),
    }
    pca_table = np.column_stack(
        [pca.eigenvalues, pca.fractions, np.cumsum(pca.fractions), pca.eigenvectors.T]
    )
    tables = {
        "pca.csv": (
            ["component", "eigenvalue", "fraction", "cumulative"]
            + [f"loading_r{r}" for r in range(1, p + 1)],
            _keyed_rows(range(1, p + 1), pca_table),
        ),
        "projections.csv": (
            ["label"] + [f"pc{k}" for k in range(1, args.pcs + 1)],
            _keyed_rows(data.labels.tolist(), scores.mean(axis=2)),
        ),
        "distances.csv": (
            ["class"] + [f"class_{j}" for j in classes],
            _keyed_rows(classes, dist),
        ),
        "confusion.csv": (
            ["true_class"] + [f"pred_{j}" for j in classes],
            _keyed_rows(classes, confusion),
        ),
    }

    os.makedirs(args.outdir, exist_ok=True)
    for name, (header, rows) in tables.items():
        atomic_write_text(os.path.join(args.outdir, name), _csv_text(header, rows))
    _write_json(os.path.join(args.outdir, "dendrogram.json"), dendrogram)
    _write_json(os.path.join(args.outdir, "summary.json"), summary)

    if not model.converged:
        print(
            f"warning: class-model fit stopped after {model.iterations} "
            "iterations without meeting the tolerance",
            file=sys.stderr,
        )
        return _EXIT_NO_CONVERGE
    return _EXIT_OK


def main(argv: "list | None" = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (_CliError, DataError, EstimationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_INPUT
    except np.linalg.LinAlgError as exc:
        print(f"error: linear algebra failure: {exc}", file=sys.stderr)
        return _EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
