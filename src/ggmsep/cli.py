"""Command-line front end.

Subcommands: kl, bounds, project, fit, select, experiment. Inputs and
outputs are the JSON documents defined in the serialization module;
randomness enters experiments only through the configured (or --seed
overridden) base seed.

Exit codes: 0 success, 2 unreadable or invalid input (an unknown flag or
config key too), 3 math-domain error (for example a matrix that is not
positive definite), 4 a fit's duality gap was not certified within
rounding (fit, or any candidate's fit in select; the result is still
written, its duality_gap "Infinity" when no bound was found).

Each command imports its own computation when it runs, so kl and bounds
never load projection, selection or simulation: without a bytecode cache,
every module a call loads is compiled again on that call.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Optional, Sequence, TypeVar

from .errors import GgmError, InvalidParameters
from .serialization import (
    dumps,
    load_candidates,
    load_covariance,
    load_edge_set,
    load_precision,
    matrix_doc,
    write_json,
)

if TYPE_CHECKING:
    from .projection import FitOptions

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_MATH = 3
EXIT_NOT_CONVERGED = 4

T = TypeVar("T")


def _emit(args: argparse.Namespace, doc: object) -> None:
    out = getattr(args, "out", None)
    if out:
        write_json(out, doc)
    else:
        sys.stdout.write(dumps(doc) + "\n")


def _in_range(flags: str, compute: Callable[[], T]) -> T:
    # a flag out of range is bad input (exit 2); the message names it
    try:
        return compute()
    except InvalidParameters as exc:
        raise ValueError(f"{flags} out of range: {exc}") from None


def _fit_options(args: argparse.Namespace) -> FitOptions:
    from .projection import FitOptions

    # a flag left out keeps FitOptions' default
    given = {} if args.max_iterations is None else {"max_iterations": args.max_iterations}
    return _in_range("--max-iterations", lambda: FitOptions(**given))


def _add_fit_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--gamma", type=float, required=True,
                        help="Frobenius-ball radius; 'inf' disables the ball")
    parser.add_argument("--max-iterations", type=int, help="cap on Newton steps (a fit stops on its duality gap)")


def _cmd_kl(args: argparse.Namespace) -> int:
    from .divergence import kl_gaussian

    theta1 = load_precision(args.theta1)
    theta2 = load_precision(args.theta2)
    _emit(args, {"kl": kl_gaussian(theta1, theta2)})
    return EXIT_OK


def _cmd_bounds(args: argparse.Namespace) -> int:
    from .divergence import c_theta_star, omega_inf_lower_bound, one_edge_lower_bound

    if (args.alpha is None) != (args.h is None):
        raise ValueError("--alpha and --h must be given together")
    theta = load_precision(args.theta)
    doc = {
        "c_star": c_theta_star(theta),
        "bound": one_edge_lower_bound(theta),
    }
    if args.alpha is not None:
        doc["omega_inf_bound"] = _in_range("--alpha/--h", lambda: omega_inf_lower_bound(args.alpha, args.h))
    _emit(args, doc)
    return EXIT_OK


def _cmd_project(args: argparse.Namespace) -> int:
    from .projection import project_remove_edge, project_remove_star

    theta = load_precision(args.theta)
    if args.edge is not None:
        result = project_remove_edge(theta, tuple(args.edge))
    else:
        vertex_text, neighbors_text = args.star
        neighbors = [int(tok) for tok in neighbors_text.split(",") if tok != ""]
        result = project_remove_star(theta, int(vertex_text), neighbors)
    _emit(args, matrix_doc(result))
    return EXIT_OK


def _cmd_fit(args: argparse.Namespace) -> int:
    from .projection import fit_graph_mle

    sigma = load_covariance(args.sigma)
    graph = load_edge_set(args.graph)
    opts = _fit_options(args)
    result = _in_range("--gamma", lambda: fit_graph_mle(sigma, graph, args.gamma, opts))
    _emit(args, result.to_dict())
    return EXIT_OK if result.converged else EXIT_NOT_CONVERGED


def _cmd_select(args: argparse.Namespace) -> int:
    from .selection import CandidateCollection, select_graph

    sigma = load_covariance(args.sigma)
    collection = CandidateCollection(load_candidates(args.candidates))
    opts = _fit_options(args)
    result = _in_range("--gamma", lambda: select_graph(collection, sigma, args.gamma, opts))
    _emit(args, result.to_dict())
    return EXIT_NOT_CONVERGED if result.unconverged else EXIT_OK


def _cmd_experiment(args: argparse.Namespace) -> int:
    from .simulation import run_experiment

    if args.seed is not None and args.kind == "counterexample":
        raise ValueError("--seed does not apply to counterexample, which draws nothing at random")
    doc = json.loads(Path(args.config).read_text())
    if not isinstance(doc, dict):
        raise ValueError("experiment config must be a JSON object")
    if args.seed is not None:
        doc["base_seed"] = args.seed
    progress = (lambda message: print(message, file=sys.stderr)) if not args.quiet else None
    json_path, csv_path = run_experiment(args.kind, doc, progress).write(args.out)
    sys.stdout.write(dumps({"report": str(json_path), "aggregates": str(csv_path)}) + "\n")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ggmsep",
        description="KL separation between Gaussian graphical models with mismatched edge sets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_kl = sub.add_parser("kl", help="KL divergence between two precision-matrix files (nats)")
    p_kl.add_argument("theta1", help="precision matrix JSON (base distribution)")
    p_kl.add_argument("theta2", help="precision matrix JSON (comparison distribution)")
    p_kl.add_argument("--out", help="write the JSON result here instead of stdout")
    p_kl.set_defaults(handler=_cmd_kl)

    p_bounds = sub.add_parser("bounds", help="separation constant and one-edge lower bound")
    p_bounds.add_argument("theta", help="precision matrix JSON")
    p_bounds.add_argument("--alpha", type=float, help="entrywise-class minimum coupling")
    p_bounds.add_argument("--h", type=float, help="entrywise-class diagonal bound")
    p_bounds.add_argument("--out")
    p_bounds.set_defaults(handler=_cmd_bounds)

    p_project = sub.add_parser("project", help="KL-optimal edge or star deletion")
    p_project.add_argument("theta", help="precision matrix JSON")
    group = p_project.add_mutually_exclusive_group(required=True)
    group.add_argument("--edge", nargs=2, type=int, metavar=("I", "J"),
                       help="delete the single edge (I, J)")
    group.add_argument("--star", nargs=2, metavar=("V", "N1,N2,..."),
                       help="delete every edge between V and the listed neighbors")
    p_project.add_argument("--out")
    p_project.set_defaults(handler=_cmd_project)

    p_fit = sub.add_parser("fit", help="constrained maximum-likelihood precision fit")
    p_fit.add_argument("sigma", help="covariance matrix JSON")
    p_fit.add_argument("graph", help="edge-set JSON restricting the support")
    _add_fit_flags(p_fit)
    p_fit.add_argument("--out")
    p_fit.set_defaults(handler=_cmd_fit)

    p_select = sub.add_parser("select", help="minimum-score graph among candidates")
    p_select.add_argument("sigma", help="covariance matrix JSON")
    p_select.add_argument("candidates", help="JSON array of edge-set documents")
    _add_fit_flags(p_select)
    p_select.add_argument("--out")
    p_select.set_defaults(handler=_cmd_select)

    p_exp = sub.add_parser("experiment", help="run a reproducible experiment and write reports")
    p_exp.add_argument("kind", help="experiment kind; an unknown one exits 2 listing the kinds")
    p_exp.add_argument("config", help="experiment configuration JSON")
    p_exp.add_argument("--out", required=True, help="directory for the report and CSV files")
    p_exp.add_argument("--seed", type=int, help="override base_seed (counterexample has none)")
    p_exp.add_argument("--quiet", action="store_true", help="suppress the progress counter on stderr")
    p_exp.set_defaults(handler=_cmd_experiment)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except GgmError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_MATH
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
