"""Command-line front end: generate, ingest, reduce, evaluate.

Exit codes: 0 success, 2 bad input, usage or parameters (such as a
``--lambda`` too large for the Bregman kernels), 3 reduction stopped on the
outer iteration cap instead of the tolerance, or an inner solve stopped on
its own iteration cap.  Every command that writes files also writes a run
manifest (``<output>.manifest.json``) next to its first output.
"""

from __future__ import annotations

import argparse
import csv
import json
import platform
import re
import sys
import time

import numpy as np

from . import __version__
from .ibp import RegularizationOverflowError
from .init_filtration import ScenarioMatrix, ffs_init, kmeans_init, random_init
from .nested import nested_distance
from .reduce import SOLVERS, ReductionConfig, reduce_tree
from .tree import (ScenarioTree, TreeFormatError, TreeValidationError,
                   generate_random, load_csv)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NOT_CONVERGED = 3

# Flags whose LO,HI value may start with '-'.
_RANGE_FLAGS = ("--range", "--init-range")


def _parse_range(text):
    try:
        lo, hi = (float(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected 'lo,hi', got {text!r}")
    if not lo < hi:
        raise argparse.ArgumentTypeError("range must satisfy lo < hi")
    return lo, hi


def _glue_range_values(argv):
    """Rewrite ``--range -10,10`` as ``--range=-10,10``.

    argparse takes a value that starts with '-' and is not a plain number
    for an option, so a range below zero would otherwise need the '=' form.
    """
    argv = list(argv)
    for i in range(len(argv) - 2, -1, -1):
        if argv[i] in _RANGE_FLAGS and re.match(r"-[\d.]", argv[i + 1]):
            argv[i:i + 2] = [f"{argv[i]}={argv[i + 1]}"]
    return argv


def _write_manifest(path, command, args, inputs, outputs, seed, seconds):
    # SciPy is imported here alone, for its version: importing it at module
    # level would load it into every process that imports the CLI.
    import scipy

    doc = {
        "command": command,
        "config": {k: v for k, v in sorted(vars(args).items()) if k != "func"},
        "inputs": inputs,
        "outputs": outputs,
        "seed": seed,
        "versions": {
            "treeshrink": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": platform.python_version(),
        },
        "seconds": seconds,
    }
    with open(str(path) + ".manifest.json", "w") as fh:
        json.dump(doc, fh, indent=1, default=str)
        fh.write("\n")


def _load_tree(path):
    try:
        return ScenarioTree.load(path)
    except FileNotFoundError as exc:
        raise TreeFormatError(f"no such file: {path}") from exc


def _emit_tree(tree, out_path, command, args, inputs, seed, seconds):
    if out_path is None:
        sys.stdout.write(tree.to_json_text() + "\n")
    else:
        tree.save(out_path)
        _write_manifest(out_path, command, args, inputs, [str(out_path)], seed, seconds)


def cmd_gen(args):
    if args.stages < 2:
        raise ValueError(f"--stages must be at least 2, got {args.stages}")
    tick = time.perf_counter()
    tree = generate_random(args.stages - 1, args.branching, dim=args.dim,
                           value_range=args.range, seed=args.seed)
    _emit_tree(tree, args.output, "gen", args, [], args.seed,
               time.perf_counter() - tick)
    return EXIT_OK


def cmd_ingest(args):
    tick = time.perf_counter()
    try:
        tree = load_csv(args.input, dim=args.dim)
    except (TreeFormatError, TreeValidationError, FileNotFoundError) as exc:
        print(f"error: {args.input}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if args.merge_prefixes:
        from .init_filtration import merge_prefixes
        tree = merge_prefixes(tree)
    _emit_tree(tree, args.output, "ingest", args, [str(args.input)], None,
               time.perf_counter() - tick)
    return EXIT_OK


def _initial_reduced(args, original):
    # Unset, --target-branching means 2.
    branching = 2 if args.target_branching is None else args.target_branching
    if branching < 1:
        raise ValueError(f"--target-branching must be at least 1, got {branching}")
    big_t = original.T
    if args.init == "random":
        if args.target_scenarios is not None:
            raise ValueError("--target-scenarios applies to --init kmeans or ffs")
        lo = float(original.quantizer.min())
        hi = float(original.quantizer.max())
        if args.init_range is not None:
            lo, hi = args.init_range
        return random_init([branching] * big_t, dim=original.d,
                           value_range=(lo, hi), seed=args.seed)
    scenarios = ScenarioMatrix.from_tree(original)
    k = args.target_scenarios
    if k is None:
        k = branching ** big_t
    elif args.target_branching is not None:
        raise ValueError("--init kmeans or ffs takes --target-scenarios or "
                         "--target-branching, not both")
    elif k < 1:
        raise ValueError(f"--target-scenarios must be at least 1, got {k}")
    k = min(k, scenarios.S)
    if args.init == "kmeans":
        return kmeans_init(scenarios, k, seed=args.seed)
    return ffs_init(scenarios, k)


def cmd_reduce(args):
    tick = time.perf_counter()
    original = _load_tree(args.input)
    reduced0 = _initial_reduced(args, original)
    config = ReductionConfig(
        solver=args.solver, tol=args.tol, max_outer=args.max_iter,
        rho=args.rho, lam=getattr(args, "lambda"))
    final, report = reduce_tree(original, reduced0, config)
    # final_nd is the cost of the last plan; score the returned tree exactly.
    certified_nd, _ = nested_distance(original, final, order=report.order)
    seconds = time.perf_counter() - tick

    outputs = []
    if args.trace:
        with open(args.trace, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iter", "delta00", "nd", "seconds"])
            # Iteration 0 is the initial plan, which takes no iteration time.
            writer.writerows(zip(range(len(report.deltas)), report.deltas, report.nds(),
                                 [0.0] + report.iteration_seconds))
        outputs.append(str(args.trace))
    if args.report:
        doc = report.to_json_dict()
        doc["certified_nd"] = certified_nd
        with open(args.report, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
        outputs.append(str(args.report))
    if args.output is None:
        sys.stdout.write(final.to_json_text() + "\n")
    else:
        final.save(args.output)
        outputs.insert(0, str(args.output))
    if outputs:
        _write_manifest(outputs[0], "reduce", args, [str(args.input)], outputs,
                        args.seed, seconds)
    unconverged = sum(not rec["converged"] for rec in report.solver_log)
    print(f"final nd: {report.final_nd:.9g}  certified nd: {certified_nd:.9g}  "
          f"iterations: {report.iterations}  converged: {report.converged}  "
          f"unconverged inner solves: {unconverged}/{len(report.solver_log)}",
          file=sys.stderr)
    return EXIT_OK if report.converged and not unconverged else EXIT_NOT_CONVERGED


def cmd_nd(args):
    a = _load_tree(args.tree_a)
    b = _load_tree(args.tree_b)
    nd, _ = nested_distance(a, b, order=args.order)
    print(f"{nd:.9g}")
    return EXIT_OK


def _bench_tree(n_subtrees, children, dim, seed):
    """Benchmark instance: root -> 2 nodes -> n nodes -> n*children leaves."""
    rng_seed = seed
    half = n_subtrees // 2
    branching_stage2 = [n_subtrees - half, half] if half else [n_subtrees]
    # Build per-node children counts stage by stage.
    parent, prob = [-1], [1.0]
    rng = np.random.default_rng(rng_seed)

    def expand(node_ids, counts):
        new_ids = []
        for node, c in zip(node_ids, counts):
            raw = rng.uniform(size=c)
            cond = raw / raw.sum()
            for j in range(c):
                parent.append(node)
                prob.append(prob[node] * cond[j])
                new_ids.append(len(parent) - 1)
        return new_ids

    lvl1 = expand([0], [2]) if n_subtrees > 1 else expand([0], [1])
    lvl2 = expand(lvl1, branching_stage2[:len(lvl1)])
    expand(lvl2, [children] * len(lvl2))
    quantizer = rng.uniform(-10.0, 10.0, size=(len(parent), dim))
    return ScenarioTree(np.array(parent), quantizer, np.array(prob))


def build_parser():
    parser = argparse.ArgumentParser(
        prog="treeshrink",
        description="Scenario-tree reduction via nested-distance minimization")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a random uniform-branching tree")
    p.add_argument("--stages", type=int, required=True,
                   help="number of stage levels including the root")
    p.add_argument("--branching", type=int, required=True)
    p.add_argument("--dim", type=int, default=1)
    p.add_argument("--range", type=_parse_range, default=(-10.0, 10.0),
                   metavar="LO,HI")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("ingest", help="load a scenario CSV as a fan tree")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("--dim", type=int, default=1)
    p.add_argument("--merge-prefixes", action="store_true",
                   help="fold branches sharing identical prefixes")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("reduce", help="reduce a tree toward a smaller structure",
                       epilog="exit codes: 0 converged; 2 bad input, usage or "
                       "parameters; 3 the outer loop stopped on --max-iter "
                       "before meeting --tol, or an inner solve stopped on its "
                       "iteration cap (the output is still written)")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("--target-branching", type=int, default=None,
                   help="children per node of the reduced tree; under kmeans/ffs "
                   "the fan has this to the power of the stage count branches, "
                   "unless --target-scenarios is given (default: 2)")
    p.add_argument("--target-scenarios", type=int, default=None,
                   help="branch count for kmeans/ffs fan initializations")
    p.add_argument("--solver", choices=SOLVERS, default="auto",
                   help="barycenter solver: exact (closed form at two children, "
                   "else a HiGHS LP), averaged marginals, Bregman projections, "
                   "or auto: exact, the default")
    defaults = ReductionConfig()
    p.add_argument("--tol", type=float, default=defaults.tol,
                   help="stop once an outer iteration lowers the root cost "
                   "nd^2 by at most TOL times its value before the "
                   "iteration: a relative drop, the same at any scale of "
                   "the data (default: %(default)s)")
    p.add_argument("--rho", type=float, default=None,
                   help="proximal parameter of --solver mam; it changes only "
                   "how fast a solve converges (default: per problem, the "
                   "mean of its cost entries over 50)")
    p.add_argument("--lambda", type=float, default=defaults.lam,
                   help="entropic regularization strength of --solver ibp, "
                   "on costs scaled to [0, 1] per problem: larger tracks the "
                   "exact barycenter more closely and converges more slowly; "
                   "past about 745 the kernels underflow (exit 2) "
                   "(default: %(default)s)")
    p.add_argument("--init", choices=["random", "kmeans", "ffs"], default="random")
    p.add_argument("--init-range", type=_parse_range, default=None, metavar="LO,HI")
    p.add_argument("--max-iter", type=int, default=defaults.max_outer,
                   help="stop after this many outer iterations if --tol "
                   "was not met by then (exit 3)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--trace", default=None, help="per-iteration CSV trace")
    p.add_argument("--report", default=None, help="full JSON report")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("nd", help="exact process distance between two trees")
    p.add_argument("-a", "--tree-a", required=True)
    p.add_argument("-b", "--tree-b", required=True)
    p.add_argument("--order", type=float, default=2,
                   help="order of the distance: any finite number >= 1")
    p.set_defaults(func=cmd_nd)
    return parser


def main(argv=None):
    args = build_parser().parse_args(
        _glue_range_values(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except (TreeFormatError, TreeValidationError, ValueError,
            RegularizationOverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
