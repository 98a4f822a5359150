"""Command line front door.

Every subcommand is a thin shell around one library call: parse, run, write.
Outputs are byte-deterministic for fixed arguments and seed, regardless of
MM_THREADS, so runs can be diffed.  On Linux some calls split their work
across forked worker processes (_fork.fork_join), at most MM_THREADS of
them: `mm experiment` its trials, and past measured crossovers the matrix
CSV read of `mm validate`, `kmeans` and `voronoi` (files of 2 MiB or more),
`mm kmeans --pam` its restarts (restarts * k * n^2 of 3 * 2^20 or more) and
`mm validate` its triangle bound pass (n^3 of 2^26 or more).  Elsewhere, or
below the crossovers, they run serially, with byte-identical output either
way; a bad MM_THREADS exits 2 at every size.  JSON goes through sorted keys
and repr round-trip floats; matrices use the shared CSV and binary writers.

Exit codes: 0 ok, 2 invalid input, 3 enumeration budget or graph size
limit exceeded, 4 disconnected graph.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .errors import EXIT_INVALID_INPUT, InvalidArgumentError, MmError
from .experiment import load_config, run_experiment
from .fpp import DEFAULT_BALL_BUDGET, DEFAULT_SHELL, EdgeWeightLaw, FppInstance, fpp_barycenter_track, shape_defect
from .io import _write_matrix, dump_json, read_cloud_csv, read_matrix, read_space, solution_to_dict, write_cloud_csv
from .quantize import circle_arc_metric, epsilon_net_graph, equispaced_circle_net, quantize
from .samplers import _generator_params, sample
from .space import FiniteMetricMeasureSpace, k_means_exact, k_means_pam, metric_validate
from .voronoi import enlarged_cell, enlargement_threshold, voronoi_cells
from .wasserstein import _METRIC_PARAMS, GROUND_METHODS, _learn_metric, learned_wasserstein_kmeans

# flags `mm dist` insists on, though the library has a default sigma
_DIST_REQUIRED = {"isomap": "eps", "diffusion": "sigma"}


def _metric_params(args) -> dict:
    """Ground-metric params from the flags that were given."""
    return {key: getattr(args, key) for key in _METRIC_PARAMS if getattr(args, key, None) is not None}


def _load_space(path) -> FiniteMetricMeasureSpace:
    """Space JSON, or a bare matrix file promoted to uniform weights."""
    if str(path).endswith(".json"):
        return read_space(path)
    labels, matrix = read_matrix(path)
    return FiniteMetricMeasureSpace.uniform(labels, matrix)


def _emit(doc: dict, out) -> None:
    if out:
        dump_json(out, doc)
        print(f"wrote {out}")
    else:
        print(json.dumps(doc, sort_keys=True, indent=2))


def cmd_sample(args) -> int:
    cloud = sample(args.generator, args.n, args.seed, **_generator_params(vars(args)))
    write_cloud_csv(args.out, cloud)
    print(f"wrote {args.out}: n={cloud.n} dim={cloud.ambient_dim}")
    return 0


def cmd_dist(args) -> int:
    cloud = read_cloud_csv(args.infile, intrinsic_dim=args.intrinsic_dim)
    flag = _DIST_REQUIRED.get(args.method)
    if flag and getattr(args, flag) is None:
        raise InvalidArgumentError(f"{args.method} needs --{flag}")
    matrix, diagnostics = _learn_metric(cloud, args.method, _metric_params(args), scaled=args.scaled)
    if args.spectrum_out and diagnostics:
        dump_json(
            args.spectrum_out,
            {
                "eigenvalues": [float(v) for v in diagnostics["eigenvalues"]],
                "gap_warnings": [
                    [int(j), float(lo), float(hi)] for j, lo, hi in diagnostics["gap_warnings"]
                ],
            },
        )
    _write_matrix(args.out, [str(i) for i in range(matrix.shape[0])], matrix)
    print(f"wrote {args.out}: n={matrix.shape[0]} method={args.method}")
    return 0


def cmd_kmeans(args) -> int:
    space = _load_space(args.space)
    if args.pam:
        sol = k_means_pam(space, args.k, args.p, restarts=args.restarts, seed=args.seed)
    else:
        sol = k_means_exact(space, args.k, args.p, budget=args.budget)
    doc = {"k": args.k, "p": args.p}
    doc.update(solution_to_dict(sol, labels=space.labels))
    _emit(doc, args.out)
    return 0


def cmd_voronoi(args) -> int:
    space = _load_space(args.space)
    centers = [int(v) for v in args.centers.split(",")]
    part = voronoi_cells(space, centers)
    doc = {
        "centers": sorted(centers),
        "cells": {str(c): members for c, members in sorted(part.cells.items())},
        "thresholds": {str(c): enlargement_threshold(space, centers, c) for c in sorted(centers)},
    }
    if args.delta is not None:
        doc["delta"] = args.delta
        doc["enlarged"] = {
            str(c): enlarged_cell(space, centers, c, args.delta) for c in sorted(centers)
        }
    _emit(doc, args.out)
    return 0


def cmd_wkmeans(args) -> int:
    groups = [read_cloud_csv(path).points for path in args.groups]
    sol = learned_wasserstein_kmeans(
        groups,
        args.k,
        args.p,
        method=args.ground_method,
        params=_metric_params(args),
        solver="pam" if args.pam else "exact",
        restarts=args.restarts,
        seed=args.seed,
        intrinsic_dim=args.intrinsic_dim,
    )
    doc = {
        "k": args.k,
        "p": args.p,
        "ground_method": args.ground_method,
        "groups": [str(p) for p in args.groups],
    }
    doc.update(solution_to_dict(sol, labels=[Path(p).name for p in args.groups]))
    _emit(doc, args.out)
    return 0


def cmd_fpp(args) -> int:
    try:
        ts = sorted(float(v) for v in args.t.split(","))
    except ValueError:
        ts = []  # not a list of numbers: rejected below with the other bad times
    if not ts or not all(t > 0 and math.isfinite(t) for t in ts):
        raise InvalidArgumentError(f"--t must be comma separated positive finite times, got {args.t!r}")
    if not (args.shell >= 0 and math.isfinite(args.shell)):
        raise InvalidArgumentError(f"--shell must be finite and >= 0, got {args.shell!r}")
    law = EdgeWeightLaw.parse(args.law)
    horizon = max(ts) * (1.0 + args.shell)
    instance = FppInstance(args.dim, law, args.seed, horizon)
    track = fpp_barycenter_track(instance, ts, p=args.p, shell=args.shell, budget=args.budget)
    entries = []
    for point in track:
        entry = {
            "t": point.t,
            "ball_size": point.ball_size,
            "objective": point.objective,
            "tied": point.tied,
            "barycenters": [[float(v) for v in b] for b in point.barycenters],
        }
        if law.kind == "deterministic":
            mdef, cdef = shape_defect(instance, point.t, budget=args.budget)
            entry["metric_defect"] = mdef
            entry["covering_defect"] = cdef
        entries.append(entry)
    doc = {
        "dim": args.dim,
        "law": law.describe(),
        "seed": args.seed,
        "p": args.p,
        "shell": args.shell,
        "track": entries,
    }
    _emit(doc, args.out)
    return 0


def cmd_quantize(args) -> int:
    cloud = read_cloud_csv(args.infile)
    result = quantize(cloud.points, args.n, p=args.p, restarts=args.restarts, seed=args.seed)
    doc = {
        "n_centers": args.n,
        "p": args.p,
        "objective": result.objective,
        "centers": [[float(v) for v in c] for c in result.centers],
        "masses": [float(m) for m in result.masses],
    }
    _emit(doc, args.out)
    return 0


def cmd_net(args) -> int:
    if args.space != "circle":
        raise InvalidArgumentError(f"only the circle net is built in, got {args.space!r}")
    net = equispaced_circle_net(args.points)
    result = epsilon_net_graph(net, "circle", args.eps, diam=math.pi)
    arc = circle_arc_metric(net)
    doc = {
        "space": args.space,
        "points": args.points,
        "eps": args.eps,
        "diam": math.pi,
        "admissible": result.admissible,
        "net_radius": result.net_radius,
        "threshold": result.threshold,
        "sup_defect": float(np.abs(result.dist - arc).max()),
    }
    _emit(doc, args.out)
    return 0


def cmd_experiment(args) -> int:
    config = load_config(args.config)
    result = run_experiment(config, out_dir=args.out)
    print(
        f"rows={len(result.rows)} failed={result.summary['failed']} "
        f"config={result.summary['config_sha256'][:12]}"
    )
    return 0


def cmd_validate(args) -> int:
    if str(args.infile).endswith(".json"):
        matrix = read_space(args.infile).dist
    else:
        _, matrix = read_matrix(args.infile)
    report = metric_validate(matrix, tol=args.tol)
    doc = {
        "passes": report.passes,
        "tol": report.tol,
        "asymmetry": report.asymmetry,
        "diagonal": report.diagonal,
        "negativity": report.negativity,
        "triangle": report.triangle,
        "witnesses": {
            "asymmetry": report.asymmetry_witness,
            "diagonal": report.diagonal_witness,
            "negativity": report.negativity_witness,
            "triangle": report.triangle_witness,
        },
    }
    print(json.dumps(doc, sort_keys=True, indent=2))
    return 0 if report.passes else EXIT_INVALID_INPUT


_PARSER = None


def build_parser() -> argparse.ArgumentParser:
    """The `mm` parser, built on the first call and shared by every later call
    in the process: parse_args keeps no state between calls, and the help
    text is formatted per call, so a shared parser prints the same bytes."""
    global _PARSER
    if _PARSER is None:
        _PARSER = _new_parser()
    return _PARSER


def _new_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mm", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="draw a synthetic point cloud")
    p.add_argument("--generator", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--centers", default=None, help="mixture centers, 'x y; x y' rows")
    p.add_argument("--scales", default=None, help="mixture scales, space separated")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("dist", help="learn a distance matrix from a cloud")
    p.add_argument("--method", required=True, choices=GROUND_METHODS)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--alpha", type=float, default=2.0)
    p.add_argument("--knn", type=int, default=None)
    p.add_argument("--scaled", action="store_true", help="apply the n^((alpha-1)/dim) factor")
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--sigma", type=float, default=None)
    p.add_argument("--k", dest="embed_k", type=int, default=None, help="retained eigenpairs (diffusion)")
    p.add_argument("--t", type=float, default=1.0, help="diffusion time")
    p.add_argument("--intrinsic-dim", type=int, default=0)
    p.add_argument("--spectrum-out", default=None)
    p.set_defaults(func=cmd_dist)

    p = sub.add_parser("kmeans", help="Frechet k-means on a space")
    p.add_argument("--space", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--p", type=float, default=2.0)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--exact", action="store_true", default=True)
    group.add_argument("--pam", action="store_true")
    p.add_argument("--restarts", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=2_000_000)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_kmeans)

    p = sub.add_parser("voronoi", help="Voronoi cells and enlargement thresholds")
    p.add_argument("--space", required=True)
    p.add_argument("--centers", required=True, help="comma separated indices")
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_voronoi)

    p = sub.add_parser("wkmeans", help="k-means over groups as measures")
    p.add_argument("--groups", nargs="+", required=True)
    p.add_argument("--ground-method", default="euclid", choices=GROUND_METHODS)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--sigma", type=float, default=None)
    p.add_argument("--embed-k", type=int, default=None)
    p.add_argument("--t", type=float, default=None)
    p.add_argument("--pam", action="store_true")
    p.add_argument("--restarts", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--intrinsic-dim", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_wkmeans)

    p = sub.add_parser("fpp", help="scaled passage-time balls and their barycenters")
    p.add_argument("--dim", type=int, required=True, choices=(1, 2, 3))
    p.add_argument("--law", required=True, help="det:c | exp:rate | unif:a,b")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--t", required=True, help="comma separated times")
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--shell", type=float, default=DEFAULT_SHELL)
    p.add_argument("--budget", type=int, default=DEFAULT_BALL_BUDGET)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_fpp)

    p = sub.add_parser("quantize", help="Lloyd quantization of a sample cloud")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--restarts", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_quantize)

    p = sub.add_parser("net", help="epsilon-net graph metric and admissibility")
    p.add_argument("--space", default="circle")
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_net)

    p = sub.add_parser("experiment", help="run a configured convergence experiment")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("validate", help="check metric axioms on a matrix or space")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--tol", type=float, default=None)
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT


if __name__ == "__main__":
    sys.exit(main())
