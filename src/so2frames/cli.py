"""Command-line interface.

    so2frames gen         --seed 0 --n-atoms 5 --out mol.json
    so2frames check-equiv mol.json [checkpoint.json] --trials 20
    so2frames bench       --lmax-range 2:8 --mmax-range 2:10
    so2frames fit         mol.json --steps 2000 --out-checkpoint ckpt.json
    so2frames predict     mol.json ckpt.json --out H_pred.json
    so2frames metrics     H_pred.json H_true.json --n-occ 4

Exit codes: 0 all checks PASS, 1 any FAIL, 2 usage, I/O or invalid-input
error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from .graph import build_graph, graph_from_json, sample_molecule
from .hamiltonian import (gen_synthetic_target, matrix_from_bytes, matrix_loads, metrics,
                          write_matrix)
from .harness import RunReport, bench, check_equivariance
from .model import (ModelConfig, checkpoint_dumps, checkpoint_loads,
                    default_fit_config, fit_demo, fit_node_irreps, init_params, predict)


def _parse_range(text: str, flag: str) -> range:
    """``lo:hi``, both ends included; a log-log slope fit needs 1 <= lo < hi."""
    try:
        lo, hi = (int(end) for end in text.split(":"))
    except ValueError:
        raise ValueError(f"{flag} {text} is not lo:hi with two integer ends") from None
    if not 1 <= lo < hi:
        raise ValueError(f"{flag} {text} must ascend from 1: a log-log slope needs two points")
    return range(lo, hi + 1)


def _read(path: str, parse):
    """``parse`` of the bytes of the file at ``path``; its ValueError names the file."""
    with open(path, "rb") as f:
        blob = f.read()
    try:
        return parse(blob)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from err


def _at_cutoff(graph, cutoff):
    """The molecule with its edges at a model's cutoff, not at its file's."""
    return build_graph(graph.numbers, graph.positions, cutoff, graph.overlap, graph.hamiltonian)


def _config_from_args(args, base: ModelConfig) -> ModelConfig:
    """``base``, or the ``--config`` file, with the model flags given."""
    if args.config:
        base = _read(args.config, lambda blob: ModelConfig.from_json_obj(json.loads(blob)))
    updates = {"tp_arity": args.v, "layers": args.layers, "cutoff": args.cutoff,
               "node_irreps": None if args.lmax is None else fit_node_irreps(args.lmax)}
    return replace(base, **{k: v for k, v in updates.items() if v is not None})


def _emit_report(report: RunReport, args) -> int:
    if args.json:
        print(report.to_json())
    else:
        for line in report.summary_lines():
            print(line)
    if args.out:
        with open(args.out, "w") as f:
            f.write(report.to_json())
    return 0 if report.passed else 1


def cmd_gen(args) -> int:
    try:
        elements = [int(z) for z in args.elements.split(",")]
    except ValueError:
        raise ValueError(f"--elements {args.elements} is not a comma-separated list of "
                         "atomic numbers") from None
    graph = sample_molecule(args.seed, args.n_atoms, elements, args.min_dist, args.cutoff)
    config = _config_from_args(args, default_fit_config(graph))
    H, S = gen_synthetic_target(graph, args.seed, config=config,
                                spd_overlap=args.spd_overlap)
    graph.hamiltonian = H.array
    graph.overlap = S.array
    with open(args.out, "w") as f:
        f.write(graph.to_json())
    print(f"wrote {args.out}: {graph.n_atoms} atoms, {len(graph.edges)} directed edges, "
          f"matrix dim {H.array.shape[0]}")
    return 0


def cmd_check_equiv(args) -> int:
    graph = _read(args.molecule, graph_from_json)
    if args.checkpoint:
        given = [flag for flag in ("lmax", "v", "layers", "cutoff", "config")
                 if getattr(args, flag) is not None]
        if given:
            raise ValueError(f"--{given[0]} cannot change the model: the checkpoint fixes it")
        config, params = _read(args.checkpoint, checkpoint_loads)
    else:
        config = replace(_config_from_args(args, default_fit_config(graph)), seed=args.seed)
        params = init_params(config)
    report = check_equivariance(_at_cutoff(graph, config.cutoff), params, config,
                                trials=args.trials, tolerance=args.tolerance, seed=args.seed,
                                corrupt_wigner=args.corrupt_wigner)
    return _emit_report(report, args)


def cmd_bench(args) -> int:
    emit = None if args.json else print
    report = bench(_parse_range(args.lmax_range, "--lmax-range"),
                   _parse_range(args.mmax_range, "--mmax-range"),
                   channels=args.channels, repeats=args.repeats, seed=args.seed,
                   emit=emit)
    return _emit_report(report, args)


def cmd_fit(args) -> int:
    graph = _read(args.molecule, graph_from_json)
    config = _config_from_args(args, default_fit_config(graph))
    graph = _at_cutoff(graph, config.cutoff)
    target = graph.hamiltonian  # fit_demo checks its shape
    if target is None:
        target, _ = gen_synthetic_target(graph, args.seed, config=config)
    losses, params = fit_demo(graph, target, args.steps, args.seed, config=config,
                              lr=args.lr)
    config = replace(config, seed=args.seed)
    with open(args.out_checkpoint, "w") as f:
        f.write(checkpoint_dumps(config, params))
    if args.out_losses:
        with open(args.out_losses, "w") as f:
            f.write("step,mae\n")
            for k, v in enumerate(losses):
                f.write(f"{k},{float(v)!r}\n")
    print(f"fit: {args.steps} steps, initial MAE {losses[0]:.6e}, "
          f"final MAE {losses[-1]:.6e}; checkpoint -> {args.out_checkpoint}")
    return 0


def cmd_predict(args) -> int:
    graph = _read(args.molecule, graph_from_json)
    config, params = _read(args.checkpoint, checkpoint_loads)
    H = predict(_at_cutoff(graph, config.cutoff), params, config)
    write_matrix(args.out, H)
    print(f"wrote {args.out}: dim {H.array.shape[0]}")
    return 0


def cmd_metrics(args) -> int:
    pred, true, overlap = (_read(path, matrix_from_bytes if path.endswith(".bin") else matrix_loads)
                           if path else None for path in (args.pred, args.true, args.overlap))
    result = metrics(pred, true, overlap, args.n_occ)
    if not args.json:
        for key in ("mae_diag", "mae_offdiag", "mae_all", "mae_eps", "cosine_psi"):
            print(f"{key:12s} {result[key]:.12e}")
    print(json.dumps(result, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="so2frames", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def model_flags(p):
        p.add_argument("--lmax", type=int)
        p.add_argument("--v", type=int, help="tensor-product arity")
        p.add_argument("--layers", type=int)
        p.add_argument("--cutoff", type=float)
        p.add_argument("--config", help="model config JSON")

    def report_flags(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--json", action="store_true", help="print the report as JSON")
        p.add_argument("--out", help="report JSON path")

    p = sub.add_parser("gen", help="generate a synthetic molecule with targets")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="molecule.json", help="molecule JSON path")
    model_flags(p)
    p.add_argument("--n-atoms", type=int, default=3)
    p.add_argument("--elements", default="1", help="comma-separated atomic numbers")
    p.add_argument("--min-dist", type=float, default=1.4)
    p.add_argument("--spd-overlap", action="store_true",
                   help="emit a non-identity SPD overlap matrix")
    p.set_defaults(func=cmd_gen, cutoff=15.0)

    p = sub.add_parser("check-equiv", help="equivariance audit")
    report_flags(p)
    model_flags(p)
    p.add_argument("molecule")
    p.add_argument("checkpoint", nargs="?", default=None)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--tolerance", type=float, default=1e-9)
    p.add_argument("--corrupt-wigner", action="store_true",
                   help=argparse.SUPPRESS)  # negative-control test hook
    p.set_defaults(func=cmd_check_equiv)

    p = sub.add_parser("bench", help="complexity scaling benchmark")
    report_flags(p)
    p.add_argument("--lmax-range", default="2:8")
    p.add_argument("--mmax-range", default="2:10")
    p.add_argument("--channels", type=int, default=1)
    p.add_argument("--repeats", type=int, default=3)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("fit", help="fit the demo model to a target matrix")
    p.add_argument("--seed", type=int, default=0)
    model_flags(p)
    p.add_argument("molecule")
    p.add_argument("--steps", type=int, default=2000)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--out-checkpoint", default="checkpoint.json")
    p.add_argument("--out-losses", default=None, help="loss trajectory CSV")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("predict", help="predict a matrix from a checkpoint")
    p.add_argument("molecule")
    p.add_argument("checkpoint")
    p.add_argument("--out", required=True, help="matrix path, binary if it ends in .bin")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("metrics", help="compare predicted and reference matrices")
    p.add_argument("pred")
    p.add_argument("true")
    p.add_argument("--json", action="store_true", help="print only the JSON line")
    p.add_argument("--n-occ", type=int, default=None)
    p.add_argument("--overlap", default=None)
    p.set_defaults(func=cmd_metrics)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return 2 if err.code not in (0, None) else 0
    try:
        return args.func(args)
    except (OSError, RuntimeError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
