"""Command-line interface.

    so2frames gen         --seed 0 --n-atoms 5 --out mol.json
    so2frames check-equiv mol.json [checkpoint.json] --trials 20
    so2frames bench       --lmax-range 2:8 --mmax-range 2:10
    so2frames fit         mol.json --steps 2000 --out-checkpoint ckpt.json
    so2frames predict     mol.json ckpt.json --out H_pred.json
    so2frames metrics     H_pred.json H_true.json --n-occ 4

Exit codes: 0 all checks PASS, 1 any FAIL, 2 usage, I/O or invalid-input
error.  The environment variable SO2FRAMES_THREADS caps library-level
parallelism (set before numpy loads its threading backend).
"""

from __future__ import annotations

import os

_threads = os.environ.get("SO2FRAMES_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, _threads)

import argparse
import json
import sys
from dataclasses import replace

from .graph import build_graph, graph_from_json, sample_molecule
from .hamiltonian import (build_orbital_layout, checked_matrix, gen_synthetic_target,
                          metrics, read_matrix, write_matrix)
from .harness import RunReport, bench, check_equivariance
from .model import (ModelConfig, checkpoint_dumps, checkpoint_loads,
                    default_fit_config, fit_demo, fit_node_irreps, init_params, predict)


class UsageError(Exception):
    pass


def _parse_range(text: str) -> range:
    """``lo:hi``, both ends included; a slope fit needs lo < hi."""
    lo, hi = text.split(":")
    if int(hi) <= int(lo):
        raise ValueError(f"range {text} must ascend: a slope needs two or more points")
    return range(int(lo), int(hi) + 1)


def _load_graph(path: str):
    try:
        with open(path) as f:
            return graph_from_json(f.read())
    except (OSError, json.JSONDecodeError, KeyError) as err:
        raise UsageError(f"cannot read molecule file {path}: {err}") from err


def _at_cutoff(graph, cutoff):
    """The molecule with its edges at a model's cutoff, not at its file's."""
    return build_graph(graph.numbers, graph.positions, cutoff, graph.overlap, graph.hamiltonian)


def _load_checkpoint(path: str):
    """Config and parameters of a checkpoint whose parameter names and
    shapes are those :func:`init_params` gives its config."""
    try:
        with open(path) as f:
            config, params = checkpoint_loads(f.read())
    except (OSError, json.JSONDecodeError, KeyError) as err:
        raise UsageError(f"cannot read checkpoint {path}: {err}") from err
    expected = init_params(config)
    for name, array in expected.items():
        if name not in params:
            raise UsageError(f"checkpoint {path} lacks parameter {name}")
        if params[name].shape != array.shape:
            raise UsageError(f"checkpoint {path}: parameter {name} has shape "
                             f"{params[name].shape}, the config needs {array.shape}")
    unknown = sorted(params.keys() - expected.keys())
    if unknown:
        raise UsageError(f"checkpoint {path} has unknown parameter {unknown[0]}")
    return config, params


def _config_from_args(args, base: ModelConfig) -> ModelConfig:
    """``base``, or the ``--config`` file, with the model flags given."""
    if args.config:
        try:
            with open(args.config) as f:
                base = ModelConfig.from_json_obj(json.load(f))
        except (OSError, json.JSONDecodeError, KeyError) as err:
            raise UsageError(f"cannot read config {args.config}: {err}") from err
    updates = {"tp_arity": args.v, "layers": args.layers, "cutoff": args.cutoff,
               "node_irreps": None if args.lmax is None else fit_node_irreps(args.lmax)}
    return replace(base, **{k: v for k, v in updates.items() if v is not None})


def _emit_report(report: RunReport, args) -> int:
    if args.json:
        print(report.to_json())
    else:
        for line in report.summary_lines():
            print(line)
    if getattr(args, "out", None):
        with open(args.out, "w") as f:
            f.write(report.to_json())
    return 0 if report.passed else 1


def cmd_gen(args) -> int:
    graph = sample_molecule(args.seed, args.n_atoms,
                            [int(z) for z in args.elements.split(",")],
                            args.min_dist, args.cutoff)
    config = _config_from_args(args, default_fit_config(graph))
    H, S = gen_synthetic_target(graph, args.seed, config=config,
                                spd_overlap=args.spd_overlap)
    graph.hamiltonian = H.array
    graph.overlap = S.array
    out = args.out or "molecule.json"
    with open(out, "w") as f:
        f.write(graph.to_json())
    print(f"wrote {out}: {graph.n_atoms} atoms, {len(graph.edges)} directed edges, "
          f"matrix dim {H.array.shape[0]}")
    return 0


def cmd_check_equiv(args) -> int:
    graph = _load_graph(args.molecule)
    if args.checkpoint:
        config, params = _load_checkpoint(args.checkpoint)
        config = _config_from_args(args, config)
    else:
        config = _config_from_args(args, default_fit_config(graph))
        config = replace(config, seed=args.seed)
        params = init_params(config)
    report = check_equivariance(_at_cutoff(graph, config.cutoff), params, config,
                                trials=args.trials, tolerance=args.tolerance, seed=args.seed,
                                corrupt_wigner=args.corrupt_wigner)
    return _emit_report(report, args)


def cmd_bench(args) -> int:
    emit = None if args.json else print
    report = bench(_parse_range(args.lmax_range), _parse_range(args.mmax_range),
                   channels=args.channels, repeats=args.repeats, seed=args.seed,
                   emit=emit)
    return _emit_report(report, args)


def cmd_fit(args) -> int:
    graph = _load_graph(args.molecule)
    config = _config_from_args(args, default_fit_config(graph))
    graph = _at_cutoff(graph, config.cutoff)
    if graph.hamiltonian is not None:
        target = checked_matrix(graph.hamiltonian,
                                build_orbital_layout(graph.numbers, config.basis_map))
    else:
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
    graph = _load_graph(args.molecule)
    config, params = _load_checkpoint(args.checkpoint)
    H = predict(_at_cutoff(graph, config.cutoff), params, config)
    write_matrix(args.out, H)
    print(f"wrote {args.out}: dim {H.array.shape[0]}")
    return 0


def cmd_metrics(args) -> int:
    pred = read_matrix(args.pred)
    true = read_matrix(args.true)
    overlap = read_matrix(args.overlap) if args.overlap else None
    result = metrics(pred, true, overlap, args.n_occ)
    if not args.json:
        for key in ("mae_diag", "mae_offdiag", "mae_all", "mae_eps", "cosine_psi"):
            print(f"{key:12s} {result[key]:.12e}")
    print(json.dumps(result, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="so2frames", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, model_flags=True):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--out", default=None, help="output path")
        if model_flags:
            p.add_argument("--lmax", type=int, default=None)
            p.add_argument("--v", type=int, default=None, help="tensor-product arity")
            p.add_argument("--layers", type=int, default=None)
            p.add_argument("--cutoff", type=float, default=None)
            p.add_argument("--config", default=None, help="model config JSON")

    p = sub.add_parser("gen", help="generate a synthetic molecule with targets")
    common(p)
    p.add_argument("--n-atoms", type=int, default=3)
    p.add_argument("--elements", default="1", help="comma-separated atomic numbers")
    p.add_argument("--min-dist", type=float, default=1.4)
    p.add_argument("--spd-overlap", action="store_true",
                   help="emit a non-identity SPD overlap matrix")
    p.set_defaults(func=cmd_gen, cutoff=15.0)

    p = sub.add_parser("check-equiv", help="equivariance audit")
    common(p)
    p.add_argument("molecule")
    p.add_argument("checkpoint", nargs="?", default=None)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--tolerance", type=float, default=1e-9)
    p.add_argument("--corrupt-wigner", action="store_true",
                   help=argparse.SUPPRESS)  # negative-control test hook
    p.set_defaults(func=cmd_check_equiv)

    p = sub.add_parser("bench", help="complexity scaling benchmark")
    common(p, model_flags=False)
    p.add_argument("--lmax-range", default="2:8")
    p.add_argument("--mmax-range", default="2:10")
    p.add_argument("--channels", type=int, default=1)
    p.add_argument("--repeats", type=int, default=3)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("fit", help="fit the demo model to a target matrix")
    common(p)
    p.add_argument("molecule")
    p.add_argument("--steps", type=int, default=2000)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--out-checkpoint", default="checkpoint.json")
    p.add_argument("--out-losses", default=None, help="loss trajectory CSV")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("predict", help="predict a matrix from a checkpoint")
    common(p, model_flags=False)
    p.add_argument("molecule")
    p.add_argument("checkpoint")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("metrics", help="compare predicted and reference matrices")
    common(p, model_flags=False)
    p.add_argument("pred")
    p.add_argument("true")
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
    except (UsageError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"I/O error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
