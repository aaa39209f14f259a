"""Command line entry points.

Subcommands: train, fit-pca, adapt, bench, ablate-rank, ablate-steps,
verify-ridge. All but verify-ridge take a single JSON config file (merged
over defaults), which ``main`` reads before the command runs.
Exit codes: 0 success, 2 config error (also a file that cannot be read
or written, or an array too large to allocate), 3 numerical failure,
4 the two-core helper process died or its reply could not be sent or read.
"""

import argparse
import json
import sys
from pathlib import Path

from . import bench, ridge
from .errors import ConfigError, ContractViolationError, HelperProcessError, NumericalFailureError
from .network import save_model

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_HELPER = 4


def _read_config(path: str | None) -> dict:
    override = {}
    if path:
        try:
            with open(path) as fh:
                override = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}")
        except (ValueError, RecursionError) as exc:
            # not UTF-8, not JSON, or nested deeper than the parser recurses
            raise ConfigError(f"config file {path} is not valid JSON: {exc}")
        if not isinstance(override, dict):
            top = "null" if override is None else type(override).__name__
            raise ConfigError(f"config file {path} must hold a JSON object, got {top}")
    return bench.load_config(override)


def _check_output_file(path: str) -> None:
    """Refuse, before any work, a file to write whose directory does not
    exist or that is itself a directory."""
    parent = Path(path).parent
    if not parent.is_dir():
        raise ConfigError(f"cannot write {path}: no directory {parent}")
    if Path(path).is_dir():
        raise ConfigError(f"cannot write {path}: it is a directory")


def _write_json(obj, path) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)


def _cmd_train(args, cfg) -> int:
    _check_output_file(args.model)
    save_model(bench.train_from_config(cfg), args.model)
    print(f"wrote model checkpoint to {args.model}")
    return EXIT_OK


def _cmd_fit_pca(args, cfg) -> int:
    _check_output_file(args.basis)
    basis = bench.fit_basis_from_config(cfg, bench.load_checkpoint(cfg, args.model))
    basis.save(args.basis)
    print(f"wrote PCA basis (rank {basis.rank}) to {args.basis}")
    return EXIT_OK


def _cmd_adapt(args, cfg) -> int:
    _check_output_file(args.out)
    model, basis = bench.load_inputs(cfg, [args.method], args.model, args.basis)
    rec = bench.run_cell(cfg, model, basis, args.method, args.corruption, args.severity)
    rec.to_jsonl(args.out)
    print(f"{args.method}: mean error {rec.mean_error():.4f}; records in {args.out}")
    return EXIT_OK


def _cmd_bench(args, cfg) -> int:
    nearest = next(p for p in (Path(args.out), *Path(args.out).parents) if p.exists())
    if not nearest.is_dir():  # checked now, as the directory is made only after the grid
        raise ConfigError(f"cannot write into {args.out}: {nearest} is not a directory")
    model, basis = bench.load_inputs(cfg, cfg["methods"], args.model, args.basis)
    table, _ = bench.run_benchmark(cfg, model, basis, args.out)
    print(f"wrote benchmark outputs to {args.out}")
    for method in table.methods:
        means = [table.severity_mean(method, s) for s in table.severities]
        print(f"  {method}: " + " ".join(f"sev{s}={m:.4f}" for s, m in zip(table.severities, means)))
    return EXIT_OK


def _cmd_ablate(args, cfg) -> int:
    _check_output_file(args.out)
    _write_json(args.sweep(cfg, args.values), args.out)
    print(f"wrote {args.label} ablation curve to {args.out}")
    return EXIT_OK


def _cmd_verify_ridge(args) -> int:
    _check_output_file(args.out)
    report = ridge.verify_equivalence(trials=args.trials, seed=args.seed)
    _write_json(report, args.out)
    status = "passed" if report["passed"] else "FAILED"
    print(
        f"ridge equivalence {status}: max relative deviation "
        f"{report['max_relative_deviation']:.3e} over {report['trials']} trials"
    )
    return EXIT_OK if report["passed"] else EXIT_NUMERICAL


def build_parser() -> argparse.ArgumentParser:
    # the options several subcommands share, each declared once as a parent parser
    config, model, basis = (argparse.ArgumentParser(add_help=False) for _ in range(3))
    config.add_argument("--config", default=None)
    model.add_argument("--model", default="model.npz")
    basis.add_argument("--basis", default="basis.npz")
    files = [config, model, basis]
    parser = argparse.ArgumentParser(prog="spectral-tta")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", parents=[config, model], help="train the frozen source model")
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("fit-pca", parents=files, help="fit the PCA basis at the insertion layer")
    p.set_defaults(fn=_cmd_fit_pca)

    p = sub.add_parser("adapt", parents=files, help="run one adaptation session")
    p.add_argument("--method", default="spectral-relu", choices=bench.METHODS)
    p.add_argument("--corruption", default=None, choices=bench.CORRUPTION_KINDS)
    p.add_argument("--severity", type=int, default=5, choices=bench.SEVERITIES)
    p.add_argument("--out", default="records.jsonl")
    p.set_defaults(fn=_cmd_adapt)

    p = sub.add_parser("bench", parents=files, help="full method x corruption x severity grid")
    p.add_argument("--out", default="bench_out")
    p.set_defaults(fn=_cmd_bench)

    p = sub.add_parser("ablate-rank", parents=[config], help="severity-5 error vs PCA rank")
    p.add_argument("--ranks", type=int, nargs="+", required=True, dest="values", metavar="RANKS")
    p.add_argument("--out", default="rank_curve.json")
    p.set_defaults(fn=_cmd_ablate, sweep=bench.ablate_rank, label="rank")

    p = sub.add_parser("ablate-steps", parents=[config], help="severity-5 error vs adaptation steps")
    p.add_argument("--steps", type=int, nargs="+", required=True, dest="values", metavar="STEPS")
    p.add_argument("--out", default="steps_curve.json")
    p.set_defaults(fn=_cmd_ablate, sweep=bench.ablate_steps, label="steps")

    p = sub.add_parser("verify-ridge", help="ridge vs spectral-shrinkage equivalence report")
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="ridge_report.json")
    p.set_defaults(fn=_cmd_verify_ridge)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if "config" in args:  # every subcommand but verify-ridge: the config is read first
            return args.fn(args, _read_config(args.config))
        return args.fn(args)
    except (ContractViolationError, OSError, MemoryError) as exc:
        # a refused config value (a ConfigError), a path that cannot be read
        # or written (a missing file, a directory given as a file), or a
        # config whose arrays cannot be allocated is a bad argument: exit 2
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalFailureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except HelperProcessError as exc:
        # the grid's helper died or a reply could not cross the pipe: one
        # line, while any other RuntimeError, a bug, keeps its traceback
        print(f"two-core failure: {exc}", file=sys.stderr)
        return EXIT_HELPER


if __name__ == "__main__":
    sys.exit(main())
