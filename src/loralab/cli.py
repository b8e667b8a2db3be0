"""Command-line interface.

Subcommands: count-params, train, analyze, bench, gradcheck. Each takes only
the flags it reads, so any other flag is an error, never silently ignored; the
seed flags reject values outside [0, 2**64) as the seeds.* config keys do.
Exit codes are stable for scripting: 0 success, 1 usage or configuration error
(a model or batch too large to allocate included), 2 numeric error (singular
matrices, non-finite losses, failed gradient checks).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import _rng, adapters, analysis, matcore, model, tasks, trainer
from .config import ConfigError, ExperimentConfig, load_config

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2

GRADCHECK_MAX_D = 16
GRADCHECK_MAX_LAYERS = 2
GRADCHECK_TOL = 1e-4

CONFIG_HELP = "experiment config file (key = value lines)"
PAPER_DIMS = {"d_model": 768, "rank": 8, "modules": ("query", "value"), "n_layers": 12}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _flag(parse):
    """The argparse type of a flag read as its config key is, by ``parse``:
    an error names the flag, the text and the rule."""
    def read(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"bad value {text!r} ({exc})") from None
    return read


_seed = _flag(matcore.parse_seed)  # --seed-* and --baseline-seed, as the seeds.* keys


def build_parser() -> _Parser:
    parser = _Parser(prog="loralab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    experiment = _Parser(add_help=False)  # a config and its seeds: train, bench, gradcheck
    experiment.add_argument("--config", help=CONFIG_HELP)
    for name in ("model", "adapter", "data"):
        experiment.add_argument(f"--seed-{name}", type=_seed, dest=f"seed_{name}")

    p = sub.add_parser("count-params", help="trainable-parameter table")
    geometry = p.add_mutually_exclusive_group()
    geometry.add_argument("--config", help=CONFIG_HELP)
    geometry.add_argument("--paper-dims", action="store_true",
                          help="use d=768, r=8, modules {query,value}, 12 layers")
    p.set_defaults(func=cmd_count_params)

    p = sub.add_parser("train", parents=[experiment],
                       help="train one adapter and write its checkpoint")
    p.add_argument("--out", dest="output_dir", help="output directory")
    p.add_argument("--method", choices=adapters.METHODS)
    p.add_argument("--task", choices=tasks.TASK_KINDS)
    p.add_argument("--max-steps", type=_flag(matcore.int_at_least("max_steps", 0)),
                   dest="max_steps")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("analyze", help="conversion-matrix grids and adapter comparison")
    p.add_argument("--model", required=True, dest="model_ckpt", help="model checkpoint")
    p.add_argument("--adapter", required=True, action="append", dest="adapter_ckpts",
                   help="adapter checkpoint (repeat to compare two methods)")
    p.add_argument("--out", dest="output_dir", help="output directory")
    p.add_argument("--side", choices=analysis.SIDES, default="left")
    p.add_argument("--i", type=int, dest="i_vectors")
    p.add_argument("--j", type=int, dest="j_vectors")
    p.add_argument("--baseline-seed", type=_seed, default=0)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("bench", parents=[experiment], help="training throughput for both methods")
    p.add_argument("--seconds", type=float, default=2.0)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("gradcheck", parents=[experiment],
                       help="finite-difference gradient verification")
    p.add_argument("--method", choices=adapters.METHODS + ("both",), default="both")
    p.add_argument("--trials", type=int, default=3)
    p.add_argument("--perturb", action="store_true",
                   help="corrupt one analytic gradient entry (negative control)")
    p.set_defaults(func=cmd_gradcheck)

    return parser


def _load_experiment(args) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    _override(cfg, args, ("method", "task", "max_steps", "seed_model", "seed_adapter",
                          "seed_data", "output_dir"))
    return cfg


def _override(cfg: ExperimentConfig, args, names) -> None:
    """Set the config field of each named flag that was given."""
    for name in names:
        value = getattr(args, name, None)
        if value is not None:
            setattr(cfg, name, value)


def cmd_count_params(args) -> int:
    if args.paper_dims:
        d = PAPER_DIMS["d_model"]
        layers = tuple(range(1, PAPER_DIMS["n_layers"] + 1))
        lora_spec = adapters.AdapterSpec("lora", PAPER_DIMS["rank"], float(PAPER_DIMS["rank"]),
                                         PAPER_DIMS["modules"], layers)
    else:
        cfg = _load_experiment(args)
        d = cfg.d_model
        lora_spec = cfg.adapter_spec("lora")
    cond_spec = adapters.as_method(lora_spec, "condlora")
    lora_count = adapters.count_trainable(lora_spec, d)
    cond_count = adapters.count_trainable(cond_spec, d)
    print(f"lora {lora_count}")
    print(f"condlora {cond_count}")
    print(f"ratio {lora_count // cond_count}")
    return EXIT_OK


def _environment(cfg: ExperimentConfig) -> dict:
    """What a run's throughput depends on besides its config: numpy, its
    BLAS, the BLAS thread variables, whether the OpenBLAS bundled with
    numpy's wheel was found (which decides both the BLAS thread hold of the
    pools and ``matcore.solve``'s LU route), the CPUs the chunks are shared
    among, and how ``model.chunks`` cuts a training step's batch and the
    held-out batch (chunk count, and examples per chunk, the larger first)."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # a numpy without a build record
        blas = {}
    return {
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": {name: os.environ.get(name) for name in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "bundled_openblas": _rng._openblas() is not None,
        "usable_cpus": _rng.usable_cpus(),
        "chunks": {"step": _chunking(cfg, cfg.batch_size),
                   "held_out": _chunking(cfg, trainer.EVAL_BATCHES * cfg.batch_size)},
    }


def _chunking(cfg: ExperimentConfig, batch: int) -> dict:
    sizes = [rows.stop - rows.start
             for rows in model.chunks(cfg.model_config(), batch, cfg.seq_len)]
    return {"count": len(sizes), "examples_per_chunk": sorted(set(sizes), reverse=True)}


def cmd_train(args) -> int:
    cfg = _load_experiment(args)
    weights = model.build_model(cfg.model_config())
    task = cfg.make_task(weights)
    spec = cfg.adapter_spec()
    train_cfg = cfg.train_config()
    params, report = trainer.train_run(weights, spec, task, train_cfg)
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    summary = {
        "method": spec.method,
        "task": cfg.task,
        "max_steps": cfg.max_steps,
        "initial_loss": report.initial_loss,
        "final_loss": report.final_loss,
        "examples_per_second": report.examples_per_second,
        "trainable_params": report.trainable_param_count,
        "wall_clock_seconds": report.wall_clock_seconds,
        "seeds": {"model": cfg.seed_model, "adapter": cfg.seed_adapter, "data": cfg.seed_data},
        "environment": _environment(cfg),
    }
    with contextlib.ExitStack() as files:  # no file is replaced until all four are written
        model_fh, adapter_fh, report_fh, run_fh = (
            files.enter_context(matcore.atomic_write(out / name, mode))
            for name, mode in (("model.ckpt", "wb"), ("adapter.ckpt", "wb"),
                               ("report.csv", "w"), ("run.json", "w")))
        model.write_model(model_fh, weights)
        adapters.write_adapter(adapter_fh, params, spec)
        trainer.write_report(report_fh, report)
        json.dump(summary, run_fh, indent=2)
        run_fh.write("\n")
    print(
        f"{spec.method}: params={report.trainable_param_count} "
        f"initial_loss={report.initial_loss:.6g} final_loss={report.final_loss:.6g} "
        f"examples/s={report.examples_per_second:.3f}"
    )
    return EXIT_OK


def cmd_analyze(args) -> int:
    """Every grid, the baseline and the comparison are computed before the
    first file is written, and no file replaces its old version until all are
    written, so a run that fails leaves the outputs of the previous run as
    they were."""
    if len(args.adapter_ckpts) > 2:
        raise UsageError("at most two adapter checkpoints are supported")
    weights = model.load_model(args.model_ckpt)
    loaded = [adapters.load_adapter(path) for path in args.adapter_ckpts]
    for path, (adapter_params, adapter_spec) in zip(args.adapter_ckpts, loaded):
        try:
            adapter_spec.validate_for(weights.config)
            adapters.check_shapes(adapter_params, adapter_spec, weights.config.d_model)
        except ValueError as exc:
            raise UsageError(f"{path}: {exc}") from None
        if len(adapter_spec.target_layers) < 2:
            raise UsageError(f"{path}: analyze needs an adapter on at least 2 layers, "
                             f"this one has only layer {adapter_spec.target_layers[0]}")
    spec = loaded[0][1]
    i = spec.rank if args.i_vectors is None else args.i_vectors
    j = spec.rank if args.j_vectors is None else args.j_vectors
    for flag, value in (("--i", i), ("--j", j)):
        if not 1 <= value <= spec.rank:
            raise UsageError(f"{flag} must be in [1, {spec.rank}] (the adapter rank), got {value}")
    grids, rows = analysis.analyze(weights, loaded, i, j, args.side, args.baseline_seed)

    out = Path(args.output_dir or "analysis")
    out.mkdir(parents=True, exist_ok=True)
    with contextlib.ExitStack() as files:
        for name, grid in grids.items():
            fh = files.enter_context(matcore.atomic_write(out / f"{name.replace(' ', '_')}.csv"))
            analysis.write_grid_csv(fh, grid)
        if rows is not None:
            fh = files.enter_context(matcore.atomic_write(out / "comparison.csv"))
            analysis.write_comparison_csv(fh, rows)
    for name, grid in grids.items():
        print(f"{name} avg_offdiag={grid.average_offdiagonal:.6f}")
    if rows is not None:
        mean_delta = float(np.mean([r.phi_delta for r in rows]))
        print(f"comparison rows={len(rows)} mean_phi_dW={mean_delta:.6f}")
    return EXIT_OK


def cmd_bench(args) -> int:
    if not 1 <= args.seconds < math.inf:
        raise UsageError(f"--seconds must be finite and >= 1, got {args.seconds}")
    cfg = _load_experiment(args)
    weights = model.build_model(cfg.model_config())
    task = cfg.make_task(weights)
    for method in adapters.METHODS:
        spec = cfg.adapter_spec(method)
        train_cfg = replace(cfg.train_config(method), max_steps=1_000_000)
        rate = trainer.bench_throughput(weights, spec, task, args.seconds, train_cfg)
        print(f"{method} {rate:.3f} examples/s")
    return EXIT_OK


def _gradcheck_config(args) -> ExperimentConfig:
    if args.config:
        cfg = _load_experiment(args)
    else:
        cfg = ExperimentConfig(
            n_layers=2, d_model=16, n_heads=4, d_ff=32, vocab_size=32,
            max_len=16, n_outputs=4, rank=2, seq_len=8, task="teacher",
        )
        _override(cfg, args, ("seed_model", "seed_adapter", "seed_data"))
    if cfg.d_model > GRADCHECK_MAX_D or cfg.n_layers > GRADCHECK_MAX_LAYERS:
        raise UsageError(
            f"gradcheck is limited to d_model <= {GRADCHECK_MAX_D} and "
            f"n_layers <= {GRADCHECK_MAX_LAYERS}, got d={cfg.d_model}, N={cfg.n_layers}"
        )
    return cfg


def cmd_gradcheck(args) -> int:
    cfg = _gradcheck_config(args)
    if args.trials < 1:
        raise UsageError(f"--trials must be >= 1, got {args.trials}")
    weights = model.build_model(cfg.model_config())
    methods = adapters.METHODS if args.method == "both" else (args.method,)
    task = cfg.make_task(weights)
    worst = 0.0
    for method in methods:
        spec = cfg.adapter_spec(method)
        for trial in range(args.trials):
            seed = _rng.derive_seed(cfg.seed_adapter, f"gradcheck.{trial}")
            params = trainer.generic_params(spec, cfg.d_model, seed)
            batch = task.batch(f"gradcheck.{trial}", 4)
            _, grads = trainer.loss_and_grads(weights, params, spec, batch)
            if args.perturb:
                first = next(iter(grads))
                grads[first] = grads[first].copy()
                grads[first].flat[0] += 1.0 + abs(grads[first]).max()
            fd = trainer.fd_gradients(weights, params, spec, batch)
            errors = trainer.gradient_errors(grads, fd)
            for key, err in errors.items():
                print(f"{method} trial={trial} {key} rel_err={err:.3e}")
                worst = max(worst, err)
    status = "PASS" if worst < GRADCHECK_TOL else "FAIL"
    print(f"gradcheck {status}: max rel_err {worst:.3e} (tolerance {GRADCHECK_TOL:g})")
    return EXIT_OK if worst < GRADCHECK_TOL else EXIT_NUMERIC


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except matcore.NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, LookupError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:  # numpy names the failed allocation: size, shape, dtype
        print(f"error: {exc or 'out of memory'}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
