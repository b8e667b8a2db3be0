"""The loralab benchmark: workloads, output checks, metrics and the traced run.

Start it through ``run.py``, which pins BLAS threads before numpy loads:

    python3 perfbench/run.py --workload desk-train --seed 1 --seconds 30 --trace 0

Every workload is one closed loop in one process: it trains LoRA and CondLoRA
adapters with ``trainer.train_run`` and then runs what ``loralab analyze``
runs (four CondLoRA conversion grids, the random baseline, the LoRA-vs-CondLoRA
comparison). The workload seed is the only input; model, adapter, data and
baseline seeds derive from it. ``--trace 0`` measures the end-to-end metrics
with no tracing; ``--trace 1`` runs one untraced and one traced cycle, checks
that both computed the same bits, and reports per-layer metrics from the spans.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from loralab import _rng, adapters, analysis, matcore, model, trainer
from loralab.config import ExperimentConfig

import tracer

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
METHODS = ("lora", "condlora")
PAPER_MODEL = model.ModelConfig(n_layers=12, d_model=768, n_heads=12, d_ff=3072)
PAPER_RANK = 8
PAPER_MODULES = ("query", "value")


@dataclass(frozen=True)
class Workload:
    """Training always uses the desk model and teacher task; ``paper`` switches
    the analysis from the freshly trained desk adapters to paper dimensions."""

    batch_size: int
    steps: int
    paper: bool = False
    analysis_repeats: int = 5
    warmup_steps: int = 10


# Why each workload exists is recorded in README.md and BENCHMARK.json.
# desk-train is small everywhere, so the interpreter dominates; paper-analyze
# is large everywhere, so numpy and LAPACK kernels dominate: its training runs
# at batch 256, and its analysis pass (about 40 s) is longer than the measured
# loop, so it runs once and the trainings run between its steps instead.
WORKLOADS = {
    "desk-train": Workload(batch_size=16, steps=30),
    "paper-analyze": Workload(batch_size=256, steps=4, paper=True, analysis_repeats=1,
                              warmup_steps=2),
}

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("train.lora.ex_per_s", "1/s", "higher"),
    ("train.condlora.ex_per_s", "1/s", "higher"),
    ("analyze.wall_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

BOUNDARIES = tuple(
    tracer.Boundary(name, "loralab." + module, attr, file_arg)
    for name, module, attr, file_arg in (
        ("rng.randint_block", "_rng", "randint_block", False),
        ("rng.gaussian_block", "_rng", "gaussian_block", False),
        ("matcore.gaussian", "matcore", "gaussian", False),
        ("matcore.invert", "matcore", "invert", False),
        ("matcore.svd", "matcore", "svd", False),
        ("autodiff.backward", "autodiff", "backward", False),
        ("model.build_model", "model", "build_model", False),
        ("model.encode", "model", "encode", False),
        ("model.forward", "model", "forward", False),
        ("model.save_model", "model", "save_model", True),
        ("model.load_model", "model", "load_model", True),
        ("adapters.adapter_factors", "adapters", "adapter_factors", False),
        ("adapters.delta_w", "adapters", "delta_w", False),
        ("adapters.save_adapter", "adapters", "save_adapter", True),
        ("adapters.load_adapter", "adapters", "load_adapter", True),
        ("tasks.batch", "tasks", "TeacherTask.batch", False),
        ("trainer.train_run", "trainer", "train_run", False),
        ("trainer.loss_and_grads", "trainer", "loss_and_grads", False),
        ("trainer.adapted_projections", "trainer", "adapted_projections", False),
        ("trainer.adam_step", "trainer", "adam_step", False),
        ("analysis.conversion_grid", "analysis", "conversion_grid", False),
        ("analysis.layer_similarity_grid", "analysis", "layer_similarity_grid", False),
        ("analysis.random_baseline_grid", "analysis", "random_baseline_grid", False),
        ("analysis.compare_lora_condlora", "analysis", "compare_lora_condlora", False),
    )
)

# (metric, unit, better). A metric ending in .calls/.busy_s/.self_s/.bytes is
# read from the spans of the boundary it names; the rest are derived below.
PER_LAYER = (
    ("tasks.batch.calls", "count", "lower"),
    ("tasks.batch.busy_s", "s", "lower"),
    ("tasks.batch.share", "ratio", "lower"),
    ("model.forward.busy_s", "s", "lower"),
    ("rng.randint_block.busy_s", "s", "lower"),
    ("model.encode.self_s", "s", "lower"),
    ("trainer.adapted_projections.busy_s", "s", "lower"),
    ("autodiff.backward.calls", "count", "lower"),
    ("autodiff.backward.busy_s", "s", "lower"),
    ("trainer.loss_and_grads.calls", "count", "lower"),
    ("trainer.loss_and_grads.busy_s", "s", "lower"),
    ("trainer.loss_and_grads.self_s", "s", "lower"),
    ("trainer.adam_step.busy_s", "s", "lower"),
    ("trainer.train_run.busy_s", "s", "lower"),
    ("trainer.step_ms.p50", "ms", "lower"),
    ("trainer.step_ms.p90", "ms", "lower"),
    ("trainer.step_ms.samples", "count", "higher"),
    ("train.lora.loss_ratio", "ratio", "lower"),
    ("train.condlora.loss_ratio", "ratio", "lower"),
    ("matcore.invert.calls", "count", "lower"),
    ("matcore.invert.busy_s", "s", "lower"),
    ("matcore.invert.ms_per_call", "ms", "lower"),
    ("matcore.invert.rejected", "count", "lower"),
    ("matcore.lu_ms", "ms", "lower"),
    ("matcore.solve_ms", "ms", "lower"),
    ("matcore.svd.calls", "count", "lower"),
    ("matcore.svd.busy_s", "s", "lower"),
    ("analysis.conversion_grid.busy_s", "s", "lower"),
    ("analysis.layer_similarity_grid.busy_s", "s", "lower"),
    ("analysis.random_baseline_grid.busy_s", "s", "lower"),
    ("analysis.compare_lora_condlora.busy_s", "s", "lower"),
    ("adapters.adapter_factors.busy_s", "s", "lower"),
    ("adapters.delta_w.busy_s", "s", "lower"),
    ("model.build_model.busy_s", "s", "lower"),
    ("rng.gaussian_block.busy_s", "s", "lower"),
    ("matcore.gaussian.busy_s", "s", "lower"),
    ("model.save_model.busy_s", "s", "lower"),
    ("model.save_model.bytes", "bytes", "lower"),
    ("model.load_model.busy_s", "s", "lower"),
    ("model.load_model.bytes", "bytes", "lower"),
    ("adapters.save_adapter.busy_s", "s", "lower"),
    ("adapters.save_adapter.bytes", "bytes", "lower"),
    ("adapters.load_adapter.busy_s", "s", "lower"),
    ("adapters.load_adapter.bytes", "bytes", "lower"),
    ("trace.overhead.train_pct", "%", "lower"),
    ("trace.overhead.analyze_pct", "%", "lower"),
)


# --- failure accounting ---------------------------------------------------------

class OperationFailed(Exception):
    """An operation raised; the run stops and reports itself incorrect."""


@dataclass
class Ledger:
    """Counts operations and output checks; any exception or failed check is a failure."""

    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def run(self, what: str, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            self.failed += 1
            self.messages.append(f"{what}: {type(exc).__name__}: {exc}\n{traceback.format_exc()}")
            raise OperationFailed(what) from exc

    def check(self, what: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(f"check failed: {what} {detail}".rstrip())
        return ok


# --- checks -------------------------------------------------------------------------

def round_trip_exact(saved, loaded) -> bool:
    """Loaded adapter is the saved one bit for bit: same spec, names, shapes and bytes."""
    (p0, s0), (p1, s1) = saved, loaded
    return s0 == s1 and bits(p0.tensors) == bits(p1.tensors)


def array_bits(a: np.ndarray) -> tuple:
    return a.dtype.str, a.shape, np.ascontiguousarray(a).tobytes()


def bits(tensors: dict) -> dict[str, tuple]:
    return {k: array_bits(v) for k, v in tensors.items()}


def grid_is_one(grid, tol: float = 1e-6) -> bool:
    """CondLoRA conv_A is W0^-1 (W0 theta_A) = theta_A at every layer, so phi is 1 everywhere."""
    return bool(np.all(np.abs(grid.values - 1.0) <= tol))


def conv_b_residual(w0: np.ndarray, b: np.ndarray, conv_b: np.ndarray) -> float:
    """||W0 conv_B - B|| / ||B||."""
    return float(np.linalg.norm(w0 @ conv_b - b) / np.linalg.norm(b))


def baseline_within(grid, k: int, d: int, standard_errors: float = 5.0) -> tuple[bool, str]:
    """Mean phi of independent isotropic k-subspaces of R^d is exactly k/d.

    Distinct layer pairs of the grid are independent draws, so the mean of the
    upper triangle must lie within a few standard errors of k/d.
    """
    upper = grid.values[np.triu_indices(grid.values.shape[0], 1)]
    mean = float(upper.mean())
    se = float(upper.std(ddof=1) / np.sqrt(upper.size))
    ok = abs(mean - k / d) <= standard_errors * se
    return ok, f"mean={mean:.6g} expected={k / d:.6g} se={se:.3g}"


def comparison_ok(rows, expected: int) -> bool:
    return len(rows) == expected and all(
        0.0 <= v <= 1.0 for r in rows for v in (r.phi_a, r.phi_b, r.phi_delta)
    )


# --- workloads -----------------------------------------------------------------------

@dataclass
class AnalysisTarget:
    """What ``loralab analyze`` is pointed at: a model and two adapter checkpoints."""

    adapter_paths: dict[str, Path]
    saved: dict[str, tuple]  # method -> (params, spec) as written
    model_path: Path | None = None
    weights: model.BaseWeights | None = None


@dataclass
class State:
    cfg: ExperimentConfig
    weights: model.BaseWeights
    task: object
    workdir: Path
    baseline_seed: int
    target: AnalysisTarget | None = None


@dataclass
class Cycle:
    """Trainings of both methods followed by analysis passes."""

    train_s: dict[str, list[float]]
    loss_ratio: dict[str, float]
    trained: dict[str, tuple]
    analyze_s: list[float]
    result: dict
    target: AnalysisTarget


def seeds(seed: int) -> dict[str, int]:
    return {name: _rng.derive_seed(seed, "bench." + name)
            for name in ("model", "adapter", "data", "baseline", "paper.model",
                         "paper.lora", "paper.condlora")}


def setup(ops: Ledger, wl: Workload, seed: int, workdir: Path) -> State:
    s = seeds(seed)
    cfg = ExperimentConfig(batch_size=wl.batch_size, max_steps=wl.steps,
                           seed_model=s["model"], seed_adapter=s["adapter"], seed_data=s["data"])
    weights = ops.run("build desk model", model.build_model, cfg.model_config())
    task = ops.run("build teacher task", cfg.make_task, weights)
    state = State(cfg, weights, task, workdir, s["baseline"])
    if wl.paper:
        paper_weights = ops.run("build paper model", model.build_model,
                                replace(PAPER_MODEL, seed=s["paper.model"]))
        layers = tuple(range(1, PAPER_MODEL.n_layers + 1))
        saved, paths = {}, {}
        for method in METHODS:
            spec = adapters.AdapterSpec(method, PAPER_RANK, float(PAPER_RANK), PAPER_MODULES, layers)
            params = ops.run(f"paper {method} params", trainer.generic_params,
                             spec, PAPER_MODEL.d_model, s["paper." + method])
            paths[method] = workdir / f"paper-{method}.ckpt"
            ops.run(f"save paper {method} adapter", adapters.save_adapter, paths[method], params, spec)
            saved[method] = (params, spec)
        state.target = AnalysisTarget(paths, saved, weights=paper_weights)
    return state


def train_both(ops: Ledger, state: State, steps: int | None = None):
    """One ``train_run`` per method; the held-out evaluation batch is one training batch."""
    train_s, ratios, trained = {}, {}, {}
    for method in METHODS:
        spec = state.cfg.adapter_spec(method)
        config = state.cfg.train_config(method)
        if steps is not None:
            config = replace(config, max_steps=steps)
        gc.collect()
        started = time.perf_counter()
        params, report = ops.run(f"train {method}", trainer.train_run,
                                 state.weights, spec, state.task, config, eval_batches=1)
        train_s[method] = time.perf_counter() - started
        ratios[method] = report.final_loss / report.initial_loss
        trained[method] = (params, spec)
    return train_s, ratios, trained


def save_checkpoints(ops: Ledger, state: State, trained: dict) -> AnalysisTarget:
    """Write what ``loralab train`` writes: the model and one adapter per method."""
    model_path = state.workdir / "model.ckpt"
    ops.run("save model", model.save_model, model_path, state.weights)
    paths = {}
    for method, (params, spec) in trained.items():
        paths[method] = state.workdir / f"{method}.ckpt"
        ops.run(f"save {method} adapter", adapters.save_adapter, paths[method], params, spec)
    return AnalysisTarget(paths, trained, model_path=model_path)


def analyze(ops: Ledger, target: AnalysisTarget, baseline_seed: int, pause=None) -> dict:
    """``loralab analyze --adapter condlora.ckpt --adapter lora.ckpt``, minus the CSV files.

    ``pause``, if given, runs after each conversion grid and after the
    comparison; ``seconds`` in the result is the time of the pass without it.
    """
    seconds = 0.0

    def step(what: str, fn, *args, then_pause: bool = False, **kwargs):
        nonlocal seconds
        started = time.perf_counter()
        out = ops.run(what, fn, *args, **kwargs)
        seconds += time.perf_counter() - started
        if then_pause and pause is not None:
            pause()
        return out

    if target.model_path is None:
        weights = target.weights
    else:
        weights = step("load model", model.load_model, target.model_path)
    loaded = {m: step(f"load {m} adapter", adapters.load_adapter, p)
              for m, p in target.adapter_paths.items()}
    params, spec = loaded["condlora"]
    spec.validate_for(weights.config)
    grids = {
        f"conv_{which}_{module}": step(f"conv_{which} {module}", analysis.conversion_grid,
                                       weights, params, spec, module, which, then_pause=True)
        for module in spec.target_modules for which in ("A", "B")
    }
    grids["random_baseline"] = step(
        "random baseline", analysis.random_baseline_grid, weights.config.d_model, spec.rank,
        len(spec.target_layers), spec.rank, spec.rank, seed=baseline_seed)
    rows = step("compare", analysis.compare_lora_condlora,
                loaded["lora"][0], params, weights, loaded["lora"][1], then_pause=True)
    return {"weights": weights, "loaded": loaded, "grids": grids, "rows": rows,
            "seconds": seconds}


def cycle(ops: Ledger, wl: Workload, state: State, analysis_repeats: int) -> Cycle:
    """One training of each method, then analysis passes.

    On paper-analyze a training of each method also runs after each grid and
    after the comparison of the analysis pass, so that training samples spread
    over the whole pass instead of bunching at its ends; the analysed adapters
    are the paper ones.
    """
    train_s = {m: [] for m in METHODS}

    def train():
        seconds, ratios, trained = train_both(ops, state)
        for m in METHODS:
            train_s[m].append(seconds[m])
        return ratios, trained

    ratios, trained = train()
    target = state.target if wl.paper else save_checkpoints(ops, state, trained)
    analyze_s, result = [], None
    for _ in range(analysis_repeats):
        gc.collect()
        result = analyze(ops, target, state.baseline_seed, pause=train if wl.paper else None)
        analyze_s.append(result["seconds"])
    return Cycle(train_s, ratios, trained, analyze_s, result, target)


def check_cycle(ops: Ledger, c: Cycle) -> None:
    """Output checks on one cycle; run outside any timed or traced region."""
    for method in METHODS:
        ops.check(f"{method} loss_ratio < 1", c.loss_ratio[method] < 1.0,
                  f"got {c.loss_ratio[method]:.6g}")
        ops.check(f"{method} adapter round trip is bit-exact",
                  round_trip_exact(c.target.saved[method], c.result["loaded"][method]))
    weights, grids = c.result["weights"], c.result["grids"]
    params, spec = c.result["loaded"]["condlora"]
    for module in spec.target_modules:
        grid = grids[f"conv_A_{module}"]
        ops.check(f"condlora conv_A {module} grid is 1 within 1e-6", grid_is_one(grid),
                  f"min={grid.values.min():.17g}")
    module, layer = spec.target_modules[0], spec.target_layers[0]
    w0 = weights.projection(module, layer)
    _, b = adapters.adapter_factors(params, spec, w0, module, layer)
    residual = ops.run("conv_B probe", lambda: conv_b_residual(w0, b, analysis.conversion_b(w0, b)))
    ops.check(f"||W0 conv_B - B||/||B|| < 1e-8 ({module}, layer {layer})", residual < 1e-8,
              f"got {residual:.3g}")
    ok, detail = baseline_within(grids["random_baseline"], spec.rank, weights.config.d_model)
    ops.check("random baseline mean within 5 standard errors of k/d", ok, detail)
    ops.check(f"comparison has {spec.k * len(spec.target_layers)} rows in [0, 1]",
              comparison_ok(c.result["rows"], spec.k * len(spec.target_layers)))


def fingerprint(c: Cycle) -> dict[str, tuple]:
    """The bits a traced cycle must reproduce: trained adapters and every grid value."""
    out = {}
    for method, (params, _) in c.trained.items():
        out.update({f"{method}.{k}": v for k, v in bits(params.tensors).items()})
    for name, grid in c.result["grids"].items():
        out[name] = array_bits(grid.values)
    out["comparison"] = array_bits(
        np.array([(r.phi_a, r.phi_b, r.phi_delta) for r in c.result["rows"]]))
    return out


# --- runs ------------------------------------------------------------------------------

def warm_up(ops: Ledger, wl: Workload, state: State) -> None:
    """Short untimed training so allocator and caches settle before timing."""
    train_both(ops, state, steps=wl.warmup_steps)


def timed_run(ops: Ledger, wl: Workload, seed: int, seconds: float, workdir: Path):
    """Cycles until ``seconds`` would be exceeded, at least one.

    Every cycle starts from a fresh set-up, and so does the warm-up, so set-up
    samples spread over the run like the others; ``setup_s`` is their median.
    Analysis time is the mean of the run's passes, and throughput is total
    examples over total ``train_run`` time. Other tenants of a shared host
    slow this code in phases of seconds to minutes, in which every sample of
    the phase is slow; a mean moves with the share of slow time in the run,
    while a median or a low percentile jumps with the phase that covered most
    of it, which measured a larger run-to-run spread.
    """
    setup_s = []

    def fresh_state() -> State:
        gc.collect()
        started = time.perf_counter()
        state = setup(ops, wl, seed, workdir)
        setup_s.append(time.perf_counter() - started)
        return state

    warm_up(ops, wl, fresh_state())
    examples = wl.steps * wl.batch_size
    train_s = {m: [] for m in METHODS}
    analyze_s, cycle_s, ratios = [], [], {}
    started = time.perf_counter()
    while not cycle_s or time.perf_counter() - started + statistics.median(cycle_s) <= seconds:
        begun = time.perf_counter()
        c = cycle(ops, wl, fresh_state(), wl.analysis_repeats)
        cycle_s.append(time.perf_counter() - begun)
        check_cycle(ops, c)
        for m in METHODS:
            train_s[m].extend(c.train_s[m])
        analyze_s.extend(c.analyze_s)
        ratios = c.loss_ratio
    values = {
        "setup_s": statistics.median(setup_s),
        "train.lora.ex_per_s": examples * len(train_s["lora"]) / sum(train_s["lora"]),
        "train.condlora.ex_per_s": examples * len(train_s["condlora"]) / sum(train_s["condlora"]),
        "analyze.wall_s": statistics.fmean(analyze_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = {"cycles": len(cycle_s), "examples_per_train_run": examples, "setup_s": setup_s,
            "train_s": train_s, "analyze_s": analyze_s, "loss_ratio": ratios}
    return values, info


def probe_ms(name: str, arg, absent: list[str], repeats: int = 3) -> float:
    """Median milliseconds of ``matcore.<name>(arg)``; 0 and listed absent if it is gone."""
    fn = getattr(matcore, name, None)
    if fn is None:
        absent.append(f"matcore.{name}")
        return 0.0
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        fn(arg)
        times.append(time.perf_counter() - started)
    return 1e3 * statistics.median(times)


def traced_run(ops: Ledger, wl: Workload, seed: int, workdir: Path):
    """One untraced and one traced cycle on one traced set-up; per-layer metrics from the spans."""
    spans = tracer.Tracer()
    with tracer.installed(spans, BOUNDARIES) as absent:
        state = setup(ops, wl, seed, workdir)
    warm_up(ops, wl, state)
    plain = cycle(ops, wl, state, analysis_repeats=1)
    check_cycle(ops, plain)
    with tracer.installed(spans, BOUNDARIES):
        traced = cycle(ops, wl, state, analysis_repeats=1)
    same = fingerprint(plain) == fingerprint(traced)
    ops.check("traced cycle reproduces the untraced adapters and grids bit for bit", same)

    # LU alone, then a whole inversion, on the workload's own layer-1 query W0
    w0 = plain.result["weights"].projection(PAPER_MODULES[0], 1)
    lu_ms = probe_ms("condition_estimate", w0, absent)
    invert_ms = probe_ms("invert", w0, absent)
    plain_train = sum(sum(t) for t in plain.train_s.values())
    traced_train = sum(sum(t) for t in traced.train_s.values())
    values = layer_metrics(spans.spans)
    values.update({
        "matcore.lu_ms": lu_ms,
        "matcore.solve_ms": invert_ms - lu_ms if invert_ms else 0.0,
        "train.lora.loss_ratio": traced.loss_ratio["lora"],
        "train.condlora.loss_ratio": traced.loss_ratio["condlora"],
        "trace.overhead.train_pct": overhead_pct(plain_train, traced_train),
        "trace.overhead.analyze_pct": overhead_pct(plain.analyze_s[0], traced.analyze_s[0]),
    })
    info = {"absent": absent, "spans": len(spans.spans)}
    return values, info, spans.spans


def overhead_pct(plain_s: float, traced_s: float) -> float:
    return 100.0 * (traced_s - plain_s) / plain_s


def layer_metrics(spans) -> dict[str, float]:
    stats = tracer.layer_stats(spans)
    empty = tracer.LayerStats()
    values: dict[str, float] = {}
    for name, _, _ in PER_LAYER:
        layer, _, stat = name.rpartition(".")
        if stat in ("calls", "busy_s", "self_s", "bytes"):
            values[name] = getattr(stats.get(layer, empty), stat)
    invert = stats.get("matcore.invert", empty)
    steps_ms = [1e3 * s for s in tracer.step_intervals(
        spans, "trainer.train_run", "tasks.batch", "trainer.loss_and_grads")]
    run_s = stats.get("trainer.train_run", empty).busy_s
    values.update({
        "tasks.batch.share": stats.get("tasks.batch", empty).busy_s / run_s if run_s else 0.0,
        "trainer.step_ms.p50": float(np.percentile(steps_ms, 50)) if steps_ms else 0.0,
        "trainer.step_ms.p90": float(np.percentile(steps_ms, 90)) if steps_ms else 0.0,
        "trainer.step_ms.samples": len(steps_ms),
        "matcore.invert.ms_per_call": 1e3 * invert.busy_s / invert.calls if invert.calls else 0.0,
        "matcore.invert.rejected": invert.errors.get("SingularMatrixError", 0),
    })
    return values


# --- environment and output ---------------------------------------------------------

def git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_info() -> dict:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        return {k: {"name": v.get("name"), "version": v.get("version")} for k, v in deps.items()}
    except (TypeError, KeyError):
        return {"name": "unknown"}


def environment() -> dict:
    return {
        "numpy": np.__version__,
        "blas": blas_info(),
        "threads": {v: os.environ.get(v) for v in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": git_commit(ROOT),
        "loadavg_before": list(os.getloadavg()),
    }


def parse_args(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    wl = WORKLOADS[args.workload]
    env = environment()
    ops = Ledger()
    spans, info, values = [], {}, {}
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT_DIR))
    try:
        if args.trace:
            values, info, spans = traced_run(ops, wl, args.seed, workdir)
        else:
            values, info = timed_run(ops, wl, args.seed, args.seconds, workdir)
    except OperationFailed:
        pass
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env["loadavg_after"] = list(os.getloadavg())

    specs = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in specs
               if name in values}
    correct = ops.failed == 0 and len(metrics) == len(specs)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "info": info, "metrics": metrics,
              "failures": ops.messages}
    if spans:
        record["spans"] = [vars(s) for s in spans]
    out_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1, default=str) + "\n")

    print(json.dumps({"environment": env}))
    print(json.dumps({"info": info}, default=str))
    for message in ops.messages:
        print(message, file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": ops.attempted, "failed": ops.failed,
                      "metrics": metrics}))
    return 0 if correct else 1
