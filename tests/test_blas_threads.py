"""Results do not depend on the BLAS thread count, nor on how many CPUs the
Gaussian fill, the stacked solve and a training step may share their work
among.

The same script runs in two fresh processes, with OPENBLAS_NUM_THREADS and
OMP_NUM_THREADS set to 1 and to 2 before numpy loads. Each prints one sha256
per kind of output, and the two processes must print the same ones; its
768x768 stack is one LU chunk, which runs without a pool, so only the hold
around each LAPACK call keeps getrf on one thread there. Likewise
a model spanning many fill blocks is built, a stack of two LU chunks solved
and a desk training step of four batch chunks taken, in a process pinned to
one CPU before loralab loads and in one left unpinned. While a pool shares
work among the CPUs, OpenBLAS runs on one thread, and on its own count again
after.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from loralab import _rng

SRC = Path(__file__).parents[1] / "src"

SCRIPT = r"""
import contextlib, hashlib, io, json, sys
from pathlib import Path
import numpy as np
from loralab import _rng, cli, matcore

out = Path(sys.argv[1])
sha = lambda data: hashlib.sha256(data).hexdigest()
for method in ("lora", "condlora"):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["train", "--method", method, "--max-steps", "100",
                         "--out", str(out / method)])
    assert code == 0, method
stdout = io.StringIO()
with contextlib.redirect_stdout(stdout):
    code = cli.main(["analyze", "--model", str(out / "lora" / "model.ckpt"),
                     "--adapter", str(out / "lora" / "adapter.ckpt"),
                     "--adapter", str(out / "condlora" / "adapter.ckpt"),
                     "--out", str(out / "analysis")])
assert code == 0
w0s = np.stack([matcore.gaussian(768, 768, 0, 1, seed) for seed in range(4)])
assert len(w0s) <= matcore._LU_WORKSPACE // (8 * 768 * 768)  # one chunk: no pool holds BLAS
x = matcore.solve(w0s, np.stack([matcore.gaussian(768, 8, 0, 1, 10 + s) for s in range(4)]))
svd = matcore.svd(x)
condition = matcore.condition_estimate(w0s[0])
blas = _rng._openblas()
print(json.dumps({
    "adapters": sha(b"".join((out / m / "adapter.ckpt").read_bytes() for m in ("lora", "condlora"))),
    "report_steps": sha("".join(
        line for m in ("lora", "condlora")
        for line in (out / m / "report.csv").read_text().splitlines(keepends=True)
        if line[0].isdigit()).encode()),
    "analyze": sha(stdout.getvalue().encode() + b"".join(
        path.name.encode() + path.read_bytes()
        for path in sorted((out / "analysis").iterdir()))),
    "solve": sha(x.tobytes() + svd.u.tobytes() + svd.s.tobytes() + svd.vt.tobytes()
                 + condition.hex().encode()),
    "threads": blas.scipy_openblas_get_num_threads64_() if blas else None,
}))
"""


def test_outputs_are_bit_identical_at_one_and_two_blas_threads(tmp_path):
    runs = {}
    for threads in (1, 2):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads),
                   PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        runs[threads] = subprocess.Popen(
            [sys.executable, "-c", SCRIPT, str(tmp_path / str(threads))],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    digests = {}
    for threads, proc in runs.items():
        stdout, stderr = proc.communicate(timeout=120)
        assert proc.returncode == 0, stderr
        digests[threads] = json.loads(stdout)
        assert digests[threads].pop("threads") in (None, threads)  # None: not this OpenBLAS build
    assert digests[1] == digests[2]


MODEL_SCRIPT = r"""
import hashlib, json, os, sys
if sys.argv[1] == "pinned":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
import numpy as np
from loralab import matcore, model, trainer
from loralab.config import ExperimentConfig
weights = model.build_model(model.ModelConfig(n_layers=1, d_model=768, n_heads=12, d_ff=3072))
digest = hashlib.sha256()
for name in weights.names():
    digest.update(name.encode() + weights[name].tobytes())
count = 2 * (matcore._LU_WORKSPACE // (8 * 768 * 768))  # two chunks of the stacked solve
w0s = np.stack([matcore.gaussian(768, 768, 0, 768 ** -0.5, 50 + s) for s in range(count)])
x = matcore.solve(w0s, np.stack([matcore.gaussian(768, 16, 0, 1, 90 + s) for s in range(count)]))
desk = ExperimentConfig()
desk_weights = model.build_model(desk.model_config())
spec = desk.adapter_spec("lora")
params = trainer.generic_params(spec, desk.d_model, 7)
size = next(b for b in range(4, 10**6)
            if len(model.chunks(desk.model_config(), b, desk.seq_len)) == 4)
batch = desk.make_task(desk_weights).batch(1, size)  # the smallest batch of four step chunks
loss, grads = trainer.loss_and_grads(desk_weights, params, spec, batch)
step = hashlib.sha256(loss.hex().encode() + batch[1].tobytes())
for key, g in grads.items():
    step.update(key.encode() + g.tobytes())
print(json.dumps({"cpus": len(os.sched_getaffinity(0)), "model": digest.hexdigest(),
                  "solve": hashlib.sha256(x.tobytes()).hexdigest(), "step": step.hexdigest()}))
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no sched_setaffinity here")
def test_model_is_bit_identical_pinned_to_one_cpu_and_unpinned():
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("this process may run on one CPU only, so both children would fill alike")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    runs = {pin: subprocess.Popen([sys.executable, "-c", MODEL_SCRIPT, pin], env=env,
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            for pin in ("pinned", "unpinned")}
    results = {}
    for pin, proc in runs.items():
        stdout, stderr = proc.communicate(timeout=120)
        assert proc.returncode == 0, stderr
        results[pin] = json.loads(stdout)
    assert results["pinned"]["cpus"] == 1 and results["unpinned"]["cpus"] > 1
    assert results["pinned"]["model"] == results["unpinned"]["model"]
    assert results["pinned"]["solve"] == results["unpinned"]["solve"]
    assert results["pinned"]["step"] == results["unpinned"]["step"]


def test_a_pool_runs_openblas_on_one_thread_and_restores_its_count(force_cpus):
    blas = _rng._openblas()
    if blas is None:
        pytest.skip("numpy's BLAS is not an OpenBLAS found here")
    get, put = blas.scipy_openblas_get_num_threads64_, blas.scipy_openblas_set_num_threads64_
    before = get()
    force_cpus(2)
    seen = []
    try:
        put(2)
        _rng.run_parts(range(2), lambda part, space: seen.append(get()), lambda worker: None)
        assert seen == [1, 1] and get() == 2
        _rng.run_parts(range(1), lambda part, space: seen.append(get()),
                       lambda worker: None)  # no pool, no change
        assert seen[2:] == [2]
        with pytest.raises(ZeroDivisionError):
            _rng.run_parts(range(2), lambda part, space: 1 / 0, lambda worker: None)
        assert get() == 2
    finally:
        put(before)
