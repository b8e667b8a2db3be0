import io
import math
import re
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from loralab import _rng, matcore, model
from loralab.config import ExperimentConfig


@pytest.fixture()
def lu_routes(monkeypatch):
    """``for route in lu_routes():`` runs the loop body on each LU route of
    ``matcore``: LAPACK's getrf/getrs where numpy's OpenBLAS has them, then
    the numpy LU, forced by a LAPACK lookup that finds nothing. So the
    fallback stays under test on a host that has the library."""
    def routes():
        if matcore._lapack() is not None:
            yield "lapack"
        with monkeypatch.context() as patch:
            patch.setattr(matcore, "_lapack", lambda: None)
            yield "numpy"
    return routes


# --- matmul ------------------------------------------------------------------

def test_matmul_identity():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(matcore.matmul(a, np.eye(2)), a)
    assert np.array_equal(matcore.matmul(np.eye(2), [[5.0], [7.0]]), [[5.0], [7.0]])


def test_matmul_hand_value():
    # hand arithmetic: [[1*5+2*7, 1*6+2*8], [3*5+4*7, 3*6+4*8]]
    out = matcore.matmul([[1.0, 2.0], [3.0, 4.0]], [[5.0, 6.0], [7.0, 8.0]])
    assert np.array_equal(out, [[19.0, 22.0], [43.0, 50.0]])


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(matcore.ShapeError, match="2x3.*4x2"):
        matcore.matmul(np.ones((2, 3)), np.ones((4, 2)))


def test_matmul_associativity_seeded():
    for seed in range(20):
        a = matcore.gaussian(6, 5, 0, 1, seed)
        b = matcore.gaussian(5, 7, 0, 1, seed + 1000)
        c = matcore.gaussian(7, 4, 0, 1, seed + 2000)
        left = matcore.matmul(matcore.matmul(a, b), c)
        right = matcore.matmul(a, matcore.matmul(b, c))
        rel = np.linalg.norm(left - right) / np.linalg.norm(left)
        assert rel < 1e-9


# --- invert ------------------------------------------------------------------

def test_invert_identity_and_diagonal():
    assert np.allclose(matcore.invert(np.eye(4)), np.eye(4), atol=0, rtol=0)
    out = matcore.invert(np.diag([2.0, 4.0]))
    assert np.array_equal(out, np.diag([0.5, 0.25]))


def test_invert_residual_oracle():
    a = matcore.gaussian(8, 8, 0, 1, 31)
    x = matcore.invert(a)
    assert np.linalg.norm(a @ x - np.eye(8)) < 1e-8


def test_invert_rejects_singular_with_condition(lu_routes):
    for route in lu_routes():
        with pytest.raises(matcore.SingularMatrixError) as info:
            matcore.invert([[1.0, 2.0], [2.0, 4.0]])
        assert info.value.condition > matcore.COND_LIMIT or math.isinf(info.value.condition), route


def test_invert_rejects_non_square():
    with pytest.raises(matcore.ShapeError):
        matcore.invert(np.ones((2, 3)))


def test_invert_gaussian_property():
    # any gaussian draw with a modest condition estimate inverts cleanly
    checked = 0
    for seed in range(40):
        a = matcore.gaussian(12, 12, 0, 1, seed)
        if matcore.condition_estimate(a) >= 1e6:
            continue
        checked += 1
        assert np.linalg.norm(a @ matcore.invert(a) - np.eye(12)) < 1e-8
    assert checked >= 35


def test_condition_estimate_scales_with_near_singularity(lu_routes):
    base = matcore.gaussian(6, 6, 0, 1, 5)
    near = base.copy()
    near[5] = near[4] + 1e-14 * base[3]
    for route in lu_routes():
        assert matcore.condition_estimate(base) < 1e6, route
        assert matcore.condition_estimate(near) > matcore.COND_LIMIT, route


# --- recursive LU and solve ---------------------------------------------------

BASE = matcore._LU_BASE
# one row, the sizes around the base case, sizes whose recursion splits unevenly
# (2 * BASE + 3, 63, 65, 100, 131), and the paper's d
LU_SIZES = tuple(sorted({1, BASE - 1, BASE, BASE + 1, 2 * BASE + 3, 63, 64, 65, 100, 131, 768}))


def _rank1_lu(a):
    """Unblocked partial-pivot LU, one rank-1 update per column: the reference."""
    lu = np.array(a, dtype=np.float64)
    n = lu.shape[0]
    perm = np.arange(n)
    for k in range(n):
        p = k + int(np.argmax(np.abs(lu[k:, k])))
        lu[[k, p]] = lu[[p, k]]
        perm[[k, p]] = perm[[p, k]]
        lu[k + 1 :, k] /= lu[k, k]
        lu[k + 1 :, k + 1 :] -= np.outer(lu[k + 1 :, k], lu[k, k + 1 :])
    return lu, perm


def _rel(x, ref):
    return np.linalg.norm(x - ref) / np.linalg.norm(ref)


def _late_column(n):
    """A column in the right half of the top split, past its first base panel."""
    assert n > 2 * BASE
    return n - 5


@pytest.mark.parametrize("n", LU_SIZES)
def test_blocked_lu_reconstructs_and_solves(n):
    a = matcore.gaussian(n, n, 0, 1, 400 + n)
    lu = a.copy()
    perm = matcore._lu_factor(lu[None])[0]
    lower = np.tril(lu, -1) + np.eye(n)
    assert _rel(lower @ np.triu(lu), a[perm]) <= 1e-12
    ref_lu, ref_perm = _rank1_lu(a)
    assert np.array_equal(perm, ref_perm)
    assert _rel(lu, ref_lu) <= 1e-12
    rhs = matcore.gaussian(n, 3, 0, 1, 900 + n)
    assert _rel(matcore.solve(a, rhs), matcore.invert(a) @ rhs) <= 1e-12


def test_solve_rejects_rank_deficient_past_block(lu_routes):
    n = 2 * BASE + 9
    col = _late_column(n)
    rhs = np.ones((n, 1))
    zero_col = matcore.gaussian(n, n, 0, 1, 77)
    zero_col[:, col] = 0.0  # an exact zero pivot that a later branch of the recursion meets
    dup_col = matcore.gaussian(n, n, 0, 1, 78)
    dup_col[:, col] = dup_col[:, 2]
    for route in lu_routes():
        with pytest.raises(matcore.SingularMatrixError) as info:
            matcore.solve(zero_col, rhs)
        assert math.isinf(info.value.condition), route
        assert math.isinf(matcore.condition_estimate(zero_col)), route
        with pytest.raises(matcore.SingularMatrixError):
            matcore.solve(dup_col, rhs)


def _near_singular(n, seed):
    """(base, near): a Gaussian n x n matrix, and it with a late column
    replaced by its left neighbour plus 1e-14 times column 3."""
    base = matcore.gaussian(n, n, 0, 1, seed)
    near = base.copy()
    near[:, _late_column(n)] = near[:, _late_column(n) - 1] + 1e-14 * base[:, 3]
    return base, near


def test_solve_rejects_near_singular_past_block(lu_routes):
    n = 2 * BASE + 9
    base, near = _near_singular(n, 79)
    for route in lu_routes():
        assert matcore.condition_estimate(base) < 1e6, route
        assert matcore.condition_estimate(near) > matcore.COND_LIMIT, route
        with pytest.raises(matcore.SingularMatrixError) as info:
            matcore.solve(near, np.ones((n, 2)))
        assert info.value.condition > matcore.COND_LIMIT, route


def test_solve_agrees_with_lapack():
    # Two backward-stable solvers agree to about cond(a) * eps, so the draw's
    # 2-norm condition number is checked first; both gates of solve pass it.
    a = matcore.gaussian(768, 768, 0, 1, 7)
    assert np.linalg.cond(a) < 1e4
    assert matcore.condition_estimate(a) < 1e6
    rhs = matcore.gaussian(768, 8, 0, 1, 8)
    assert _rel(matcore.solve(a, rhs), np.linalg.solve(a, rhs)) <= 1e-12
    desk = np.stack([matcore.gaussian(32, 32, 0, 1, 20 + s) for s in range(4)])
    desk_rhs = np.stack([matcore.gaussian(32, 8, 0, 1, 30 + s) for s in range(4)])
    assert _rel(matcore.solve(desk, desk_rhs), np.linalg.solve(desk, desk_rhs)) <= 1e-12
    a = matcore.gaussian(300, 300, 0, 1, 9)
    assert _rel(matcore.invert(a) @ a, np.eye(300)) <= 1e-12


def test_solve_rejects_nonfinite_and_bad_shapes(lu_routes):
    bad = np.eye(3)
    bad[1, 2] = np.nan
    rhs = np.ones((3, 2))
    rhs[2, 1] = np.nan
    for route in lu_routes():
        with pytest.raises(matcore.NumericError, match="solve input"):
            matcore.solve(bad, np.ones((3, 1)))
        with pytest.raises(matcore.NumericError, match="right-hand side"):
            matcore.solve(np.eye(3), rhs)
        with np.errstate(over="ignore"), pytest.raises(matcore.NumericError, match="solve result"):
            matcore.solve(1e-300 * np.eye(2), [[1e10], [1.0]])
        with pytest.raises(matcore.ShapeError, match="square"):
            matcore.solve(np.ones((2, 3)), np.ones((2, 1)))
        with pytest.raises(matcore.ShapeError, match="3x3.*4x1"):
            matcore.solve(np.eye(3), np.ones((4, 1)))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_condition_estimate_rejects_nonfinite_entries(value, lu_routes):
    bad = matcore.gaussian(5, 5, 0, 1, 31)
    bad[3, 1] = value
    zero_pivot = np.eye(3)
    zero_pivot[1, 1] = 0.0
    for route in lu_routes():
        with pytest.raises(matcore.NumericError,
                           match="^condition_estimate input contains non-finite entries$"):
            matcore.condition_estimate(bad)
        assert math.isinf(matcore.condition_estimate(zero_pivot)), route


@pytest.mark.parametrize("op, args, shape", [
    ("solve", (np.zeros((0, 0)), np.zeros((0, 1))), "0x0"),
    ("solve", ([np.zeros((0, 0))] * 2, np.zeros((2, 0, 1))), "0x0"),
    ("solve", (np.zeros((0, 3, 3)), np.zeros((0, 3, 1))), "0x3x3"),
    ("invert", (np.zeros((0, 0)),), "0x0"),
    ("condition_estimate", (np.zeros((0, 0)),), "0x0"),
    ("svd", (np.zeros((0, 3)),), "0x3"),
    ("svd", (np.zeros((2, 4, 0)),), "2x4x0"),
], ids=["solve", "solve-list", "solve-stack", "invert", "condition_estimate", "svd",
        "svd-stack"])
def test_empty_matrices_are_shape_errors(op, args, shape):
    with pytest.raises(matcore.ShapeError, match=f"^{op} requires a non-empty matrix, got {shape}$"):
        getattr(matcore, op)(*args)


# --- stacked solve ------------------------------------------------------------

def _stack_case(n, count, seed=0):
    mats = [matcore.gaussian(n, n, 0, 1, 400 + n + 10 * s + seed) for s in range(count)]
    rhs = np.stack([matcore.gaussian(n, 3, 0, 1, 900 + n + 10 * s + seed) for s in range(count)])
    return mats, rhs


@pytest.mark.parametrize("n, count", [(n, count) for n in LU_SIZES
                                      for count in ((2,) if n == 768 else (1, 3))])
def test_stacked_solve_equals_each_2d_solve_bit_for_bit(n, count, lu_routes):
    mats, rhs = _stack_case(n, count)
    for route in lu_routes():
        each = [matcore.solve(m, b) for m, b in zip(mats, rhs)]
        for stack in (np.stack(mats), mats):
            x = matcore.solve(stack, rhs)
            assert x.shape == (count, n, 3)
            for s in range(count):
                assert x[s].tobytes() == each[s].tobytes(), (route, s)


def test_solve_bits_do_not_depend_on_memory_layout(lu_routes):
    # the numpy LU's base case swaps rows through a flat view of a C-ordered
    # copy of its panel; LAPACK's reads a column-major copy
    mats, rhs = _stack_case(BASE + 6, 2)
    stack = np.stack(mats)
    for route in lu_routes():
        want = matcore.solve(stack, rhs)
        assert matcore.solve(np.asfortranarray(stack), rhs).tobytes() == want.tobytes(), route
        assert matcore.solve(np.asfortranarray(mats[1]), rhs[1]).tobytes() == want[1].tobytes()


def test_stacked_solve_in_small_chunks_gives_the_same_bits(monkeypatch, force_cpus, lu_routes):
    force_cpus(1)  # one worker takes the chunks in order
    n, count = BASE + 6, 7
    mats, rhs = _stack_case(n, count)
    solve_chunk = matcore._solve_chunk

    def counting_chunks(a, b, *rest):
        chunks.append(len(b))
        solve_chunk(a, b, *rest)

    for route in lu_routes():
        whole = matcore.solve(mats, rhs)
        chunks = []
        with monkeypatch.context() as patch:
            patch.setattr(matcore, "_solve_chunk", counting_chunks)
            patch.setattr(matcore, "_LU_WORKSPACE", 3 * 8 * n * n + 5)
            assert matcore.solve(mats, rhs).tobytes() == whole.tobytes(), route
        assert chunks == [3, 3, 1], route


def test_stacked_solve_copies_one_chunk_at_a_time(monkeypatch, force_cpus, lu_routes):
    # A stack of 12 with a workspace of 3 matrices: the LU copy, its factor
    # and substitution temporaries stay within two workspaces, where a copy
    # of the whole stack alone would take four.
    force_cpus(1)  # one worker, so one workspace
    n, count = 128, 12
    mats, _ = _stack_case(n, count)
    rhs = np.ones((count, n, 8))
    workspace = 3 * 8 * n * n
    monkeypatch.setattr(matcore, "_LU_WORKSPACE", workspace)
    for route in lu_routes():
        tracemalloc.start()
        try:
            x = matcore.solve(mats, rhs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * workspace + rhs.nbytes + x.nbytes, (route, peak)


def test_stacked_solve_on_two_workers_copies_one_chunk_each(monkeypatch, force_cpus, lu_routes):
    # As above with two workers: each has its own workspace, and the
    # temporaries of both stay within the same allowance of one more.
    force_cpus(2)
    n, count = 128, 12
    mats, _ = _stack_case(n, count)
    rhs = np.ones((count, n, 8))
    workspace = 3 * 8 * n * n
    monkeypatch.setattr(matcore, "_LU_WORKSPACE", workspace)
    matcore.solve(mats[:6], rhs[:6])  # the pool's first use loads concurrent.futures
    for route in lu_routes():
        tracemalloc.start()
        try:
            x = matcore.solve(mats, rhs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * workspace + rhs.nbytes + x.nbytes, (route, peak)


@pytest.mark.parametrize("n, per_chunk, count", [(BASE + 6, 2, 7), (2 * BASE + 9, 3, 12)])
def test_stacked_solve_bytes_do_not_depend_on_the_worker_count(monkeypatch, force_cpus, n,
                                                               per_chunk, count, lu_routes):
    mats, rhs = _stack_case(n, count)
    for route in lu_routes():
        force_cpus(1)
        whole = matcore.solve(mats, rhs).tobytes()
        with monkeypatch.context() as patch:
            patch.setattr(matcore, "_LU_WORKSPACE", per_chunk * 8 * n * n)
            for cpus in (1, 2, 3):
                force_cpus(cpus)
                assert matcore.solve(mats, rhs).tobytes() == whole, (route, cpus)
                assert matcore.solve(np.stack(mats), rhs).tobytes() == whole, (route, cpus)
            # one worker per chunk, switching threads as often as the interpreter allows
            force_cpus(count)
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                assert matcore.solve(mats, rhs).tobytes() == whole, route
            finally:
                sys.setswitchinterval(interval)


@pytest.mark.parametrize("kind", ["zero pivot", "near singular"])
def test_stacked_solve_names_the_lowest_failing_chunk_at_every_worker_count(
        monkeypatch, force_cpus, kind, lu_routes):
    # Chunks of 2: members 3 (chunk 1) and 7 (chunk 3) are singular, and
    # member 7 fails in the first base panel, long before member 3 does.
    n = 2 * BASE + 9
    mats, _ = _stack_case(n, 8, seed=5)
    col = _late_column(n)
    if kind == "zero pivot":
        mats[3][:, col] = 0.0
    else:
        mats[3][:, col] = mats[3][:, col - 1] + 1e-14 * mats[3][:, 3]
    mats[7][:, 0] = 0.0
    monkeypatch.setattr(matcore, "_LU_WORKSPACE", 2 * 8 * n * n)
    for route in lu_routes():
        for cpus in (1, 2, 3, 4):
            force_cpus(cpus)
            with pytest.raises(matcore.SingularMatrixError,
                               match="^matrix 3: singular matrix") as info:
                matcore.solve(mats, np.ones((8, n, 1)))
            assert info.value.index == 3, (route, cpus)


@pytest.mark.parametrize("bad", [
    {1: "late zero", 3: "first zero"},
    {1: "near singular", 3: "late zero"},
    {1: "late zero", 2: "late zero"},
    {1: "near singular", 2: "near singular"},
], ids=["before-an-earlier-zero-pivot", "ratio-before-a-zero-pivot", "two-zero-pivots",
        "two-ratios"])
def test_a_stack_names_its_lowest_rejected_member(monkeypatch, force_cpus, bad, lu_routes):
    # Every factorization finishes, so the column at which a member meets a
    # zero pivot does not matter: the lowest rejected member, 1, is named
    # on either route, at any chunking and on any number of CPUs.
    n = 2 * BASE + 9
    mats, _ = _stack_case(n, 4, seed=6)
    for s, kind in bad.items():
        if kind == "near singular":
            mats[s] = _near_singular(n, 80 + s)[1]
        else:
            mats[s][:, 0 if kind == "first zero" else _late_column(n)] = 0.0
    for route in lu_routes():
        for per_chunk in (1, 2, 4):
            monkeypatch.setattr(matcore, "_LU_WORKSPACE", per_chunk * 8 * n * n)
            for cpus in (1, 2, 3):
                force_cpus(cpus)
                with pytest.raises(matcore.SingularMatrixError,
                                   match="^matrix 1: singular matrix") as info:
                    matcore.solve(mats, np.ones((4, n, 1)))
                assert info.value.index == 1, (route, per_chunk, cpus)


@pytest.mark.parametrize("w0", [np.zeros((3, 3)), np.diag([1.0, 0.0, 1.0]),
                                np.zeros((2 * BASE + 9,) * 2),
                                np.diag(np.arange(2 * BASE + 9.0) % 5)],
                         ids=["all-zero", "zero-on-the-diagonal", "all-zero-past-base",
                              "zeros-on-the-diagonal-past-base"])
def test_an_exact_zero_pivot_reads_inf_without_a_warning(w0, lu_routes):
    # A zero pivot, also an all-zero matrix's 0/0, reads as inf, never as
    # NaN (which would pass the gate), and warns of no division.
    n = len(w0)
    for route in lu_routes():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert matcore.condition_estimate(w0) == math.inf, route
            with pytest.raises(matcore.SingularMatrixError, match="^singular matrix") as info:
                matcore.solve(w0, np.ones((n, 1)))
            assert info.value.condition == math.inf, route
            with pytest.raises(matcore.SingularMatrixError,
                               match="^matrix 1: singular matrix") as info:
                matcore.solve([np.eye(n), w0, w0], np.ones((3, n, 1)))
            assert info.value.condition == math.inf, route


def test_a_one_chunk_stack_starts_no_thread(monkeypatch, force_cpus, no_threads, lu_routes):
    force_cpus(8)
    n = BASE + 6
    mats, rhs = _stack_case(n, 4)
    for route in lu_routes():
        monkeypatch.setattr(matcore, "_LU_WORKSPACE", 4 * 8 * n * n)
        matcore.solve(mats, rhs)
        monkeypatch.setattr(matcore, "_LU_WORKSPACE", 2 * 8 * n * n)
        with pytest.raises(AssertionError, match="a thread was started"):
            matcore.solve(mats, rhs)


@pytest.mark.parametrize("per_chunk", [None, 1])
@pytest.mark.parametrize("kind", ["zero pivot", "near singular"])
def test_stacked_solve_names_the_singular_member(monkeypatch, kind, per_chunk, lu_routes):
    n = 2 * BASE + 9
    col = _late_column(n)
    mats, _ = _stack_case(n, 4, seed=3)
    bad = mats[2].copy()
    if kind == "zero pivot":
        bad[:, col] = 0.0
    else:
        bad[:, col] = bad[:, col - 1] + 1e-14 * bad[:, 3]
    mats[2] = bad
    if per_chunk is not None:
        monkeypatch.setattr(matcore, "_LU_WORKSPACE", per_chunk * 8 * n * n)
    for route in lu_routes():
        with pytest.raises(matcore.SingularMatrixError,
                           match="^matrix 2: singular matrix") as info:
            matcore.solve(mats, np.ones((4, n, 1)))
        assert info.value.index == 2, route
        assert info.value.condition > matcore.COND_LIMIT, route
        with pytest.raises(matcore.SingularMatrixError, match="^singular matrix") as info:
            matcore.solve(bad, np.ones((n, 1)))
        assert info.value.index is None, route


def test_stacked_solve_rejects_bad_shapes(lu_routes):
    for route in lu_routes():
        with pytest.raises(matcore.ShapeError, match="stack mixes"):
            matcore.solve([np.eye(3), np.eye(4)], np.ones((2, 3, 1)))
        with pytest.raises(matcore.ShapeError, match="2x3x3.*3x3x1"):
            matcore.solve(np.stack([np.eye(3)] * 2), np.ones((3, 3, 1)))
        with pytest.raises(matcore.ShapeError, match="right-hand side must be 3-D"):
            matcore.solve(np.stack([np.eye(3)] * 2), np.ones((3, 1)))
        with pytest.raises(matcore.ShapeError, match="right-hand side must be 2-D"):
            matcore.solve(np.eye(3), np.ones((1, 3, 1)))


# --- LAPACK against the numpy LU -------------------------------------------------

def _lapack_row_order(ipiv):
    """The rows of the input in the order of LU's rows, from LAPACK's 1-based swaps."""
    order = np.arange(len(ipiv))
    for i, p in enumerate(ipiv - 1):
        order[[i, p]] = order[[p, i]]
    return order


def _reference_w0s():
    desk = ExperimentConfig()
    weights = model.build_model(desk.model_config())
    for name in weights.names():
        if name.endswith((".query", ".value")):
            yield name, weights[name]
    for seed in range(12):
        yield f"gaussian {seed}", matcore.gaussian(768, 768, 0, 1, 3000 + seed)


def test_lapack_lu_agrees_with_the_numpy_lu():
    # Both factor P W0 = L U with the largest-magnitude pivot of each column,
    # so the row orders are equal. Their roundings differ: the pivot ratios
    # and the solutions agree to cond_1(W0) * eps (measured: at most 0.04 of
    # it on these W0s, whose cond_1 reaches 5e6).
    if matcore._lapack() is None:
        pytest.skip("numpy's OpenBLAS with LAPACK's getrf and getrs is not found here")
    eps = np.finfo(np.float64).eps
    for name, w0 in _reference_w0s():
        n = len(w0)
        lu, ipiv = np.empty((n, n)), np.empty(n, np.int64)
        ratio = matcore._getrf(w0, lu, ipiv)
        reference = w0.copy()
        order = matcore._lu_factor(reference[None])[0]
        assert math.isfinite(ratio) and np.array_equal(_lapack_row_order(ipiv), order), name
        bound = np.linalg.cond(w0, 1) * eps
        want = float(matcore._pivot_ratios(reference))
        assert abs(ratio - want) <= bound * want, name
        rhs = matcore.gaussian(n, 16, 0, 1, 4000 + n)
        x = matcore.solve(w0, rhs)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(matcore, "_lapack", lambda: None)
            numpy_x = matcore.solve(w0, rhs)
        assert _rel(x, numpy_x) <= bound, name


@pytest.mark.parametrize("kind", ["zero pivot", "duplicate column", "near singular"])
def test_lapack_lu_rejects_what_the_numpy_lu_rejects(kind, lu_routes):
    n = 2 * BASE + 9
    col = _late_column(n)
    base, w0 = _near_singular(n, 81)
    if kind != "near singular":
        w0 = base.copy()
        w0[:, col] = 0.0 if kind == "zero pivot" else w0[:, 2]
    for route in lu_routes():
        condition = matcore.condition_estimate(w0)
        assert condition > matcore.COND_LIMIT, (route, condition)
        assert math.isinf(condition) == (kind == "zero pivot"), route
        with pytest.raises(matcore.SingularMatrixError, match="^matrix 1: singular matrix"):
            matcore.solve([base, w0], np.ones((2, n, 1)))


# --- svd ---------------------------------------------------------------------

def test_svd_diagonal():
    r = matcore.svd(np.diag([3.0, 1.0]))
    assert np.allclose(r.s, [3.0, 1.0], atol=0)


def test_svd_zero_matrix():
    r = matcore.svd(np.zeros((4, 4)))
    assert np.array_equal(r.s, np.zeros(4))


def test_svd_reconstruction_and_orthogonality():
    x = matcore.gaussian(16, 8, 0, 1, 7)
    r = matcore.svd(x)
    rel = np.linalg.norm(x - r.u @ np.diag(r.s) @ r.vt) / max(1.0, np.linalg.norm(x))
    assert rel <= 1e-10
    assert np.linalg.norm(r.u.T @ r.u - np.eye(8)) < 1e-8
    assert np.linalg.norm(r.vt @ r.vt.T - np.eye(8)) < 1e-8


def test_svd_reconstruction_property_100_trials():
    for seed in range(100):
        rows = 1 + _shape_from_seed(seed, 64)
        cols = 1 + _shape_from_seed(seed + 7, 64)
        x = matcore.gaussian(rows, cols, 0, 1, seed)
        r = matcore.svd(x)
        rel = np.linalg.norm(x - r.u @ np.diag(r.s) @ r.vt) / max(1.0, np.linalg.norm(x))
        assert rel <= 1e-10
        assert (np.diff(r.s) <= 0).all()
        assert (r.s >= 0).all()


def _shape_from_seed(seed, bound):
    from loralab import _rng

    return int(_rng.randint_block(1, bound, seed)[0])


def test_svd_sign_convention():
    x = matcore.gaussian(10, 4, 0, 1, 3)
    r = matcore.svd(x)
    for col in range(4):
        peak = np.argmax(np.abs(r.u[:, col]))
        assert r.u[peak, col] >= 0
    # flipping input signs leaves the convention-fixed factors deterministic
    r2 = matcore.svd(-x)
    for col in range(4):
        peak = np.argmax(np.abs(r2.u[:, col]))
        assert r2.u[peak, col] >= 0


@pytest.mark.parametrize("shape", [(3, 10, 4), (2, 4, 10), (2, 3, 6, 5)])
def test_stacked_svd_equals_each_svd_with_its_signs(shape):
    half = matcore.gaussian(int(np.prod(shape[:-1])) // 2, shape[-1], 0, 1, 17)
    a = np.concatenate([half, -half]).reshape(shape)  # negated twins flip the signs
    stacked = matcore.svd(a)
    for idx in np.ndindex(*shape[:-2]):
        one = matcore.svd(a[idx])
        for got, want in ((stacked.u[idx], one.u), (stacked.s[idx], one.s),
                          (stacked.vt[idx], one.vt)):
            assert got.tobytes() == want.tobytes(), idx


def test_svd_rejects_nonfinite():
    with pytest.raises(matcore.NumericError):
        matcore.svd(np.array([[1.0, np.nan], [0.0, 1.0]]))


# --- small ops ---------------------------------------------------------------

def test_gaussian_determinism_and_zero_std():
    a = matcore.gaussian(768, 8, 0, 1, 42)
    b = matcore.gaussian(768, 8, 0, 1, 42)
    assert (a == b).all()
    assert abs(a.mean()) < 0.05
    assert abs(a.std() - 1.0) < 0.05
    z = matcore.gaussian(2, 2, 0.0, 0.0, 11)
    assert np.array_equal(z, np.zeros((2, 2)))


def test_gaussian_scales_the_stream_bit_for_bit():
    g = matcore.gaussian(31, 33, 0.25, 1.7, 98)
    reference = 0.25 + 1.7 * _rng.gaussian_block(31 * 33, 98).reshape(31, 33)
    assert np.array_equal(g.view(np.uint64), reference.view(np.uint64))


@pytest.mark.parametrize("rows, cols", [(1, 2 * _rng._PAIR_BLOCK - 1), (1, 2 * _rng._PAIR_BLOCK),
                                        (1, 2 * _rng._PAIR_BLOCK + 1), (1, 4 * _rng._PAIR_BLOCK + 1),
                                        (768, 3072)])
def test_gaussian_bytes_do_not_depend_on_the_worker_count(rows, cols, force_cpus):
    force_cpus(1)
    g = _rng.gaussian_block(rows * cols, 6).reshape(rows, cols)
    for mean, std in [(0.0, 1.0), (0.0, 0.0), (0.25, 1.7), (0.0, 1 / math.sqrt(768))]:
        reference = (g * std + mean).tobytes()
        for cpus in (1, 2, 3):
            force_cpus(cpus)
            assert matcore.gaussian(rows, cols, mean, std, 6).tobytes() == reference, (mean, std, cpus)


def test_gaussian_rejects_negative_std():
    with pytest.raises(ValueError):
        matcore.gaussian(2, 2, 0.0, -1.0, 0)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_gaussian_rejects_nonfinite_mean_and_std(value):
    with pytest.raises(ValueError, match="^mean must be finite"):
        matcore.gaussian(1, 2, mean=value)
    with pytest.raises(ValueError, match="^std must be finite and non-negative"):
        matcore.gaussian(1, 2, std=value)


@pytest.mark.parametrize("rows, cols, message", [
    (True, 3, "rows must be an integer, got True"),
    (2, 3.0, "cols must be an integer, got 3.0"),
    (2.0, 3, "rows must be an integer, got 2.0"),
    (0, 3, "rows must be >= 1, got 0"),
    (2, -1, "cols must be >= 1, got -1"),
], ids=["True-3", "2-3.0", "2.0-3", "0-3", "2--1"])
def test_gaussian_names_a_bad_dimension(rows, cols, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        matcore.gaussian(rows, cols, 0, 1, 1)


def test_gaussian_takes_numpy_integer_dimensions():
    assert matcore.gaussian(np.int64(2), np.uint8(3), 0, 1, 1).tobytes() == \
        matcore.gaussian(2, 3, 0, 1, 1).tobytes()


# --- serialization -----------------------------------------------------------

def test_matrix_round_trip_bit_exact(tmp_path):
    a = matcore.gaussian(7, 5, 0.0, 3.7, 13)
    a[0, 0] = -0.0
    a[1, 1] = 1e-300
    a[2, 2] = 1.7976931348623157e308
    a[3, 3] = 5e-324
    fmt = matcore.CheckpointFormat("EDGES", {}, dict, lambda header: [("layer3.value", (7, 5))])
    path = tmp_path / "edges.ckpt"
    with open(path, "wb") as fh:
        matcore.write_checkpoint(fh, fmt, {}, {"layer3.value": a})
    _, tensors = matcore.load_checkpoint(path, fmt)
    assert list(tensors) == ["layer3.value"]
    back = tensors["layer3.value"]
    assert back.shape == a.shape
    assert np.array_equal(back, a)
    assert np.signbit(back[0, 0])


def test_write_matrix_bytes_are_pinned():
    # The MATRIX line, then every value as raw little-endian float64, edge values included.
    edges = np.array([[-0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                       0.1, -1.5, 1e16, 123456789.0]])
    buf = io.BytesIO()
    matcore.write_matrix(buf, "edges", edges)
    assert buf.getvalue() == b"MATRIX edges 1 8 <f8\n" + bytes.fromhex(
        "0000000000000080"  # -0.0
        "0100000000000000"  # 5e-324, the smallest subnormal
        "0000000000001000"  # 2.2250738585072014e-308, the smallest normal
        "ffffffffffffef7f"  # 1.7976931348623157e308, the largest finite
        "9a9999999999b93f"  # 0.1
        "000000000000f8bf"  # -1.5
        "0080e03779c34143"  # 1e16
        "00000054346f9d41")  # 123456789.0
    normals = matcore.gaussian(200, 768, 0.0, 1.0, 5)
    buf = io.BytesIO()
    matcore.write_matrix(buf, "normals", normals)
    assert buf.getvalue() == b"MATRIX normals 200 768 <f8\n" + normals.astype("<f8").tobytes()


def test_big_endian_and_column_major_inputs_round_trip_to_the_same_values(tmp_path):
    a = matcore.gaussian(3, 4, 0.0, 2.0, 21)
    a[0, 0], a[1, 1] = -0.0, 5e-324
    inputs = {"big": a.astype(">f8"), "fortran": np.asfortranarray(a)}
    fmt = matcore.CheckpointFormat("EDGES", {}, dict,
                                   lambda header: [(name, (3, 4)) for name in inputs])
    path = tmp_path / "edges.ckpt"
    with open(path, "wb") as fh:
        matcore.write_checkpoint(fh, fmt, {}, inputs)
    assert path.read_bytes().endswith(b"\n" + a.astype("<f8").tobytes())
    for back in matcore.load_checkpoint(path, fmt)[1].values():
        assert np.array_equal(back.view(np.uint64), a.view(np.uint64))


def test_iter_matrices_multiple_blocks(tmp_path):
    layout = [("first", (2, 2)), ("second", (1, 3))]
    fmt = matcore.CheckpointFormat("BLOCKS", {}, dict, lambda header: layout)
    path = tmp_path / "blocks.ckpt"
    with open(path, "wb") as fh:
        matcore.write_checkpoint(fh, fmt, {}, {"first": np.ones((2, 2)), "second": np.zeros((1, 3))})
    _, tensors = matcore.load_checkpoint(path, fmt)
    assert list(tensors) == ["first", "second"]
    assert tensors["second"].shape == (1, 3)


def test_write_matrix_rejects_bad_name():
    with pytest.raises(ValueError):
        matcore.write_matrix(io.BytesIO(), "has space", np.ones((1, 1)))
