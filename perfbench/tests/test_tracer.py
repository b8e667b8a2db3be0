"""Span arithmetic and the safety of installing and removing wrappers.

Run with ``python -m pytest perfbench/tests``.
"""

import pytest

import tracer
from tracer import Boundary, Span, Tracer


def spans_from(rows):
    return [Span(name, start, parent, end) for name, start, end, parent in rows]


def test_self_time_subtracts_nested_children():
    spans = spans_from([
        ("root", 0.0, 10.0, None),
        ("a", 1.0, 4.0, 0),
        ("a.inner", 2.0, 3.0, 1),
        ("b", 5.0, 7.0, 0),
    ])
    assert tracer.self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 2.0])


def test_self_time_counts_overlapping_children_once():
    spans = spans_from([
        ("root", 0.0, 10.0, None),
        ("a", 1.0, 4.0, 0),
        ("b", 3.0, 6.0, 0),
        ("c", 9.0, 12.0, 0),  # clipped to the parent's end
    ])
    assert tracer.self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_layer_stats_from_a_fake_clock():
    ticks = iter(range(100))
    t = Tracer(clock=lambda: float(next(ticks)))
    with t.span("outer"):          # 0 .. 5
        with t.span("inner"):      # 1 .. 2
            pass
        with t.span("inner"):      # 3 .. 4
            pass
    stats = tracer.layer_stats(t.spans)
    assert stats["outer"].calls == 1 and stats["outer"].busy_s == 5.0
    assert stats["outer"].self_s == 3.0
    assert stats["inner"].calls == 2 and stats["inner"].busy_s == 2.0
    assert [s.parent for s in t.spans] == [None, 0, 0]


def test_busy_time_of_a_recursive_name_is_not_double_counted():
    spans = spans_from([("f", 0.0, 4.0, None), ("f", 1.0, 3.0, 0)])
    assert tracer.layer_stats(spans)["f"].busy_s == 4.0


def test_span_records_the_exception_type():
    t = Tracer()
    with pytest.raises(KeyError):
        with t.span("failing"):
            raise KeyError("x")
    assert t.spans[0].error == "KeyError" and t.spans[0].end is not None


def test_step_intervals_skip_the_evaluation_gap_and_run_boundaries():
    spans = spans_from([
        ("run", 0.0, 100.0, None),
        ("batch", 1.0, 2.0, 0),   # held-out batch, no step follows before the next batch
        ("batch", 10.0, 11.0, 0),
        ("step", 11.0, 14.0, 0),
        ("batch", 15.0, 16.0, 0),
        ("step", 16.0, 19.0, 0),
        ("run", 200.0, 300.0, None),
        ("batch", 201.0, 202.0, 6),
        ("batch", 210.0, 211.0, 6),
        ("step", 211.0, 214.0, 6),
        ("batch", 217.0, 218.0, 6),
    ])
    assert tracer.step_intervals(spans, "run", "batch", "step") == [5.0, 7.0]


def test_wrappers_are_installed_everywhere_and_restored_after_an_error():
    from loralab import adapters, analysis, matcore

    invert, factors = matcore.invert, adapters.adapter_factors
    t = Tracer()
    boundaries = [
        Boundary("matcore.invert", "loralab.matcore", "invert"),
        Boundary("adapters.adapter_factors", "loralab.adapters", "adapter_factors"),
    ]
    with pytest.raises(RuntimeError):
        with tracer.installed(t, boundaries) as absent:
            assert absent == []
            assert matcore.invert is not invert
            # imported by name into analysis, so rebound there as well
            assert analysis.adapter_factors is adapters.adapter_factors is not factors
            matcore.invert([[2.0]])
            raise RuntimeError("boom")
    assert matcore.invert is invert
    assert adapters.adapter_factors is factors and analysis.adapter_factors is factors
    assert [s.name for s in t.spans] == ["matcore.invert"]


def test_class_method_boundary_is_restored():
    from loralab import tasks

    original = vars(tasks.TeacherTask)["batch"]
    with tracer.installed(Tracer(), [Boundary("tasks.batch", "loralab.tasks", "TeacherTask.batch")]):
        assert vars(tasks.TeacherTask)["batch"] is not original
    assert vars(tasks.TeacherTask)["batch"] is original


def test_missing_boundaries_are_reported_absent():
    boundaries = [
        Boundary("gone.module", "loralab.no_such_module", "f"),
        Boundary("gone.attr", "loralab.matcore", "no_such_function"),
        Boundary("gone.class", "loralab.tasks", "NoSuchTask.batch"),
    ]
    with tracer.installed(Tracer(), boundaries) as absent:
        assert absent == ["gone.module", "gone.attr", "gone.class"]


def test_per_op_autodiff_functions_are_never_wrapped():
    from loralab import autodiff, matcore

    invert, matmul = matcore.invert, autodiff.matmul
    boundaries = [
        Boundary("matcore.invert", "loralab.matcore", "invert"),
        Boundary("autodiff.matmul", "loralab.autodiff", "matmul"),
    ]
    with pytest.raises(ValueError, match="per-op autodiff"):
        with tracer.installed(Tracer(), boundaries):
            pass
    assert matcore.invert is invert and autodiff.matmul is matmul
