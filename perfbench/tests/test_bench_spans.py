import pytest

from spans import Span, Tracer, self_times, union_length


def test_union_length_counts_overlaps_once():
    assert union_length([]) == 0.0
    assert union_length([(0, 2), (1, 3)]) == 3.0
    assert union_length([(0, 10), (2, 3), (4, 5)]) == 10.0
    assert union_length([(5, 6), (0, 1)]) == 2.0
    assert union_length([(0, 1), (1, 2)]) == 2.0


def test_self_time_of_nested_children():
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("child", 1.0, 3.0, 0),
        Span("grandchild", 2.0, 2.5, 1),
        Span("child", 4.0, 6.0, 0),
    ]
    assert self_times(spans) == pytest.approx([6.0, 1.5, 0.5, 2.0])


def test_self_time_of_overlapping_children():
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0),
        Span("b", 3.0, 6.0, 0),  # overlaps a on [3, 4]
        Span("c", 9.0, 12.0, 0),  # runs past its parent: clipped to [9, 10]
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_self_times_sum_to_root_duration():
    spans = [
        Span("root", 0.0, 8.0, -1),
        Span("a", 1.0, 5.0, 0),
        Span("b", 2.0, 3.0, 1),
        Span("c", 3.5, 4.5, 1),
    ]
    assert sum(self_times(spans)) == pytest.approx(8.0)


def test_tracer_records_parents_only_while_active():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1, info=lambda a, k, r: {"out": r})
    outer = tracer.wrap(lambda a, k: f"outer.{a[0]}", lambda x: inner(x) * 2)
    assert outer(1) == 4 and tracer.spans == []
    tracer.active = True
    assert outer(1) == 4
    names = [(s.name, s.parent, s.info) for s in tracer.take()]
    assert names == [("outer.1", -1, None), ("inner", 0, {"out": 2})]
    assert tracer.spans == []


def test_span_ends_when_the_call_raises():
    tracer = Tracer()
    tracer.active = True

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap("boom", boom)()
    (span,) = tracer.take()
    assert span.end >= span.start and tracer.wrap("ok", lambda: 1)() == 1
    assert tracer.spans[0].parent == -1
