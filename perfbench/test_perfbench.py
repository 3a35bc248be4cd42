"""Tests of the benchmark's own code.

Run from the repository root: ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

import kg  # noqa: E402
import parity  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402
from repro.apps import company_control  # noqa: E402
from repro.io import dumps_database  # noqa: E402

MIX = {"hot": 0.5, "sweep": 0.25, "batch": 0.125, "whynot": 0.125}


def _schedule(seed: int) -> list[kg.Request]:
    graph = kg.ownership_kg(20, seed)
    rng = random.Random(seed)
    population = [company_control.control(a, b)
                  for a, b in zip(graph.entities, graph.entities[1:])]
    absent = [company_control.control(b, a)
              for a, b in zip(graph.entities, graph.entities[1:])]
    return kg.read_schedule(population, absent, 100.0, 2.0, MIX, 3, 10.0,
                            rng)


class TestSeededInputs:
    def test_same_seed_same_schedule(self):
        assert _schedule(7) == _schedule(7)

    def test_other_seed_other_schedule(self):
        assert _schedule(7) != _schedule(8)

    def test_same_seed_same_graph_and_updates(self):
        first, second = kg.ownership_kg(30, 3), kg.ownership_kg(30, 3)
        assert first.facts == second.facts
        assert kg.update_edges(first, 4) == kg.update_edges(second, 4)

    def test_seed_relabels_an_isomorphic_graph(self):
        first, second = kg.ownership_kg(30, 3), kg.ownership_kg(30, 4)
        assert set(first.entities) != set(second.entities)
        assert first.edges == second.edges == 90

    def test_mix_follows_its_shares(self):
        graph = kg.ownership_kg(20, 1)
        population = [company_control.control(a, b)
                      for a, b in zip(graph.entities, graph.entities[1:])]
        schedule = kg.read_schedule(population, population[:2], 1000.0,
                                    8.0, MIX, 3, 10.0, random.Random(1))
        kinds = [request.kind for request in schedule]
        assert kinds.count("explain") / len(kinds) == pytest.approx(
            0.75, abs=0.02)
        assert kinds.count("batch") / len(kinds) == pytest.approx(
            0.125, abs=0.02)

    def test_update_edges_are_new(self):
        graph = kg.ownership_kg(30, 3)
        owned = {(str(f.terms[0].value), str(f.terms[1].value))
                 for f in graph.facts if f.predicate == "Own"}
        for edge in kg.update_edges(graph, 8):
            pair = (str(edge.terms[0].value), str(edge.terms[1].value))
            assert pair not in owned and pair[::-1] not in owned


class TestTail:
    @pytest.mark.parametrize("count", [20, 50, 100, 101, 250, 999, 1000,
                                       5000])
    def test_at_least_ten_samples_beyond(self, count):
        rng = random.Random(count)
        values = [rng.random() for _ in range(count)]
        percentile, value = stats.tail(values)
        assert sum(1 for v in values if v > value) >= stats.MIN_BEYOND
        higher = [p for p in stats.TAIL_LADDER if p > percentile]
        if higher:  # the next rung up would leave fewer than ten beyond
            ordered = sorted(values)
            assert stats.beyond(ordered, higher[0]) < stats.MIN_BEYOND

    def test_known_rungs(self):
        assert stats.tail(range(100))[0] == 90.0
        assert stats.tail(range(1000))[0] == 99.0

    def test_ties_do_not_count_as_beyond(self):
        values = [1.0] * 95 + [2.0] * 5
        with pytest.raises(ValueError):
            stats.tail(values)

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            stats.tail(range(19))


class TestGoodput:
    def test_fast_failures_are_misses(self):
        outcomes = [(200, 0.010), (503, 0.001), (500, 0.001), (0, 0.001),
                    (504, 0.001)]
        assert stats.goodput(outcomes, 0.050, 1.0) == 1.0

    def test_slow_successes_are_misses(self):
        outcomes = [(200, 0.010), (200, 0.051), (200, 0.050)]
        assert stats.goodput(outcomes, 0.050, 2.0) == 1.0


class TestParity:
    def test_first_difference(self):
        assert parity.first_difference(b"abc", b"abc") is None
        assert parity.first_difference(b"abc", b"abd") == 2
        assert parity.first_difference(b"ab", b"abc") == 2

    def test_reference_flags_one_byte(self):
        graph = kg.ownership_kg(20, 1)
        reference = parity.Reference(company_control.build(),
                                     dumps_database(graph.database()))
        try:
            query = kg.control_population(reference.session.answers())[0]
            request = kg.Request(0.0, "explain", "/explain",
                                 kg.request_body({"query": str(query)}))
            status, body = reference.expected(request)
            assert reference.check(request, status, body) is None
            for offset in (0, len(body) // 2, len(body) - 1):
                changed = bytearray(body)
                changed[offset] ^= 0x01
                problem = reference.check(request, status, bytes(changed))
                assert problem is not None
                assert f"byte {offset}" in problem
        finally:
            reference.close()

    def test_missing_constants(self):
        assert parity.missing_constants("A owns B", ["A", "B"]) == []
        assert parity.missing_constants("A owns B", ["A", "C"]) == ["C"]


class TestSpans:
    def test_self_time_subtracts_children(self):
        rows = [
            ("1", None, "serve.pool", 0.0, 10.0, None),
            ("2", "1", "core.explain", 2.0, 6.0, None),
            ("3", "1", "serve.encode", 5.0, 7.0, None),
        ]
        layers = spans.self_times(rows)
        assert layers["serve"] == pytest.approx(5.0 + 2.0)
        assert layers["core"] == pytest.approx(4.0)

    def test_recorder_nests_parents(self):
        recorder = spans.SpanRecorder()
        with recorder.span("outer") as outer:
            with recorder.span("inner"):
                pass
        inner_row = next(r for r in recorder.rows if r[2] == "inner")
        assert inner_row[1] == outer

    def test_install_is_undone(self):
        from repro.serve.workers import WorkerPool
        before = WorkerPool.serve
        uninstall = spans.install(spans.SpanRecorder())
        assert WorkerPool.serve is not before
        uninstall()
        assert WorkerPool.serve is before


class TestLayerMetrics:
    def test_delta_kernels_are_not_chase_kernels(self):
        import workloads
        result = workloads.Result()
        rows = [("1", None, "engine.chase", 0.0, 2.0, None)]
        kernels = {"Control/1": {"wall_s": 1.0},
                   "Control/1+delta": {"wall_s": 5.0}}
        workloads.span_metrics(result, rows, {"engine.chases": 1}, kernels)
        assert result.per_layer["engine.kernel_s"] == (1.0, "s")
        assert result.per_layer["engine.non_kernel_share"] == (0.5, "ratio")

    def test_unexercised_metrics_are_left_out(self):
        import workloads
        result = workloads.Result()
        rows = [("1", None, "engine.chase", 0.0, 2.0, None)]
        workloads.span_metrics(result, rows, {"engine.chases": 1}, {})
        assert "engine.chase_s" in result.per_layer
        for name in ("serve.update_hold_ms", "engine.update_ms",
                     "engine.update_full_share", "core.batch_us"):
            assert name not in result.per_layer


class TestCalibration:
    def test_factor_scales_to_reference_speed(self):
        import calib
        slow = [calib.REFERENCE_S * 2] * 3
        assert calib.factor(slow) == pytest.approx(0.5)

    def test_kernel_work_is_fixed(self):
        import calib
        assert calib.kernel() == calib.kernel() > 0
