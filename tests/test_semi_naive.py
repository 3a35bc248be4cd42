"""Semi-naive evaluation: equivalence with naive on every workload."""

import pytest

from repro.apps import figures, generators
from repro.core import Explainer
from repro.datalog import fact, parse_program
from repro.engine import ChaseEngine, Database, chase, reason


class TestStrategySelection:
    def test_unknown_strategy_rejected(self):
        for strategy in ("magic", "parallel"):
            with pytest.raises(ValueError):
                ChaseEngine(strategy=strategy)

    def test_default_is_naive(self):
        assert ChaseEngine().strategy == "naive"


def _facts_by_predicate(result):
    grouped = {}
    for current in result.database.facts():
        grouped.setdefault(current.predicate, set()).add(current)
    return grouped


class TestEquivalence:
    TRANSITIVE = parse_program(
        "base: E(x, y) -> T(x, y). rec: T(x, y), E(y, z) -> T(x, z).",
        name="tc", goal="T",
    )

    def test_transitive_closure_equal(self):
        database = Database([
            fact("E", "A", "B"), fact("E", "B", "C"),
            fact("E", "C", "D"), fact("E", "D", "B"),
        ])
        naive = chase(self.TRANSITIVE, database)
        semi = chase(self.TRANSITIVE, database, strategy="semi-naive")
        assert _facts_by_predicate(naive) == _facts_by_predicate(semi)
        assert len(naive.records) == len(semi.records)

    def test_record_facts_identical(self):
        database = Database([fact("E", "A", "B"), fact("E", "B", "C")])
        naive = chase(self.TRANSITIVE, database)
        semi = chase(self.TRANSITIVE, database, strategy="semi-naive")
        assert {r.fact for r in naive.records} == {r.fact for r in semi.records}

    @pytest.mark.parametrize("scenario_builder", [
        lambda: figures.figure8_instance(),
        lambda: figures.figure12_stress_instance(),
        lambda: figures.figure15_instance(),
        lambda: generators.control_chain(8, seed=3),
        lambda: generators.stress_cascade(4, seed=3, dual_final=True),
        lambda: generators.close_links_common_control(seed=3),
    ])
    def test_application_workloads_equal(self, scenario_builder):
        scenario = scenario_builder()
        program = scenario.application.program
        naive = chase(program, scenario.database)
        semi = chase(program, scenario.database, strategy="semi-naive")
        assert _facts_by_predicate(naive) == _facts_by_predicate(semi)
        assert naive.superseded == semi.superseded

    def test_negation_program_equal(self):
        program = parse_program(
            """
            base: E(x, y) -> T(x, y).
            rec:  T(x, y), E(y, z) -> T(x, z).
            sep:  Node(x), Node(y), x != y, not T(x, y) -> Unreachable(x, y).
            """,
            name="p", goal="Unreachable",
        )
        database = Database([
            fact("Node", "A"), fact("Node", "B"), fact("Node", "C"),
            fact("E", "A", "B"),
        ])
        naive = chase(program, database)
        semi = chase(program, database, strategy="semi-naive")
        assert _facts_by_predicate(naive) == _facts_by_predicate(semi)

    def test_constraints_checked_identically(self):
        program = parse_program(
            """
            r1: Own(x, y, s), s > 0.5 -> Control(x, y).
            c1: Control(x, y), Control(y, x), x != y -> false.
            """,
            name="mutual", goal="Control",
        )
        database = Database([
            fact("Own", "A", "B", 0.7), fact("Own", "B", "A", 0.6),
        ])
        naive = chase(program, database)
        semi = chase(program, database, strategy="semi-naive")
        assert len(naive.violations) == len(semi.violations)


class TestExplanationsUnderSemiNaive:
    def test_figure8_explanation_identical(self):
        scenario = figures.figure8_instance()
        texts = []
        for strategy in ("naive", "semi-naive"):
            result = reason(
                scenario.application.program, scenario.database,
                strategy=strategy,
            )
            explainer = Explainer(result, scenario.application.glossary)
            texts.append(
                explainer.explain(scenario.target, prefer_enhanced=False).text
            )
        assert texts[0] == texts[1]

    def test_proof_sizes_identical(self):
        scenario = generators.control_with_steps(9, seed=5)
        naive = reason(scenario.application.program, scenario.database)
        semi = reason(
            scenario.application.program, scenario.database,
            strategy="semi-naive",
        )
        assert naive.proof_size(scenario.target) == semi.proof_size(
            scenario.target
        )


class TestDeltaCorrectness:
    def test_multi_delta_join_found_once(self):
        """A rule joining two delta facts must fire exactly once."""
        program = parse_program(
            """
            mk: Seed(x, y) -> P(x, y).
            join: P(x, y), P(y, z) -> Q(x, z).
            """,
            name="j", goal="Q",
        )
        database = Database([fact("Seed", "A", "B"), fact("Seed", "B", "C")])
        semi = chase(program, database, strategy="semi-naive")
        q_records = [r for r in semi.records if r.fact.predicate == "Q"]
        assert len(q_records) == 1

    def test_late_edb_predicate_join(self):
        """Plain rules must still see non-delta facts on the other side."""
        program = parse_program(
            """
            step1: A(x) -> B(x).
            step2: B(x), Static(x) -> C(x).
            """,
            name="late", goal="C",
        )
        database = Database([fact("A", "X"), fact("Static", "X")])
        semi = chase(program, database, strategy="semi-naive")
        assert fact("C", "X") in semi.database
