"""Unit tests for the compiled rule kernels (engine/kernels.py)."""

import pytest

from repro.datalog import fact, parse_program
from repro.datalog.terms import Constant, Variable
from repro.engine import (
    Database,
    compile_rule_kernel,
    execute_rule_plan,
    plan_rule,
)


def v(name):
    return Variable(name)


def _rule(text, **kwargs):
    program = parse_program(text, name=kwargs.pop("name", "p"), **kwargs)
    return program.rules[0]


class TestKernelExecution:
    def test_kernel_matches_fresh_compile_path(self):
        """A reused kernel returns exactly what per-call compilation does."""
        rule = _rule("r: E(x, y), E(y, z) -> T(x, z).", goal="T")
        database = Database([
            fact("E", "A", "B"), fact("E", "B", "C"), fact("E", "B", "D"),
        ])
        rule_plan = plan_rule(rule, database)
        kernel = compile_rule_kernel(rule_plan, database)
        fresh = execute_rule_plan(rule_plan, database, frozenset())
        reused = execute_rule_plan(
            rule_plan, database, frozenset(), kernel=kernel
        )
        assert reused == fresh

    def test_kernel_survives_database_growth(self):
        """Closures capture live column/symbol views, so a kernel compiled
        before facts arrive still sees them."""
        rule = _rule("r: E(x, y), E(y, z) -> T(x, z).", goal="T")
        database = Database()
        kernel = compile_rule_kernel(plan_rule(rule, database), database)
        database.add(fact("E", "A", "B"))
        database.add(fact("E", "B", "C"))
        matches = kernel.execute(database, frozenset())
        assert [used for _b, used in matches] == [
            (fact("E", "A", "B"), fact("E", "B", "C")),
        ]

    def test_exec_counter_increments(self):
        rule = _rule("r: E(x, y) -> T(x, y).", goal="T")
        database = Database([fact("E", "A", "B")])
        kernel = compile_rule_kernel(plan_rule(rule, database), database)
        stats = {}
        kernel.execute(database, frozenset(), stats=stats)
        kernel.execute(database, frozenset(), stats=stats)
        assert kernel.execs == 2
        assert stats["kernel_execs"] == 2

    def test_symbol_table_mismatch_rejected(self):
        rule = _rule("r: E(x, y) -> T(x, y).", goal="T")
        ours = Database([fact("E", "A", "B")])
        theirs = Database([fact("E", "A", "B")])
        kernel = compile_rule_kernel(plan_rule(rule, ours), ours)
        with pytest.raises(ValueError):
            kernel.execute(theirs, frozenset())
        with pytest.raises(ValueError):
            execute_rule_plan(
                plan_rule(rule, ours), theirs, frozenset(), kernel=kernel
            )

    def test_bindings_carry_actual_stored_terms(self):
        """Rendered bindings must hold the matched facts' own term
        objects, never the symbol table's canonical spelling."""
        rule = _rule("r: P(x), Q(x) -> R(x).", goal="R")
        # 1 interns first, so Constant(1.0) canonicalizes to Constant(1);
        # the join must still succeed (value-equal ids) and the binding
        # must come from P's stored term.
        database = Database([fact("P", 1.0), fact("Q", 1)])
        kernel = compile_rule_kernel(plan_rule(rule, database), database)
        matches = kernel.execute(database, frozenset())
        assert len(matches) == 1
        binding, used = matches[0]
        assert binding[v("x")] is used[0].terms[0]
        assert repr(binding[v("x")]) == "Constant(1.0)"


class TestKernelSemantics:
    def test_conditions_prune(self):
        rule = _rule("r: Own(x, y, s), s > 0.5 -> C(x, y).", goal="C")
        database = Database([
            fact("Own", "A", "B", 0.7), fact("Own", "A", "C", 0.3),
        ])
        kernel = compile_rule_kernel(plan_rule(rule, database), database)
        stats = {}
        matches = kernel.execute(database, frozenset(), stats=stats)
        assert [used for _b, used in matches] == [
            (fact("Own", "A", "B", 0.7),)
        ]
        assert stats["pruned"] == 1

    def test_assignments_recomputed_exactly(self):
        rule = _rule("r: Own(x, y, s), w = s * 2 -> C(x, w).", goal="C")
        database = Database([fact("Own", "A", "B", 0.35)])
        kernel = compile_rule_kernel(plan_rule(rule, database), database)
        binding, _used = kernel.execute(database, frozenset())[0]
        assert binding[v("w")] == Constant(0.7)
        assert list(binding) == [v("x"), v("y"), v("s"), v("w")]

    def test_evaluation_errors_prune_not_raise(self):
        """Arithmetic on a non-numeric operand prunes the partial (with
        the pruned counter ticking) instead of propagating."""
        rule = _rule("r: P(x, s), w = s * 2 -> C(x, w).", goal="C")
        database = Database([fact("P", "A", "oops"), fact("P", "B", 3)])
        kernel = compile_rule_kernel(plan_rule(rule, database), database)
        stats = {}
        matches = kernel.execute(database, frozenset(), stats=stats)
        assert [used[0] for _b, used in matches] == [fact("P", "B", 3)]
        assert stats["pruned"] == 1

    def test_negation_blocks_matches(self):
        rule = _rule(
            "r: Node(x), Node(y), not E(x, y) -> Sep(x, y).", goal="Sep"
        )
        database = Database([
            fact("Node", "A"), fact("Node", "B"), fact("E", "A", "B"),
        ])
        kernel = compile_rule_kernel(plan_rule(rule, database), database)
        matches = kernel.execute(database, frozenset())
        pairs = {(b[v("x")].value, b[v("y")].value) for b, _u in matches}
        assert ("A", "B") not in pairs
        assert ("B", "A") in pairs

    def test_negation_with_constant_probe(self):
        rule = _rule('r: Node(x), not Flag(x, "bad") -> Ok(x).', goal="Ok")
        database = Database([
            fact("Node", "A"), fact("Node", "B"), fact("Flag", "A", "bad"),
        ])
        kernel = compile_rule_kernel(plan_rule(rule, database), database)
        matches = kernel.execute(database, frozenset())
        assert [b[v("x")].value for b, _u in matches] == ["B"]

    def test_delta_variants_dedup_and_sort(self):
        rule = _rule("r: P(x, y), P(y, z) -> Q(x, z).", goal="Q")
        database = Database([fact("P", "A", "B"), fact("P", "B", "C")])
        kernel = compile_rule_kernel(plan_rule(rule, database), database)
        delta = {"P": [fact("P", "A", "B"), fact("P", "B", "C")]}
        matches = kernel.execute(database, frozenset(), delta)
        assert len(matches) == 1

    def test_exclude_skips_superseded_facts(self):
        rule = _rule("r: P(x) -> Q(x).", goal="Q")
        database = Database([fact("P", "A"), fact("P", "B")])
        kernel = compile_rule_kernel(plan_rule(rule, database), database)
        matches = kernel.execute(database, frozenset({fact("P", "A")}))
        assert [b[v("x")].value for b, _u in matches] == ["B"]


def _filtered(matches, seeds):
    """Full-execution matches extending at least one seed."""
    return [
        (binding, used)
        for binding, used in matches
        if any(
            all(binding[variable] == term for variable, term in seed.items())
            for seed in seeds
        )
    ]


class TestSeededExecution:
    """Seeded execution == full execution filtered to the seeds, in the
    same (naive enumeration) order, with identical bindings."""

    def _check(self, rule, database, seeds, body_seeds=None):
        kernel = compile_rule_kernel(plan_rule(rule, database), database)
        full = kernel.execute(database, frozenset())
        seeded = kernel.execute(database, frozenset(), seeds=seeds)
        expected = _filtered(full, body_seeds or seeds)
        assert seeded == expected
        assert [list(b.items()) for b, _u in seeded] == [
            list(b.items()) for b, _u in expected
        ]
        return seeded

    def test_self_join_with_mixed_seed_variables(self):
        rule = _rule("r: E(x, y), E(y, z) -> T(x, z).", goal="T")
        database = Database([
            fact("E", "A", "B"), fact("E", "B", "C"), fact("E", "B", "D"),
            fact("E", "C", "D"), fact("E", "D", "B"),
        ])
        seeds = [
            {v("x"): Constant("B")},
            {v("z"): Constant("D")},
            {v("x"): Constant("B")},  # duplicate seeds match once
        ]
        seeded = self._check(rule, database, seeds)
        # E(B,C),E(C,D) extends both seeds and still comes back once.
        assert len({used for _b, used in seeded}) == len(seeded) == 4

    def test_seeded_plan_probes_instead_of_scanning(self):
        rule = _rule("r: E(x, y), E(y, z) -> T(x, z).", goal="T")
        database = Database(
            [fact("E", f"N{i}", f"N{i + 1}") for i in range(50)]
        )
        kernel = compile_rule_kernel(plan_rule(rule, database), database)
        stats = {}
        kernel.execute(
            database, frozenset(), stats=stats,
            seeds=[{v("z"): Constant("N7")}],
        )
        # One probe on z, one on y: no pass over the 50 rows.
        assert stats["scanned"] == 2
        assert "seeded=z" in kernel.seeded[(2,)].plan.describe()

    def test_negated_body_atom(self):
        rule = _rule(
            "r: Node(x), Node(y), not E(x, y) -> Sep(x, y).", goal="Sep"
        )
        database = Database([
            fact("Node", "A"), fact("Node", "B"), fact("Node", "C"),
            fact("E", "A", "B"), fact("E", "C", "B"),
        ])
        seeded = self._check(rule, database, [{v("y"): Constant("B")}])
        assert [b[v("x")].value for b, _u in seeded] == ["B"]

    def test_assignment_target_key_is_not_seeded(self):
        """Seed entries outside the positive body (here the assignment
        target w) are ignored; the caller filters on them afterwards."""
        rule = _rule("r: P(x, s), w = s * 2 -> C(x, w).", goal="C")
        database = Database([
            fact("P", "A", 1), fact("P", "A", 2), fact("P", "B", 1),
        ])
        seeds = [{v("x"): Constant("A"), v("w"): Constant(4)}]
        seeded = self._check(
            rule, database, seeds, body_seeds=[{v("x"): Constant("A")}]
        )
        assert [b[v("w")].value for b, _u in seeded] == [2, 4]

    def test_aggregate_group_key_seeds(self):
        rule = _rule(
            "r: Control(x, z), Own(z, y, s), ts = sum(s), ts > 0.5 "
            "-> Control(x, y).",
            goal="Control",
        )
        database = Database([
            fact("Control", "A", "A"), fact("Control", "A", "B"),
            fact("Control", "C", "C"),
            fact("Own", "A", "D", 0.3), fact("Own", "B", "D", 0.3),
            fact("Own", "C", "D", 0.9),
        ])
        seeds = [{v("x"): Constant("A"), v("y"): Constant("D")}]
        seeded = self._check(rule, database, seeds)
        assert len(seeded) == 2

    def test_unseen_constant_matches_nothing(self):
        rule = _rule("r: E(x, y), E(y, z) -> T(x, z).", goal="T")
        database = Database([fact("E", "A", "B"), fact("E", "B", "C")])
        kernel = compile_rule_kernel(plan_rule(rule, database), database)
        symbols = len(database.symbols)
        seeds = [{v("x"): Constant("Nowhere")}, {v("x"): Constant("A")}]
        matches = kernel.execute(database, frozenset(), seeds=seeds)
        assert [used for _b, used in matches] == [
            (fact("E", "A", "B"), fact("E", "B", "C")),
        ]
        assert kernel.execute(
            database, frozenset(), seeds=[{v("y"): Constant("Nowhere")}]
        ) == []
        assert len(database.symbols) == symbols  # probing interns nothing

    def test_empty_seed_list_matches_nothing(self):
        rule = _rule("r: E(x, y) -> T(x, y).", goal="T")
        database = Database([fact("E", "A", "B")])
        kernel = compile_rule_kernel(plan_rule(rule, database), database)
        assert kernel.execute(database, frozenset(), seeds=[]) == []
        assert len(kernel.execute(database, frozenset(), seeds=[{}])) == 1
