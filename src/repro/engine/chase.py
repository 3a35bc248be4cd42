"""The chase procedure with provenance recording.

The chase enforces a rule set Σ over a database D, incrementally adding the
facts entailed by rule applications until fixpoint (paper, Section 3).  Our
implementation:

* evaluates rules round-by-round (naive evaluation) in program order, which
  makes runs fully deterministic;
* supports **monotonic aggregations**: an aggregate rule is evaluated
  set-at-a-time per group; when recursion lets a group's aggregate grow, a
  new fact with the larger value is derived and the previous fact from the
  same rule and group is *superseded* — it remains part of the chase graph
  (monotonicity: derived knowledge is never retracted) but no longer feeds
  further rule applications, mirroring the final-value semantics of
  Vadalog's monotonic aggregations;
* handles existential head variables with fresh labelled nulls under the
  **restricted chase**: a rule is not fired when its head is already
  satisfied by a homomorphism extending the body match, which guarantees
  termination for the (warded) programs considered in the paper;
* records one :class:`ChaseStepRecord` per derived fact — rule, matched
  body facts, variable binding and, for aggregates, the individual
  contributors — from which the chase graph and all proofs are built.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterator, Mapping

from .. import obs
from ..datalog.atoms import Atom, Fact
from ..datalog.conditions import (
    Comparison,
    evaluate_assignment,
    evaluate_expression,
)
from ..datalog.errors import DatalogError, EvaluationError
from ..datalog.program import Program
from ..datalog.rules import Constraint, Rule
from ..datalog.stratification import stratify
from ..datalog.terms import Constant, NullFactory, Term, Variable
from ..datalog.unify import MutableSubstitution, apply_substitution
from .database import Database
from .join import execute_rule_plan, group_by_predicate
from .kernels import RuleKernel, compile_rule_kernel
from .planner import RulePlan, aggregate_split, plan_rule


class ChaseError(DatalogError):
    """Raised when the chase cannot proceed (e.g. round limit exceeded)."""


@dataclass(frozen=True, slots=True)
class Contribution:
    """One body homomorphism feeding an aggregate application.

    ``facts`` are the matched body facts for this homomorphism and ``value``
    is the evaluated aggregate argument (e.g. one loan amount feeding a
    ``sum``).
    """

    facts: tuple[Fact, ...]
    value: object
    binding: Mapping[Variable, Term]


@dataclass(frozen=True)
class ConstraintViolation:
    """A satisfied negative constraint body: φ(x̄, ȳ) → ⊥ fired.

    The engine reports violations instead of aborting: supervisory
    applications want the full list, each explainable from its witnesses.
    """

    constraint: Constraint
    binding: Mapping[Variable, Term]
    witnesses: tuple[Fact, ...]

    def __str__(self) -> str:
        facts = ", ".join(str(w) for w in self.witnesses)
        return f"constraint {self.constraint.label} violated by {facts}"


@dataclass(frozen=True)
class ChaseStepRecord:
    """Provenance of a single chase step.

    ``parents`` lists every body fact the step consumed (for aggregates:
    the union over all contributors).  ``contributors`` is non-empty exactly
    for aggregate rules; its length is the number of inputs the aggregation
    combined — the signal that drives the selection between plain and
    "dashed" reasoning paths (paper, Sections 4.1 and 4.3).
    """

    index: int
    round: int
    rule: Rule
    fact: Fact
    parents: tuple[Fact, ...]
    binding: Mapping[Variable, Term]
    contributors: tuple[Contribution, ...] = ()
    aggregate_value: object | None = None

    @property
    def rule_label(self) -> str:
        return self.rule.label

    @property
    def is_aggregate(self) -> bool:
        return bool(self.contributors)

    @property
    def multi_contributor(self) -> bool:
        """Whether the aggregation combined more than one input fact."""
        return len(self.contributors) > 1

    def __str__(self) -> str:
        parents = ", ".join(str(p) for p in self.parents)
        return f"[{self.rule_label}] {parents} => {self.fact}"


@dataclass
class ChaseStats:
    """Aggregated behaviour of one chase run, for reports and tests.

    Everything here is derivable from the trace, but reports and
    regression tests want to assert on chase behaviour (how many rounds,
    which rules fired how often, what got deduplicated) without parsing
    span dumps.  Maintained inline by the engine — plain dict updates,
    cheap enough for the hot loop.
    """

    rounds: int = 0
    strata: int = 0
    rule_firings: dict[str, int] = field(default_factory=dict)
    facts_by_predicate: dict[str, int] = field(default_factory=dict)
    facts_derived: int = 0
    facts_deduplicated: int = 0
    constraint_checks: int = 0
    violations: int = 0
    rounds_per_stratum: list[int] = field(default_factory=list)
    delta_sizes: list[int] = field(default_factory=list)
    #: Per-rule join-plan facts and runtime counters (planned strategy
    #: only): atom order, hoisted conditions, probes/scanned/matches,
    #: kernel_execs.
    plans: dict[str, dict] = field(default_factory=dict)
    plans_compiled: int = 0
    #: Compiled rule kernels (planned strategy): how many closures were
    #: built and how long compilation took, for the stats document.
    kernels_compiled: int = 0
    kernel_compile_s: float = 0.0
    #: Symbol-table size at end of run (distinct interned terms).
    symbols: int = 0

    def record_firing(self, rule_label: str, predicate: str) -> None:
        self.rule_firings[rule_label] = self.rule_firings.get(rule_label, 0) + 1
        self.facts_by_predicate[predicate] = (
            self.facts_by_predicate.get(predicate, 0) + 1
        )
        self.facts_derived += 1

    def snapshot(self) -> dict:
        return {
            "rounds": self.rounds,
            "strata": self.strata,
            "rule_firings": dict(sorted(self.rule_firings.items())),
            "facts_by_predicate": dict(sorted(self.facts_by_predicate.items())),
            "facts_derived": self.facts_derived,
            "facts_deduplicated": self.facts_deduplicated,
            "constraint_checks": self.constraint_checks,
            "violations": self.violations,
            "rounds_per_stratum": list(self.rounds_per_stratum),
            "delta_sizes": list(self.delta_sizes),
            "plans_compiled": self.plans_compiled,
            "kernels_compiled": self.kernels_compiled,
            "kernel_compile_s": self.kernel_compile_s,
            "symbols": self.symbols,
            "plans": {
                label: dict(entry)
                for label, entry in sorted(self.plans.items())
            },
        }


@dataclass
class ChaseResult:
    """Outcome of a chase run: the materialized instance plus provenance."""

    program: Program
    database: Database
    records: list[ChaseStepRecord] = field(default_factory=list)
    derivation: dict[Fact, ChaseStepRecord] = field(default_factory=dict)
    superseded: set[Fact] = field(default_factory=set)
    violations: list[ConstraintViolation] = field(default_factory=list)
    rounds: int = 0
    stats: ChaseStats = field(default_factory=ChaseStats)

    # ------------------------------------------------------------------
    # Queries over the materialized instance
    # ------------------------------------------------------------------
    def facts(self, predicate: str, include_superseded: bool = False) -> tuple[Fact, ...]:
        """The (active) facts of a predicate in the final instance."""
        all_facts = self.database.facts(predicate)
        if include_superseded:
            return all_facts
        return tuple(f for f in all_facts if f not in self.superseded)

    def is_derived(self, current: Fact) -> bool:
        """Whether the fact was produced by a chase step (vs. extensional)."""
        return current in self.derivation

    def record_for(self, current: Fact) -> ChaseStepRecord:
        """The chase step that derived ``current``; raises for EDB facts."""
        record = self.derivation.get(current)
        if record is None:
            raise KeyError(f"{current} was not derived by the chase")
        return record

    def derived_facts(self) -> tuple[Fact, ...]:
        return tuple(record.fact for record in self.records)

    def step_count(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[ChaseStepRecord]:
        return iter(self.records)


class ChaseEngine:
    """Runs the chase for a program over a database.

    The engine is stateless between runs; construct once and reuse.

    Parameters
    ----------
    max_rounds:
        Safety valve against non-terminating programs; the paper only
        considers programs whose termination is guaranteed, so hitting the
        limit raises :class:`ChaseError` rather than truncating silently.
    strategy:
        ``"naive"`` re-evaluates every rule against the whole instance in
        every round; ``"semi-naive"`` restricts plain-rule joins to
        homomorphisms touching the previous round's delta — same facts and
        provenance, less join work on recursive workloads;
        ``"planned"`` additionally compiles each rule body into a
        selectivity-ordered hash-join plan at stratum entry
        (:mod:`repro.engine.planner`), then compiles the plan into a
        specialized closure kernel (:mod:`repro.engine.kernels`) that
        joins over the database's interned-id columns, firing matches in
        naive enumeration order so derived facts and provenance stay
        byte-identical to ``naive``.
    """

    #: Supported evaluation strategies.
    STRATEGIES = ("naive", "semi-naive", "planned")

    def __init__(self, max_rounds: int = 10_000, strategy: str = "naive"):
        if strategy not in self.STRATEGIES:
            raise ValueError(
                f"unknown chase strategy {strategy!r}; "
                f"choose from {self.STRATEGIES}"
            )
        self.max_rounds = max_rounds
        self.strategy = strategy

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(self, program: Program, database: Database) -> ChaseResult:
        """Chase ``database`` with ``program`` until fixpoint.

        The input database is not modified; the result holds a copy that
        includes all derived facts.  Programs with negation are evaluated
        stratum by stratum (stratified semantics); negative constraints
        are checked against the final instance and reported as
        ``result.violations``.
        """
        working = database.copy()
        result = ChaseResult(program=program, database=working)
        nulls = NullFactory()
        # Latest fact per (aggregate rule, group key), for supersession.
        aggregate_state: dict[tuple[str, tuple[Term, ...]], Fact] = {}

        if program.has_negation:
            rule_groups = stratify(program).strata
        else:
            rule_groups = (program.rules,)

        stats = result.stats
        flight = obs.current_flight()
        with obs.span(
            "chase.run", program=program.name, strategy=self.strategy
        ) as run_span:
            total_rounds = 0
            chase_phase = (
                flight.phase("chase") if flight is not None else None
            )
            if chase_phase is not None:
                chase_phase.__enter__()
            try:
                for stratum_index, rules in enumerate(rule_groups):
                    with obs.span(
                        "chase.stratum", stratum=stratum_index, rules=len(rules)
                    ) as stratum_span:
                        stratum_rounds = self._run_stratum(
                            rules, result, nulls, aggregate_state, total_rounds
                        )
                        stratum_span.set(rounds=stratum_rounds)
                    stats.rounds_per_stratum.append(stratum_rounds)
                    total_rounds += stratum_rounds
                result.rounds = total_rounds
                stats.rounds = total_rounds
                stats.strata = len(rule_groups)
                with obs.span(
                    "chase.constraints", constraints=len(program.constraints)
                ):
                    self._check_constraints(program, result)
            finally:
                if chase_phase is not None:
                    chase_phase.__exit__(None, None, None)
            stats.violations = len(result.violations)
            stats.symbols = len(working.symbols)
            run_span.set(
                rounds=total_rounds,
                facts_derived=stats.facts_derived,
                violations=stats.violations,
            )
        if flight is not None:
            flight.count("chase_runs")
            flight.count("chase_rounds", stats.rounds)
            flight.count("chase_facts_derived", stats.facts_derived)
            if stats.violations:
                flight.event(
                    "constraint_violations",
                    program=program.name,
                    violations=stats.violations,
                )
        self._flush_metrics(stats)
        return result

    def update(
        self,
        program: Program,
        previous: ChaseResult,
        adds: tuple[Fact, ...] | list[Fact] = (),
        retracts: tuple[Fact, ...] | list[Fact] = (),
    ):
        """Apply an extensional add/retract delta to a previous result.

        Returns an :class:`repro.engine.incremental.UpdateOutcome` whose
        ``result`` is byte-identical (facts, records, explanations) to a
        fresh :meth:`run` over the post-delta EDB.  The delta is replayed
        incrementally (:mod:`repro.engine.incremental`) at a cost
        proportional to its consequences; programs outside the replayable
        fragment (existential rules) fall back to a full chase
        transparently.
        """
        from .incremental import (
            IncrementalFallback,
            UpdateOutcome,
            flush_update_metrics,
            incremental_update,
            resolve_delta,
        )

        try:
            return incremental_update(
                program, previous, adds, retracts, max_rounds=self.max_rounds
            )
        except IncrementalFallback:
            obs.incr("incremental.fallbacks")
            started = time.perf_counter()
            new_edb, added, retracted = resolve_delta(
                previous, adds, retracts
            )
            if not added and not retracted:
                return UpdateOutcome(
                    result=previous, mode="noop", added=(), retracted=()
                )
            result = self.run(program, Database(new_edb))
            outcome = UpdateOutcome(
                result=result,
                mode="full",
                added=added,
                retracted=retracted,
                elapsed_s=time.perf_counter() - started,
            )
            flush_update_metrics(outcome)
            return outcome

    @staticmethod
    def _flush_metrics(stats: ChaseStats) -> None:
        """Publish one run's aggregate counts to the ambient registry.

        Flushed once per run (not per fact) so the hot loop only touches
        the lock-free :class:`ChaseStats` dicts.
        """
        obs.incr("chase.runs")
        obs.incr("chase.facts_derived", stats.facts_derived)
        obs.incr("chase.facts_deduplicated", stats.facts_deduplicated)
        obs.incr("chase.constraint_checks", stats.constraint_checks)
        obs.incr("chase.constraint_violations", stats.violations)
        for label, firings in stats.rule_firings.items():
            obs.incr(f"chase.firings.{label}", firings)
        obs.observe("chase.rounds", stats.rounds)
        obs.set_gauge("chase.symbols", stats.symbols)
        if stats.kernels_compiled:
            obs.incr("chase.kernels_compiled", stats.kernels_compiled)
            obs.observe("chase.kernel_compile_s", stats.kernel_compile_s)
            obs.incr(
                "chase.kernel_execs",
                sum(
                    entry.get("kernel_execs", 0)
                    for entry in stats.plans.values()
                ),
            )
        if stats.plans_compiled:
            obs.incr("chase.plan_compiled", stats.plans_compiled)
            for key in ("probes", "scanned", "matches", "pruned"):
                total = sum(
                    entry.get(key, 0) for entry in stats.plans.values()
                )
                obs.incr(f"chase.plan_{key}", total)
            obs.incr(
                "chase.plan_hoisted_conditions",
                sum(
                    entry.get("hoisted_conditions", 0)
                    for entry in stats.plans.values()
                ),
            )

    def _run_stratum(
        self,
        rules,
        result: ChaseResult,
        nulls: NullFactory,
        aggregate_state: dict[tuple[str, tuple[Term, ...]], Fact],
        rounds_so_far: int,
    ) -> int:
        if self.strategy == "semi-naive":
            return self._run_stratum_semi_naive(
                rules, result, nulls, aggregate_state, rounds_so_far
            )
        if self.strategy == "planned":
            return self._run_stratum_planned(
                rules, result, nulls, aggregate_state, rounds_so_far
            )
        for round_number in range(1, self.max_rounds + 1):
            changed = False
            for rule in rules:
                if rule.has_aggregate:
                    changed |= self._apply_aggregate_rule(
                        rule, result, aggregate_state,
                        rounds_so_far + round_number,
                    )
                else:
                    changed |= self._apply_plain_rule(
                        rule, result, nulls, rounds_so_far + round_number
                    )
            if not changed:
                return round_number
        raise ChaseError(
            f"chase did not reach fixpoint within {self.max_rounds} rounds "
            f"for program {result.program.name!r}"
        )

    def _run_stratum_semi_naive(
        self,
        rules,
        result: ChaseResult,
        nulls: NullFactory,
        aggregate_state: dict[tuple[str, tuple[Term, ...]], Fact],
        rounds_so_far: int,
    ) -> int:
        """Semi-naive evaluation: after the first round, a plain rule only
        re-joins homomorphisms that touch at least one fact derived in the
        previous round (the delta).  Aggregate rules are re-evaluated only
        when the delta intersects their body predicates (their set-at-a-
        time semantics needs the whole group anyway)."""
        delta: frozenset[Fact] = frozenset(result.database.facts())
        for round_number in range(1, self.max_rounds + 1):
            before = len(result.records)
            delta_predicates = {current.predicate for current in delta}
            for rule in rules:
                touched = any(
                    predicate in delta_predicates
                    for predicate in rule.body_predicates()
                )
                if not touched and round_number > 1:
                    continue
                if rule.has_aggregate:
                    self._apply_aggregate_rule(
                        rule, result, aggregate_state,
                        rounds_so_far + round_number,
                    )
                else:
                    self._apply_plain_rule(
                        rule, result, nulls, rounds_so_far + round_number,
                        delta=None if round_number == 1 else delta,
                    )
            new_records = result.records[before:]
            result.stats.delta_sizes.append(len(new_records))
            if not new_records:
                return round_number
            delta = frozenset(record.fact for record in new_records)
        raise ChaseError(
            f"chase did not reach fixpoint within {self.max_rounds} rounds "
            f"for program {result.program.name!r}"
        )

    def _run_stratum_planned(
        self,
        rules,
        result: ChaseResult,
        nulls: NullFactory,
        aggregate_state: dict[tuple[str, tuple[Term, ...]], Fact],
        rounds_so_far: int,
    ) -> int:
        """Delta-driven evaluation over compiled join plans.

        Each rule body is compiled once at stratum entry
        (:func:`repro.engine.planner.plan_rule`, cardinalities read from
        the live instance), then lowered to a closure kernel
        (:func:`repro.engine.kernels.compile_rule_kernel`) that is reused
        every round — kernels close over live column and symbol-table
        views, so database growth never invalidates them.  Unlike the
        classic semi-naive round delta, each rule keeps a **rolling
        window**: the facts added since that rule's own last match
        materialization.  Naive evaluation lets a rule see facts fired by
        earlier rules *within the same round*, so a per-round delta would
        discover some derivations one round late; the rolling window
        reproduces naive's visibility — and hence round numbers, firing
        order and provenance — exactly, while still never re-joining old
        facts against old facts.
        """
        stats = result.stats
        plans: list[RulePlan] = []
        kernels: list[RuleKernel] = []
        with obs.span("chase.plan", rules=len(rules)):
            for rule in rules:
                compiled = plan_rule(rule, result.database)
                plans.append(compiled)
                stats.plans_compiled += 1
                entry = stats.plans.setdefault(rule.label, {})
                entry.update(compiled.snapshot())
                started = time.perf_counter()
                kernels.append(
                    compile_rule_kernel(compiled, result.database)
                )
                stats.kernel_compile_s += time.perf_counter() - started
                stats.kernels_compiled += 1
        # Insertion-ordered view of the instance; windows are slices of it.
        timeline: list[Fact] = list(result.database.facts())
        last_seen = [0] * len(rules)
        body_predicates = [frozenset(rule.body_predicates()) for rule in rules]
        for round_number in range(1, self.max_rounds + 1):
            before_round = len(result.records)
            for index, (rule, compiled, kernel) in enumerate(
                zip(rules, plans, kernels)
            ):
                seen_at_start = len(timeline)
                window = timeline[last_seen[index]:]
                last_seen[index] = seen_at_start
                delta_map: dict[str, list[Fact]] | None = None
                if round_number > 1:
                    if not window:
                        continue
                    delta_map = group_by_predicate(window)
                    if not any(
                        predicate in delta_map
                        for predicate in body_predicates[index]
                    ):
                        continue
                before_rule = len(result.records)
                if rule.has_aggregate:
                    # Aggregates are always re-evaluated whole (their
                    # set-at-a-time semantics needs every group member),
                    # but only when the window touches their body.
                    self._apply_aggregate_rule(
                        rule, result, aggregate_state,
                        rounds_so_far + round_number, plan=compiled,
                        kernel=kernel,
                    )
                else:
                    self._apply_plain_rule(
                        rule, result, nulls, rounds_so_far + round_number,
                        plan=compiled, delta_map=delta_map, kernel=kernel,
                    )
                timeline.extend(
                    record.fact for record in result.records[before_rule:]
                )
            new_this_round = len(result.records) - before_round
            stats.delta_sizes.append(new_this_round)
            if not new_this_round:
                return round_number
        raise ChaseError(
            f"chase did not reach fixpoint within {self.max_rounds} rounds "
            f"for program {result.program.name!r}"
        )

    # ------------------------------------------------------------------
    # Negative constraints
    # ------------------------------------------------------------------
    def _check_constraints(self, program: Program, result: ChaseResult) -> None:
        exclude = frozenset(result.superseded)
        for constraint in program.constraints:
            result.stats.constraint_checks += 1
            for binding, used in self._match_conjunction(
                constraint.body, constraint.conditions, constraint.negated,
                result, exclude,
            ):
                result.violations.append(
                    ConstraintViolation(
                        constraint=constraint,
                        binding=dict(binding),
                        witnesses=used,
                    )
                )

    # ------------------------------------------------------------------
    # Body matching
    # ------------------------------------------------------------------
    def _body_matches(
        self,
        rule: Rule,
        result: ChaseResult,
        conditions: tuple[Comparison, ...],
        delta: frozenset[Fact] | None = None,
        plan: RulePlan | None = None,
        delta_map: dict[str, list[Fact]] | None = None,
        kernel: RuleKernel | None = None,
    ) -> Iterator[tuple[MutableSubstitution, tuple[Fact, ...]]]:
        """Enumerate homomorphisms of the rule body into the active facts,
        filtered by the given (pre-aggregation) conditions and by the
        rule's negated atoms (no matching active fact may exist).

        With ``delta``, only homomorphisms using at least one delta fact
        are produced (semi-naive evaluation), each exactly once.  With a
        compiled ``plan``, the kernel executor replaces the
        tuple-at-a-time walk (conditions and delta restriction are baked
        into the compiled closures; ``delta_map`` carries the delta
        grouped by predicate; ``kernel`` reuses the stratum's compiled
        kernel) — matches come back in naive enumeration order.
        """
        exclude = frozenset(result.superseded)
        if plan is not None:
            yield from execute_rule_plan(
                plan, result.database, exclude, delta_map,
                stats=result.stats.plans.get(rule.label),
                kernel=kernel,
            )
            return
        if delta is None:
            yield from self._match_conjunction(
                rule.body, conditions, rule.negated, result, exclude,
                assignments=rule.assignments,
            )
            return
        seen: set[tuple[Fact, ...]] = set()
        for pivot in range(len(rule.body)):
            if not any(f.predicate == rule.body[pivot].predicate for f in delta):
                continue
            for binding, used in self._match_conjunction(
                rule.body, conditions, rule.negated, result, exclude,
                delta=delta, pivot=pivot, assignments=rule.assignments,
            ):
                if used not in seen:
                    seen.add(used)
                    yield binding, used

    def _match_conjunction(
        self,
        atoms: tuple[Atom, ...],
        conditions: tuple[Comparison, ...],
        negated: tuple[Atom, ...],
        result: ChaseResult,
        exclude: frozenset[Fact],
        delta: frozenset[Fact] | None = None,
        pivot: int | None = None,
        assignments: tuple = (),
    ) -> Iterator[tuple[MutableSubstitution, tuple[Fact, ...]]]:
        database = result.database

        def negation_holds(binding: MutableSubstitution) -> bool:
            for pattern in negated:
                if next(database.match(pattern, binding, exclude), None) is not None:
                    return False
            return True

        def recurse(
            index: int, binding: MutableSubstitution, used: tuple[Fact, ...]
        ) -> Iterator[tuple[MutableSubstitution, tuple[Fact, ...]]]:
            if index == len(atoms):
                for variable, expression in assignments:
                    binding[variable] = evaluate_assignment(
                        expression, binding
                    )
                if all(condition.holds(binding) for condition in conditions):
                    if negation_holds(binding):
                        yield binding, used
                return
            pattern = atoms[index]
            for matched, extended in database.match(pattern, binding, exclude):
                if index == pivot and delta is not None and matched not in delta:
                    continue
                yield from recurse(index + 1, extended, used + (matched,))

        yield from recurse(0, {}, ())

    # ------------------------------------------------------------------
    # Plain (non-aggregate) rules
    # ------------------------------------------------------------------
    def _apply_plain_rule(
        self,
        rule: Rule,
        result: ChaseResult,
        nulls: NullFactory,
        round_number: int,
        delta: frozenset[Fact] | None = None,
        plan: RulePlan | None = None,
        delta_map: dict[str, list[Fact]] | None = None,
        kernel: RuleKernel | None = None,
    ) -> bool:
        changed = False
        # Materialize matches first: firing must not see this round's output.
        matches = list(
            self._body_matches(
                rule, result, rule.conditions, delta,
                plan=plan, delta_map=delta_map, kernel=kernel,
            )
        )
        for binding, used in matches:
            if rule.is_existential:
                # Restricted chase: skip when the head is already satisfied
                # (indexed lookup; pattern variables are the existentials).
                head_pattern = apply_substitution(rule.head, binding)
                if next(result.database.match(head_pattern), None) is not None:
                    continue
                for variable in rule.existentials:
                    binding[variable] = nulls.fresh()
            derived = apply_substitution(rule.head, binding)
            if not derived.is_fact():
                raise EvaluationError(
                    f"rule {rule.label} produced non-ground head {derived}"
                )
            if result.database.add(derived):
                changed = True
                record = ChaseStepRecord(
                    index=len(result.records),
                    round=round_number,
                    rule=rule,
                    fact=derived,
                    parents=used,
                    binding=dict(binding),
                )
                result.records.append(record)
                result.derivation[derived] = record
                result.stats.record_firing(rule.label, derived.predicate)
            else:
                result.stats.facts_deduplicated += 1
        return changed

    # ------------------------------------------------------------------
    # Aggregate rules
    # ------------------------------------------------------------------
    def _apply_aggregate_rule(
        self,
        rule: Rule,
        result: ChaseResult,
        aggregate_state: dict[tuple[str, tuple[Term, ...]], Fact],
        round_number: int,
        plan: RulePlan | None = None,
        kernel: RuleKernel | None = None,
    ) -> bool:
        aggregate = rule.aggregate
        assert aggregate is not None
        pre, post, key_vars = aggregate_split(rule)

        groups: dict[tuple[Term, ...], list[Contribution]] = {}
        for binding, used in self._body_matches(
            rule, result, pre, plan=plan, kernel=kernel
        ):
            key = tuple(binding[v] for v in key_vars)
            value = evaluate_expression(aggregate.argument, binding)
            groups.setdefault(key, []).append(
                Contribution(facts=used, value=value, binding=dict(binding))
            )

        changed = False
        for key, contributions in groups.items():
            value = aggregate.evaluate(c.value for c in contributions)
            group_binding: MutableSubstitution = dict(zip(key_vars, key))
            group_binding[aggregate.result] = Constant(value)
            if not all(condition.holds(group_binding) for condition in post):
                continue
            derived = apply_substitution(rule.head, group_binding)
            if not derived.is_fact():
                raise EvaluationError(
                    f"aggregate rule {rule.label} produced non-ground head "
                    f"{derived}; check that all head variables are grouped"
                )
            state_key = (rule.label, key)
            previous = aggregate_state.get(state_key)
            if derived == previous:
                continue
            if result.database.add(derived):
                changed = True
                parents = self._dedupe_parents(contributions)
                record = ChaseStepRecord(
                    index=len(result.records),
                    round=round_number,
                    rule=rule,
                    fact=derived,
                    parents=parents,
                    binding=group_binding,
                    contributors=tuple(contributions),
                    aggregate_value=value,
                )
                result.records.append(record)
                result.derivation[derived] = record
                result.stats.record_firing(rule.label, derived.predicate)
                # Monotonic supersession: the refreshed aggregate replaces
                # the stale value for future rule applications.
                if previous is not None and previous != derived:
                    result.superseded.add(previous)
                aggregate_state[state_key] = derived
            else:
                result.stats.facts_deduplicated += 1
        return changed

    @staticmethod
    def _dedupe_parents(contributions: list[Contribution]) -> tuple[Fact, ...]:
        seen: dict[Fact, None] = {}
        for contribution in contributions:
            for parent in contribution.facts:
                seen.setdefault(parent, None)
        return tuple(seen)


def chase(
    program: Program,
    database: Database,
    max_rounds: int = 10_000,
    strategy: str = "naive",
) -> ChaseResult:
    """Convenience wrapper: run the chase with a fresh engine."""
    return ChaseEngine(max_rounds=max_rounds, strategy=strategy).run(
        program, database
    )
