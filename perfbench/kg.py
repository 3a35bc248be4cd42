"""Seeded, deterministic inputs for the perfbench workloads.

Every workload input comes from ``--seed`` through this module: the
ownership knowledge graph, the query population, the request schedule
and the update edges.  The same seed always gives the same inputs.

The graph *shape* is fixed per size: it is the repo's own
``random_ownership_database(n, 3n, seed=11)``, the instance ROADMAP
quotes its measurements on.  The seed relabels its entities and
shuffles its fact order, so every seed is a fresh, isomorphic
instance.  A seed-drawn shape would not do: across seeds the 60-entity
graph derives anywhere from 988 to 2,295 ``Control`` facts and its
chase takes 0.95 s to 2.25 s, which would swamp any gain a later change
makes.  Update edges are fixed the same way: one uniform draw over the
base shape, relabelled per seed, and so are the absent facts probed
by why-not.  One edge's maintenance cost ranges from 50 ms to 25 s on
the 60-entity graph, and one why-not probe's from 5 ms to 300 ms, so
drawing them per seed would make those figures a lottery.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass

from repro.apps import company_control, generators
from repro.datalog.atoms import Fact
from repro.engine.database import Database

#: The generator seed of the fixed graph shape.
SHAPE_SEED = 11

_STEMS = (
    "Banca", "Holding", "Fondo", "Assicura", "Capital", "Gruppo",
    "Finanz", "Invest", "Credito", "Societa",
)


@dataclass(frozen=True)
class OwnershipKG:
    """One relabelled ownership graph: its EDB and entity names."""

    facts: tuple[Fact, ...]
    entities: tuple[str, ...]
    #: Base-shape entity name -> this instance's name.
    rename: dict

    @property
    def edges(self) -> int:
        return sum(1 for fact in self.facts if fact.predicate == "Own")

    def database(self) -> Database:
        return Database(self.facts)



def _own_pairs(facts) -> set[tuple[str, str]]:
    return {
        (str(fact.terms[0].value), str(fact.terms[1].value))
        for fact in facts if fact.predicate == "Own"
    }


def ownership_kg_base(entities: int) -> tuple[Fact, ...]:
    """The fixed base shape: ``entities`` nodes, ``3 * entities`` edges."""
    return tuple(generators.random_ownership_database(
        entities, 3 * entities, seed=SHAPE_SEED
    ).facts())


def ownership_kg(entities: int, seed: int) -> OwnershipKG:
    """The base shape of ``entities`` nodes, relabelled for ``seed``."""
    base = ownership_kg_base(entities)
    rng = random.Random(f"perfbench:kg:{seed}:{entities}")
    old_names = [
        str(fact.terms[0].value)
        for fact in base if fact.predicate == "Company"
    ]
    numbers = rng.sample(range(100, 1000), len(old_names))
    rename = {
        old: f"{rng.choice(_STEMS)}{number}"
        for old, number in zip(old_names, numbers)
    }
    owns = [
        company_control.own(
            rename[str(fact.terms[0].value)],
            rename[str(fact.terms[1].value)],
            fact.terms[2].value,
        )
        for fact in base if fact.predicate == "Own"
    ]
    rng.shuffle(owns)
    names = list(rename.values())
    rng.shuffle(names)
    companies = [company_control.company(name) for name in names]
    return OwnershipKG(facts=tuple(owns + companies), entities=tuple(names),
                       rename=rename)


def control_population(derived: tuple[Fact, ...]) -> list[Fact]:
    """The non-trivial derived ``Control`` facts, in a stable order."""
    return sorted(
        (fact for fact in derived if fact.terms[0] != fact.terms[1]),
        key=str,
    )


def absent_controls(kg: OwnershipKG, derived: set[Fact],
                    count: int) -> list[Fact]:
    """``count`` distinct ``Control(x, y)`` facts the chase does not
    derive: one uniform draw over the base shape, relabelled, so every
    seed probes the same (isomorphic) facts."""
    rng = random.Random(f"perfbench:absent:{SHAPE_SEED}:{len(kg.entities)}")
    pairs = [
        (owner, owned)
        for owner, owned in itertools.permutations(sorted(kg.rename), 2)
        if company_control.control(kg.rename[owner], kg.rename[owned])
        not in derived
    ]
    return [
        company_control.control(kg.rename[owner], kg.rename[owned])
        for owner, owned in rng.sample(pairs, count)
    ]


def update_edges(kg: OwnershipKG, count: int) -> list[Fact]:
    """The first ``count`` new ``Own`` edges of one uniform draw over the
    base shape (pairs with no edge in either direction), relabelled."""
    owned = _own_pairs(ownership_kg_base(len(kg.entities)))
    rng = random.Random(f"perfbench:updates:{SHAPE_SEED}:{len(kg.entities)}")
    pairs = [
        (owner, target)
        for owner, target in itertools.permutations(sorted(kg.rename), 2)
        if (owner, target) not in owned and (target, owner) not in owned
    ]
    return [
        company_control.own(kg.rename[owner], kg.rename[target],
                            round(rng.uniform(0.05, 0.95), 2))
        for owner, target in rng.sample(pairs, count)
    ]


@dataclass(frozen=True)
class Request:
    """One scheduled HTTP request: when it is due and what it sends."""

    due_s: float
    kind: str          # explain | batch | whynot | add | retract
    path: str
    body: bytes


def request_body(payload: dict) -> bytes:
    return json.dumps(payload, sort_keys=True).encode("utf-8")


def read_schedule(population: list[Fact], absent: list[Fact],
                  rate_rps: float, duration_s: float, mix: dict[str, float],
                  batch_size: int, batch_deadline_s: float,
                  rng: random.Random) -> list[Request]:
    """An open-loop read schedule with Poisson arrivals at ``rate_rps``.

    ``mix`` maps hot / sweep / batch / whynot to their shares.  A
    ``hot`` read explains the one hot fact of the schedule (drawn from
    ``population`` per seed), a ``sweep`` read a fact drawn uniformly
    from ``population``; both are sent as ``explain``.  Batch entries
    are drawn uniformly from ``population``, why-not probes from
    ``absent``.
    """
    hot = rng.choice(population)
    kinds = list(mix)
    shares = [mix[kind] for kind in kinds]
    schedule: list[Request] = []
    due = 0.0
    while True:
        due += rng.expovariate(rate_rps)
        if due >= duration_s:
            return schedule
        kind = rng.choices(kinds, weights=shares, k=1)[0]
        if kind in ("hot", "sweep"):
            fact = hot if kind == "hot" else rng.choice(population)
            request = Request(due, "explain", "/explain",
                              request_body({"query": str(fact)}))
        elif kind == "batch":
            queries = [str(rng.choice(population)) for _ in range(batch_size)]
            request = Request(due, kind, "/explain/batch", request_body(
                {"queries": queries, "deadline_s": batch_deadline_s}
            ))
        elif kind == "whynot":
            request = Request(due, kind, "/whynot",
                              request_body({"query": str(rng.choice(absent))}))
        else:
            raise ValueError(f"unknown read kind {kind!r}")
        schedule.append(request)
