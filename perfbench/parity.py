"""Correctness oracles: byte parity with a fresh in-process session and
the paper's completeness criterion.

A :class:`Reference` is a fresh ``ExplanationService`` session over the
same EDB the server was given.  It answers a request through the same
route functions and ``encode_body`` the server uses, so a served body
must equal its bytes exactly.
"""

from __future__ import annotations

import json

from repro.core import ExplanationService
from repro.io import loads_database, parse_fact
from repro.serve import PARSERS, encode_body, serve_session_request

import kg

ROUTES = {"/explain": "explain", "/explain/batch": "explain_batch",
          "/whynot": "whynot"}

#: The server's per-request budget when a request names none.
DEFAULT_DEADLINE_S = 10.0


def first_difference(served: bytes, expected: bytes) -> int | None:
    """Offset of the first differing byte, or ``None`` if identical."""
    if served == expected:
        return None
    for offset, (left, right) in enumerate(zip(served, expected)):
        if left != right:
            return offset
    return min(len(served), len(expected))


def missing_constants(text: str, constants) -> list[str]:
    """Proof constants that the explanation text never mentions."""
    return [constant for constant in constants if constant not in text]


class Reference:
    """Expected response bodies from a fresh in-process session."""

    def __init__(self, application, snapshot: str):
        self.service = ExplanationService(llm=None)
        self.session = self.service.session(
            application, loads_database(snapshot), strategy="planned"
        )
        self._bodies: dict[tuple[str, bytes], tuple[int, bytes]] = {}

    def close(self) -> None:
        self.service.shutdown()

    def expected(self, request: kg.Request) -> tuple[int, bytes]:
        key = (request.path, request.body)
        if key not in self._bodies:
            parsed = PARSERS[ROUTES[request.path]](request.body)
            status, payload = serve_session_request(
                self.session, parsed,
                default_deadline_s=DEFAULT_DEADLINE_S,
                metrics=self.service.metrics,
            )
            self._bodies[key] = (status, encode_body(payload))
        return self._bodies[key]

    def check(self, request: kg.Request, status: int,
              body: bytes) -> str | None:
        """``None`` when the served answer is correct, else why not."""
        want_status, want_body = self.expected(request)
        if status != want_status:
            return (f"{request.kind} {request.body!r}: status {status}, "
                    f"expected {want_status}")
        offset = first_difference(body, want_body)
        if offset is not None:
            return (f"{request.kind} {request.body!r}: body differs at "
                    f"byte {offset}")
        return self.incomplete(body)

    def incomplete(self, body: bytes) -> str | None:
        """Completeness: every proof constant of each explained query
        appears in its explanation text."""
        payload = json.loads(body)
        entries = payload.get("results") if "results" in payload else [payload]
        for entry in entries:
            if "text" not in entry or "paths" not in entry:
                continue  # why-not reports carry no proof
            query = parse_fact(entry["query"])
            missing = missing_constants(
                entry["text"], self.session.explainer.proof_constants(query)
            )
            if missing:
                return f"explanation of {query} omits {missing[:3]}"
        return None
