"""Differential checking across the network boundary.

The ``repro check`` harness proves the service agrees with a naive
reference model *in process*.  This module proves the network layer
adds nothing and loses nothing: it replays the same seeded fuzz command
streams against a live server and against an in-process
:class:`~repro.browser.session.Session` built over an identical corpus,
and asserts **byte-level parity** — every HTTP response body must equal,
byte for byte, the canonical encoding of the envelope the in-process
transition produces, including error envelopes for commands that raise.

Because the server and the local side both build their payloads with
:mod:`repro.net.protocol` over the same deterministic corpus, any
difference — a float formatted differently, a key ordered differently,
an exception translated differently, state drift from a lost update —
shows up as the first unequal byte.  The one exception is the session
state: the server splices it from memoized term fragments, view
bodies and back-stack headers, and the local side encodes
:meth:`SessionState.wire_dict` (the response form, a projection of the
lossless :meth:`SessionState.to_dict`) as a plain dict, so the check
also proves the spliced encoder writes the dict's bytes.

At the end of each corpus the ``{session=wire}``-tagged telemetry of
both workspaces is compared too: the served session must bump exactly
the counters the local session bumps.

With ``procs > 1`` the same streams run against a
:class:`~repro.net.router.ShardedServer` instead — the multi-process
tier must be byte-for-byte indistinguishable from a single process,
including its telemetry, which arrives through the router's merged
``/metrics``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..browser.session import Session
from ..check.codec import command_to_dict
from ..check.corpus import random_corpus
from ..check.fuzzer import CommandGenerator
from ..service.manager import SessionManager
from ..service.serialize import predicate_to_dict
from ..service.state import SessionState
from .client import NavigationClient
from .protocol import (
    canonical_json,
    error_envelope,
    ok_envelope,
    status_for,
    suggestions_payload,
    transition_payload,
)
from .server import NavigationServer, ServerConfig

__all__ = ["WireDivergence", "WireReport", "run_wire_check"]

#: The session name used on both sides; it becomes the ``session_id``
#: inside serialized states, so it must match for byte parity.
WIRE_SESSION = "wire"

#: The historical (``as_of``-pinned) session both sides drive in the
#: time-travel parity pass.
WIRE_ASOF_SESSION = "wire-asof"


@dataclass
class WireDivergence:
    """The first point where the wire and the in-process run disagreed."""

    corpus_seed: int
    step: int
    command: str
    detail: str


@dataclass
class WireReport:
    """What a wire-parity run covered, and the first divergence if any."""

    seed: int
    steps_run: int = 0
    corpora_run: int = 0
    suggest_probes: int = 0
    preview_probes: int = 0
    as_of_steps: int = 0
    failure: WireDivergence | None = None

    @property
    def ok(self) -> bool:
        return self.failure is None


class _ChipSource:
    """Quacks like a DifferentialRunner for :meth:`CommandGenerator.bind`.

    The generator only needs ``runner.model.view.constraints()``; here
    that is the in-process session's current view state.
    """

    def __init__(self, session: Session):
        self._session = session

    @property
    def model(self) -> "_ChipSource":
        return self

    @property
    def view(self):
        return self._session.state.view


def _diff_detail(expected: bytes, got: bytes) -> str:
    """Locate the first differing byte and show context around it."""
    limit = min(len(expected), len(got))
    at = next(
        (i for i in range(limit) if expected[i] != got[i]), limit
    )
    window = slice(max(0, at - 40), at + 40)
    return (
        f"bodies differ at byte {at}: "
        f"expected ...{expected[window]!r}..., got ...{got[window]!r}..."
    )


def _session_counters(
    snapshot: dict, session: str = WIRE_SESSION
) -> dict[str, int]:
    """Every counter tagged with the given session, by name."""
    tag = f"{{session={session}}}"
    return {
        name: value
        for name, value in snapshot["counters"].items()
        if tag in name
    }


def run_wire_check(
    seed: int,
    steps: int = 150,
    corpora: int = 2,
    suggest_every: int = 7,
    preview_every: int = 11,
    log=None,
    server_config: ServerConfig | None = None,
    procs: int = 1,
) -> WireReport:
    """Replay seeded fuzz streams over HTTP and assert byte parity.

    Deterministic in ``seed``.  For each corpus, an identical workspace
    is built on both sides from the corpus seed; the same command
    stream is applied to a served session and an in-process one, and
    every response — success or typed error — is compared as raw bytes
    against the locally built canonical envelope.  Every
    ``suggest_every`` steps the suggestion payload is compared the same
    way, and every ``preview_every`` steps a preview count round-trips.
    Stops at the first divergence; ``report.ok`` means full parity.

    ``procs > 1`` serves each corpus from a multi-process
    :class:`~repro.net.router.ShardedServer` (each worker rebuilds the
    corpus from its seed), proving the sharded tier is byte-identical.
    """
    rng = random.Random(seed)
    report = WireReport(seed=seed)
    steps_per_corpus = max(1, steps // max(1, corpora))

    for _ in range(corpora):
        corpus_seed = rng.randrange(2**31)
        generator_seed = rng.randrange(2**31)
        divergence = _check_corpus(
            corpus_seed,
            generator_seed,
            steps_per_corpus,
            suggest_every,
            preview_every,
            report,
            server_config,
            procs,
        )
        report.corpora_run += 1
        if divergence is not None:
            report.failure = divergence
            if log is not None:
                log(
                    f"wire divergence on corpus seed {corpus_seed} at "
                    f"step {divergence.step}: {divergence.detail}"
                )
            return report
        if log is not None:
            log(f"corpus seed {corpus_seed}: {steps_per_corpus} step(s) at parity")
    return report


def _check_corpus(
    corpus_seed: int,
    generator_seed: int,
    steps: int,
    suggest_every: int,
    preview_every: int,
    report: WireReport,
    server_config: ServerConfig | None,
    procs: int = 1,
) -> WireDivergence | None:
    local_corpus = random_corpus(corpus_seed)
    config = server_config if server_config is not None else ServerConfig()
    if procs > 1:
        from ..datasets.spec import DatasetSpec
        from .router import ShardedServer

        server = ShardedServer(
            DatasetSpec(kind="check_corpus", seed=corpus_seed),
            config,
            procs=procs,
        ).start()
    else:
        server_corpus = random_corpus(corpus_seed)
        manager = SessionManager(server_corpus.workspace)
        server = NavigationServer(manager, config).start()
    try:
        host, port = server.address
        client = NavigationClient(host, port)
        local = Session(local_corpus.workspace, session_id=WIRE_SESSION)
        divergence = _check_create(corpus_seed, client, local.state, WIRE_SESSION)
        if divergence is not None:
            return divergence
        generator = CommandGenerator(random.Random(generator_seed), local_corpus)
        generator.bind(_ChipSource(local))

        for step in range(1, steps + 1):
            command = generator.next_command()
            report.steps_run += 1
            divergence = _check_step(
                corpus_seed, step, command, client, local
            )
            if divergence is not None:
                return divergence
            if suggest_every and step % suggest_every == 0:
                report.suggest_probes += 1
                divergence = _check_suggest(corpus_seed, step, client, local)
                if divergence is not None:
                    return divergence
            if preview_every and step % preview_every == 0:
                report.preview_probes += 1
                divergence = _check_preview(
                    corpus_seed, step, client, local, generator
                )
                if divergence is not None:
                    return divergence

        divergence = _check_telemetry(corpus_seed, steps, client, local)
        if divergence is not None:
            return divergence
        return _check_as_of(
            corpus_seed, generator_seed, steps, local_corpus, client, report
        )
    finally:
        server.drain()


def _check_as_of(
    corpus_seed: int,
    generator_seed: int,
    steps: int,
    local_corpus,
    client: NavigationClient,
    report: WireReport,
) -> WireDivergence | None:
    """The time-travel parity pass: drive an ``as_of``-pinned session.

    Both sides pin the session to the mid-log transaction; every
    response — including typed errors for commands that reference items
    newer than the pin — must be byte-identical.  Exercises the full
    path: wire ``as_of`` option → manager → workspace historical view.
    """
    tx = local_corpus.workspace.graph.last_tx // 2
    local_manager = SessionManager(local_corpus.workspace)
    local = local_manager.create(WIRE_ASOF_SESSION, as_of=tx)
    divergence = _check_create(
        corpus_seed, client, local.state, WIRE_ASOF_SESSION, as_of=tx
    )
    if divergence is not None:
        return divergence
    generator = CommandGenerator(
        random.Random(generator_seed ^ 0x5F5F), local_corpus
    )
    generator.bind(_ChipSource(local))
    for step in range(1, max(5, steps // 3) + 1):
        command = generator.next_command()
        report.as_of_steps += 1
        divergence = _check_step(
            corpus_seed, step, command, client, local,
            session=WIRE_ASOF_SESSION,
        )
        if divergence is not None:
            return divergence
        if step % 5 == 0:
            divergence = _check_suggest(
                corpus_seed, step, client, local, session=WIRE_ASOF_SESSION
            )
            if divergence is not None:
                return divergence
    return _check_telemetry(
        corpus_seed, 0, client, local, session=WIRE_ASOF_SESSION
    )


def _check_create(
    corpus_seed: int,
    client: NavigationClient,
    state: SessionState,
    session: str,
    as_of: int | None = None,
) -> WireDivergence | None:
    """Create the served session; its body must encode ``state.wire_dict()``."""
    request: dict = {"name": session}
    if as_of is not None:
        request["as_of"] = as_of
    wire_status, wire_body = client.request_raw("POST", "/sessions", request)
    expected_body = canonical_json(
        ok_envelope({"name": session, "state": state.wire_dict()})
    )
    if wire_status != 200 or wire_body != expected_body:
        return WireDivergence(
            corpus_seed,
            0,
            f"<create {session} as_of={as_of}>",
            f"status {wire_status}; " + _diff_detail(expected_body, wire_body),
        )
    return None


def _check_step(
    corpus_seed: int,
    step: int,
    command,
    client: NavigationClient,
    local: Session,
    session: str = WIRE_SESSION,
) -> WireDivergence | None:
    wire_status, wire_body = client.request_raw(
        "POST",
        f"/sessions/{session}/apply",
        {"command": command_to_dict(command)},
    )
    try:
        transition = local.apply(command)
    except Exception as error:  # noqa: BLE001 - parity-checked below
        expected_status = status_for(error)
        expected_body = canonical_json(error_envelope(error))
    else:
        expected_status = 200
        # The response form as a plain dict, not the server's spliced
        # encoding.
        payload = transition_payload(transition)
        payload["state"] = transition.state.wire_dict()
        expected_body = canonical_json(ok_envelope(payload))
    if wire_status != expected_status:
        return WireDivergence(
            corpus_seed,
            step,
            repr(command),
            f"status {wire_status} != expected {expected_status} "
            f"(wire body: {wire_body[:200]!r})",
        )
    if wire_body != expected_body:
        return WireDivergence(
            corpus_seed, step, repr(command), _diff_detail(expected_body, wire_body)
        )
    return None


def _check_suggest(
    corpus_seed: int,
    step: int,
    client: NavigationClient,
    local: Session,
    session: str = WIRE_SESSION,
) -> WireDivergence | None:
    wire_status, wire_body = client.request_raw(
        "POST", f"/sessions/{session}/suggest", {}
    )
    expected_body = canonical_json(
        ok_envelope(suggestions_payload(local.suggestions()))
    )
    if wire_status != 200 or wire_body != expected_body:
        return WireDivergence(
            corpus_seed,
            step,
            "<suggest>",
            f"status {wire_status}; " + _diff_detail(expected_body, wire_body),
        )
    return None


def _check_preview(
    corpus_seed: int,
    step: int,
    client: NavigationClient,
    local: Session,
    generator: CommandGenerator,
) -> WireDivergence | None:
    if not local.state.view.is_collection:
        return None
    predicate = generator.predicate()
    try:
        expected = local.preview_count(predicate, "filter")
    except Exception:  # noqa: BLE001 - unpreviewable predicate; skip probe
        return None
    got = client.preview(WIRE_SESSION, predicate_to_dict(predicate), "filter")
    if got != expected:
        return WireDivergence(
            corpus_seed,
            step,
            f"<preview {predicate!r}>",
            f"wire count {got} != in-process {expected}",
        )
    return None


def _check_telemetry(
    corpus_seed: int,
    step: int,
    client: NavigationClient,
    local: Session,
    session: str = WIRE_SESSION,
) -> WireDivergence | None:
    """Compare session-tagged counters as reported over ``/metrics``.

    Reading through the client (rather than reaching into the server's
    registry) makes this work identically for the single-process server
    and the sharded tier, whose counters arrive pre-merged across
    worker processes.
    """
    served = _session_counters(client.metrics(), session)
    in_process = _session_counters(
        local.workspace.obs.metrics.snapshot(), session
    )
    if served != in_process:
        return WireDivergence(
            corpus_seed,
            step,
            "<telemetry>",
            f"session-tagged counters differ: served={served!r} "
            f"in-process={in_process!r}",
        )
    return None
