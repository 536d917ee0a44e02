"""Byte parity of the spliced state encoding with the plain-dict one.

Served states are assembled from term fragments memoized on the terms
(:func:`repro.service.serialize.node_json`) and from view bodies and
back-stack headers memoized on the views (:meth:`ViewState.json_bytes`,
:meth:`ViewState.header_json`), and spliced into the response envelope
by :func:`repro.net.protocol.canonical_parts`.  The oracle is
``json.dumps`` of :meth:`SessionState.wire_dict`, the response form,
with the canonical settings: whatever the state holds, and whichever
state first encoded a view it shares, the bytes must match.  The
lossless :meth:`SessionState.to_dict`, which saves hold, must decode
back to the same state.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.protocol import (
    canonical_json,
    canonical_parts,
    ok_envelope,
    session_payload,
    transition_payload,
)
from repro.query.ast import And, HasValue, Not, Range, TextMatch, TypeIs, ValueIn
from repro.rdf.terms import BlankNode, Literal, Resource
from repro.service import serialize
from repro.service.navigation import Transition
from repro.service.serialize import StateSerializationError
from repro.service.state import SessionState, ViewState


def dict_bytes(value) -> bytes:
    return json.dumps(
        value, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    ).encode("ascii")


def assert_both_forms(state: SessionState) -> None:
    """The spliced bytes are the response form's; the saved form is
    lossless."""
    assert b"".join(state.json_parts()) == dict_bytes(state.wire_dict())
    saved = json.loads(dict_bytes(state.to_dict()))
    assert SessionState.from_dict(saved) == state


text = st.text(min_size=1, max_size=12)  # any code point: non-ASCII too

resources = st.builds(Resource, text.map(lambda s: "http://x.example/" + s))
blanks = st.builds(BlankNode, text)
literals = st.one_of(
    st.builds(Literal, st.text(max_size=12)),
    st.builds(
        lambda lexical, language: Literal(lexical, language=language),
        st.text(max_size=12),
        st.sampled_from(["en", "fr-CA", "zh-Hant", "x-é"]),
    ),
    st.builds(
        lambda lexical, datatype: Literal(lexical, datatype=datatype),
        st.text(max_size=12),
        st.sampled_from([
            "http://www.w3.org/2001/XMLSchema#integer",
            "http://www.w3.org/2001/XMLSchema#double",
            "http://x.example/ünits#kg",
        ]),
    ),
)
nodes = st.one_of(resources, blanks, literals)

bounds = st.one_of(
    st.sampled_from([-0.0, 0.0, 1e-7, -1e-7, 2**70, -(2**63), 1e300]),
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def ranges(draw):
    low = draw(st.one_of(st.none(), bounds))
    high = draw(st.one_of(st.none(), bounds))
    if low is None and high is None:
        high = draw(bounds)
    if low is not None and high is not None and low > high:
        low, high = high, low
    return Range(draw(resources), low=low, high=high)


leaves = st.one_of(
    st.builds(HasValue, resources, nodes),
    st.builds(TypeIs, resources),
    st.builds(TextMatch, st.text(min_size=1, max_size=8)),
    st.builds(ValueIn, resources, st.lists(nodes, min_size=1, max_size=3)),
    ranges(),
)
predicates = st.recursive(
    leaves,
    lambda inner: st.one_of(
        st.builds(Not, inner),
        st.builds(And, st.lists(inner, min_size=1, max_size=3)),
    ),
    max_leaves=5,
)

views = st.one_of(
    st.builds(ViewState.of_item, nodes),
    st.builds(
        ViewState.of_collection,
        st.lists(nodes, max_size=8),
        st.one_of(st.none(), predicates),
        st.one_of(st.none(), st.text(max_size=10)),
    ),
)
small = st.integers(min_value=0, max_value=2**40)


view_pools = st.lists(views, min_size=1, max_size=4)


@st.composite
def states(draw, pool=None):
    # Back stacks share ViewState objects, as real ones do once a view
    # is pushed, popped and pushed again; states drawn from one pool
    # share them as successive states of one session do.
    if pool is None:
        pool = draw(view_pools)
    term_pool = draw(st.lists(nodes, min_size=1, max_size=6))
    shared = st.sampled_from(term_pool)
    return SessionState(
        view=draw(st.sampled_from(pool)),
        trail=tuple(draw(st.lists(
            st.tuples(st.one_of(st.none(), predicates), st.text(max_size=10)),
            max_size=3,
        ))),
        visits=tuple(draw(st.lists(shared, max_size=5))),
        back_stack=tuple(draw(st.lists(st.sampled_from(pool), max_size=5))),
        bookmarks=tuple(draw(st.lists(shared, max_size=3))),
        feedback_relevant=tuple(draw(st.lists(shared, max_size=2))),
        feedback_non_relevant=tuple(draw(st.lists(nodes, max_size=2))),
        feedback_seed=draw(st.one_of(st.none(), predicates)),
        feedback_active=draw(st.booleans()),
        fuzzy_on_empty=draw(st.booleans()),
        fuzzy_k=draw(st.integers(min_value=1, max_value=50)),
        last_was_fuzzy=draw(st.booleans()),
        back_limit=draw(st.integers(min_value=1, max_value=200)),
        session_id=draw(st.one_of(st.none(), st.text(max_size=10))),
        as_of_tx=draw(st.one_of(st.none(), small)),
        epoch=draw(st.one_of(st.none(), small)),
    )


outcomes = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),  # NaN and ±inf included: both sides write them alike
    st.text(max_size=10),
    st.tuples(st.integers(), st.text(max_size=4)),  # travels as its repr
    st.builds(Resource, text.map(lambda s: "http://x.example/" + s)),
)


@settings(max_examples=200, deadline=None)
@given(states(), outcomes)
def test_apply_body_equals_the_dict_encoding(state, outcome):
    expected_outcome = (
        outcome
        if outcome is None or isinstance(outcome, (bool, int, float, str))
        else repr(outcome)
    )
    expected = dict_bytes(
        {"ok": True, "result": {"state": state.wire_dict(), "outcome": expected_outcome}}
    )
    transition = Transition(state, outcome)
    # Twice: the second encoding reads every term fragment, view body
    # and view header from its memo.
    for _ in range(2):
        parts = canonical_parts(ok_envelope(transition_payload(transition)))
        assert b"".join(parts) == expected
        body = canonical_json(ok_envelope(transition_payload(transition)))
        assert body == expected
    assert_both_forms(state)


@st.composite
def state_pairs(draw):
    pool = draw(view_pools)
    return draw(states(pool)), draw(states(pool))


@settings(max_examples=200, deadline=None)
@given(state_pairs())
def test_a_view_shared_between_states_encodes_alike_from_its_memo(pair):
    # The first state encodes the shared views; the second reads their
    # bodies from the memo, and so does the first when encoded again.
    first, second = pair
    for state in (first, second, first, second):
        assert_both_forms(state)
        body = canonical_json(ok_envelope(transition_payload(Transition(state))))
        assert body == dict_bytes(
            {"ok": True, "result": {"state": state.wire_dict(), "outcome": None}}
        )


@settings(max_examples=100, deadline=None)
@given(states(), st.text(min_size=1, max_size=10))
def test_create_body_equals_the_dict_encoding(state, name):
    expected = dict_bytes(
        {"ok": True, "result": {"name": name, "state": state.wire_dict()}}
    )
    assert canonical_json(ok_envelope(session_payload(name, state))) == expected


@settings(max_examples=100, deadline=None)
@given(states())
def test_a_response_state_is_not_a_save_file(state):
    # A back stack of headers cannot be restored: the typed error,
    # never a KeyError for the missing items.
    response = json.loads(b"".join(state.json_parts()))
    if not state.back_stack:
        assert SessionState.from_dict(response) == state
        return
    with pytest.raises(StateSerializationError, match="view header"):
        SessionState.from_dict(response)


def test_an_encoded_term_is_not_encoded_again(monkeypatch):
    items = [Resource(f"http://x.example/item{i}") for i in range(5)]
    view = ViewState.of_collection(items)
    state = SessionState(view=view, back_stack=(view, view), visits=(items[0],))
    calls = []
    original = serialize._fragment_of

    def counting(node):
        calls.append(node)
        return original(node)

    monkeypatch.setattr(serialize, "_fragment_of", counting)
    first = b"".join(state.json_parts())
    assert sorted(calls, key=lambda n: n.uri) == items  # once per term
    calls.clear()
    assert b"".join(state.json_parts()) == first
    assert SessionState(view=ViewState.of_item(items[2])).json_parts()
    assert calls == []
    assert serialize.node_json(items[2]) is serialize.node_json(items[2])
