"""The wire schema: canonical bytes, envelopes, status mapping."""

import json

import pytest

from repro.net.protocol import (
    BadRequest,
    ClientDisconnect,
    DeadlineExceeded,
    NotFound,
    PayloadTooLarge,
    ServerOverloaded,
    Spliced,
    canonical_json,
    error_envelope,
    error_payload,
    ok_envelope,
    status_for,
)
from repro.service.serialize import StateLoadError, StateSerializationError


class TestCanonicalJson:
    def test_keys_sorted_and_minimal(self):
        assert canonical_json({"b": 1, "a": [1, 2]}) == b'{"a":[1,2],"b":1}'

    def test_ascii_only(self):
        body = canonical_json({"t": "café"})
        assert body == b'{"t":"caf\\u00e9"}'
        assert body.decode("ascii")  # never raises

    def test_is_a_function_of_the_value(self):
        left = canonical_json({"x": 1.5, "y": None, "z": True})
        right = canonical_json(json.loads(left))
        assert left == right

    def test_spliced_parts_go_in_verbatim(self):
        payload = {"z": [Spliced([b'{"a"', b":1}"]), {}], "b": "\u00e9", "m": {}}
        plain = {"z": [{"a": 1}, {}], "b": "\u00e9", "m": {}}
        assert canonical_json(payload) == canonical_json(plain)
        assert canonical_json(payload) == b'{"b":"\\u00e9","m":{},"z":[{"a":1},{}]}'

    def test_unserializable_values_still_raise_type_error(self):
        with pytest.raises(TypeError):
            canonical_json({"a": object()})
        with pytest.raises(TypeError):
            canonical_json({"a": Spliced([b"1"]), "b": object()})


class TestEnvelopes:
    def test_ok_envelope(self):
        assert ok_envelope({"n": 1}) == {"ok": True, "result": {"n": 1}}

    def test_error_envelope_type_is_class_name(self):
        envelope = error_envelope(ValueError("nope"))
        assert envelope == {
            "ok": False,
            "error": {"type": "ValueError", "message": "nope"},
        }

    def test_keyerror_message_is_unwrapped(self):
        # str(KeyError("x")) is "'x'"; the envelope must not keep the quotes.
        payload = error_payload(KeyError("no session named 'a'"))
        assert payload["message"] == "no session named 'a'"


class TestStatusFor:
    @pytest.mark.parametrize(
        "error, status",
        [
            (BadRequest("x"), 400),
            (NotFound("x"), 404),
            (PayloadTooLarge("x"), 413),
            (ServerOverloaded("x"), 503),
            (DeadlineExceeded("x"), 504),
        ],
    )
    def test_net_errors_carry_their_status(self, error, status):
        assert status_for(error) == status

    @pytest.mark.parametrize(
        "error",
        [
            ValueError("v"),
            IndexError("i"),
            KeyError("k"),
            RuntimeError("r"),
            TypeError("t"),
            StateSerializationError("s"),
            StateLoadError("l"),
        ],
    )
    def test_service_exceptions_are_422(self, error):
        assert status_for(error) == 422

    def test_client_disconnect_is_never_a_real_status(self):
        assert ClientDisconnect("gone").status == 0
