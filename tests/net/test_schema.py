"""The v1 wire schema: strict decoding, lossless tree round-trips."""

from __future__ import annotations

import pytest

from repro.core.banks import BANKS
from repro.errors import NetError
from repro.net.schema import (
    decode_request,
    parse_sse,
    sse_event,
    tree_from_wire,
    tree_to_wire,
)


class TestDecodeRequest:
    def test_defaults(self):
        wire = decode_request({"query": "soumen sunita"})
        assert wire.query == "soumen sunita"
        assert wire.k == 10 and wire.offset == 0
        assert wire.consistency == "eventual"
        assert wire.trace_id is None

    def test_all_fields(self):
        wire = decode_request(
            {
                "query": "mohan",
                "k": 3,
                "offset": 2,
                "consistency": "bounded_staleness",
                "staleness_bound": 1,
                "deadline": 0.5,
                "trace_id": "abc",
            }
        )
        assert (wire.k, wire.offset) == (3, 2)
        assert wire.consistency == "bounded_staleness"
        assert wire.staleness_bound == 1
        assert wire.deadline == 0.5
        assert wire.trace_id == "abc"

    def test_unknown_fields_are_refused(self):
        with pytest.raises(NetError) as caught:
            decode_request({"query": "x", "kk": 5})
        assert caught.value.status == 400
        assert "kk" in str(caught.value)

    @pytest.mark.parametrize(
        "payload",
        [
            [],
            {},
            {"query": ""},
            {"query": "   "},
            {"query": 7},
            {"query": "x", "k": 0},
            {"query": "x", "k": "many"},
            {"query": "x", "offset": -1},
            {"query": "x", "staleness_bound": "soon"},
            {"query": "x", "deadline": "never"},
            {"query": "x", "trace_id": 9},
        ],
    )
    def test_malformed_payloads_are_400(self, payload):
        with pytest.raises(NetError) as caught:
            decode_request(payload)
        assert caught.value.status == 400


class TestTreeRoundTrip:
    def test_answer_tree_survives_the_wire(self, figure1_db):
        answers = BANKS(figure1_db).search("soumen sunita", max_results=3)
        assert answers
        for answer in answers:
            tree = answer.tree
            clone = tree_from_wire(tree_to_wire(answer.tree))
            assert clone.root == tree.root
            assert clone.parent == tree.parent
            assert clone.keyword_nodes == tree.keyword_nodes
            assert clone.weight == pytest.approx(tree.weight)
            # The wire payload itself is plain JSON data.
            import json

            json.dumps(tree_to_wire(tree))

    def test_malformed_wire_trees_are_refused(self):
        with pytest.raises(NetError):
            tree_from_wire({"edges": []})
        with pytest.raises(NetError):
            tree_from_wire({"root": ["t", 0], "edges": [["bad"]]})
        with pytest.raises(NetError):
            tree_from_wire({"root": "not-a-pair"})


class TestSse:
    def test_frame_format_and_parse_inverse(self):
        frame = sse_event("answer", {"rank": 0, "relevance": 0.5})
        text = frame.decode("utf-8")
        assert text.startswith("event: answer\n")
        assert text.endswith("\n\n")
        events = list(parse_sse(text.splitlines()))
        assert events == [("answer", {"rank": 0, "relevance": 0.5})]

    def test_parse_multiple_frames(self):
        stream = (
            sse_event("answer", {"rank": 0})
            + sse_event("answer", {"rank": 1})
            + sse_event("result", {"total": 2})
        ).decode("utf-8")
        events = list(parse_sse(stream.splitlines()))
        assert [name for name, _ in events] == ["answer", "answer", "result"]
        assert events[-1][1] == {"total": 2}

    def test_parse_yields_each_event_as_its_frame_ends(self):
        stream = sse_event("answer", {"rank": 0}) + sse_event("result", {})
        consumed = []

        def lines():
            for line in stream.decode("utf-8").splitlines():
                consumed.append(line)
                yield line

        events = parse_sse(lines())
        assert next(events) == ("answer", {"rank": 0})
        assert consumed == ["event: answer", 'data: {"rank": 0}', ""]
        # A frame the input ends inside is not dispatched.
        assert list(parse_sse(["event: result", "data: {}"])) == []
