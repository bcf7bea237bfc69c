"""Prompt rendering, transports, cassette record/replay, extraction."""

import itertools
import json
from collections.abc import Iterator
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

import fafsp.llm as llm
from fafsp.llm import (OPERATOR_INSTRUCTIONS, PARENT_COUNT, CassetteFormatError,
                       Critique, LiveTransport, MissingBlock, MissingSection,
                       MultipleBlocks, RecordingTransport, ReplayMiss, ReplayTransport,
                       ScriptedTransport, TransportError, extract_critique,
                       extract_individual, load_cassette, render_evaluator_prompt,
                       render_generator_prompt, request_digest)
from fafsp.evolve import RuleIndividual, _rejection
from fafsp.expr import ACCESSORS, FUNCTIONS
from fafsp.rules import RuleSpec

DATA = Path(__file__).parent / "data"

FEATURES = ("instances: 2; orders per instance: 4.000; jobs per order: 8.500\n"
            "machines: 1.000 assembly, 2.000 processing\n"
            "flexibility (share of same-stage machines a job can use): 0.800\n"
            "processing time per job: mean 1.250, sd 0.400 minutes\n"
            "mean inter-arrival gap: 5.500 minutes\n"
            "due-date tightness (due - arrival over order lower bound): 0.820\n"
            "load factor: 2.000")
ELITE = RuleIndividual("Earliest due date first; ties go to the machine that "
                       "finishes the job soonest.",
                       RuleSpec.expression("due*1000000 + max(avail, now) + setup + pt"),
                       123.456)
OTHER = RuleIndividual("Blend of slack and congestion.",
                       RuleSpec.expression("slack + 0.5*queue*pt"), 150.75)
CRITIQUE = Critique("Focuses on urgent orders.",
                    "Ignores machine congestion and setup families.",
                    "Weight the queue length and discount distant due dates.")


def eval_prompt():
    return render_evaluator_prompt(FEATURES, ELITE, ELITE, OTHER)


def gen_prompt(op):
    parents = (ELITE,) if PARENT_COUNT[op] == 1 else (ELITE, OTHER)
    return render_generator_prompt(op, FEATURES, parents, CRITIQUE)


def test_rendering_is_deterministic():
    assert eval_prompt() == eval_prompt()
    assert gen_prompt("C1") == gen_prompt("C1")


def test_evaluator_prompt_contains_all_fitness_values():
    text = eval_prompt()
    assert repr(123.456) in text and repr(150.75) in text
    assert "evaluate the following heuristic rules based on the above" in text


def test_evaluator_prompt_golden():
    assert eval_prompt() == (DATA / "evaluator_prompt.txt").read_text()


@pytest.mark.parametrize("op", sorted(OPERATOR_INSTRUCTIONS))
def test_generator_prompt_golden(op):
    assert gen_prompt(op) == (DATA / f"generator_{op}.txt").read_text()


@pytest.mark.parametrize("op", sorted(OPERATOR_INSTRUCTIONS))
def test_generator_prompt_embeds_instruction_and_grammar(op):
    text = gen_prompt(op)
    assert OPERATOR_INSTRUCTIONS[op] in text
    assert "ONE arithmetic expression" in text       # names the grammar
    assert "def " not in text                        # never a host-language function


def test_critique_included_only_where_required():
    assert CRITIQUE.suggestions in gen_prompt("C1")
    assert CRITIQUE.suggestions in gen_prompt("M1")
    assert CRITIQUE.suggestions not in gen_prompt("C2")
    assert CRITIQUE.suggestions not in gen_prompt("M2")


def test_parent_count_checked():
    with pytest.raises(ValueError, match="parent"):
        render_generator_prompt("C1", FEATURES, (ELITE,))


def test_unknown_operator_rejected():
    with pytest.raises(ValueError, match="unknown operator 'Eval'"):
        render_generator_prompt("Eval", FEATURES, (ELITE,))


def test_digest_is_stable():
    d = request_digest("hello", 0.3)
    assert d == request_digest("hello", 0.3)
    assert d != request_digest("hello", 0.4)
    assert d != request_digest("hello!", 0.3)
    assert len(d) == 64 and int(d, 16) >= 0


def test_record_then_replay_round_trip(tmp_path):
    cassette = tmp_path / "c.jsonl"
    rec = RecordingTransport(ScriptedTransport(["alpha", "beta", "gamma"]), cassette)
    prompts = [("p1", 0.3), ("p2", 0.5), ("p1", 0.3)]      # p1 asked twice
    live_answers = [rec.send(p, t, "Init") for p, t in prompts]
    assert live_answers == ["alpha", "beta", "gamma"]

    rep = ReplayTransport(cassette)
    replayed = [rep.send(p, t, "Init") for p, t in prompts]
    assert replayed == live_answers                        # consumed in order


def test_replay_miss_names_digest(tmp_path):
    cassette = tmp_path / "c.jsonl"
    RecordingTransport(ScriptedTransport(["x"]), cassette).send("p", 0.3)
    rep = ReplayTransport(cassette)
    with pytest.raises(ReplayMiss) as e:
        rep.send("unseen prompt", 0.3)
    assert e.value.digest == request_digest("unseen prompt", 0.3)
    assert isinstance(e.value, KeyError)
    assert str(e.value) == f"no unconsumed cassette record for digest {e.value.digest}"


@pytest.mark.parametrize("line, problem", [
    ('{"x": 1}', "'digest' is not a string"),
    ('{"digest": "%s"}' % ("0" * 64), "'response' is not a string"),
    ('{"digest": "%s", "response": 7}' % ("0" * 64), "'response' is not a string"),
    ('{"digest": null, "response": "r"}', "'digest' is not a string"),
    ('["digest", "response"]', "not a JSON object"),
    ('"text"', "not a JSON object"),
    ('{"digest": ', "Expecting value"),
    pytest.param("[" * 100_000, ": JSON nested too deep", id="too-deep"),
])
def test_malformed_cassette_line_is_rejected_at_load(tmp_path, line, problem):
    cassette = tmp_path / "c.jsonl"
    RecordingTransport(ScriptedTransport(["x"]), cassette).send("p", 0.3)
    with cassette.open("a", encoding="utf-8") as fh:
        fh.write("\n" + line + "\n")        # a blank line does not count
    with pytest.raises(CassetteFormatError, match="line 3") as e:
        ReplayTransport(cassette)
    assert problem in str(e.value)
    assert isinstance(e.value, ValueError)


def test_line_separators_inside_cassette_strings_keep_line_numbers(tmp_path):
    # U+2028 and U+0085 end a line for str.splitlines() but not for a file
    cassette = tmp_path / "c.jsonl"
    records = [{"digest": "0" * 64, "response": "Description: a\u2028b\n```\ndue\n```"},
               {"digest": "1" * 64, "response": "c\x85d"}]
    cassette.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records),
                        encoding="utf-8")
    assert load_cassette(cassette) == records
    with cassette.open("a", encoding="utf-8") as fh:
        fh.write('{"x": 1}\n')
    with pytest.raises(CassetteFormatError) as e:
        load_cassette(cassette)
    assert str(e.value) == f"cassette {cassette} line 3: 'digest' is not a string"


def test_non_utf8_cassette_is_rejected_naming_the_file(tmp_path):
    cassette = tmp_path / "c.jsonl"
    cassette.write_bytes(b"\xff\xfe{}\n")
    with pytest.raises(CassetteFormatError) as e:
        load_cassette(cassette)
    assert str(e.value).startswith(f"cassette {cassette}: not UTF-8 text (")


def test_cassette_records_structure(tmp_path):
    cassette = tmp_path / "c.jsonl"
    RecordingTransport(ScriptedTransport(["resp"]), cassette).send("p", 0.75, "C2")
    rec = load_cassette(cassette)[0]
    assert rec["digest"] == request_digest("p", 0.75)
    assert rec["operator"] == "C2"
    assert rec["temperature"] == "0.750000"
    assert rec["prompt"] == "p"
    assert rec["response"] == "resp"
    assert list(rec) == sorted(rec)


def test_extract_individual_well_formed():
    text = "Description: urgency first.\n```\ndue - now + pt\n```\n"
    desc, src = extract_individual(text)
    assert desc == "urgency first."
    assert src == "due - now + pt"


def test_extract_individual_joins_multiline_expression():
    text = "Description: d.\n```\ndue\n  + pt\n```"
    assert extract_individual(text)[1] == "due + pt"


def test_extract_individual_errors():
    with pytest.raises(MissingBlock):
        extract_individual("just prose, no code")
    with pytest.raises(MultipleBlocks):
        extract_individual("Description: d\n```\na\n```\n```\nb\n```")
    with pytest.raises(MissingBlock, match="description"):
        extract_individual("```\ndue\n```")


def test_extract_critique_well_formed():
    text = ("Some preamble.\nAdvantages: quick to react.\n  spans lines too\n"
            "Limitations: myopic.\nSuggestions: add a horizon.\n")
    c = extract_critique(text)
    assert c.advantages == "quick to react. spans lines too"
    assert c.limitations == "myopic."
    assert c.suggestions == "add a horizon."


def test_extract_critique_missing_section():
    with pytest.raises(MissingSection) as e:
        extract_critique("Advantages: a\nLimitations: b\n")
    assert e.value.section == "suggestions"


class StubBody:
    """``requests.Response.raw`` stand-in: ``read1`` returns the next chunk,
    then b"" at the end of the body."""

    def __init__(self, chunks):
        self._chunks = iter(chunks)

    def read1(self, amt, decode_content=None):
        chunk = next(self._chunks, b"")
        assert len(chunk) <= amt
        return chunk


class StubResponse:
    """requests.Response stand-in: a status code and a streamed body, the
    JSON of ``body`` (bytes that are not JSON for an exception) or, for an
    iterable of bytes, its chunks."""

    def __init__(self, status, body):
        self.status_code = status
        if isinstance(body, Exception):
            body = [b"not JSON"]
        elif not isinstance(body, Iterator):
            body = [json.dumps(body).encode()]
        self.raw = StubBody(body)
        self.closed = False

    def close(self):
        self.closed = True


def _chat_reply(content):
    return {"choices": [{"message": {"content": content}}]}


def test_live_transport_retries_then_succeeds(monkeypatch):
    import requests

    calls = []

    def fake_post(url, headers=None, json=None, timeout=None, stream=False):
        assert stream
        calls.append(json["temperature"])
        if len(calls) < 3:
            return StubResponse(500, "err")
        return StubResponse(200, _chat_reply("answer"))

    monkeypatch.setattr(requests, "post", fake_post)
    monkeypatch.setattr(llm.time, "sleep", lambda s: None)
    t = LiveTransport("http://example.test/v1", "key", "model")
    assert t.send("p", 0.4) == "answer"
    assert len(calls) == 3


def test_live_transport_exhausts_retries(monkeypatch):
    import requests

    def fake_post(url, headers=None, json=None, timeout=None, stream=False):
        raise requests.ConnectionError("refused")

    monkeypatch.setattr(requests, "post", fake_post)
    monkeypatch.setattr(llm.time, "sleep", lambda s: None)
    t = LiveTransport("http://example.test/v1", "key", "model")
    with pytest.raises(TransportError, match="3 attempts"):
        t.send("p", 0.4)


def _stub_transport(monkeypatch, status, body):
    """A LiveTransport whose every post is answered by StubResponse(status,
    body()) when ``body`` is callable, else by StubResponse(status, body)."""
    import requests

    calls = []

    def fake_post(url, headers=None, json=None, timeout=None, stream=False):
        assert stream
        calls.append(StubResponse(status, body() if callable(body) else body))
        return calls[-1]

    monkeypatch.setattr(requests, "post", fake_post)
    return LiveTransport("http://example.test/v1", "key", "model", backoff=0), calls


@pytest.mark.parametrize("status", [400, 401, 403, 404, 422])
def test_live_transport_client_error_is_final(monkeypatch, status):
    t, calls = _stub_transport(monkeypatch, status, {})
    with pytest.raises(TransportError, match=f"HTTP {status}"):
        t.send("p", 0.4)
    assert len(calls) == 1


def test_live_transport_retries_rate_limit(monkeypatch):
    t, calls = _stub_transport(monkeypatch, 429, {})
    with pytest.raises(TransportError, match="3 attempts"):
        t.send("p", 0.4)
    assert len(calls) == 3


@pytest.mark.parametrize("body", [
    {}, {"choices": []}, {"choices": None}, {"choices": [None]},
    {"choices": [{"message": {}}]}, {"choices": [{"message": {"content": None}}]},
    {"choices": [{"message": {"content": 7}}]}, [], ValueError("not JSON"),
])
def test_live_transport_reply_without_text_is_a_transport_error(monkeypatch, body):
    t, calls = _stub_transport(monkeypatch, 200, body)
    with pytest.raises(TransportError):
        t.send("p", 0.4)
    assert len(calls) == 1


def test_live_transport_reads_a_reply_in_chunks(monkeypatch):
    text = json.dumps(_chat_reply("é" * 100), ensure_ascii=False).encode()
    cut = text.index("é".encode()) + 1      # inside a two-byte character
    t, calls = _stub_transport(monkeypatch, 200, lambda: iter([text[:cut], text[cut:]]))
    assert t.send("p", 0.4) == "é" * 100
    assert len(calls) == 1 and calls[0].closed


def test_live_transport_refuses_a_reply_that_never_ends(monkeypatch):
    chunk = b" " * llm._READ_BYTES
    t, calls = _stub_transport(monkeypatch, 200, lambda: itertools.repeat(chunk))
    with pytest.raises(TransportError, match=f"3 attempts: reply longer than "
                                             f"{llm.MAX_REPLY_BYTES} bytes"):
        t.send("p", 0.4)
    assert len(calls) == 3 and all(r.closed for r in calls)


def test_live_transport_refuses_a_reply_that_trickles_past_the_deadline(monkeypatch):
    now = [0.0]

    def trickle():                          # a byte a second, without end
        while True:
            now[0] += 1.0
            yield b" "

    monkeypatch.setattr(llm.time, "monotonic", lambda: now[0])
    t, calls = _stub_transport(monkeypatch, 200, trickle)
    t.timeout = 30.0
    with pytest.raises(TransportError, match=r"3 attempts: reply not complete within 30.0 s"):
        t.send("p", 0.4)
    assert len(calls) == 3 and all(r.closed for r in calls)
    assert now[0] == 3 * 31                 # each attempt stops at its own deadline


def test_live_transport_limits_hold_for_an_error_reply(monkeypatch):
    # the body of a retried HTTP error is read under the same cap
    t, calls = _stub_transport(monkeypatch, 503, lambda: itertools.repeat(b"x" * llm._READ_BYTES))
    with pytest.raises(TransportError, match="reply longer than"):
        t.send("p", 0.4)
    assert len(calls) == 3


def test_live_transport_from_env_requires_vars(monkeypatch):
    for var in ("FAFSP_LLM_BASE_URL", "FAFSP_LLM_API_KEY", "FAFSP_LLM_MODEL"):
        monkeypatch.delenv(var, raising=False)
    with pytest.raises(TransportError, match="FAFSP_LLM_BASE_URL"):
        LiveTransport.from_env()


def test_scripted_transport_exhaustion():
    t = ScriptedTransport(["only"])
    t.send("a", 0.1)
    with pytest.raises(TransportError):
        t.send("b", 0.1)


# -- hostile replies and cassettes -------------------------------------------------

#: operands of the grammar, near misses and junk
OPERANDS = st.sampled_from([
    *ACCESSORS, "0", "2.5", "1e999", "exp(exp(due))", "log(0)", "min(pt, due, 3)",
    "if(pt < due, pt, due)", "max(pt)", "due < pt", "foo", "(" * 120 + "due" + ")" * 120,
    "+".join(["due"] * 300), "(", ")", ",", "", "due due", "$", "\u00e9"])
EXPRESSIONS = st.builds(lambda first, rest: first + "".join(f" {op} {x}" for op, x in rest),
                        OPERANDS, st.lists(st.tuples(st.sampled_from("+-*/"), OPERANDS),
                                           max_size=3))
#: generator replies: an optional description line, fenced blocks (mostly
#: one) and free text, in the reply format's order
REPLIES = st.builds(
    lambda head, blocks, tail: head + "".join(f"```{tag}\n{body}\n```\n" for tag, body in blocks)
    + tail,
    st.sampled_from(["Description: d\n", "description: d\n", "", "description:"]),
    st.lists(st.tuples(st.sampled_from(["", "python"]), EXPRESSIONS), min_size=1, max_size=1)
    | st.lists(st.tuples(st.just(""), EXPRESSIONS), max_size=2),
    st.text(max_size=10))
#: evaluator replies: section labels and free text
CRITIQUES = st.lists(st.sampled_from(["Advantages:", "limitations :", "Suggestions:", "\n"])
                     | st.text(max_size=8), max_size=12).map(" ".join)


@seed(13)
@settings(max_examples=600, deadline=None, database=None)
@given(reply=REPLIES)
def test_any_generator_reply_is_a_named_rejection_or_a_rule(reply):
    try:
        _, source = extract_individual(reply)
        RuleSpec.expression(source)
    except Exception as error:
        assert _rejection(error) != "engine_error", repr(error)


@seed(13)
@settings(max_examples=500, deadline=None, database=None)
@given(reply=CRITIQUES)
def test_any_evaluator_reply_is_a_critique_or_missing_section(reply):
    try:
        assert isinstance(extract_critique(reply), Critique)
    except MissingSection:
        pass


RECORD = json.dumps({"digest": "0" * 64, "response": "r"})
LINES = (st.sampled_from([RECORD, "{}", "[]", "null", '{"digest": 1}', "[" * 3000,
                          "1" * 5000, "{\"digest\": ", "\ufeff" + RECORD]).map(str.encode)
         | st.binary(max_size=30) | st.text(max_size=30).map(str.encode))


@seed(13)
@settings(max_examples=300, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lines=st.lists(LINES, max_size=5))
def test_junk_cassette_lines_raise_only_cassette_format_errors(tmp_path, lines):
    cassette = tmp_path / "c.jsonl"
    cassette.write_bytes(b"\n".join(lines))
    try:
        records = load_cassette(cassette)
    except CassetteFormatError:
        return
    assert all(isinstance(r["digest"], str) and isinstance(r["response"], str)
               for r in records)
