"""Prompt rendering, transports, cassette record/replay, extraction."""

from pathlib import Path

import pytest

from fafsp.llm import (OPERATOR_INSTRUCTIONS, PARENT_COUNT, Critique,
                       LiveTransport, MissingBlock, MissingSection,
                       MultipleBlocks, ParentRule, PromptBundle,
                       RecordingTransport, ReplayMiss, ReplayTransport,
                       ScriptedTransport, TransportError, extract_critique,
                       extract_individual, load_cassette, render_evaluator_prompt,
                       render_generator_prompt, request_digest)

DATA = Path(__file__).parent / "data"

FEATURES = ("instances: 2; orders per instance: 4.000; jobs per order: 8.500\n"
            "machines: 1.000 assembly, 2.000 processing\n"
            "flexibility (share of same-stage machines a job can use): 0.800\n"
            "processing time per job: mean 1.250, sd 0.400 minutes\n"
            "mean inter-arrival gap: 5.500 minutes\n"
            "due-date tightness (due - arrival over order lower bound): 0.820\n"
            "load factor: 2.000")
ELITE = ParentRule("Earliest due date first; ties go to the machine that "
                   "finishes the job soonest.",
                   "due*1000000 + max(avail, now) + setup + pt", 123.456)
OTHER = ParentRule("Blend of slack and congestion.", "slack + 0.5*queue*pt", 150.75)
CRITIQUE = Critique("Focuses on urgent orders.",
                    "Ignores machine congestion and setup families.",
                    "Weight the queue length and discount distant due dates.")


def eval_bundle():
    return PromptBundle(role="Evaluator", operator="Eval", features=FEATURES,
                        parents=(ELITE,), temperature=0.3, best=ELITE, worst=OTHER)


def gen_bundle(op, critique=CRITIQUE):
    parents = (ELITE,) if PARENT_COUNT[op] == 1 else (ELITE, OTHER)
    return PromptBundle(role="Generator", operator=op, features=FEATURES,
                        parents=parents, temperature=0.8, critique=critique)


def test_rendering_is_deterministic():
    assert render_evaluator_prompt(eval_bundle()) == render_evaluator_prompt(eval_bundle())
    assert render_generator_prompt(gen_bundle("C1")) == render_generator_prompt(gen_bundle("C1"))


def test_evaluator_prompt_contains_all_fitness_values():
    text = render_evaluator_prompt(eval_bundle())
    assert repr(123.456) in text and repr(150.75) in text
    assert "evaluate the following heuristic rules based on the above" in text


def test_evaluator_prompt_golden():
    assert render_evaluator_prompt(eval_bundle()) == (DATA / "evaluator_prompt.txt").read_text()


@pytest.mark.parametrize("op", sorted(OPERATOR_INSTRUCTIONS))
def test_generator_prompt_golden(op):
    assert render_generator_prompt(gen_bundle(op)) == (DATA / f"generator_{op}.txt").read_text()


@pytest.mark.parametrize("op", sorted(OPERATOR_INSTRUCTIONS))
def test_generator_prompt_embeds_instruction_and_grammar(op):
    text = render_generator_prompt(gen_bundle(op))
    assert OPERATOR_INSTRUCTIONS[op] in text
    assert "ONE arithmetic expression" in text       # names the grammar
    assert "def " not in text                        # never a host-language function


def test_critique_included_only_where_required():
    assert CRITIQUE.suggestions in render_generator_prompt(gen_bundle("C1"))
    assert CRITIQUE.suggestions in render_generator_prompt(gen_bundle("M1"))
    assert CRITIQUE.suggestions not in render_generator_prompt(gen_bundle("C2"))
    assert CRITIQUE.suggestions not in render_generator_prompt(gen_bundle("M2"))


def test_parent_count_checked():
    bad = PromptBundle(role="Generator", operator="C1", features=FEATURES,
                       parents=(ELITE,), temperature=0.8)
    with pytest.raises(ValueError, match="parent"):
        render_generator_prompt(bad)


def test_role_mismatch_rejected():
    with pytest.raises(ValueError):
        render_generator_prompt(eval_bundle())
    with pytest.raises(ValueError):
        render_evaluator_prompt(gen_bundle("C1"))


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


def test_cassette_records_structure(tmp_path):
    cassette = tmp_path / "c.jsonl"
    RecordingTransport(ScriptedTransport(["resp"]), cassette).send("p", 0.75, "C2")
    rec = load_cassette(cassette)[0]
    assert rec["digest"] == request_digest("p", 0.75)
    assert rec["operator"] == "C2"
    assert rec["temperature"] == "0.750000"
    assert rec["response"] == "resp"


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


def test_live_transport_retries_then_succeeds(monkeypatch):
    import requests

    calls = []

    class FakeResponse:
        def __init__(self, status, content=""):
            self.status_code = status
            self.text = "err"
            self._content = content

        def raise_for_status(self):
            pass

        def json(self):
            return {"choices": [{"message": {"content": self._content}}]}

    def fake_post(url, headers=None, json=None, timeout=None):
        calls.append(json["temperature"])
        if len(calls) < 3:
            return FakeResponse(500)
        return FakeResponse(200, "answer")

    monkeypatch.setattr(requests, "post", fake_post)
    import fafsp.llm as llm_mod
    monkeypatch.setattr(llm_mod.time, "sleep", lambda s: None)
    t = LiveTransport("http://example.test/v1", "key", "model")
    assert t.send("p", 0.4) == "answer"
    assert len(calls) == 3


def test_live_transport_exhausts_retries(monkeypatch):
    import requests

    def fake_post(url, headers=None, json=None, timeout=None):
        raise requests.ConnectionError("refused")

    monkeypatch.setattr(requests, "post", fake_post)
    import fafsp.llm as llm_mod
    monkeypatch.setattr(llm_mod.time, "sleep", lambda s: None)
    t = LiveTransport("http://example.test/v1", "key", "model")
    with pytest.raises(TransportError, match="3 attempts"):
        t.send("p", 0.4)


class StubResponse:
    """requests.Response stand-in: a status code and a JSON body (or a
    decode error)."""

    def __init__(self, status, body):
        self.status_code = status
        self.text = "stub"
        self._body = body

    def json(self):
        if isinstance(self._body, Exception):
            raise self._body
        return self._body


def _stub_transport(monkeypatch, status, body):
    import requests

    calls = []

    def fake_post(url, headers=None, json=None, timeout=None):
        calls.append(url)
        return StubResponse(status, body)

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
