"""Prompting, transport and record/replay for the two language-model experts.

One expert writes candidate priority expressions (generator), the other
reviews an evaluated rule against the population's best and worst members
and answers with a three-section critique (evaluator). A rule enters a
prompt as its record: any object with ``description``, ``source`` and
``fitness``, such as an evolution's ``RuleIndividual``. Prompt rendering is
pure: the same arguments always yield byte-identical text, and every request
is identified by a digest of (prompt, temperature) so a recorded cassette
replays a whole run deterministically with zero network traffic.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Sequence

from .expr import ACCESSORS
from .model import json_lines, read_json_lines, write_text

ENV_BASE_URL = "FAFSP_LLM_BASE_URL"
ENV_API_KEY = "FAFSP_LLM_API_KEY"
ENV_MODEL = "FAFSP_LLM_MODEL"


@dataclass(frozen=True)
class Operator:
    parents: int        # rules its prompt shows
    critique: bool      # its prompt carries the critique of the first parent
    instruction: str


OPERATORS = {
    "Init": Operator(1, True, "Please design a new algorithm guided by the provided "
                              "algorithm and the expert review of it."),
    "C1": Operator(2, True, "Please design a new algorithm by combining the "
                            "advantages of the two provided algorithms."),
    "C2": Operator(2, False, "Please help me create a new algorithm that is "
                             "completely different in form from the given one."),
    "M1": Operator(1, True, "Please improve the given algorithm based on the "
                            "suggested enhancements."),
    "M2": Operator(1, False, "Please identify the main algorithm parameters, then "
                             "create a new algorithm that has a different parameter "
                             "settings of the score function provided."),
}

GRAMMAR_TEXT = """\
A rule is ONE arithmetic expression; the feasible (job, machine) pair with
the LOWEST value is dispatched first. Allowed syntax: numbers, the accessors
below, + - * /, unary minus, parentheses, and the calls min(a,b,...),
max(a,b,...), abs(x), sqrt(x), exp(x), log(x), if(cond, then, else) where
cond compares two expressions with < <= > >= == !=. Division by zero, log of
a non-positive value and sqrt of a negative value evaluate to 0.

Accessors:
""" + "".join(f"  {name:9s} {doc}\n" for name, doc in ACCESSORS.items())


class TransportError(RuntimeError):
    pass


class CassetteFormatError(ValueError):
    """A cassette line that is not a record with a string digest and a
    string response."""


class ReplayMiss(KeyError):
    def __init__(self, digest: str):
        super().__init__(f"no unconsumed cassette record for digest {digest}")
        self.digest = digest

    def __str__(self) -> str:           # KeyError's str() quotes its message
        return self.args[0]


class MissingBlock(ValueError):
    def __init__(self, what: str):
        super().__init__(f"response is missing its {what} block")
        self.what = what


class MultipleBlocks(ValueError):
    pass


class MissingSection(ValueError):
    def __init__(self, section: str):
        super().__init__(f"critique is missing the '{section}' section")
        self.section = section


@dataclass(frozen=True)
class Critique:
    advantages: str
    limitations: str
    suggestions: str


def _rule_block(label: str, rule) -> str:
    return (f"{label}\n"
            f"  description: {rule.description}\n"
            f"  fitness (mean total tardiness, lower is better): {rule.fitness!r}\n"
            f"  expression: {rule.source}\n")


def render_evaluator_prompt(features: str, candidate, best, worst) -> str:
    """Review request for one evaluated rule, framed by the population
    extremes; ``features`` is the training-set summary text."""
    return (
        "You are a production-scheduling expert. The shop is a flexible "
        "assembly flow shop with kitting constraints: an assembly job may "
        "start only after every processing job of its product is finished, "
        "and an order is delivered only when all of its assembly jobs are "
        "finished. The objective is to minimize total order tardiness.\n\n"
        + GRAMMAR_TEXT
        + "\nShop-floor characteristics of the training instances:\n"
        + features
        + "\n\nRule under review:\n"
        + _rule_block("candidate:", candidate)
        + "\nPopulation context:\n"
        + _rule_block("best so far:", best)
        + _rule_block("worst so far:", worst)
        + "\nPlease evaluate the following heuristic rules based on the above "
          "information.\nAnswer with exactly three labeled sections:\n"
          "Advantages: <what the rule does well in this shop>\n"
          "Limitations: <where it is likely to lose performance>\n"
          "Suggestions: <concrete, targeted improvements>\n"
    )


def render_generator_prompt(operator: str, features: str, parents: Sequence,
                            critique: Critique | None = None) -> str:
    """Request for one new rule under an evolutionary operator (Init, C1,
    C2, M1 or M2); the critique is of the first parent."""
    op = OPERATORS.get(operator)
    if op is None:
        raise ValueError(f"unknown operator {operator!r}")
    if len(parents) != op.parents:
        raise ValueError(f"operator {operator} takes {op.parents} "
                         f"parent(s), got {len(parents)}")
    parts = [
        "You are an algorithm designer for online scheduling in a flexible "
        "assembly flow shop with kitting constraints (assembly waits for its "
        "full kit; an order is delivered when all its assembly jobs finish). "
        "You write priority rules that minimize total order tardiness.\n",
        GRAMMAR_TEXT,
        "\nShop-floor characteristics of the training instances:\n" + features + "\n",
    ]
    for i, parent in enumerate(parents, start=1):
        label = "provided algorithm:" if len(parents) == 1 else f"provided algorithm {i}:"
        parts.append("\n" + _rule_block(label, parent))
    if op.critique and critique is not None:
        parts.append("\nExpert review of the provided algorithm:\n"
                     f"Advantages: {critique.advantages}\n"
                     f"Limitations: {critique.limitations}\n"
                     f"Suggestions: {critique.suggestions}\n")
    parts.append("\nTask: " + op.instruction + "\n")
    parts.append(
        "\nAnswer in exactly this form:\n"
        "Description: <one or two sentences on the idea>\n"
        "```\n<one expression in the grammar above>\n```\n")
    return "".join(parts)


def request_digest(prompt: str, temperature: float) -> str:
    payload = f"{prompt}\x1e{temperature:.6f}".encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


# -- transports ----------------------------------------------------------------


#: most bytes of one reply body LiveTransport reads, after decoding
MAX_REPLY_BYTES = 4 * 1024 * 1024
_READ_BYTES = 64 * 1024


class LiveTransport:
    """Plain chat-completion client with bounded exponential-backoff retries.

    Each attempt reads its reply as it arrives and must finish within
    ``timeout`` seconds, which also bounds each connect and each read, and
    within MAX_REPLY_BYTES. Connection errors, a reply past either limit,
    HTTP 429 and 5xx are retried; any other 4xx and a reply without text
    content fail at once with TransportError."""

    def __init__(self, base_url: str, api_key: str, model: str,
                 max_attempts: int = 3, backoff: float = 1.0, timeout: float = 120.0):
        self.base_url = base_url.rstrip("/")
        self.api_key = api_key
        self.model = model
        self.max_attempts = max_attempts
        self.backoff = backoff
        self.timeout = timeout

    @classmethod
    def from_env(cls) -> "LiveTransport":
        missing = [v for v in (ENV_BASE_URL, ENV_API_KEY, ENV_MODEL) if not os.environ.get(v)]
        if missing:
            raise TransportError("missing environment variables: " + ", ".join(missing))
        return cls(os.environ[ENV_BASE_URL], os.environ[ENV_API_KEY], os.environ[ENV_MODEL])

    def send(self, prompt: str, temperature: float, operator: str = "") -> str:
        import requests
        import urllib3

        body = {"model": self.model,
                "messages": [{"role": "user", "content": prompt}],
                "temperature": temperature}
        last_error: Exception | None = None
        for attempt in range(self.max_attempts):
            if attempt:
                time.sleep(self.backoff * 2 ** (attempt - 1))
            deadline = time.monotonic() + self.timeout
            try:
                resp = requests.post(
                    self.base_url + "/chat/completions",
                    headers={"Authorization": f"Bearer {self.api_key}"},
                    json=body, timeout=self.timeout, stream=True)
                try:
                    reply = self._read_reply(resp, deadline)
                finally:
                    resp.close()
            except (requests.RequestException, urllib3.exceptions.HTTPError,
                    TransportError) as e:
                last_error = e
                continue
            if resp.status_code >= 400:
                error = TransportError(f"HTTP {resp.status_code}: "
                                       f"{reply[:200].decode('utf-8', 'replace')}")
                if resp.status_code == 429 or resp.status_code >= 500:
                    last_error = error
                    continue
                raise error
            return _message_content(reply)
        raise TransportError(f"request failed after {self.max_attempts} attempts: {last_error}")

    def _read_reply(self, resp, deadline: float) -> bytes:
        """The reply body, read as it arrives (each read returns what one
        network read brings); TransportError once it passes MAX_REPLY_BYTES
        or the ``time.monotonic()`` deadline."""
        chunks, size = [], 0
        while chunk := resp.raw.read1(_READ_BYTES, decode_content=True):
            size += len(chunk)
            if size > MAX_REPLY_BYTES:
                raise TransportError(f"reply longer than {MAX_REPLY_BYTES} bytes")
            if time.monotonic() > deadline:
                raise TransportError(f"reply not complete within {self.timeout} s")
            chunks.append(chunk)
        return b"".join(chunks)


def _message_content(reply: bytes) -> str:
    """Text of a chat-completion reply body; TransportError if it has none."""
    try:
        content = json.loads(reply)["choices"][0]["message"]["content"]
    except (ValueError, LookupError, TypeError) as e:   # bad JSON or shape
        raise TransportError(f"malformed chat-completion reply: {e!r}") from None
    if not isinstance(content, str):
        raise TransportError(f"reply content is {type(content).__name__}, not text")
    return content


class ScriptedTransport:
    """Deterministic canned responses for offline runs and tests."""

    def __init__(self, responses: Sequence[str] | Callable[[str, float, str], str]):
        self._fn = responses if callable(responses) else None
        self._queue = None if callable(responses) else deque(responses)

    def send(self, prompt: str, temperature: float, operator: str = "") -> str:
        if self._fn is not None:
            return self._fn(prompt, temperature, operator)
        if not self._queue:
            raise TransportError("scripted transport ran out of responses")
        return self._queue.popleft()


class RecordingTransport:
    """Pass-through that appends each exchange, prompt included, to a
    cassette file as its reply arrives, so a run cut short keeps them all."""

    def __init__(self, inner, cassette_path):
        self.inner = inner
        self.cassette_path = cassette_path

    def send(self, prompt: str, temperature: float, operator: str = "") -> str:
        response = self.inner.send(prompt, temperature, operator)
        write_text(self.cassette_path, json_lines([{
            "digest": request_digest(prompt, temperature), "operator": operator,
            "temperature": f"{temperature:.6f}", "prompt": prompt,
            "response": response}]), append=True)
        return response


class ReplayTransport:
    """Serves recorded responses by digest; consumes one record per request."""

    def __init__(self, cassette_path):
        self._by_digest: dict[str, deque[str]] = {}
        for rec in load_cassette(cassette_path):
            self._by_digest.setdefault(rec["digest"], deque()).append(rec["response"])

    def send(self, prompt: str, temperature: float, operator: str = "") -> str:
        digest = request_digest(prompt, temperature)
        queue = self._by_digest.get(digest)
        if not queue:
            raise ReplayMiss(digest)
        return queue.popleft()


def load_cassette(path) -> list[dict]:
    """Records of a cassette file, one JSON object per non-blank line; raises
    CassetteFormatError naming the first malformed line, or naming the file
    when it is not UTF-8 text."""
    label = f"cassette {path}"
    records = []
    for ln, rec in read_json_lines(path, CassetteFormatError, label):
        for key in ("digest", "response"):
            if not isinstance(rec.get(key), str):
                raise CassetteFormatError(f"{label} line {ln}: {key!r} is not a string")
        records.append(rec)
    return records


# -- response extraction -------------------------------------------------------

_FENCE_RE = re.compile(r"```[ \t]*[A-Za-z0-9_+-]*[ \t]*\n?(.*?)```", re.S)
_DESC_RE = re.compile(r"^[ \t]*description[ \t]*:[ \t]*(.+)$", re.I | re.M)


def extract_individual(response: str) -> tuple[str, str]:
    """(description, expression source) from a generator response."""
    blocks = _FENCE_RE.findall(response)
    if not blocks:
        raise MissingBlock("expression")
    if len(blocks) > 1:
        raise MultipleBlocks(f"expected one fenced block, found {len(blocks)}")
    source = " ".join(blocks[0].split())
    if not source:
        raise MissingBlock("expression")
    m = _DESC_RE.search(response)
    if m is None:
        raise MissingBlock("description")
    return m.group(1).strip(), source


_SECTIONS = ("advantages", "limitations", "suggestions")
_SECTION_RE = re.compile(
    r"^[ \t]*(advantages|limitations|suggestions)[ \t]*:([^\n]*(?:\n(?![ \t]*"
    r"(?:advantages|limitations|suggestions)[ \t]*:).*)*)",
    re.I | re.M)


def extract_critique(response: str) -> Critique:
    """Parse the three labeled sections of an evaluator response."""
    found: dict[str, str] = {}
    for m in _SECTION_RE.finditer(response):
        name = m.group(1).lower()
        if name not in found:
            found[name] = " ".join(m.group(2).split())
    for name in _SECTIONS:
        if name not in found:
            raise MissingSection(name)
    return Critique(found["advantages"], found["limitations"], found["suggestions"])
