import ast
import hashlib
import json
import math
import re
import struct
import threading
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

import agentmeter
from agentmeter.backend import (
    COMPLETION_RETRIES,
    BackendError,
    Message,
    ModelRequest,
    OpenAIBackend,
    Purpose,
    ScriptEntry,
    ScriptExhaustedError,
    ScriptedBackend,
    TokenUsage,
    estimate_prompt_tokens,
    estimate_tokens,
)
from agentmeter.config import ModelPricing, PricingTable
from agentmeter.session import RunSession
from agentmeter.trace import TraceWriter

from conftest import trace_lines


def req(content="hello", purpose=Purpose.ACTOR, temperature=0.0):
    return ModelRequest(
        model_id="gpt-4.1",
        messages=(Message("system", "sys"), Message("user", content)),
        purpose=purpose,
        temperature=temperature,
    )


# -- request/usage plumbing --------------------------------------------------


def test_request_requires_messages():
    with pytest.raises(ValueError):
        ModelRequest(model_id="m", messages=(), purpose=Purpose.ACTOR)


def test_request_first_role_must_open_conversation():
    with pytest.raises(ValueError):
        ModelRequest(
            model_id="m",
            messages=(Message("assistant", "hi"),),
            purpose=Purpose.ACTOR,
        )


def test_usage_rejects_negative_counts():
    with pytest.raises(ValueError):
        TokenUsage(-1, 0)


def test_estimate_tokens_is_byte_quarter_ceiling():
    assert estimate_tokens("") == 0
    assert estimate_tokens("abcd") == 1
    assert estimate_tokens("abcde") == 2


@given(st.text(max_size=400))
def test_estimate_tokens_matches_formula(text):
    assert estimate_tokens(text) == math.ceil(len(text.encode("utf-8")) / 4)


def test_estimate_prompt_tokens_sums_messages():
    msgs = (Message("system", "abcd"), Message("user", "abcd"))
    assert estimate_prompt_tokens(msgs) == 2


# -- scripted backend --------------------------------------------------------


def test_script_first_match_wins_and_times_decrement():
    backend = ScriptedBackend(
        [
            ScriptEntry(Purpose.ACTOR, "first", times=1),
            ScriptEntry(Purpose.ACTOR, "second", times=1),
        ]
    )
    backend.start_run("r")
    assert backend.complete(req()).text == "first"
    assert backend.complete(req()).text == "second"
    with pytest.raises(ScriptExhaustedError):
        backend.complete(req())


def test_script_zero_times_means_unlimited():
    backend = ScriptedBackend([ScriptEntry(Purpose.ACTOR, "always", times=0)])
    backend.start_run("r")
    for _ in range(20):
        assert backend.complete(req()).text == "always"


def test_script_match_is_substring_of_last_message():
    backend = ScriptedBackend(
        [
            ScriptEntry(Purpose.ACTOR, "a-answer", match="alpha"),
            ScriptEntry(Purpose.ACTOR, "b-answer", match="beta"),
        ]
    )
    backend.start_run("r")
    assert backend.complete(req("about beta things")).text == "b-answer"
    assert backend.complete(req("about alpha things")).text == "a-answer"


def test_script_purpose_must_agree():
    backend = ScriptedBackend([ScriptEntry(Purpose.PLANNER, "plan")])
    backend.start_run("r")
    with pytest.raises(ScriptExhaustedError):
        backend.complete(req(purpose=Purpose.ACTOR))


def test_script_counts_reset_per_run():
    backend = ScriptedBackend([ScriptEntry(Purpose.ACTOR, "only", times=1)])
    backend.start_run("r1")
    backend.complete(req())
    backend.start_run("r2")
    assert backend.complete(req()).text == "only"


def test_script_explicit_token_counts_are_not_estimated():
    backend = ScriptedBackend(
        [ScriptEntry(Purpose.ACTOR, "x", prompt_tokens=7, completion_tokens=3)]
    )
    backend.start_run("r")
    usage = backend.complete(req()).usage
    assert (usage.prompt_tokens, usage.completion_tokens, usage.estimated) == (7, 3, False)


def test_script_without_counts_estimates():
    backend = ScriptedBackend([ScriptEntry(Purpose.ACTOR, "abcdefgh")])
    backend.start_run("r")
    usage = backend.complete(req()).usage
    assert usage.estimated
    assert usage.completion_tokens == estimate_tokens("abcdefgh")


def test_script_consumption_is_thread_local():
    # two concurrent runs must each see the full script
    backend = ScriptedBackend([ScriptEntry(Purpose.ACTOR, "once", times=1)])
    results, errors = [], []

    def run():
        backend.start_run("r")
        try:
            results.append(backend.complete(req()).text)
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=run) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []
    assert results == ["once"] * 4


def test_script_records_calls():
    backend = ScriptedBackend([ScriptEntry(Purpose.ACTOR, "x", times=0)])
    backend.start_run("r")
    backend.complete(req("one"))
    backend.complete(req("two"))
    assert [r.messages[-1].content for r in backend.calls] == ["one", "two"]


# -- live backend ------------------------------------------------------------


def _http(status, body=None, text=""):
    resp = mock.Mock()
    resp.status_code = status
    resp.text = text
    resp.json.return_value = body or {}
    return resp


def _completion_body(content, usage=None):
    body = {"choices": [{"message": {"content": content}}], "model": "gpt-4.1"}
    if usage is not None:
        body["usage"] = usage
    return body


def test_openai_success_with_reported_usage():
    backend = OpenAIBackend(api_key="k")
    body = _completion_body("hi", {"prompt_tokens": 12, "completion_tokens": 5})
    with mock.patch("requests.post", return_value=_http(200, body)) as post:
        out = backend.complete(req())
    assert out.text == "hi"
    assert (out.usage.prompt_tokens, out.usage.completion_tokens) == (12, 5)
    assert not out.usage.estimated
    sent = post.call_args.kwargs
    assert sent["json"]["model"] == "gpt-4.1"
    assert sent["headers"]["Authorization"] == "Bearer k"


def test_openai_missing_usage_estimates():
    backend = OpenAIBackend(api_key="k")
    with mock.patch("requests.post", return_value=_http(200, _completion_body("yo"))):
        out = backend.complete(req())
    assert out.usage.estimated
    assert out.usage.completion_tokens == estimate_tokens("yo")


@pytest.mark.parametrize("count", [None, 12.0, 12.5, True, -1, "12"])
def test_openai_bad_usage_count_fails_the_call(count):
    backend = OpenAIBackend(api_key="k")
    for usage in ({"prompt_tokens": count, "completion_tokens": 5},
                  {"prompt_tokens": 12, "completion_tokens": count}):
        with mock.patch("requests.post", return_value=_http(200, _completion_body("hi", usage))):
            with pytest.raises(BackendError, match="bad usage in completion payload"):
                backend.complete(req())


@pytest.mark.parametrize("counts", [{"prompt_tokens": 12, "completion_tokens": 5},
                                    {"prompt_tokens": 12}, {"completion_tokens": 5}, {}],
                         ids=["both", "only_prompt", "only_completion", "neither"])
def test_scripted_and_live_replies_share_one_usage_rule(counts):
    # a reported count is kept and only a missing one estimated, whichever
    # backend the reply came from
    request = req("x" * 400)
    scripted = ScriptedBackend([ScriptEntry(Purpose.ACTOR, "the reply", **counts)])
    with mock.patch("requests.post", return_value=_http(200, _completion_body("the reply", counts))):
        live = OpenAIBackend(api_key="k").complete(request)
    expected = TokenUsage(counts.get("prompt_tokens", estimate_prompt_tokens(request.messages)),
                          counts.get("completion_tokens", estimate_tokens("the reply")),
                          estimated=len(counts) < 2)
    assert scripted.complete(request).usage == live.usage == expected


def estimator_uses(node, scope="<module>"):
    """(enclosing function, name) of each use under ``node`` of a token estimator."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        scope = node.name
    name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
    if name in ("estimate_tokens", "estimate_prompt_tokens"):
        yield scope, name
    for child in ast.iter_child_nodes(node):
        yield from estimator_uses(child, scope)


def test_only_the_usage_rule_estimates_tokens():
    # backend.reply_usage is the one place a missing count is estimated, so a
    # new backend cannot grow a fallback of its own
    package = Path(agentmeter.__file__).parent
    uses = {(p.name, *use) for p in package.rglob("*.py")
            for use in estimator_uses(ast.parse(p.read_text(encoding="utf-8")))}
    assert uses == {("backend.py", "reply_usage", "estimate_prompt_tokens"),
                    ("backend.py", "reply_usage", "estimate_tokens"),
                    ("backend.py", "estimate_prompt_tokens", "estimate_tokens")}


def _http_not_json(text):
    resp = _http(200, text=text)
    resp.json.side_effect = json.JSONDecodeError("Expecting value", text, 0)
    return resp


@pytest.mark.parametrize("resp,message", [
    (_http_not_json("<html>Bad gateway</html>"),
     "completion body is not JSON: '<html>Bad gateway</html>'"),
    (_http(200, _completion_body("hi", 7)), "bad usage in completion payload: 7 is not a valid dict"),
    # "prompt_tokens" in "prompt_tokens" holds, so this usage once fell back to estimates
    (_http(200, _completion_body("hi", "prompt_tokens")),
     "bad usage in completion payload: 'prompt_tokens' is not a valid dict"),
    (_http(200, {**_completion_body("hi"), "model": 5}), "malformed completion payload"),
    (_http(200, _completion_body(["hi"])), "malformed completion payload"),
], ids=["html_body", "usage_a_number", "usage_a_string", "model_a_number", "content_a_list"])
def test_openai_unusable_body_is_a_failed_call(resp, message):
    trace = mock.Mock()
    pricing = PricingTable({"gpt-4.1": ModelPricing.per_million("1.00", "10.00")})
    session = RunSession("r", OpenAIBackend(api_key="k"), pricing, trace=trace)
    with mock.patch("requests.post", return_value=resp):
        with pytest.raises(BackendError, match=re.escape(message)):
            session.call_model(Purpose.ACTOR, "gpt-4.1", (Message("user", "hi"),))
    errors = [e.error for e in session.ledger.entries]
    assert len(errors) == 1 and message in errors[0]
    trace.model_call.assert_called_once_with(mock.ANY, error=errors[0])


def test_script_entry_refuses_negative_token_counts():
    with pytest.raises(ValueError, match="non-negative"):
        ScriptEntry(Purpose.ACTOR, "x", completion_tokens=-1)


def test_script_entry_refuses_a_negative_times():
    # 0 is the one count that means unlimited
    with pytest.raises(ValueError, match="times must be >= 0"):
        ScriptEntry(Purpose.ACTOR, "x", times=-3)
    assert ScriptedBackend([ScriptEntry(Purpose.ACTOR, "x", times=0)]).complete(req()).text == "x"


def test_openai_retries_transient_then_succeeds():
    backend = OpenAIBackend(api_key="k")
    responses = [_http(429), _http(503), _http(200, _completion_body("ok"))]
    with mock.patch("requests.post", side_effect=responses), mock.patch(
        "agentmeter.backend.time.sleep"
    ) as slept:
        out = backend.complete(req())
    assert out.text == "ok"
    assert slept.call_count == 2


def test_openai_gives_up_after_retries():
    backend = OpenAIBackend(api_key="k")
    with mock.patch("requests.post", return_value=_http(500)) as post, mock.patch(
        "agentmeter.backend.time.sleep"
    ):
        with pytest.raises(BackendError, match=f"after {COMPLETION_RETRIES + 1} attempts"):
            backend.complete(req())
    assert post.call_count == COMPLETION_RETRIES + 1


def test_openai_gives_up_naming_the_last_failure(tmp_path):
    # a run records only the message, so it names why the last attempt failed
    trace = TraceWriter(tmp_path / "r.trace")
    pricing = PricingTable({"gpt-4.1": ModelPricing.per_million("1.00", "10.00")})
    session = RunSession("r", OpenAIBackend(api_key="k"), pricing, trace=trace)
    busy = _http(503, text="upstream overloaded, try later")
    with mock.patch("requests.post", return_value=busy), mock.patch("agentmeter.backend.time.sleep"):
        with pytest.raises(BackendError):
            session.call_model(Purpose.ACTOR, "gpt-4.1", (Message("user", "hi"),))
    trace.close()
    message = (f"model call failed after {COMPLETION_RETRIES + 1} attempts: "
               "HTTP 503: upstream overloaded, try later")
    assert session.ledger.entries[-1].error == message
    assert trace_lines(trace.path)[-1]["error"] == message


def test_openai_client_error_fails_fast():
    backend = OpenAIBackend(api_key="k")
    with mock.patch("requests.post", return_value=_http(400, text="bad request")) as post:
        with pytest.raises(BackendError, match="400"):
            backend.complete(req())
    assert post.call_count == 1


def test_openai_malformed_payload():
    backend = OpenAIBackend(api_key="k")
    with mock.patch("requests.post", return_value=_http(200, {"choices": []})):
        with pytest.raises(BackendError, match="malformed"):
            backend.complete(req())


def test_openai_base_url_from_env(monkeypatch):
    monkeypatch.setenv("AGENTMETER_API_BASE", "https://gw.example/v1/")
    backend = OpenAIBackend(api_key="k")
    assert backend.base_url == "https://gw.example/v1"


# -- embeddings --------------------------------------------------------------


def test_hash_embedder_is_deterministic_and_unit_norm():
    backend = ScriptedBackend([])
    a, b = backend.embed("same text"), backend.embed("same text")
    assert a == b
    assert type(a) is tuple and len(a) == 16
    assert all(type(x) is float for x in a)
    assert math.hypot(*a) == pytest.approx(1.0)


def test_hash_embedder_depends_on_seed_and_text():
    def draw(key):
        components = struct.unpack(">16h", hashlib.sha256(key.encode("utf-8")).digest())
        norm = math.sqrt(sum(c * c for c in components))
        return tuple(c / norm for c in components)

    base = ScriptedBackend([]).embed("t")
    assert base != ScriptedBackend([]).embed("u")
    # the hash is seeded with the fixed "agentmeter" namespace, no other
    assert base == draw("agentmeter:t")
    assert base != draw("other:t")


def test_backend_embed_is_pinned():
    # recorded traces keep the vectors they hold, so this pin guards only that
    # a live run draws the same vectors, and so retrieves the same summaries,
    # on every build, platform and Python version
    danube = ScriptedBackend([]).embed("Danube")
    assert danube[:3] == (-0.035886160691294015, -0.0038757053546597535, -0.4116573265219719)
