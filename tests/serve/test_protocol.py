"""Submit-payload validation: every malformed request must be refused
*before* queueing, with a structured 400 body and a stable error code —
and the per-request environment contract (``DDBDD_JOBS`` /
``DDBDD_FAULTS`` resolved at request time, never at daemon import)."""

from __future__ import annotations

import pytest

from repro.network import network_to_blif
from repro.benchgen import build_circuit
from repro.serve.protocol import (
    JOB_SNAPSHOT_KEYS,
    PROTOCOL_SCHEMA,
    ProtocolError,
    error_payload,
    parse_submit,
)


def submit_error(payload: object) -> ProtocolError:
    with pytest.raises(ProtocolError) as info:
        parse_submit(payload)
    return info.value


class TestRejections:
    def test_non_object_payload(self):
        exc = submit_error(["not", "a", "dict"])
        assert (exc.status, exc.code) == (400, "invalid_request")

    def test_unknown_field(self):
        exc = submit_error({"benchmark": "mux", "prioritty": 3})
        assert exc.code == "invalid_request"
        assert "prioritty" in exc.message

    def test_exactly_one_circuit_source(self):
        assert submit_error({}).code == "invalid_request"
        both = submit_error({"benchmark": "mux", "circuit": ".model m\n.end\n"})
        assert both.code == "invalid_request"

    def test_unknown_benchmark(self):
        assert submit_error({"benchmark": "nope"}).code == "unknown_benchmark"

    def test_malformed_blif(self):
        exc = submit_error({"circuit": ".model broken\n.inputs a\n.outputs z\n.end\n"})
        assert exc.code == "invalid_circuit"

    def test_flow_grammar_error(self):
        # Schema 2 runs one fixed flow; a flow script is not a field, so a
        # malformed one is refused as unknown before any grammar is read.
        exc = submit_error({"benchmark": "mux", "flow": "sweep;;bogus("})
        assert (exc.status, exc.code) == (400, "invalid_request")
        assert "flow" in exc.message

    def test_partial_flow_rejected(self):
        # Partial and complete scripts alike: 'flow' is an unknown field.
        for script in ("sweep;collapse", "sweep;collapse;synth;map"):
            exc = submit_error({"benchmark": "mux", "flow": script})
            assert (exc.status, exc.code) == (400, "invalid_request")
            assert "flow" in exc.message

    def test_unknown_config_key(self):
        for key, value in (
            ("jbos", 2),
            ("cache_remote", "http://127.0.0.1:9"),
            ("cache_max_entries", 1),
        ):
            exc = submit_error({"benchmark": "mux", "config": {key: value}})
            assert exc.code == "invalid_config"
            assert key in exc.message

    def test_non_allowlisted_config_key(self):
        # A real DDBDDConfig field that is server policy, not client's.
        exc = submit_error({"benchmark": "mux", "config": {"pool_max_retries": 9}})
        assert exc.code == "invalid_config"

    @pytest.mark.parametrize(
        "field,value",
        [
            ("tenant", ""),
            ("tenant", "bad tenant!"),
            ("tenant", "x" * 65),
            ("priority", "high"),
            ("priority", 101),
            ("priority", True),
            ("mode", "fire-and-forget"),
            ("emit", "verilog"),
            ("deadline_s", -1),
            ("deadline_s", "soon"),
            ("node_budget", 0),
            ("node_budget", 2.5),
        ],
    )
    def test_bad_scalar_fields(self, field, value):
        exc = submit_error({"benchmark": "mux", field: value})
        assert (exc.status, exc.code) == (400, "invalid_request")

    def test_error_body_shape(self):
        body = submit_error({"benchmark": "nope"}).body()
        assert body["schema"] == PROTOCOL_SCHEMA
        assert set(body["error"]) == {"status", "code", "message"}


class TestAccepted:
    def test_benchmark_submit(self):
        req = parse_submit({
            "benchmark": "mux", "tenant": "alice", "priority": 7,
            "config": {"cache_claims": False},
        })
        assert (req.tenant, req.priority, req.mode, req.emit) == (
            "alice", 7, "async", "none",
        )
        assert req.config.cache_claims is False
        assert req.source == "benchmark:mux"
        desc = req.describe()
        assert desc["tenant"] == "alice" and desc["faults_armed"] is False

    def test_blif_submit(self):
        text = network_to_blif(build_circuit("mux"))
        req = parse_submit({"circuit": text, "mode": "sync", "emit": "blif"})
        assert req.source == "blif"
        assert sorted(req.net.pis) == sorted(build_circuit("mux").pis)

    def test_deadline_maps_to_budget(self):
        req = parse_submit(
            {"benchmark": "mux", "deadline_s": 2.5, "node_budget": 10_000}
        )
        assert req.config.job_deadline_s == 2.5
        assert req.config.job_node_budget == 10_000

    def test_snapshot_key_contract(self):
        from repro.serve.queue import ServeJob

        job = ServeJob(id="j000001", seq=1, request=parse_submit({"benchmark": "mux"}))
        assert tuple(job.snapshot(0.0)) == JOB_SNAPSHOT_KEYS


class TestPerRequestEnvironment:
    """Satellite (c): the daemon must resolve ``DDBDD_JOBS`` and
    ``DDBDD_FAULTS`` when the request arrives — a fresh config per
    submit — never from a value captured at import/startup time."""

    def test_jobs_env_read_at_request_time(self, monkeypatch):
        monkeypatch.delenv("DDBDD_JOBS", raising=False)
        assert parse_submit({"benchmark": "mux"}).config.effective_jobs == 1
        monkeypatch.setenv("DDBDD_JOBS", "3")
        assert parse_submit({"benchmark": "mux"}).config.effective_jobs == 3
        monkeypatch.delenv("DDBDD_JOBS")
        assert parse_submit({"benchmark": "mux"}).config.effective_jobs == 1

    def test_faults_env_read_at_request_time(self, monkeypatch):
        monkeypatch.delenv("DDBDD_FAULTS", raising=False)
        assert parse_submit({"benchmark": "mux"}).config.faults is None
        monkeypatch.setenv("DDBDD_FAULTS", "raise@job=1")
        armed = parse_submit({"benchmark": "mux"})
        assert armed.config.faults == "raise@job=1"
        assert armed.describe()["faults_armed"] is True
        # Back to a disarmed environment: the very next request is clean.
        monkeypatch.delenv("DDBDD_FAULTS")
        assert parse_submit({"benchmark": "mux"}).config.faults is None

    def test_explicit_disarm_beats_standing_plan(self, monkeypatch):
        monkeypatch.setenv("DDBDD_FAULTS", "raise@job=1")
        req = parse_submit({"benchmark": "mux", "config": {"faults": None}})
        assert req.config.faults is None

    def test_explicit_plan_overrides_env(self, monkeypatch):
        monkeypatch.setenv("DDBDD_FAULTS", "raise@job=1")
        req = parse_submit(
            {"benchmark": "mux", "config": {"faults": "stall@job=2:0.1s"}}
        )
        assert req.config.faults == "stall@job=2:0.1s"


class TestErrorPayload:
    def test_verification_error_keeps_diagnostics(self):
        from repro.analysis.diagnostics import Diagnostic, VerificationError

        diag = Diagnostic(code="DD401", message="boom", where="n1")
        exc = VerificationError([diag], stage="synth")
        body = error_payload(exc)
        assert body["code"] == "verification_failed"
        assert body["stage"] == "synth"
        assert body["diagnostics"] == [diag.describe()]

    def test_generic_exception(self):
        body = error_payload(ValueError("nope"))
        assert body["code"] == "synthesis_error"
        assert "ValueError" in body["message"]
