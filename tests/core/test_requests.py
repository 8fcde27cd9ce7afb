"""Wire-schema coverage for the request objects: golden JSON round
trips per kind, unknown-field rejection with close-match suggestions,
the forward-compat version gate, and the CLI-vs-Session equivalence
guard (satellite of the ``repro serve`` redesign: every surface must
build the *same* request for the same knobs)."""

import json
from pathlib import Path

import pytest

from repro.common.config import paper_config, small_config
from repro.core import Session
from repro.core.requests import (
    API_VERSION,
    RequestError,
    RunRequest,
    SuiteRequest,
    SweepRequest,
    parse_request,
    parse_request_json,
    request_fields,
)
from repro.obs import TraceConfig

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "golden" / "requests"


def _golden(name: str) -> dict:
    return json.loads((GOLDEN_DIR / name).read_text())


def _sample_run() -> RunRequest:
    return RunRequest(
        workload="arraybw", isa="gcn3", scale=0.25, seed=11,
        config=small_config(2), trace=TraceConfig(),
        execution="auto", trace_dir="/tmp/traces", engine="vector")


def _sample_suite() -> SuiteRequest:
    return SuiteRequest(
        workloads=("arraybw", "bitonic"), scale=0.1, seed=3,
        config=small_config(2), jobs=4, job_timeout=30.0,
        execution="execute")


def _sample_sweep() -> SweepRequest:
    from repro.explore.space import Axis

    return SweepRequest(
        axes=(Axis.parse("l1i.size_bytes=8k,16k,32k"),),
        mode="ofat", workloads=("lulesh",), isas=("gcn3",),
        scale=0.5, seed=7, config=paper_config(), jobs=2,
        execution="auto", verify_replay=False, engine="auto")


class TestRoundTrips:
    """to_json -> from_json is lossless for every request kind."""

    @pytest.mark.parametrize("build", [_sample_run, _sample_suite,
                                       _sample_sweep])
    def test_json_round_trip(self, build):
        request = build()
        again = type(request).from_json(request.to_json())
        assert again == request

    @pytest.mark.parametrize("build", [_sample_run, _sample_suite,
                                       _sample_sweep])
    def test_parse_request_dispatches_on_kind(self, build):
        request = build()
        assert parse_request_json(request.to_json()) == request
        assert parse_request(request.to_payload()) == request

    def test_defaults_round_trip(self):
        request = RunRequest(workload="lulesh", isa="hsail")
        again = RunRequest.from_json(request.to_json())
        assert again == request
        assert again.config.fingerprint() == paper_config().fingerprint()

    def test_config_overrides_apply_on_parse(self):
        payload = {"api": API_VERSION, "kind": "run", "workload": "arraybw",
                   "isa": "gcn3",
                   "config_overrides": {"l1d.size_bytes": 32768}}
        request = parse_request(payload)
        assert request.config.l1d.size_bytes == 32768
        # Overrides stack on top of an explicit config payload too.
        payload["config"] = small_config(2).to_dict()
        request = parse_request(payload)
        assert request.config.num_cus == 2
        assert request.config.l1d.size_bytes == 32768

    def test_resolved_config_folds_engine(self):
        request = RunRequest(workload="arraybw", isa="gcn3",
                             config=small_config(2), engine="vector")
        assert request.config.engine != "vector"  # original untouched
        assert request.resolved_config().engine == "vector"


class TestGoldenPayloads:
    """Committed golden JSON per kind: the wire format is a contract —
    if one of these fails, you changed the protocol and must bump
    API_VERSION (and the goldens) deliberately."""

    def test_run_matches_golden(self):
        assert _sample_run().to_payload() == _golden("run.json")

    def test_suite_matches_golden(self):
        assert _sample_suite().to_payload() == _golden("suite.json")

    def test_sweep_matches_golden(self):
        assert _sample_sweep().to_payload() == _golden("sweep.json")

    @pytest.mark.parametrize("name,build", [
        ("run.json", _sample_run),
        ("suite.json", _sample_suite),
        ("sweep.json", _sample_sweep),
    ])
    def test_golden_parses_back(self, name, build):
        assert parse_request(_golden(name)) == build()


class TestRejection:
    def test_unknown_field_rejected_with_suggestion(self):
        payload = {"api": API_VERSION, "kind": "run", "workload": "arraybw",
                   "isa": "gcn3", "scal": 0.5}
        with pytest.raises(RequestError, match="did you mean scale"):
            parse_request(payload)

    def test_unknown_field_without_close_match_lists_known(self):
        payload = {"api": API_VERSION, "kind": "run", "workload": "arraybw",
                   "isa": "gcn3", "zzz": 1}
        with pytest.raises(RequestError, match="known: api,"):
            parse_request(payload)

    def test_version_gate(self):
        payload = {"api": "repro-api/2", "kind": "run",
                   "workload": "arraybw", "isa": "gcn3"}
        with pytest.raises(RequestError, match="repro-api/1"):
            parse_request(payload)
        with pytest.raises(RequestError, match="unsupported"):
            parse_request({"kind": "run", "workload": "a", "isa": "gcn3"})

    def test_unknown_kind(self):
        with pytest.raises(RequestError, match="unknown request kind"):
            parse_request({"api": API_VERSION, "kind": "walk"})

    def test_expect_kind_mismatch(self):
        with pytest.raises(RequestError, match="expects a 'suite'"):
            parse_request(_sample_run().to_payload(), expect_kind="suite")

    def test_bad_isa_and_execution(self):
        with pytest.raises(RequestError, match="unknown ISA"):
            RunRequest(workload="arraybw", isa="ptx")
        with pytest.raises(RequestError, match="execution mode"):
            RunRequest(workload="arraybw", isa="gcn3", execution="warp")
        with pytest.raises(RequestError, match="unknown engine"):
            RunRequest(workload="arraybw", isa="gcn3", engine="cuda")

    def test_bad_config_payload(self):
        payload = {"api": API_VERSION, "kind": "run", "workload": "arraybw",
                   "isa": "gcn3", "config_overrides": {"l1x.size": 1}}
        with pytest.raises(RequestError, match="bad config"):
            parse_request(payload)

    def test_not_json(self):
        with pytest.raises(RequestError, match="not valid JSON"):
            parse_request_json("{nope")

    def test_request_fields_exposes_schema(self):
        assert "config_overrides" in request_fields("run")
        assert "axes" in request_fields("sweep")


class TestCliSessionEquivalence:
    """Kwarg-threading drift guard: the RunRequest the CLI parser builds
    must equal the one Session builds for the same flags — engine,
    execution, trace_dir, seed and all."""

    def test_default_flags_match(self):
        from repro.__main__ import build_parser, run_request_from_args

        args = build_parser().parse_args(
            ["run", "-w", "arraybw", "-i", "gcn3", "-s", "0.1",
             "--cus", "2"])
        cli = run_request_from_args(args)
        ses = Session(small_config(2)).build_run_request(
            "arraybw", "gcn3", scale=0.1)
        assert cli == ses

    def test_every_knob_matches(self):
        from repro.__main__ import build_parser, run_request_from_args

        args = build_parser().parse_args(
            ["run", "-w", "bitonic", "-i", "hsail", "-s", "0.25",
             "--cus", "2", "--seed", "13", "-O", "l1d.size_bytes=32k",
             "--execution", "auto", "--trace-dir", "/tmp/t",
             "--engine", "vector"])
        cli = run_request_from_args(args)
        config = small_config(2).with_overrides({"l1d.size_bytes": 32768})
        ses = Session(config).build_run_request(
            "bitonic", "hsail", scale=0.25, seed=13, execution="auto",
            trace_dir="/tmp/t", engine="vector")
        assert cli == ses
        # And both serialize to the same wire bytes.
        assert cli.to_json() == ses.to_json()

    def test_suite_flags_match(self):
        from repro.__main__ import build_parser, suite_request_from_args

        args = build_parser().parse_args(["figures"])
        assert suite_request_from_args(args) == \
            Session(paper_config()).build_suite_request(scale=0.5)
        args = build_parser().parse_args(
            ["figures", "-s", "0.25", "-j", "4", "--no-cache",
             "--cache-dir", "/tmp/c", "--job-timeout", "30", "-q"])
        cli = suite_request_from_args(args)
        ses = Session(paper_config()).build_suite_request(
            scale=0.25, jobs=4, use_disk_cache=False, cache_dir="/tmp/c",
            job_timeout=30.0)
        assert cli == ses
        assert cli.to_json() == ses.to_json()

    def test_sweep_flags_match(self):
        from repro.__main__ import build_parser, sweep_request_from_args

        axis = "l1i.size_bytes=8k,16k"
        cli = sweep_request_from_args(
            build_parser().parse_args(["sweep", "-a", axis]))
        ses = Session(paper_config()).build_sweep_request([axis])
        assert cli == ses
        assert cli.to_json() == ses.to_json()
        args = build_parser().parse_args(
            ["sweep", "-a", axis, "-a", "cu.vrf_banks=2,4", "--mode", "ofat",
             "-w", "lulesh,comd", "-s", "0.25", "--seed", "13", "--cus", "2",
             "-j", "3", "--no-cache", "--cache-dir", "/tmp/c",
             "--job-timeout", "30", "--resume", "0a1b2c3d4e5f",
             "--execution", "replay", "--trace-dir", "/tmp/t",
             "--no-verify-replay", "--engine", "scalar"])
        cli = sweep_request_from_args(args)
        ses = Session(small_config(2)).build_sweep_request(
            [axis, "cu.vrf_banks=2,4"], mode="ofat",
            workloads=["lulesh", "comd"], scale=0.25, seed=13, jobs=3,
            use_disk_cache=False, cache_dir="/tmp/c", job_timeout=30.0,
            resume="0a1b2c3d4e5f", execution="replay", trace_dir="/tmp/t",
            verify_replay=False, engine="scalar")
        assert cli == ses
        assert cli.to_json() == ses.to_json()
        bare = build_parser().parse_args(["sweep", "-a", axis, "--resume"])
        assert sweep_request_from_args(bare).resume is True

    def test_suite_cells_match_run_requests(self):
        """A suite's cells (the live jobs of its one-point sweep ledger)
        are exactly the RunRequests Session.build_run_request would
        produce, with the engine pinned to the config's."""
        from repro.explore.sweep import SweepLedger

        session = Session(small_config(2))
        ledger = SweepLedger(session.build_suite_request(
            workloads=["arraybw"], scale=0.1, use_disk_cache=False))
        cells = [job.request for job in ledger.open()]
        ledger.close()
        assert [c.isa for c in cells] == ["hsail", "gcn3"]
        for cell in cells:
            assert cell == session.build_run_request(
                "arraybw", cell.isa, scale=0.1,
                engine=small_config(2).engine)


def _stats(run) -> dict:
    """The run payload minus host-wall noise (everything else must be
    bit-identical across execution surfaces)."""
    payload = run.to_payload()
    payload.pop("wall_seconds", None)
    return payload


class TestExecutePaths:
    def test_run_request_execute_matches_session(self):
        request = Session(small_config(2)).build_run_request(
            "arraybw", "gcn3", scale=0.1)
        via_request = request.execute()
        via_session = Session(small_config(2)).run("arraybw", "gcn3",
                                                   scale=0.1)
        assert _stats(via_request) == _stats(via_session)

    def test_deserialized_request_executes_identically(self):
        """The daemon scenario: a request that crossed the wire yields
        bit-identical statistics."""
        request = Session(small_config(2)).build_run_request(
            "arraybw", "gcn3", scale=0.1)
        rehydrated = RunRequest.from_json(request.to_json())
        assert _stats(rehydrated.execute()) == _stats(request.execute())
