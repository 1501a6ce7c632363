"""The wire contract: job validation, payloads, the status table."""

import pytest

from repro.memory.config import MemoryConfig
from repro.runner.api import run
from repro.runner.job import SimJob
from repro.serve.protocol import (
    ENDPOINTS,
    FAILURE_STATUS,
    MAX_SWEEP_JOBS,
    ProtocolError,
    job_from_payload,
    outcome_to_payload,
)


class TestJobFromPayload:
    def test_minimal_payload_builds_a_job(self):
        job = job_from_payload(
            {"banks": 8, "bank_cycle": 4, "streams": [[0, 1]]}
        )
        assert job == SimJob.from_specs(
            MemoryConfig(banks=8, bank_cycle=4), [(0, 1)]
        )

    def test_full_payload_round_trips_every_field(self):
        job = job_from_payload(
            {
                "banks": 16,
                "bank_cycle": 4,
                "streams": [[0, 1], [3, 5]],
                "cpus": [0, 0],
                "sections": 4,
                "section_mapping": "cyclic",
                "priority": "cyclic",
                "intra_priority": "fixed",
                "steady": True,
                "max_cycles": 5000,
            }
        )
        assert job.banks == 16
        assert job.streams == ((0, 1), (3, 5))
        assert job.cpus == (0, 0)
        assert job.sections == 4
        assert job.priority == "cyclic"
        assert job.intra_priority == "fixed"
        assert job.max_cycles == 5000

    def test_starts_and_strides_reduce_modulo_banks(self):
        job = job_from_payload(
            {"banks": 8, "bank_cycle": 4, "streams": [[9, -1]]}
        )
        assert job.streams == ((1, 7),)

    def test_fixed_horizon_jobs(self):
        job = job_from_payload(
            {
                "banks": 8,
                "bank_cycle": 4,
                "streams": [[0, 1]],
                "steady": False,
                "cycles": 100,
            }
        )
        assert not job.steady
        assert job.cycles == 100

    @pytest.mark.parametrize(
        "payload",
        [
            "not an object",
            {"bank_cycle": 4, "streams": [[0, 1]]},  # no banks
            {"banks": 8, "streams": [[0, 1]]},  # no bank_cycle
            {"banks": 8, "bank_cycle": 4},  # no streams
            {"banks": 8, "bank_cycle": 4, "streams": []},
            {"banks": 8, "bank_cycle": 4, "streams": [[0]]},
            {"banks": 8, "bank_cycle": 4, "streams": [[0, 1.5]]},
            {"banks": True, "bank_cycle": 4, "streams": [[0, 1]]},
            {"banks": 8, "bank_cycle": 4, "streams": [[0, 1]], "cpus": "x"},
            {"banks": 8, "bank_cycle": 4, "streams": [[0, 1]], "trace": True},
            {"banks": 8, "bank_cycle": 4, "streams": [[0, 1]], "bogus": 1},
            {"banks": 0, "bank_cycle": 4, "streams": [[0, 1]]},
            {
                "banks": 8,
                "bank_cycle": 4,
                "streams": [[0, 1]],
                "steady": False,
            },  # fixed horizon without cycles
        ],
    )
    def test_bad_payloads_raise_malformed(self, payload):
        with pytest.raises(ProtocolError) as err:
            job_from_payload(payload)
        assert err.value.mode == "malformed"
        assert err.value.status == 400


class TestOutcomePayload:
    def test_carries_exact_fraction_and_provenance(self):
        job = job_from_payload(
            {"banks": 8, "bank_cycle": 4, "streams": [[0, 1]]}
        )
        out = run(job, backend="fast")
        body = outcome_to_payload(out, key=job.cache_key(), tier="simulated")
        assert body["bandwidth"] == "1/1"
        assert body["bandwidth_float"] == 1.0
        assert body["tier"] == "simulated"
        assert body["key"] == job.cache_key()
        assert body["grants"] == [8]


class TestContractTables:
    def test_status_table_is_total_and_sane(self):
        assert set(FAILURE_STATUS.values()) == {
            400, 404, 405, 413, 429, 500, 502, 503
        }
        # one mode per status: the mapping must stay invertible
        assert len(set(FAILURE_STATUS.values())) == len(FAILURE_STATUS)

    def test_unknown_failure_mode_is_rejected(self):
        with pytest.raises(ValueError):
            ProtocolError("no-such-mode", "x")

    def test_endpoint_catalog_shape(self):
        paths = [e.path for e in ENDPOINTS]
        assert len(paths) == len(set(paths))
        assert "/v1/beff" in paths and "/metrics" in paths
        assert all(e.method in ("GET", "POST") for e in ENDPOINTS)
        assert MAX_SWEEP_JOBS > 0


class TestPolicyFieldsOnTheWire:
    BASE = {"banks": 8, "bank_cycle": 4, "streams": [[0, 1], [0, 1]],
            "cpus": [0, 1]}

    def test_arbiter_and_regulate_round_trip(self):
        job = job_from_payload(
            {**self.BASE, "arbiter": "wfq:3,1",
             "regulate": ["stream:0=1/4"]}
        )
        assert job.arbiter == "wfq:3,1"
        assert job.regulate == ("stream:0=1/4",)

    def test_defaults_are_unregulated(self):
        job = job_from_payload(self.BASE)
        assert job.arbiter is None
        assert job.regulate == ()

    @pytest.mark.parametrize("patch", [
        {"arbiter": 7},
        {"arbiter": "rr"},
        {"arbiter": "wfq:1"},
        {"regulate": "stream=1/4"},
        {"regulate": [7]},
        {"regulate": ["bogus"]},
        {"regulate": ["stream:5=1/4"]},
    ])
    def test_malformed_policy_fields_are_400(self, patch):
        with pytest.raises(ProtocolError) as err:
            job_from_payload({**self.BASE, **patch})
        assert err.value.mode == "malformed"

    def test_regulated_job_is_servable(self):
        job = job_from_payload(
            {**self.BASE, "regulate": ["stream:0=1/4"]}
        )
        out = run(job, backend="fast")
        body = outcome_to_payload(out, key=job.cache_key(), tier="simulated")
        assert body["bandwidth"] == "1/2"
        assert "reg:stream:0=1/4" in body["key"]
