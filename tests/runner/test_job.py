"""SimJob construction, validation, canonicalization and cache identity."""

from __future__ import annotations

import sys
import threading
from dataclasses import replace

import pytest

from repro.memory.config import MemoryConfig
from repro.runner import ResultStore, SimJob, SweepExecutor, jobs_for_offsets
from repro.runner import job as job_mod

CFG = MemoryConfig(banks=12, bank_cycle=3)


class TestConstruction:
    def test_from_specs_reduces_modulo_m(self):
        job = SimJob.from_specs(CFG, [(12, 13), (-1, 25)])
        assert job.streams == ((0, 1), (11, 1))

    def test_from_specs_default_cpus(self):
        job = SimJob.from_specs(CFG, [(0, 1), (0, 2), (0, 3)])
        assert job.cpus == (0, 1, 2)

    def test_carries_memory_shape(self):
        cfg = MemoryConfig(banks=16, bank_cycle=4, sections=4)
        job = SimJob.from_specs(cfg, [(0, 1)])
        assert job.config == cfg
        assert job.effective_sections == 4
        assert job.n_ports == 1

    def test_hashable_and_frozen(self):
        a = SimJob.from_specs(CFG, [(0, 1)])
        b = SimJob.from_specs(CFG, [(0, 1)])
        assert a == b and hash(a) == hash(b)
        assert {a: "x"}[b] == "x"
        with pytest.raises(AttributeError):
            a.banks = 13

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(streams=(), cpus=()),
            dict(streams=((0, 1),), cpus=(0, 1)),
            dict(streams=((12, 1),), cpus=(0,)),  # unreduced start
            dict(streams=((0, -1),), cpus=(0,)),  # unreduced stride
            dict(streams=((0, 1),), cpus=(-1,)),
            dict(streams=((0, 1),), cpus=(0,), steady=True, cycles=10),
            dict(streams=((0, 1),), cpus=(0,), steady=False),
            dict(streams=((0, 1),), cpus=(0,), max_cycles=0),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SimJob(banks=12, bank_cycle=3, **kwargs)


class TestCanonicalization:
    def test_translation_collapses(self):
        a = SimJob.from_specs(CFG, [(0, 1), (5, 7)])
        b = SimJob.from_specs(CFG, [(3, 1), (8, 7)])  # both starts +3
        assert a.canonical() == b.canonical()
        assert a.cache_key() == b.cache_key()

    def test_unit_renumbering_collapses(self):
        # j -> 5j (gcd(5, 12) = 1) maps strides 1,7 to 5,11 and the
        # relative start 5 to 25 % 12 = 1.
        a = SimJob.from_specs(CFG, [(0, 1), (5, 7)])
        b = SimJob.from_specs(CFG, [(0, 5), (25, 35)])
        assert a.cache_key() == b.cache_key()

    def test_distinct_orbits_stay_distinct(self):
        a = SimJob.from_specs(CFG, [(0, 1), (0, 7)])
        b = SimJob.from_specs(CFG, [(0, 1), (1, 7)])
        assert a.cache_key() != b.cache_key()

    def test_consecutive_sections_block_renumbering(self):
        cfg = MemoryConfig(
            banks=12, bank_cycle=3, sections=4, section_mapping="consecutive"
        )
        job = SimJob.from_specs(cfg, [(3, 5)])
        # canonical() must not renumber: only field normalisation happens.
        assert job.canonical().streams == job.streams

    def test_canonical_normalises_cache_irrelevant_fields(self):
        job = SimJob.from_specs(CFG, [(0, 1)], max_cycles=77)
        c = job.canonical()
        assert c.max_cycles == 1_000_000
        assert c.sections == CFG.effective_sections
        assert not c.trace

    def test_intra_priority_none_is_not_named_rule(self):
        # None shares one rule instance between conflict kinds; naming
        # the rule twice makes two instances — different simulated state.
        shared = SimJob.from_specs(CFG, [(0, 1), (0, 2)], priority="lru")
        named = SimJob.from_specs(
            CFG, [(0, 1), (0, 2)], priority="lru", intra_priority="lru"
        )
        assert shared.cache_key() != named.cache_key()

    def test_mode_in_cache_key(self):
        steady = SimJob.from_specs(CFG, [(0, 1)])
        fixed = SimJob.from_specs(CFG, [(0, 1)], steady=False, cycles=100)
        assert steady.cache_key() != fixed.cache_key()


#: Cache keys pinned byte for byte: ResultStore files each entry under
#: sha256(cache_key()), so a changed byte orphans every existing store.
#: Each input is a non-canonical member of its class.
GOLDEN_KEYS = [
    (
        SimJob.from_specs(MemoryConfig(banks=16, bank_cycle=4), [(5, 6), (26, 42)]),
        "m16c4s16@cyclic|0:2,7:14|cpu0,1|fixed/~|steady",
    ),
    (
        SimJob.from_specs(MemoryConfig(banks=4096, bank_cycle=4), [(17, 2048)]),
        "m4096c4s4096@cyclic|0:2048|cpu0|fixed/~|steady",
    ),
    (
        SimJob.from_specs(
            MemoryConfig(banks=16, bank_cycle=4, sections=4),
            [(3, 3), (21, 21)],
            cpus=(0, 0),
        ),
        "m16c4s4@cyclic|0:1,6:7|cpu0,0|fixed/~|steady",
    ),
    (
        SimJob.from_specs(
            MemoryConfig(
                banks=12, bank_cycle=3, sections=4, section_mapping="consecutive"
            ),
            [(3, 5), (7, 2)],
            cpus=(0, 0),
            max_cycles=77,
        ),
        "m12c3s4@consecutive|3:5,7:2|cpu0,0|fixed/~|steady",
    ),
    (
        # s = m: sections degenerate to banks, so renumbering is safe.
        SimJob.from_specs(
            MemoryConfig(
                banks=12, bank_cycle=3, sections=12, section_mapping="consecutive"
            ),
            [(3, 5), (7, 2)],
            cpus=(0, 0),
        ),
        "m12c3s12@consecutive|0:1,8:10|cpu0,0|fixed/~|steady",
    ),
    (
        SimJob.from_specs(CFG, [(3, 5), (1, 7)], regulate=["bank:2=1/4"]),
        "m12c3s12@cyclic|3:5,1:7|cpu0,1|fixed/~|steady|reg:bank:2=1/4",
    ),
    (
        SimJob.from_specs(CFG, [(3, 5), (1, 7)], regulate=["bank=1/4"]),
        "m12c3s12@cyclic|0:1,2:11|cpu0,1|fixed/~|steady|reg:bank=1/4",
    ),
    (
        SimJob.from_specs(
            CFG,
            [(3, 5), (1, 7)],
            arbiter="wfq:2,1",
            regulate=["stream:1=1/4", "bank=2/3", "stream:0=1/2"],
        ),
        "m12c3s12@cyclic|0:1,2:11|cpu0,1|fixed/~|steady|arb:wfq:2,1"
        "|reg:bank=2/3;stream:0=1/2;stream:1=1/4",
    ),
    (
        SimJob.from_specs(
            MemoryConfig(banks=13, bank_cycle=4),
            [(4, 3), (9, 5), (0, 12)],
            cpus=(0, 1, 0),
            priority="lru",
            intra_priority="fixed",
            steady=False,
            cycles=100,
        ),
        "m13c4s13@cyclic|0:1,6:6,3:4|cpu0,1,0|lru/fixed|cycles=100",
    ),
]


class TestCacheKeyBytes:
    @pytest.mark.parametrize(
        "job, key",
        GOLDEN_KEYS,
        ids=[
            "pair", "single", "sections", "consecutive",
            "consecutive-s-eq-m", "pinned-bank", "uniform-bank", "wfq",
            "three-stream-lru",
        ],
    )
    def test_golden_key(self, job, key):
        assert job.cache_key() == key
        assert job.canonical().cache_key() == key

    def test_golden_store_path(self, tmp_path):
        job = GOLDEN_KEYS[0][0]
        path = ResultStore(tmp_path).path_for(job.cache_key())
        digest = "d9ee6d3fa596ddf6603f14d6657d5eea473af1db39479c540a1669be0b94c3db"
        assert path == tmp_path / digest[:2] / f"{digest}.json"

    @pytest.mark.parametrize(
        "spellings",
        [
            ("block-cyclic:4", "block-cyclic: +04 "),
            ("block-cyclic:40", "block-cyclic:4_0"),
        ],
    )
    def test_block_cyclic_spellings_share_a_key(self, spellings):
        # parse_priority reads the block length with int(), so these
        # spellings build the same rule; they must share one identity.
        canon = spellings[0]
        jobs = [
            SimJob.from_specs(
                CFG, [(0, 1), (5, 7)], priority=p, intra_priority=p
            )
            for p in spellings
        ]
        assert jobs[0].cache_key() == jobs[1].cache_key()
        assert f"|{canon}/{canon}|" in jobs[1].cache_key()
        assert jobs[1].canonical().priority == canon
        assert jobs[1].canonical().intra_priority == canon
        ex = SweepExecutor(backend="fast")
        first, second = ex.run_many(jobs)
        assert ex.stats.executed == 1
        assert ex.stats.deduped == 1
        assert second.job is jobs[1]
        assert second.to_payload() == first.to_payload()


#: One change per field of the cached per-shape key frame, each chosen
#: to change the job's identity (steady and cycles change together, and
#: then cycles alone).
FRAME_VARIANTS = {
    "banks": dict(banks=32),
    "bank_cycle": dict(bank_cycle=6),
    "sections": dict(sections=8),
    "section_mapping": dict(section_mapping="consecutive"),
    "cpus": dict(cpus=(0, 0)),
    "priority": dict(priority="cyclic"),
    "intra_priority": dict(intra_priority="fixed"),
    "arbiter": dict(arbiter="wfq:2,1"),
    "regulate": dict(regulate=("stream=1/4",)),
    "steady-cycles": dict(steady=False, cycles=100),
    "cycles": dict(steady=False, cycles=200),
}


class TestFrameCache:
    """cache_key() reads every field but the streams from a frame cached
    per job shape; a cached frame must never answer for another shape."""

    BASE = SimJob.from_specs(
        MemoryConfig(banks=16, bank_cycle=4, sections=4), [(5, 6), (10, 10)]
    )

    def _keys(self) -> dict[str, str]:
        keys = {"base": self.BASE.cache_key()}
        for name, changes in FRAME_VARIANTS.items():
            keys[name] = replace(self.BASE, **changes).cache_key()
            assert self.BASE.cache_key() == keys["base"], name
        return keys

    def test_each_frame_field_changes_the_key(self):
        warm = self._keys()
        assert len(set(warm.values())) == len(warm), warm
        job_mod._shape_frame.cache_clear()
        assert self._keys() == warm

    @pytest.mark.parametrize(
        "changes", [dict(trace=True), dict(max_cycles=77)],
        ids=["trace", "max_cycles"],
    )
    def test_fields_outside_the_identity_share_the_key(self, changes):
        assert replace(self.BASE, **changes).cache_key() == self.BASE.cache_key()

    def test_concurrent_keying_matches_serial(self):
        # The serve event loop and its drain thread key jobs at once.
        # More shapes than the cache holds, so threads also evict.
        shapes = job_mod._shape_frame.cache_info().maxsize + 500
        jobs = [replace(self.BASE, bank_cycle=c) for c in range(1, shapes + 1)]
        job_mod._shape_frame.cache_clear()
        want = [job.cache_key() for job in jobs]
        results: dict[int, list[str]] = {}

        def worker(n: int) -> None:
            shift = n * len(jobs) // 4  # each thread starts elsewhere
            keys = {job: job.cache_key() for job in jobs[shift:] + jobs[:shift]}
            results[n] = [keys[job] for job in jobs]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(n,)) for n in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert results == {n: want for n in range(4)}


class TestJobsForOffsets:
    def test_shapes(self):
        jobs = jobs_for_offsets(CFG, 1, 7, range(12))
        assert len(jobs) == 12
        assert all(j.cpus == (0, 1) for j in jobs)
        assert [j.streams[1][0] for j in jobs] == list(range(12))

    def test_same_cpu(self):
        (job,) = jobs_for_offsets(CFG, 1, 7, [3], same_cpu=True)
        assert job.cpus == (0, 0)


class TestPolicyFields:
    def test_specs_validated_at_construction(self):
        with pytest.raises(ValueError, match="invalid priority spec"):
            SimJob.from_specs(CFG, [(0, 1)], priority="block-cyclic:0")
        with pytest.raises(ValueError, match="invalid arbiter spec"):
            SimJob.from_specs(CFG, [(0, 1), (0, 2)], arbiter="wfq:1")
        with pytest.raises(ValueError, match="invalid regulation spec"):
            SimJob.from_specs(CFG, [(0, 1)], regulate=["stream=1"])
        with pytest.raises(ValueError, match="out of range"):
            SimJob.from_specs(CFG, [(0, 1)], regulate=["stream:1=1/4"])
        with pytest.raises(ValueError, match="from_specs"):
            SimJob(banks=12, bank_cycle=3, streams=((0, 1),), cpus=(0,),
                   regulate="stream=1/4")  # type: ignore[arg-type]

    def test_default_policy_leaves_cache_key_unchanged(self):
        # Pre-arbiter cache keys must stay byte-identical.
        job = SimJob.from_specs(CFG, [(0, 1), (5, 7)])
        assert "arb:" not in job.cache_key()
        assert "reg:" not in job.cache_key()

    def test_regulation_order_is_canonicalised(self):
        a = SimJob.from_specs(
            CFG, [(0, 1), (0, 2)],
            regulate=["stream:1=1/4", "bank=2/3", "stream:0=1/2"],
        )
        b = SimJob.from_specs(
            CFG, [(0, 1), (0, 2)],
            regulate=["bank=2/3", "stream:0=1/2", "stream:1=1/4"],
        )
        assert a.cache_key() == b.cache_key()
        assert a.canonical().regulate == (
            "bank=2/3", "stream:0=1/2", "stream:1=1/4",
        )

    def test_policy_jobs_get_distinct_cache_keys(self):
        plain = SimJob.from_specs(CFG, [(0, 1), (0, 2)])
        reg = SimJob.from_specs(
            CFG, [(0, 1), (0, 2)], regulate=["stream=1/4"]
        )
        wfq = SimJob.from_specs(CFG, [(0, 1), (0, 2)], arbiter="wfq:2,1")
        keys = {plain.cache_key(), reg.cache_key(), wfq.cache_key()}
        assert len(keys) == 3

    def test_indexed_bank_regulation_blocks_renumbering(self):
        # bank:IDX pins a physical bank, so the Appendix isomorphism no
        # longer maps the regulated system onto itself.
        pinned = SimJob.from_specs(
            CFG, [(3, 5)], regulate=["bank:2=1/4"]
        )
        assert pinned.canonical().streams == pinned.streams
        uniform = SimJob.from_specs(CFG, [(3, 5)], regulate=["bank=1/4"])
        assert uniform.canonical().streams == (
            SimJob.from_specs(CFG, [(3, 5)]).canonical().streams
        )
