"""Edge-case and robustness tests for the simulation engine."""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro.core.stream import AccessStream
from repro.memory.config import MemoryConfig
from repro.sim.engine import Engine, simulate_streams
from repro.sim.port import Port


def build(config, cpu_of, streams, **kw):
    ports = [Port(index=i, cpu=c) for i, c in enumerate(cpu_of)]
    eng = Engine(config, ports, **kw)
    for p, s in zip(ports, streams):
        p.assign(s.bound(config.banks))
    return eng


class TestResultPackaging:
    def test_result_reflects_run(self):
        cfg = MemoryConfig(banks=8, bank_cycle=2)
        eng = build(cfg, [0], [AccessStream(0, 1)])
        eng.run(10)
        res = eng.result()
        assert res.cycles == 10
        assert res.measured_bandwidth == 1
        assert res.steady_bandwidth is None
        assert res.bandwidth() == 1  # falls back to measured

    def test_bandwidth_prefers_steady(self):
        cfg = MemoryConfig(banks=8, bank_cycle=4)
        res = simulate_streams(
            cfg, [AccessStream(0, 4)], cpus=[0], steady=True
        )
        # measured includes the conflict-free prefix; steady is exact.
        assert res.bandwidth() == Fraction(1, 2)
        assert res.measured_bandwidth >= res.bandwidth()


class TestThreeCpus:
    def test_three_cpus_no_section_coupling(self):
        """Sections gate per CPU: three CPUs on one section proceed in
        parallel bank-wise, colliding only on the banks themselves."""
        cfg = MemoryConfig(banks=6, bank_cycle=2, sections=2)
        eng = build(
            cfg,
            [0, 1, 2],
            [AccessStream(0, 1), AccessStream(2, 1), AccessStream(4, 1)],
        )
        eng.run(30)
        assert eng.stats.total_grants == 90  # all full rate


class TestLruEndToEnd:
    def test_lru_shares_a_contended_bank(self):
        """Two stride-0 streams on one bank: LRU alternates the winner."""
        cfg = MemoryConfig(banks=4, bank_cycle=1)
        eng = build(
            cfg, [0, 1], [AccessStream(0, 0), AccessStream(0, 0)],
            priority="lru",
        )
        eng.run(20)
        g = eng.stats.per_port_grants()
        assert abs(g[0] - g[1]) <= 1

    def test_lru_steady_state_detectable(self):
        cfg = MemoryConfig(banks=4, bank_cycle=1)
        eng = build(
            cfg, [0, 1], [AccessStream(0, 0), AccessStream(0, 0)],
            priority="lru",
        )
        bw, period, grants, start = eng.run_to_steady_state()
        assert bw == 1  # the bank serves one grant per clock
        assert grants[0] == grants[1]


class TestMixedFiniteInfinite:
    def test_finite_stream_drains_among_infinite(self):
        cfg = MemoryConfig(banks=8, bank_cycle=2)
        eng = build(
            cfg,
            [0, 1],
            [AccessStream(0, 1, length=5), AccessStream(4, 1)],
        )
        eng.run(20)
        assert eng.stats.ports[0].grants == 5
        assert eng.stats.ports[1].grants == 20

    def test_steady_rejects_mixed(self):
        cfg = MemoryConfig(banks=8, bank_cycle=2)
        eng = build(
            cfg,
            [0, 1],
            [AccessStream(0, 1, length=5), AccessStream(4, 1)],
        )
        with pytest.raises(ValueError):
            eng.run_to_steady_state()


class TestIdlePortsDoNotPerturb:
    def test_unassigned_port_is_inert(self):
        cfg = MemoryConfig(banks=8, bank_cycle=2)
        ports = [Port(index=0), Port(index=1)]
        eng = Engine(cfg, ports)
        ports[0].assign(AccessStream(0, 1))
        # port 1 never assigned
        eng.run(12)
        assert eng.stats.ports[0].grants == 12
        assert eng.stats.ports[1].grants == 0
        assert eng.stats.ports[1].total_stall_cycles == 0


class TestTraceBoundInteraction:
    def test_trace_stops_but_sim_continues(self):
        from repro.sim.trace import TraceRecorder

        cfg = MemoryConfig(banks=8, bank_cycle=2)
        ports = [Port(index=0)]
        eng = Engine(cfg, ports, trace=TraceRecorder(max_cycles=5))
        ports[0].assign(AccessStream(0, 1))
        eng.run(20)
        assert eng.stats.ports[0].grants == 20
        assert eng.trace is not None and len(eng.trace) == 5


class TestSplitPriorityRules:
    def test_default_single_rule_serves_both(self):
        cfg = MemoryConfig(banks=8, bank_cycle=2)
        eng = build(cfg, [0], [AccessStream(0, 1)], priority="cyclic")
        assert eng.arbiter.intra is eng.arbiter.priority

    def test_xmp_style_combo(self):
        """Fixed intra-CPU (port role) + rotating inter-CPU priority:
        the section loser is decided by the fixed rule, the cross-CPU
        bank tie by the rotating one."""
        from repro.sim.stats import ConflictKind

        cfg = MemoryConfig(banks=4, bank_cycle=1, sections=2)
        # ports 0,1 on CPU 0 share section 0; port 2 on CPU 1 wants the
        # same bank as port 0.
        eng = build(
            cfg,
            [0, 0, 1],
            [AccessStream(0, 0), AccessStream(2, 0), AccessStream(0, 0)],
            priority="cyclic",
            intra_priority="fixed",
        )
        eng.run(12)
        # intra: port 0 always beats port 1 on the shared path...
        assert eng.stats.ports[1].grants == 0
        assert eng.stats.ports[1].stall_cycles[ConflictKind.SECTION] == 12
        # ...while the rotating inter-CPU rule shares bank 0 between
        # ports 0 and 2 (2:1 for port 2 — the rotation covers three
        # ports, and port 2 is closer to the favoured slot in two of
        # every three phases).  Crucially: no starvation.
        g0, g2 = eng.stats.ports[0].grants, eng.stats.ports[2].grants
        assert g0 > 0 and g2 > 0
        assert g0 + g2 == 12  # bank 0 serves every clock (n_c = 1)

    def test_split_rules_participate_in_steady_state(self):
        cfg = MemoryConfig(banks=12, bank_cycle=3, sections=3)
        eng = build(
            cfg,
            [0, 0],
            [AccessStream(0, 1), AccessStream(1, 1)],
            priority="fixed",
            intra_priority="block-cyclic:3",
        )
        bw, period, grants, start = eng.run_to_steady_state()
        # the paper's block rule applied intra-CPU frees the Fig. 8 pair
        assert bw == 2
