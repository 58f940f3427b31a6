"""Unit tests for the per-node CPU cost model."""

import pytest

from repro.errors import ConfigurationError
from repro.sim.cpu import Cpu, CpuCosts
from repro.sim.engine import Simulator


class TestCpuCosts:
    def test_free_table_is_free(self):
        assert CpuCosts.free().is_free

    def test_default_table_is_not_free(self):
        assert not CpuCosts().is_free

    def test_negative_cost_rejected(self):
        with pytest.raises(ConfigurationError):
            CpuCosts(rsa_sign=-1.0)


class TestCpuExecution:
    def test_zero_cost_runs_synchronously(self):
        sim = Simulator()
        cpu = Cpu(sim, CpuCosts.free())
        done = []
        cpu.execute(0.0, done.append, "now")
        assert done == ["now"]  # no event loop needed

    def test_cost_delays_completion(self):
        sim = Simulator()
        cpu = Cpu(sim, CpuCosts())
        finished = []
        cpu.execute(0.5, lambda: finished.append(sim.now))
        sim.run()
        assert finished == [0.5]

    def test_work_serializes(self):
        sim = Simulator()
        cpu = Cpu(sim, CpuCosts())
        finished = []
        cpu.execute(0.5, lambda: finished.append(sim.now))
        cpu.execute(0.5, lambda: finished.append(sim.now))
        sim.run()
        assert finished == [0.5, 1.0]

    def test_idle_gap_not_charged(self):
        sim = Simulator()
        cpu = Cpu(sim, CpuCosts())
        finished = []
        cpu.execute(0.5, lambda: finished.append(sim.now))
        sim.schedule(10.0, lambda: cpu.execute(0.5, lambda: finished.append(sim.now)))
        sim.run()
        assert finished == [0.5, 10.5]

    def test_utilization(self):
        sim = Simulator()
        cpu = Cpu(sim, CpuCosts())
        cpu.execute(2.0, lambda: None)
        sim.run()
        sim.run(until=10.0)
        assert cpu.busy_seconds / sim.now == pytest.approx(0.2)

    def test_convenience_wrappers_charge_configured_costs(self):
        sim = Simulator()
        costs = CpuCosts(rsa_sign=1.0, rsa_verify=0.25)
        cpu = Cpu(sim, costs)
        finished = []
        cpu.sign(lambda: finished.append(("sign", sim.now)))
        cpu.verify(lambda: finished.append(("verify", sim.now)))
        sim.run()
        assert finished == [("sign", 1.0), ("verify", 1.25)]

    def test_operations_counter(self):
        sim = Simulator()
        cpu = Cpu(sim, CpuCosts.free())
        for _ in range(5):
            cpu.execute(cpu.costs.process_packet, lambda: None)
        assert cpu.operations == 5
