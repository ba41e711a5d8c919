"""Tests for the MMPP arrival process and the IR printer."""

import random

import pytest

from repro.core import Server, concord, persephone_fcfs
from repro.hardware import c6420
from repro.instrument import (
    CACHELINE_STYLE,
    Interpreter,
    ProbeInsertionPass,
)
from repro.instrument.kernels import kernel_by_name
from repro.instrument.printer import (
    ParseError,
    dump_function,
    dump_module,
    parse_module,
)
from repro.workloads import PoissonProcess, fixed_1us
from repro.workloads.arrivals import MarkovModulatedPoisson


class TestMMPP:
    def test_average_rate_preserved(self):
        process = MarkovModulatedPoisson(
            100_000, burst_factor=5.0, burst_fraction=0.2
        )
        rng = random.Random(0)
        gaps = [process.next_gap_us(rng) for _ in range(60_000)]
        mean_rate = 1e6 / (sum(gaps) / len(gaps))
        assert mean_rate == pytest.approx(100_000, rel=0.1)

    def test_burstier_than_poisson(self):
        # Squared CV of the interarrival gaps exceeds Poisson's 1.0.
        process = MarkovModulatedPoisson(
            100_000, burst_factor=8.0, burst_fraction=0.1,
            mean_dwell_us=5000.0,
        )
        rng = random.Random(1)
        gaps = [process.next_gap_us(rng) for _ in range(60_000)]
        mean = sum(gaps) / len(gaps)
        var = sum((g - mean) ** 2 for g in gaps) / len(gaps)
        assert var / mean**2 > 1.1

    def test_validation(self):
        with pytest.raises(ValueError):
            MarkovModulatedPoisson(0)
        with pytest.raises(ValueError):
            MarkovModulatedPoisson(1000, burst_factor=0.5)
        with pytest.raises(ValueError):
            MarkovModulatedPoisson(1000, burst_fraction=1.5)

    def test_drives_the_simulator(self):
        server = Server(c6420(4), persephone_fcfs(), seed=0)
        result = server.run(
            fixed_1us(),
            MarkovModulatedPoisson(500_000, burst_factor=4.0),
            3000,
        )
        assert result.drained

    def test_bursts_hurt_the_tail(self):
        from repro.metrics import summarize_slowdowns
        from repro.workloads.named import bimodal_50_1_50_100

        rate = 0.55 * 14 * 1e6 / bimodal_50_1_50_100().mean_us()
        smooth = Server(c6420(), concord(5.0), seed=3).run(
            bimodal_50_1_50_100(), PoissonProcess(rate), 8000
        )
        bursty = Server(c6420(), concord(5.0), seed=3).run(
            bimodal_50_1_50_100(),
            MarkovModulatedPoisson(rate, burst_factor=6.0,
                                   burst_fraction=0.15,
                                   mean_dwell_us=3000.0),
            8000,
        )
        smooth_tail = summarize_slowdowns(smooth.slowdowns()).p999
        bursty_tail = summarize_slowdowns(bursty.slowdowns()).p999
        assert bursty_tail > smooth_tail


class TestIRPrinter:
    def test_dump_contains_blocks_and_probes(self):
        module = kernel_by_name("radix").build(scale=0.01)
        function = module.entry_function()
        ProbeInsertionPass(CACHELINE_STYLE).run(function)
        text = dump_function(function)
        assert "func @main" in text
        assert "probe" in text
        assert "keys.header:" in text

    def test_roundtrip_preserves_semantics(self):
        module = kernel_by_name("histogram").build(scale=0.02)
        expected = Interpreter(module).run()
        text = dump_module(kernel_by_name("histogram").build(scale=0.02))
        parsed = parse_module(text)
        actual = Interpreter(parsed).run()
        assert actual.value == expected.value
        assert actual.cycles == expected.cycles

    def test_roundtrip_preserves_probe_attrs(self):
        module = kernel_by_name("radix").build(scale=0.01)
        function = module.entry_function()
        ProbeInsertionPass(CACHELINE_STYLE).run(function)
        parsed = parse_module(dump_module(module))
        probes = [
            instr
            for block in parsed.entry_function().iter_blocks()
            for instr in block.instrs if instr.is_probe
        ]
        assert probes
        assert all(p.attrs.get("cost") == 2 for p in probes)

    def test_parse_rejects_orphan_instruction(self):
        with pytest.raises(ParseError):
            parse_module("add x, 1, 2")

    def test_parse_rejects_block_outside_function(self):
        with pytest.raises(ParseError):
            parse_module("entry:\n  ret")

    def test_parse_rejects_unknown_opcode(self):
        text = "func @main() {\nentry:\n  warp x, 1\n  ret\n}"
        with pytest.raises(ParseError):
            parse_module(text)
