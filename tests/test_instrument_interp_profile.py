"""Tests for the IR interpreter and instrumentation profiles."""

import random

import pytest

from repro.instrument import (
    CACHELINE_STYLE,
    RDTSC_STYLE,
    FunctionBuilder,
    Interpreter,
    ProbeInsertionPass,
    profile_kernel,
)
from repro.instrument.interp import InterpreterError
from repro.instrument.ir import Module
from repro.instrument.kernels import KERNELS, kernel_by_name


def make_module(build):
    module = Module("test")
    b = FunctionBuilder("main")
    build(b)
    module.add(b.function)
    return module


def run_module(module, **kwargs):
    return Interpreter(module).run(**kwargs)


class TestInterpreter:
    def test_arithmetic_semantics(self):
        def build(b):
            b.li("x", 6)
            b.li("y", 7)
            b.emit("mul", "z", "x", "y")
            b.ret("z")

        assert run_module(make_module(build)).value == 42

    def test_loop_computes_sum(self):
        def build(b):
            b.li("acc", 0)

            def body(i):
                b.emit("add", "acc", "acc", i)

            b.counted_loop("l", 10, body)
            b.ret("acc")

        assert run_module(make_module(build)).value == sum(range(10))

    def test_memory_roundtrip(self):
        def build(b):
            b.li("v", 123)
            b.emit("store", None, "v", 5)
            b.emit("load", "out", 5)
            b.ret("out")

        assert run_module(make_module(build)).value == 123

    def test_division_by_zero_yields_zero(self):
        def build(b):
            b.li("x", 1.0)
            b.li("z", 0.0)
            b.emit("fdiv", "out", "x", "z")
            b.ret("out")

        assert run_module(make_module(build)).value == 0.0

    def test_cycles_accumulate_op_costs(self):
        def build(b):
            b.li("x", 1)       # 1 cycle
            b.emit("mul", "y", "x", "x")  # 3 cycles
            b.ret("y")         # 1 cycle (terminator)

        assert run_module(make_module(build)).cycles == 5

    def test_ext_call_charges_cost(self):
        def build(b):
            b.ext_call("x", "syscall", 777)
            b.ret()

        result = run_module(make_module(build))
        assert result.cycles == 777 + 1  # + ret terminator

    def test_cross_function_call(self):
        module = Module("m")
        helper = FunctionBuilder("helper", params=["a"])
        helper.emit("add", "out", "a", 1)
        helper.ret("out")
        module.add(helper.function)
        main = FunctionBuilder("main")
        main.li("x", 41)
        main.call("y", "helper", "x")
        main.ret("y")
        module.add(main.function)
        assert Interpreter(module).run().value == 42

    def test_unknown_callee_raises(self):
        def build(b):
            b.call("x", "missing")
            b.ret()

        with pytest.raises(InterpreterError):
            run_module(make_module(build))

    def test_instruction_budget(self):
        def build(b):
            b.li("acc", 0)

            def body(i):
                b.emit("add", "acc", "acc", 1)

            b.counted_loop("l", 10_000, body)
            b.ret("acc")

        with pytest.raises(InterpreterError):
            run_module(make_module(build), max_instructions=100)

    def test_probe_callback_invoked(self):
        def build(b):
            b.li("acc", 0)

            def body(i):
                b.emit("add", "acc", "acc", 1)

            b.counted_loop("l", 50, body)
            b.ret("acc")

        module = make_module(build)
        ProbeInsertionPass(CACHELINE_STYLE).run(module.entry_function())
        seen = []
        result = Interpreter(module).run(preempt_check=seen.append)
        assert result.probes_fired == len(seen)
        assert result.probes_fired > 0
        assert seen == sorted(seen)

    def test_memory_words_power_of_two(self):
        with pytest.raises(ValueError):
            Interpreter(Module("m"), memory_words=1000)

    def test_wrong_arity_raises(self):
        module = Module("m")
        f = FunctionBuilder("main", params=["a"])
        f.ret("a")
        module.add(f.function)
        with pytest.raises(InterpreterError):
            Interpreter(module).run(args=())

    def test_too_many_args_raises(self):
        module = Module("m")
        f = FunctionBuilder("main", params=["a"])
        f.ret("a")
        module.add(f.function)
        with pytest.raises(InterpreterError):
            Interpreter(module).run(args=(1, 2))

    def test_infinite_loop_hits_instruction_budget(self):
        module = Module("m")
        f = FunctionBuilder("main")
        f.li("x", 0)
        f.jump("spin")
        f.block("spin")
        f.emit("add", "x", "x", 1)
        f.jump("spin")
        module.add(f.function)
        with pytest.raises(InterpreterError, match="instruction budget"):
            Interpreter(module).run(max_instructions=1000)

    def test_unbounded_recursion_raises(self):
        module = Module("m")
        f = FunctionBuilder("main")
        f.call("x", "main")
        f.ret("x")
        module.add(f.function)
        with pytest.raises(InterpreterError, match="call depth exceeded"):
            Interpreter(module).run()


class TestProfiles:
    def test_concord_cheaper_than_ci_on_every_kernel(self):
        for spec in KERNELS[:6]:
            concord = profile_kernel(
                lambda s=spec: s.build(scale=0.15), CACHELINE_STYLE
            )
            ci = profile_kernel(
                lambda s=spec: s.build(scale=0.15), RDTSC_STYLE
            )
            assert concord.overhead_fraction < ci.overhead_fraction, spec.name

    def test_instrumented_and_base_runs_agree_on_result(self):
        spec = kernel_by_name("radix")
        base = Interpreter(spec.build(scale=0.1)).run()
        module = spec.build(scale=0.1)
        ProbeInsertionPass(CACHELINE_STYLE).run(module.entry_function())
        instrumented = Interpreter(module).run()
        assert base.value == instrumented.value

    def test_gap_sampling_bounded_by_max_gap(self):
        profile = profile_kernel(
            lambda: kernel_by_name("fft").build(scale=0.2), CACHELINE_STYLE
        )
        rng = random.Random(0)
        for _ in range(200):
            gap = profile.sample_gap_cycles(rng)
            assert 0 <= gap <= profile.max_gap_cycles

    def test_deviations_are_one_sided(self):
        profile = profile_kernel(
            lambda: kernel_by_name("kmeans").build(scale=0.2), CACHELINE_STYLE
        )
        deviations = profile.preemption_deviations_cycles(13000, samples=100)
        assert all(d >= 0 for d in deviations)

    def test_timeliness_under_2us_for_all_kernels(self):
        # Table 1's last-column claim, at the paper's 5us quantum.
        for spec in KERNELS:
            profile = profile_kernel(
                lambda s=spec: s.build(scale=0.25), CACHELINE_STYLE
            )
            std = profile.timeliness_std_us(5.0)
            assert std < 2.0, "{}: {}us".format(spec.name, std)

    def test_invalid_quantum_rejected(self):
        profile = profile_kernel(
            lambda: kernel_by_name("radix").build(scale=0.05), CACHELINE_STYLE
        )
        with pytest.raises(ValueError):
            profile.preemption_deviations_cycles(0)


class TestKernelRegistry:
    def test_24_kernels_registered(self):
        assert len(KERNELS) == 24
        suites = {spec.suite for spec in KERNELS}
        assert suites == {"Splash-2", "Phoenix", "Parsec"}

    def test_lookup(self):
        assert kernel_by_name("radix").suite == "Splash-2"
        with pytest.raises(KeyError):
            kernel_by_name("doom")

    def test_every_kernel_builds_and_runs(self):
        for spec in KERNELS:
            module = spec.build(scale=0.05)
            result = Interpreter(module).run(max_instructions=5_000_000)
            assert result.cycles > 0, spec.name
