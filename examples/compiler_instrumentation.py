#!/usr/bin/env python3
"""The Concord compiler pipeline on a user-written kernel (section 4.3).

Builds a small program in the instrumentation IR, runs the two probe
passes (cache-line cooperation and rdtsc/Compiler-Interrupts style), and
reports what the paper's Table 1 reports: instrumentation overhead and
preemption timeliness.  Then plugs the resulting profile into the
scheduler simulation so notice latency comes from *this* program's probe
gaps.

Run:  python examples/compiler_instrumentation.py
"""

from repro.core import Server, concord
from repro.hardware import c6420
from repro.instrument import (
    CACHELINE_STYLE,
    RDTSC_STYLE,
    FunctionBuilder,
    Interpreter,
    profile_kernel,
)
from repro.instrument.ir import Module
from repro.metrics import summarize_slowdowns
from repro.workloads import PoissonProcess, bimodal_50_1_50_100


def build_matmul_kernel(scale=1.0):
    """A naive matrix-multiply-like kernel: triple nested loop with an
    8-op inner body — exactly the tight-loop shape that needs unrolling."""
    module = Module("user-matmul")
    b = FunctionBuilder("main")
    b.li("acc", 0.0)
    n = int(40 * scale)

    def row(i):
        def col(j):
            def inner(k):
                a_val = b.fresh("a")
                b.emit("fmul", a_val, i, k)
                b_val = b.fresh("b")
                b.emit("fmul", b_val, k, j)
                prod = b.fresh("p")
                b.emit("fmul", prod, a_val, b_val)
                b.emit("fadd", "acc", "acc", prod)

            b.counted_loop("k{}".format(id(j)), n, inner)

        b.counted_loop("j{}".format(id(i)), n, col)

    b.counted_loop("i", n, row)
    b.ret("acc")
    module.add(b.function)
    return module


def main():
    baseline = Interpreter(build_matmul_kernel()).run()
    print("baseline: {} instructions, {} cycles ({:.0f} us)".format(
        baseline.instructions, baseline.cycles, baseline.cycles / 2600))

    for style, label in ((CACHELINE_STYLE, "Concord cache-line"),
                         (RDTSC_STYLE, "Compiler-Interrupts rdtsc")):
        profile = profile_kernel(build_matmul_kernel, style)
        print("\n{} instrumentation:".format(label))
        print("  overhead: {:+.2f}%".format(100 * profile.overhead_fraction))
        print("  probes fired: {}, mean gap {:.0f} cycles "
              "({:.0f} ns)".format(profile.probes_fired,
                                   profile.mean_gap_cycles,
                                   profile.mean_gap_cycles / 2.6))
        print("  preemption timeliness sigma at 5us quantum: "
              "{:.3f} us".format(profile.timeliness_std_us(5.0)))

    # Use the Concord profile to drive notice latency in the scheduler.
    profile = profile_kernel(build_matmul_kernel, CACHELINE_STYLE)
    machine = c6420()
    workload = bimodal_50_1_50_100()
    load = 0.7 * machine.num_workers * 1e6 / workload.mean_us()
    server = Server(machine, concord(5.0, profile=profile), seed=1)
    result = server.run(workload, PoissonProcess(load), 15_000)
    summary = summarize_slowdowns(result.slowdowns())
    print("\nscheduler simulation with this program's probe gaps:")
    print("  p99.9 slowdown at {:.0f} kRps: {:.2f} (50x SLO: {})".format(
        load / 1e3, summary.p999, "met" if summary.meets_slo() else "MISSED"))


if __name__ == "__main__":
    main()
