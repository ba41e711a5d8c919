"""Interprocedural effect-analysis tests.

Two halves: synthetic fixture packages that exercise the call-graph
resolution tiers (module functions, methods via typed attributes,
callback registration), and a *differential* test over the real tree —
copy ``src/repro``, inject a seeded nondeterminism bug, and prove the
certificate catches it.  The differential half is what keeps the
analysis honest: a vacuous analysis would certify everything sim-pure,
including the sabotaged copy.
"""

import shutil
import textwrap
from pathlib import Path

import pytest

import repro
from repro.analysis.effects import (
    CLOCK,
    GLOBAL_RNG,
    IO,
    DEFAULT_ENTRY_POINTS,
    EffectAnalysis,
    make_fid,
)
from repro.analysis.source import discover_sources


def build_package(tmp_path, files, name="pkg"):
    """Materialize ``files`` (relative path -> source) as a package and
    return its analysed sources."""
    root = tmp_path / name
    root.mkdir(parents=True, exist_ok=True)
    (root / "__init__.py").write_text("", encoding="utf-8")
    for rel, text in files.items():
        target = root / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(text), encoding="utf-8")
    return discover_sources(root)


class TestCallGraph:
    def test_effect_propagates_through_module_call(self, tmp_path):
        sources = build_package(tmp_path, {
            "a.py": """
                from pkg import b

                def run():
                    return b.helper()
            """,
            "b.py": """
                import time

                def helper():
                    return time.time()
            """,
        })
        analysis = EffectAnalysis(sources)
        assert CLOCK in analysis.effects_of("pkg.a:run")
        witness = analysis.witness("pkg.a:run", CLOCK)
        assert any("pkg.b:helper" in step for step in witness)

    def test_pure_function_has_no_effects(self, tmp_path):
        sources = build_package(tmp_path, {
            "a.py": """
                def run(x):
                    return x * 2
            """,
        })
        analysis = EffectAnalysis(sources)
        assert analysis.effects_of("pkg.a:run") == frozenset()

    def test_method_call_via_constructor_typed_local(self, tmp_path):
        sources = build_package(tmp_path, {
            "engine.py": """
                import random

                class Engine:
                    def spin(self):
                        return random.random()
            """,
            "driver.py": """
                from pkg.engine import Engine

                def run():
                    engine = Engine()
                    return engine.spin()
            """,
        })
        analysis = EffectAnalysis(sources)
        assert GLOBAL_RNG in analysis.effects_of("pkg.driver:run")

    def test_self_attribute_type_from_init(self, tmp_path):
        sources = build_package(tmp_path, {
            "parts.py": """
                class Probe:
                    def read(self):
                        import os
                        return os.environ.get("X")
            """,
            "owner.py": """
                from pkg.parts import Probe

                class Owner:
                    def __init__(self):
                        self.probe = Probe()

                    def run(self):
                        return self.probe.read()
            """,
        })
        analysis = EffectAnalysis(sources)
        effects = analysis.effects_of("pkg.owner:Owner.run")
        assert "env" in effects

    def test_callback_registration_reaches_handler(self, tmp_path):
        # A bound method passed as a value (callback style, like
        # LoadBalancer._fire) must still contribute its effects.
        sources = build_package(tmp_path, {
            "timer.py": """
                class Timer:
                    def at(self, when, fn):
                        pass
            """,
            "agent.py": """
                from pkg.timer import Timer

                class Agent:
                    def __init__(self):
                        self.timer = Timer()

                    def start(self):
                        self.timer.at(10, self._fire)

                    def _fire(self):
                        with open("log.txt") as fh:
                            return fh.read()
            """,
        })
        analysis = EffectAnalysis(sources)
        assert IO in analysis.effects_of("pkg.agent:Agent.start")

    def test_other_objects_method_passed_as_argument(self, tmp_path):
        # ``sim.post(delay, server.deliver, request)``: a method of
        # another object handed to the event loop with its argument.
        sources = build_package(tmp_path, {
            "server.py": """
                import random

                class Server:
                    def deliver(self, request):
                        return random.random()
            """,
            "balancer.py": """
                class Balancer:
                    def send(self, sim, server, request):
                        sim.post(5, server.deliver, request)

                    def read(self, server):
                        return server.rid
            """,
        })
        analysis = EffectAnalysis(sources)
        assert GLOBAL_RNG in analysis.effects_of("pkg.balancer:Balancer.send")
        assert not analysis.effects_of("pkg.balancer:Balancer.read")

    def test_method_inside_a_tuple_argument(self, tmp_path):
        # ``heappush(heap, (t, seq, self.dispatcher.on_x, arg))``: an
        # event entry pushed straight onto the heap carries its callback
        # inside a tuple, as ``obj.method`` or ``self.attr.method``.
        sources = build_package(tmp_path, {
            "target.py": """
                import random
                import time

                class Dispatcher:
                    def on_expiry(self, entry):
                        return random.random()

                class Server:
                    def deliver(self, request):
                        return time.time()
            """,
            "worker.py": """
                from heapq import heappush

                class Worker:
                    def __init__(self, dispatcher):
                        self.dispatcher = dispatcher
                        self.heap = []

                    def arm(self, t):
                        heappush(self.heap, (
                            t, 1, self.dispatcher.on_expiry, (self, t),
                        ))

                    def hand_off(self, server, t):
                        self.heap.extend([(t, 2, server.deliver, t)])

                    def keep(self, t):
                        heappush(self.heap, (t, 3, self.heap, t))
            """,
        })
        analysis = EffectAnalysis(sources)
        assert GLOBAL_RNG in analysis.effects_of("pkg.worker:Worker.arm")
        assert CLOCK in analysis.effects_of("pkg.worker:Worker.hand_off")
        assert not analysis.effects_of("pkg.worker:Worker.keep")

    def test_bound_method_stored_on_an_attribute(self, tmp_path):
        # ``self._defer = server.defer_cycles``, then ``self._defer(kind)``
        # (or the same through a local name): the call runs the stored
        # method, here an RNG read.
        sources = build_package(tmp_path, {
            "server.py": """
                import random

                class Server:
                    def defer_cycles(self, kind):
                        return random.random()
            """,
            "worker.py": """
                import time

                class Worker:
                    def __init__(self, server):
                        self._defer = server.defer_cycles
                        self._stamp = self._idle
                        self._loop = self._loop
                        self.kind = server.kind

                    def arm(self):
                        self._stamp = self._clock

                    def _idle(self):
                        return 0

                    def notice(self, kind):
                        return self._defer(kind)

                    def stamp(self):
                        return self._stamp()

                    def _clock(self):
                        return time.time()

                    def spin(self):
                        return self._loop()

                    def hoisted(self, server, kind):
                        defer = server.defer_cycles
                        return defer(kind)
            """,
        })
        analysis = EffectAnalysis(sources)
        notice = "pkg.worker:Worker.notice"
        assert analysis.effects_of(notice) == {GLOBAL_RNG}
        assert not analysis.functions[notice].externals
        assert analysis.effects_of("pkg.worker:Worker.stamp") == {CLOCK}
        assert not analysis.effects_of("pkg.worker:Worker.spin")
        hoisted = "pkg.worker:Worker.hoisted"
        assert analysis.effects_of(hoisted) == {GLOBAL_RNG}
        assert not analysis.functions[hoisted].externals

    def test_super_call_reaches_base_method(self, tmp_path):
        sources = build_package(tmp_path, {
            "base.py": """
                import time

                class Base:
                    def __init__(self):
                        self.born = time.time()
            """,
            "derived.py": """
                from pkg.base import Base

                class Derived(Base):
                    def __init__(self, tag):
                        super().__init__()
                        self.tag = tag

                def run():
                    return Derived("x")
            """,
        })
        analysis = EffectAnalysis(sources)
        assert CLOCK in analysis.effects_of("pkg.derived:Derived.__init__")
        assert CLOCK in analysis.effects_of("pkg.derived:run")

    def test_module_import_effects_count(self, tmp_path):
        # Importing a module executes its top level; a module-level
        # effect taints everything that imports it.
        sources = build_package(tmp_path, {
            "tainted.py": """
                import time

                STARTED = time.time()

                def helper(x):
                    return x
            """,
            "user.py": """
                from pkg import tainted

                def run():
                    return tainted.helper(1)
            """,
        })
        analysis = EffectAnalysis(sources)
        assert CLOCK in analysis.effects_of("pkg.user:run")

    def test_reachability_closure(self, tmp_path):
        sources = build_package(tmp_path, {
            "chain.py": """
                def a():
                    return b()

                def b():
                    return c()

                def c():
                    return 1

                def unrelated():
                    return 2
            """,
        })
        analysis = EffectAnalysis(sources)
        reachable = analysis.reachable_from("pkg.chain:a")
        for name in ("a", "b", "c"):
            assert make_fid("pkg.chain", name) in reachable
        assert make_fid("pkg.chain", "unrelated") not in reachable

    def test_certify_reports_missing_entry(self, tmp_path):
        sources = build_package(tmp_path, {
            "a.py": """
                def run():
                    return 1
            """,
        })
        analysis = EffectAnalysis(sources)
        certificate = analysis.certify(entries=("pkg.a:run", "pkg.a:gone"))
        by_entry = {e.entry: e for e in certificate.entries}
        assert by_entry["pkg.a:run"].found
        assert by_entry["pkg.a:run"].pure
        assert not by_entry["pkg.a:gone"].found
        assert not certificate.ok


# -- the differential test over the real tree --------------------------------


REPRO_SRC = Path(repro.__file__).parent


def copy_repro(tmp_path):
    target = tmp_path / "repro"
    shutil.copytree(
        REPRO_SRC, target,
        ignore=shutil.ignore_patterns("__pycache__", "*.pyc"),
    )
    return target


def inject_wall_clock(tree):
    """Plant a wall-clock read inside Dispatcher.__init__ — the heart of
    every simulation, reachable from all three job entry points."""
    path = tree / "core" / "dispatcher.py"
    text = path.read_text(encoding="utf-8")
    anchor = "    def __init__(self, sim, server):\n"
    assert anchor in text, "dispatcher anchor moved; update the test"
    sabotage = (
        anchor
        + "        import time\n"
        + "        self._sneaky_epoch = time.time()\n"
    )
    path.write_text(text.replace(anchor, sabotage, 1), encoding="utf-8")


class TestDifferential:
    def test_clean_tree_certifies_sim_pure(self, tmp_path):
        tree = copy_repro(tmp_path)
        analysis = EffectAnalysis(discover_sources(tree))
        certificate = analysis.certify()
        assert certificate.ok
        for entry in certificate.entries:
            assert entry.found, entry.entry
            assert entry.pure, (entry.entry, entry.violations)
            # Non-vacuous: the closure actually spans the simulator.
            assert entry.reachable > 50, entry.entry

    def test_injected_wall_clock_breaks_certificate(self, tmp_path):
        tree = copy_repro(tmp_path)
        inject_wall_clock(tree)
        analysis = EffectAnalysis(discover_sources(tree))
        certificate = analysis.certify()
        assert not certificate.ok
        impure = [e for e in certificate.entries if not e.pure]
        # Every entry point simulates through a Dispatcher.
        assert {e.entry for e in impure} == set(DEFAULT_ENTRY_POINTS)
        for entry in impure:
            assert CLOCK in entry.violations
            witness = entry.witnesses[CLOCK]
            assert any("dispatcher" in step.lower() for step in witness)
            assert any("time.time" in step for step in witness)

    def test_injected_global_rng_breaks_certificate(self, tmp_path):
        tree = copy_repro(tmp_path)
        path = tree / "core" / "dispatcher.py"
        text = path.read_text(encoding="utf-8")
        anchor = "    def __init__(self, sim, server):\n"
        assert anchor in text
        sabotage = (
            anchor
            + "        import random\n"
            + "        self._jitter = random.random()\n"
        )
        path.write_text(text.replace(anchor, sabotage, 1), encoding="utf-8")
        analysis = EffectAnalysis(discover_sources(tree))
        certificate = analysis.certify()
        assert not certificate.ok
        impure = [e for e in certificate.entries if not e.pure]
        assert impure
        assert all(GLOBAL_RNG in e.violations for e in impure)


class TestRealTreeClosure:
    """Sanity probes: the certified closure includes the machinery a
    simulation actually exercises (guards against resolution regressions
    that would silently shrink the analysis)."""

    @pytest.fixture(scope="class")
    def analysis(self):
        return EffectAnalysis(discover_sources(REPRO_SRC))

    @pytest.mark.parametrize("entry,probe", [
        ("repro.parallel.jobs:SimJob.run", "repro.core.server:Server.run"),
        ("repro.parallel.jobs:SimJob.run",
         "repro.sim.engine:Simulator.run"),
        ("repro.parallel.jobs:SimJob.run",
         "repro.core.dispatcher:Dispatcher.__init__"),
        ("repro.parallel.jobs:SimJob.run",
         "repro.workloads.arrivals:PoissonProcess.next_gap_us"),
        ("repro.parallel.jobs:RackJob.run",
         "repro.cluster.rack:Cluster.run"),
        ("repro.parallel.jobs:RackJob.run",
         "repro.core.server:Server.deliver"),
        ("repro.parallel.jobs:RackJob.run",
         "repro.core.dispatcher:Dispatcher.__init__"),
    ] + [
        # Every callback of the preemption slice chain, most of them pushed
        # straight onto the event heap inside an entry tuple.
        (entry, probe)
        for entry in ("repro.parallel.jobs:SimJob.run",
                      "repro.parallel.jobs:RackJob.run")
        for probe in ("repro.core.dispatcher:Dispatcher._next",
                      "repro.core.dispatcher:Dispatcher.enqueue_preempt",
                      "repro.core.dispatcher:Dispatcher._register_ready",
                      "repro.core.worker:Worker.on_preempt_signal",
                      "repro.core.worker:Worker._after_yield",
                      "repro.core.worker:Worker._on_complete",
                      "repro.core.server:Server.defer_cycles")
    ] + [
        # The faulted rack's timers: a bound method posted with its
        # argument, and the crash sweep the injector hands to the core.
        ("repro.parallel.jobs:RackJob.run", probe)
        for probe in ("repro.core.dispatcher:Dispatcher._finish_slice",
                      "repro.core.dispatcher:Dispatcher._pause_steal",
                      "repro.core.dispatcher:Dispatcher.crash_sweep",
                      "repro.core.worker:Worker.crash_sweep",
                      "repro.faults.injector:FaultInjector._crash",
                      "repro.faults.injector:FaultInjector._recover",
                      "repro.faults.resilience:ResilienceManager._on_timeout",
                      "repro.faults.resilience:ResilienceManager._on_hedge")
    ])
    def test_probe_reachable(self, analysis, entry, probe):
        assert probe in analysis.reachable_from(entry)
