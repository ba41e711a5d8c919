"""Guards on the instance and loop shapes that let CPython specialize the
simulator's hot path.

CPython shares one key table among a class's instance dicts for at most 30
attributes.  Past that limit every ``self.x`` becomes a dict probe (on
3.11, ``LOAD_ATTR_WITH_HINT`` / ``STORE_ATTR_WITH_HINT``) instead of an
indexed load, so the two agents with the most state, ``Dispatcher`` and
``Worker``, are slotted, and ``Server`` and ``Simulator`` must stay under
the limit.

``vars()`` is called only on instances that are not run afterwards: on
3.11 it turns the instance's inline attribute values into a real dict,
whose accesses then take the slower ``*_WITH_HINT`` forms.
"""

import dis
import inspect
import os
import subprocess
import sys
import textwrap

import pytest

import repro
from repro.core import Server, concord
from repro.core.dispatcher import Dispatcher
from repro.core.request import ArrivalFeed
from repro.core.worker import Worker
from repro.hardware import c6420
from repro.workloads import PoissonProcess, bimodal_50_1_50_100

#: CPython's shared-key limit (``SHARED_KEYS_MAX_SIZE`` in
#: Objects/dictobject.c): instances of a class with more attributes than
#: this fall back to ordinary per-instance dicts.
SHARED_KEYS_MAX_SIZE = 30

PY311 = sys.version_info[:2] == (3, 11)
only_311 = pytest.mark.skipif(
    not PY311, reason="inspects CPython 3.11's specialized bytecode"
)


def concord_server():
    return Server(c6420(4), concord(5.0), seed=1)


class TestInstanceLayout:
    def test_dispatcher_and_workers_have_no_instance_dict(self):
        server = concord_server()
        assert not hasattr(server.dispatcher, "__dict__")
        for worker in server.workers:
            assert not hasattr(worker, "__dict__")

    def test_slotted_agents_reject_unknown_attributes(self):
        server = concord_server()
        with pytest.raises(AttributeError):
            server.dispatcher.steals_startd = 1
        with pytest.raises(AttributeError):
            server.workers[0].outstandng = 1

    def test_server_and_simulator_stay_within_shared_keys(self):
        # One more Server attribute past the limit would turn every
        # ``server.faults`` read on the dispatcher's action path into a
        # dict probe.
        server = concord_server()
        assert len(vars(server)) <= SHARED_KEYS_MAX_SIZE
        assert len(vars(server.sim)) <= SHARED_KEYS_MAX_SIZE


def methods_loaded_as_values(function, cls):
    """The methods of ``cls`` that ``function`` reads as values: each such
    read builds a new bound method, through an attribute load CPython 3.11
    cannot specialize.  A method call is ``LOAD_METHOD`` before 3.12 and a
    ``LOAD_ATTR`` flagged ``NULL|self`` from 3.12 on."""
    methods = {
        name for name, value in vars(cls).items() if inspect.isfunction(value)
    }
    return [
        instr.argval
        for instr in dis.get_instructions(function)
        if instr.opname == "LOAD_ATTR" and instr.argval in methods
        and "NULL|self" not in instr.argrepr
    ]


class TestBoundMethods:
    def test_hot_functions_build_no_bound_method(self):
        for function, cls in (
            (Dispatcher._next, Dispatcher), (ArrivalFeed._post_next, ArrivalFeed),
        ):
            assert methods_loaded_as_values(function, cls) == [], (
                function.__qualname__
            )

    def test_steal_slice_timers_build_no_bound_method(self):
        # Each steal slice posts its finish timer and each pause its pause
        # timer: both callbacks are bound once, at construction.
        for function in (Dispatcher._begin_steal, Dispatcher._interrupt_steal):
            assert methods_loaded_as_values(function, Dispatcher) == [], (
                function.__qualname__
            )

    def test_the_check_sees_a_method_read_as_a_value(self):
        class Agent:
            def tick(self):
                return self.tock

            def tock(self):
                return self.tick()

        assert methods_loaded_as_values(Agent.tick, Agent) == ["tock"]
        assert methods_loaded_as_values(Agent.tock, Agent) == []


def hinted(function):
    """The ``*_WITH_HINT`` (dict-probe) instructions ``function`` has
    specialized to so far."""
    return [
        instr.opname
        for instr in dis.get_instructions(function, adaptive=True)
        if instr.opname.endswith("_WITH_HINT")
    ]


@only_311
class TestSpecializedBytecode:
    def test_hot_methods_load_attributes_without_dict_probes(self):
        server = concord_server()
        server.run(bimodal_50_1_50_100(), PoissonProcess(60_000), 2000)
        for function in (
            Dispatcher._next, Worker._start_next, Worker.on_preempt_signal,
        ):
            assert hinted(function) == [], function.__qualname__

    def test_drain_loop_quickens_within_one_run(self):
        # A fresh interpreter, so earlier runs in this process (each entry
        # counts towards warm-up) cannot quicken ``Simulator.run`` first.
        # Shinjuku steals nothing, so no cancelled entry is ever skipped:
        # only the per-event back edge can warm the loop up.
        script = textwrap.dedent("""
            import dis
            from repro.core import Server, shinjuku
            from repro.hardware import c6420
            from repro.sim.engine import Simulator
            from repro.workloads import PoissonProcess, bimodal_50_1_50_100

            server = Server(c6420(2), shinjuku(5.0), seed=1)
            server.run(bimodal_50_1_50_100(), PoissonProcess(20_000), 200)
            plain = dis.get_instructions(Simulator.run)
            quick = dis.get_instructions(Simulator.run, adaptive=True)
            print(sum(a.opname != b.opname for a, b in zip(plain, quick)))
        """)
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True,
            text=True, check=True, timeout=120,
        )
        assert int(out.stdout.split()[-1]) > 0
