"""Per-rule unit tests for the repro-san determinism catalogue.

Each test feeds a small synthetic module through
:class:`~repro.analysis.source.SourceFile` and asserts which rules fire
(and, as importantly, which do not — neutralized patterns like
``sorted(a_set)`` must stay silent).
"""

import textwrap

import pytest

from repro.analysis.rules import rules_by_code, run_rules
from repro.analysis.source import SourceFile


def check(text, module="repro.sim.fake", codes=None, path="fake.py"):
    """Findings for ``text`` as module ``module`` (default: a sim path)."""
    src = SourceFile.from_text(
        textwrap.dedent(text), path=path, module=module
    )
    rules = rules_by_code(codes) if codes else None
    return run_rules([src], rules=rules)


def fired(findings):
    return sorted({f.rule for f in findings if not f.suppressed})


class TestWallClock:
    def test_time_time_flagged(self):
        findings = check("""
            import time

            def f():
                return time.time()
        """)
        assert "DET001" in fired(findings)

    def test_aliased_import_flagged(self):
        findings = check("""
            import time as clock

            def f():
                return clock.monotonic()
        """)
        assert "DET001" in fired(findings)

    def test_datetime_now_flagged(self):
        findings = check("""
            import datetime

            def f():
                return datetime.datetime.now()
        """)
        assert "DET001" in fired(findings)

    def test_simulated_clock_not_flagged(self):
        findings = check("""
            def f(sim):
                return sim.now
        """)
        assert fired(findings) == []


class TestGlobalRng:
    def test_module_level_random_flagged(self):
        findings = check("""
            import random

            def f():
                return random.random()
        """)
        assert "DET002" in fired(findings)

    def test_numpy_global_rng_flagged(self):
        findings = check("""
            import numpy as np

            def f():
                return np.random.normal()
        """)
        assert "DET002" in fired(findings)

    def test_os_urandom_flagged(self):
        findings = check("""
            import os

            def f():
                return os.urandom(8)
        """)
        assert "DET002" in fired(findings)

    def test_unseeded_constructor_flagged(self):
        findings = check("""
            import random

            def f():
                return random.Random()
        """)
        assert "DET002" in fired(findings)

    def test_seeded_instance_not_flagged(self):
        findings = check("""
            import random

            def f(seed):
                rng = random.Random(seed)
                return rng.random()
        """)
        assert fired(findings) == []


class TestUnorderedIteration:
    def test_for_over_set_literal_flagged(self):
        findings = check("""
            def f():
                out = []
                for x in {1, 2, 3}:
                    out.append(x)
                return out
        """)
        assert "DET003" in fired(findings)

    def test_for_over_set_typed_local_flagged(self):
        findings = check("""
            def f(items):
                seen = set(items)
                total = []
                for x in seen:
                    total.append(x)
                return total
        """)
        assert "DET003" in fired(findings)

    def test_sorted_set_not_flagged(self):
        findings = check("""
            def f(items):
                seen = set(items)
                out = []
                for x in sorted(seen):
                    out.append(x)
                return out
        """)
        assert fired(findings) == []

    def test_membership_and_len_not_flagged(self):
        findings = check("""
            def f(items, probe):
                seen = set(items)
                return probe in seen, len(seen)
        """)
        assert fired(findings) == []

    def test_list_of_set_flagged(self):
        findings = check("""
            def f(items):
                seen = set(items)
                return list(seen)
        """)
        assert "DET003" in fired(findings)

    def test_set_name_in_another_function_not_flagged(self):
        # Set-typed names are inferred per scope: ``names`` is a set in
        # collect() only, so ordered() may loop over its list freely.
        findings = check("""
            def collect(items):
                names = set()
                for item in sorted(items):
                    names.add(item)
                return len(names)

            def ordered(items):
                names = [item for item in items]
                out = []
                for name in names:
                    out.append(name)
                return out
        """)
        assert fired(findings) == []

    def test_set_name_from_enclosing_scopes_still_flagged(self):
        findings = check("""
            SEEN = set()

            def outer(items):
                pending = set(items)

                def inner():
                    return [x for x in pending] + [y for y in SEEN]

                return inner()
        """)
        assert sum(f.rule == "DET003" for f in findings) == 2


class TestIdentityOrder:
    def test_sort_key_id_flagged(self):
        findings = check("""
            def f(objs):
                return sorted(objs, key=id)
        """)
        assert "DET004" in fired(findings)

    def test_sort_key_lambda_with_id_flagged(self):
        findings = check("""
            def f(objs):
                return sorted(objs, key=lambda o: (id(o), o))
        """)
        assert "DET004" in fired(findings)

    def test_id_ordering_comparison_flagged(self):
        findings = check("""
            def f(a, b):
                return id(a) < id(b)
        """)
        assert "DET004" in fired(findings)

    def test_id_as_mapping_key_flagged(self):
        findings = check("""
            def f(obj, table):
                table[id(obj)] = obj
        """)
        assert "DET004" in fired(findings)

    def test_stable_sort_key_not_flagged(self):
        findings = check("""
            def f(objs):
                return sorted(objs, key=lambda o: o.name)
        """)
        assert fired(findings) == []


class TestAmbientRead:
    def test_open_in_sim_path_flagged(self):
        text = """
            def f(path):
                with open(path) as fh:
                    return fh.read()
        """
        findings = check(text, module="repro.sim.fake")
        assert "DET005" in fired(findings)

    def test_environ_in_sim_path_flagged(self):
        findings = check("""
            import os

            def f():
                return os.environ.get("KNOB")
        """, module="repro.core.fake")
        assert "DET005" in fired(findings)

    def test_open_outside_sim_path_not_flagged(self):
        text = """
            def f(path):
                with open(path) as fh:
                    return fh.read()
        """
        findings = check(text, module="repro.experiments.fake")
        assert "DET005" not in fired(findings)


class TestJobClosure:
    def test_lambda_in_job_spec_flagged(self):
        findings = check("""
            from repro.parallel import SimJob

            def f(machine, workload):
                return SimJob(machine=machine, config=lambda: None,
                              workload=workload, load_rps=1.0,
                              num_requests=10, seed=1)
        """, module="repro.experiments.fake")
        assert "PAR001" in fired(findings)

    def test_plain_job_spec_not_flagged(self):
        findings = check("""
            from repro.parallel import SimJob

            def f(machine, config, workload):
                return SimJob(machine=machine, config=config,
                              workload=workload, load_rps=1.0,
                              num_requests=10, seed=1)
        """, module="repro.experiments.fake")
        assert "PAR001" not in fired(findings)


class TestMutableJobState:
    def test_mutable_default_on_frozen_dataclass_flagged(self):
        findings = check("""
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class Spec:
                name: str
                tags = []
        """, module="repro.parallel.fake")
        assert "PAR002" in fired(findings)

    def test_field_default_factory_not_flagged(self):
        findings = check("""
            from dataclasses import dataclass, field

            @dataclass(frozen=True)
            class Spec:
                name: str
                tags: tuple = ()
                extra: dict = field(default_factory=dict)
        """, module="repro.parallel.fake")
        assert "PAR002" not in fired(findings)

    def test_plain_class_not_flagged(self):
        findings = check("""
            class Registry:
                entries = {}
        """, module="repro.parallel.fake")
        assert "PAR002" not in fired(findings)


class TestSuppressions:
    def test_ignore_pragma_suppresses_with_reason(self):
        findings = check("""
            import time

            def f():
                return time.time()  # repro-san: ignore[DET001] -- progress footer only
        """)
        assert fired(findings) == []
        suppressed = [f for f in findings if f.suppressed]
        assert len(suppressed) == 1
        assert suppressed[0].rule == "DET001"
        assert suppressed[0].suppress_reason == "progress footer only"

    def test_ignore_pragma_is_code_specific(self):
        findings = check("""
            import time, random

            def f():
                return time.time(), random.random()  # repro-san: ignore[DET001] -- half-covered
        """)
        assert fired(findings) == ["DET002"]

    def test_wildcard_pragma_covers_everything(self):
        findings = check("""
            import time, random

            def f():
                return time.time(), random.random()  # repro-san: ignore[*] -- test fixture
        """)
        assert fired(findings) == []

    def test_skip_file_pragma(self):
        findings = check("""
            # repro-san: skip-file -- generated fixture
            import time

            def f():
                return time.time()
        """)
        assert findings == []

    def test_rule_filter_restricts_catalogue(self):
        findings = check("""
            import time, random

            def f():
                return time.time(), random.random()
        """, codes=["DET002"])
        assert fired(findings) == ["DET002"]

    def test_unknown_rule_code_raises(self):
        with pytest.raises(KeyError):
            rules_by_code(["DET999"])
