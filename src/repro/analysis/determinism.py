"""The determinism and parallel-safety rule catalogue.

=======  ===================================================================
code     flags
=======  ===================================================================
DET001   wall-clock reads (``time.time``, ``datetime.now``, ...)
DET002   process-global randomness (module-level ``random``/
         ``numpy.random`` calls, ``os.urandom``, unseeded constructors)
DET003   iteration over an unordered container (set, ``globals()``/
         ``vars()``) in an order-sensitive position
DET004   ``id()`` used for ordering or as a mapping key
DET005   environment / filesystem reads inside simulation packages
PAR001   lambdas or local closures in parallel job specs
PAR002   mutable class-level state on frozen job dataclasses
=======  ===================================================================

DET001–003 apply everywhere (the analysis pipeline itself must be
deterministic to make reports diffable); DET005 is scoped to the
packages whose code runs *inside* a simulation, where ambient reads
would leak into cached results.  Suppress a deliberate finding with
``# repro-san: ignore[CODE] -- reason`` (see ``docs/determinism.md``).
"""

import ast

from repro.analysis.effects import (
    CLOCK,
    ENV,
    GLOBAL_RNG,
    IO,
    UNORDERED_ITER,
    EffectScanner,
    dotted_name,
)
from repro.analysis.rules import ERROR, Rule, register

__all__ = [
    "SIM_PACKAGES",
    "WallClockRule",
    "GlobalRngRule",
    "UnorderedIterationRule",
    "IdentityOrderRule",
    "AmbientReadRule",
    "JobClosureRule",
    "MutableJobStateRule",
]

#: Packages whose code executes inside a simulation: ambient reads here
#: change results the cache believes are content-addressed.
SIM_PACKAGES = (
    "repro.sim",
    "repro.core",
    "repro.cluster",
    "repro.workloads",
    "repro.kvstore",
    "repro.metrics",
    "repro.hardware",
    "repro.models",
    # Observability runtime: probes ride inside simulations, so the same
    # ambient-read discipline applies.  The export half (repro.obs.export)
    # does io strictly after runs and stays out of the sim path.
    "repro.obs.events",
    "repro.obs.bus",
    "repro.obs.recorder",
    "repro.obs.registry",
    "repro.obs.session",
    "repro.obs.spans",
    # Only the job specs: the rest of repro.parallel (runner supervision,
    # result cache) is orchestration that decides
    # *whether* a job runs, never *what* it computes — its wall-clock
    # reads and io happen strictly outside job execution, and the
    # kill/resume differentials in tests/test_resilience.py enforce that
    # supervised results stay bit-identical.
    "repro.parallel.jobs",
    # Fault injection and resilience mutate live simulation state; their
    # determinism (seeded injector stream, fixed thresholds) is exactly
    # what the certificate must cover.
    "repro.faults",
)

#: The picklable job dataclasses the parallel runner ships to workers.
_JOB_CLASSES = ("SimJob", "RackJob")


def in_sim_path(module):
    return any(
        module == pkg or module.startswith(pkg + ".")
        for pkg in SIM_PACKAGES
    )


class _EffectBackedRule(Rule):
    """Base for rules that report one effect kind from the scanner."""

    effect = None

    def applies_to(self, src):
        return True

    def findings(self, src, ctx):
        if not self.applies_to(src):
            return []
        scanner = EffectScanner(ctx)
        scanner.scan_function(src.tree)
        return [
            self.finding(src, source, self.message(source))
            for source in scanner.sources
            if source.effect == self.effect
        ]

    def message(self, source):
        return source.detail


@register
class WallClockRule(_EffectBackedRule):
    code = "DET001"
    severity = ERROR
    title = "wall-clock read"
    effect = CLOCK

    def message(self, source):
        return (
            "{}; results must depend only on the simulated clock and "
            "the seed".format(source.detail)
        )


@register
class GlobalRngRule(_EffectBackedRule):
    code = "DET002"
    severity = ERROR
    title = "process-global or unseeded RNG"
    effect = GLOBAL_RNG

    def message(self, source):
        return (
            "{}; use a seeded random.Random (e.g. via "
            "repro.sim.rng.RngStreams) instead".format(source.detail)
        )


@register
class UnorderedIterationRule(_EffectBackedRule):
    code = "DET003"
    severity = ERROR
    title = "order-sensitive iteration over an unordered container"
    effect = UNORDERED_ITER


@register
class AmbientReadRule(_EffectBackedRule):
    code = "DET005"
    severity = ERROR
    title = "environment/filesystem read in a simulation path"

    def applies_to(self, src):
        return in_sim_path(src.module)

    def findings(self, src, ctx):
        if not self.applies_to(src):
            return []
        scanner = EffectScanner(ctx)
        scanner.scan_function(src.tree)
        return [
            self.finding(
                src, source,
                "{}; simulation code may consume only its explicit "
                "arguments and seed".format(source.detail),
            )
            for source in scanner.sources
            if source.effect in (ENV, IO)
        ]


@register
class IdentityOrderRule(Rule):
    code = "DET004"
    severity = ERROR
    title = "id() used for ordering or keying"

    def findings(self, src, ctx):
        findings = []
        for node in ast.walk(src.tree):
            if isinstance(node, ast.Call):
                self._check_sort_key(src, ctx, node, findings)
            elif isinstance(node, ast.Compare):
                self._check_compare(src, node, findings)
            elif isinstance(node, ast.Assign):
                self._check_subscript_key(src, node, findings)
        return findings

    def _check_sort_key(self, src, ctx, node, findings):
        func = node.func
        is_sorter = (
            isinstance(func, ast.Name)
            and func.id in ("sorted", "min", "max")
        ) or (isinstance(func, ast.Attribute) and func.attr == "sort")
        if not is_sorter:
            return
        for kw in node.keywords:
            if kw.arg != "key":
                continue
            if self._keys_on_identity(kw.value):
                findings.append(self.finding(
                    src, node,
                    "sort key uses id()/hash(); addresses and hash "
                    "seeds vary between processes",
                ))

    @staticmethod
    def _keys_on_identity(value):
        if isinstance(value, ast.Name) and value.id in ("id", "hash"):
            return True
        if isinstance(value, ast.Lambda):
            return any(
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Name)
                and sub.func.id in ("id", "hash")
                for sub in ast.walk(value.body)
            )
        return False

    @staticmethod
    def _is_id_call(node):
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "id"
        )

    def _check_compare(self, src, node, findings):
        operands = [node.left] + list(node.comparators)
        ordering = any(
            isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE))
            for op in node.ops
        )
        if ordering and any(self._is_id_call(op) for op in operands):
            findings.append(self.finding(
                src, node,
                "comparing id() values orders by memory address",
            ))

    def _check_subscript_key(self, src, node, findings):
        for target in node.targets:
            if not isinstance(target, ast.Subscript):
                continue
            if any(
                self._is_id_call(sub) for sub in ast.walk(target.slice)
            ):
                findings.append(self.finding(
                    src, node,
                    "id() as a mapping key ties state to memory "
                    "addresses; key by a stable field instead",
                ))


@register
class JobClosureRule(Rule):
    code = "PAR001"
    severity = ERROR
    title = "lambda/closure in a parallel job spec"

    def findings(self, src, ctx):
        findings = []
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = dotted_name(node.func, ctx.imports)
            if dotted is None:
                continue
            if dotted.rsplit(".", 1)[-1] not in _JOB_CLASSES:
                continue
            values = list(node.args) + [kw.value for kw in node.keywords]
            for value in values:
                if isinstance(value, ast.Lambda):
                    findings.append(self.finding(
                        src, value,
                        "lambda passed into a {} spec: lambdas do not "
                        "pickle and have no stable cache "
                        "identity".format(dotted.rsplit(".", 1)[-1]),
                    ))
        return findings


@register
class MutableJobStateRule(Rule):
    code = "PAR002"
    severity = ERROR
    title = "mutable class-level state on a frozen dataclass"

    _MUTABLE_CALLS = ("list", "dict", "set", "bytearray")

    def findings(self, src, ctx):
        findings = []
        for scan in ctx.classes.values():
            if not scan.frozen_dataclass:
                continue
            for stmt in scan.node.body:
                value = None
                if isinstance(stmt, ast.AnnAssign):
                    value = stmt.value
                elif isinstance(stmt, ast.Assign):
                    value = stmt.value
                if value is None or not self._is_mutable(value, ctx):
                    continue
                findings.append(self.finding(
                    src, stmt,
                    "mutable class-level default on frozen dataclass "
                    "{}: shared across every instance and silently "
                    "diverges between worker processes; use "
                    "field(default_factory=...)".format(scan.name),
                ))
        return findings

    def _is_mutable(self, value, ctx):
        if isinstance(value, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                              ast.DictComp, ast.SetComp)):
            return True
        if isinstance(value, ast.Call):
            dotted = dotted_name(value.func, ctx.imports)
            if dotted in self._MUTABLE_CALLS:
                return True
        return False
