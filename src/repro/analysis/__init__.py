"""repro.analysis — whole-codebase determinism & purity sanitizer.

PR 4's guarantees (bit-identical parallel sweeps, a content-addressed
result cache) assume every parallel job ``run()`` is a pure function of
its fields.  This package *checks* that assumption statically, over the
repository's own Python source:

* a rule-based lint engine (:mod:`repro.analysis.rules`) with the
  determinism/parallel-safety catalogue of
  :mod:`repro.analysis.determinism` (DET001–DET005, PAR001–PAR002) and
  ``# repro-san: ignore[...]`` suppressions;
* an interprocedural effect analysis (:mod:`repro.analysis.effects`)
  that builds a call graph across ``repro.*``, infers per-function
  effect sets over the {clock, global-rng, io, env, unordered-iter}
  lattice, and emits a purity certificate for the ``SimJob`` and
  ``RackJob`` entry points;
* text/JSON reporters and the ``repro-san`` CLI
  (:mod:`repro.analysis.cli`), wired into CI as a gate.

See ``docs/determinism.md`` for the full story.
"""

from repro.analysis.effects import (
    ALL_EFFECTS,
    DEFAULT_ENTRY_POINTS,
    FORBIDDEN_EFFECTS,
    EffectAnalysis,
    EffectScanner,
    ModuleContext,
    PurityCertificate,
)
from repro.analysis.report import render_json, render_text, report_dict
from repro.analysis.rules import (
    ERROR,
    WARNING,
    Finding,
    Rule,
    all_rules,
    run_rules,
)
from repro.analysis.source import SourceFile, discover_sources

__all__ = [
    "ALL_EFFECTS",
    "DEFAULT_ENTRY_POINTS",
    "FORBIDDEN_EFFECTS",
    "EffectAnalysis",
    "EffectScanner",
    "ModuleContext",
    "PurityCertificate",
    "render_json",
    "render_text",
    "report_dict",
    "ERROR",
    "WARNING",
    "Finding",
    "Rule",
    "all_rules",
    "run_rules",
    "SourceFile",
    "discover_sources",
]
