"""repro.lint — domain-aware static analysis for the SRM reproduction.

Everything this reproduction promises — byte-identical golden traces,
content-addressed result caching, seed-reproducible fuzz cases — breaks
silently the moment one code path reads the wall clock, draws from an
unseeded RNG, or iterates a set in hash order. :mod:`repro.lint` is an
AST-based pass with SRM-specific rules that catches those hazards before
a golden-trace diff has to:

==========  ==========================================================
``SRM001``  nondeterministic source (``random.*``, ``time.time()``,
            ``datetime.now()``, ``os.urandom``, ...) outside
            :mod:`repro.sim.rng`
``SRM002``  iteration over an unordered ``set`` (hash order can reach
            the event stream)
``SRM003``  mutable default argument
``SRM004``  ``==``/``!=`` between simulation-time floats
``SRM005``  missing ``__slots__`` on a class in a hot-path module
``SRM006``  ``Trace.record(...)`` not guarded by ``KIND in
            trace.wanted``, or re-expanding ``**mapping``, in a hot-path
            module
``SRM008``  timer callback reads an unordered shared set (behavior
            would depend on same-instant drain order; ``--races`` is
            the dynamic replay)
``SRM009``  undeclared ``SRM_*`` knob literal, or ``repro.fleet.wire``'s
            schema table drifted from ``wire-schema.lock``
            (``--wire-drift``)
==========  ==========================================================

Violations are suppressed line-by-line with ``# lint: ignore[SRMxxx]``
or file-wide with ``# lint: ignore-file[SRMxxx]`` near the top of a
file; there is no other waiver. See ``docs/static-analysis.md``.
"""

from __future__ import annotations

from repro.lint.engine import LintEngine, LintReport, lint_paths
from repro.lint.rules import ALL_RULES, Rule, rule_codes
from repro.lint.violations import Violation

__all__ = [
    "ALL_RULES",
    "LintEngine",
    "LintReport",
    "Rule",
    "Violation",
    "lint_paths",
    "rule_codes",
]
