"""The mutant catalog stays in step with ``src/``.

``tests/mutants/run.py`` plants each entry in a copy of the tree; an
entry whose old text no longer occurs exactly once cannot be planted,
so a refactor that moves a line a mutant targets fails here, at once,
instead of in the scheduled kill-matrix run. (The runner leaves this
file out of the tier-1 run it makes on each mutated copy.)
"""

from __future__ import annotations

from pathlib import Path

from mutants.catalog import CATALOG

ROOT = Path(__file__).resolve().parent.parent


def test_catalog_names_are_unique():
    names = [mutant.name for mutant in CATALOG]
    assert len(names) == len(set(names))


def test_every_entry_plants_one_real_edit_that_cites_a_rule():
    for mutant in CATALOG:
        text = (ROOT / mutant.path).read_text()
        assert text.count(mutant.old) == 1, mutant.name
        assert mutant.new != mutant.old, mutant.name
        assert mutant.rule.strip(), mutant.name
