"""The mutation register stays applicable: each mutant's text occurs
exactly once in its file, so a change that moves the code must move
the mutant too.  ``python tests/mutants.py`` runs the register."""

from pathlib import Path

import pytest

from mutants import MUTANTS

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cellswitch"


def test_mutant_names_are_unique():
    names = [mutant.name for mutant in MUTANTS]
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda mutant: mutant.name)
def test_each_mutant_text_occurs_once(mutant):
    assert mutant.old != mutant.new and mutant.kills
    assert (PACKAGE / mutant.path).read_text().count(mutant.old) == 1
