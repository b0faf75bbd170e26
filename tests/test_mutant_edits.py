"""Every edit of the mutant harness (``tests/mutants.py``) still applies.

The harness reports an edit that no longer matches its source as stale, but
only when it is run, which takes minutes.  This reads each edit's file and
checks that its text occurs exactly once, and that the edited source still
compiles (a syntax error would fail every test and so test nothing), without
running a mutant.
"""

import os

import mutants


def test_every_mutant_edit_matches_its_source_exactly_once():
    names = [name for name, *_ in mutants.MUTANTS]
    assert len(set(names)) == len(names)
    assert set(mutants.LEFT_TO) <= set(names)
    stale, broken = [], []
    for name, path, text, replacement in mutants.MUTANTS:
        with open(os.path.join(mutants.ROOT, "src", "polyspace", path), encoding="utf-8") as fh:
            source = fh.read()
        if source.count(text) != 1 or replacement == text:
            stale.append(name)
            continue
        try:
            compile(source.replace(text, replacement), path, "exec")
        except SyntaxError:
            broken.append(name)
    assert not stale
    assert not broken
