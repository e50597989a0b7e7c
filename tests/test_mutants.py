import shutil

import pytest

from mutants import MUTANTS, ROOT, MutantError, apply, run


@pytest.mark.parametrize("mutant", MUTANTS, ids=[mutant.name for mutant in MUTANTS])
def test_every_mutant_is_killed(mutant):
    assert run(mutant) == []


def test_a_fragment_that_no_longer_occurs_is_an_error(tmp_path):
    mutant = MUTANTS[0]
    (tmp_path / mutant.path).parent.mkdir(parents=True)
    shutil.copy2(ROOT / mutant.path, tmp_path / mutant.path)
    apply(mutant, tmp_path)
    with pytest.raises(MutantError, match=f"^{mutant.name}: the fragment occurs 0 times"):
        apply(mutant, tmp_path)
