"""The golden corpus of CLI outputs, one test per case of
``tests/golden.py``, which states the corpus and re-records it."""

import pytest

from golden import CASES, recorded, run_case


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden(case, tmp_path):
    assert run_case(case, tmp_path) == recorded(case)
