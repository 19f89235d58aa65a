"""Settings shared by the whole suite.

Property tests run seeded by default. The "seeded" hypothesis profile
derives each @given test's examples from the test itself
(derandomize=True) and keeps no example database, so two runs in fresh
checkouts draw the same examples and list the same outcome for every test,
and a failure found once is not replayed from a local .hypothesis/
directory on later runs. Every test keeps its own max_examples.

The "search" profile draws fresh examples on every run, still without a
database, and prints the blob that reproduces a failure. Select it with

    python -m pytest -m hypothesis --hypothesis-profile=search

(the hypothesis marker picks the @given tests); the scheduled CI job runs
that several times over, so seeding does not end the search for examples.

The run_memo fixture reads a run's entries out of a trial memo.
"""

import pytest
from hypothesis import settings

settings.register_profile("seeded", derandomize=True, database=None)
settings.register_profile("search", derandomize=False, database=None, print_blob=True)
settings.load_profile("seeded")


@pytest.fixture
def run_memo():
    """run_memo(memo): the sub-memo a trial memo keeps for its one run configuration.

    A run opens a trial memo with one lookup keyed on its configuration and
    keeps every entry in the sub-memo it finds there.
    """
    def sub_memo(memo: dict) -> dict:
        (sub,) = memo.values()
        return sub

    return sub_memo
