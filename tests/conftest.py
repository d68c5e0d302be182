from pathlib import Path

import pytest
from hypothesis import settings

# No local example database and a derandomized search: every checkout runs
# the same examples, so no outcome depends on what an earlier run stored.
settings.register_profile("tier1", database=None, derandomize=True)
settings.load_profile("tier1")

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = REPO_ROOT / "fixtures"


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def fixture_lexicon():
    from emocast.emotion import load_lexicon
    from emocast.errors import read_utf8

    return load_lexicon(read_utf8(FIXTURES / "lexicon.tsv"))
