import pytest

from dendromap.suites import _tally


@pytest.mark.parametrize(
    "checked, passed, verdict",
    [(5, 5, "pass"), (5, 4, "fail"), (0, 0, "fail")],
)
def test_tally_passes_only_a_nonempty_clean_count(checked, passed, verdict):
    entry = _tally("x/claim", "a law", checked, passed)
    assert entry.verdict == verdict
    assert entry.detail == {"checked": checked, "passed": passed}
