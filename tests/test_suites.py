import pytest

from dendromap import suites
from dendromap.dynamics import RhoContext
from dendromap.errors import DomainError
from dendromap.suites import SuiteConfig, _tally


@pytest.mark.parametrize(
    "checked, passed, verdict",
    [(5, 5, "pass"), (5, 4, "fail"), (0, 0, "fail")],
)
def test_tally_passes_only_a_nonempty_clean_count(checked, passed, verdict):
    entry = _tally("x/claim", "a law", checked, passed)
    assert entry.verdict == verdict
    assert entry.detail == {"checked": checked, "passed": passed}


def test_forward_decomposition_without_samples_fails(monkeypatch):
    monkeypatch.setattr(suites, "_interior_samples", lambda rng, m, count: [])
    config = SuiteConfig(words=2, samples=1, m=1)
    entries = suites.suite_decomposition(RhoContext(), config)
    forward = [e for e in entries if e.id.startswith("decomposition/forward/")]
    assert [e.verdict for e in forward] == ["fail"]


@pytest.mark.parametrize("field", ["samples", "depth", "horizon", "budget"])
def test_config_scales_start_at_one(field):
    with pytest.raises(DomainError):
        SuiteConfig(**{field: 0})
    assert getattr(SuiteConfig(**{field: 1}), field) == 1
