"""``check_program(source)`` scans its source text once.

The parse's scan collects the comments the inline suppressions come
from, so checking source text never lexes it a second time.
"""

from pathlib import Path

import pytest

from repro.analysis import check_program
from repro.dl import lexer, parse, parser
from repro.dl.lexer import collect_suppressions

FIXTURES = Path(__file__).parent.parent / "fixtures" / "dl"


@pytest.fixture
def scans(monkeypatch):
    """Every source text the scanner is asked to scan."""
    seen: list[str] = []
    scan = lexer._scan

    def counting(source, comments=None):
        seen.append(source)
        return scan(source, comments)

    monkeypatch.setattr(lexer, "_scan", counting)
    monkeypatch.setattr(parser, "_scan", counting)
    return seen


@pytest.mark.parametrize(
    "path", sorted(FIXTURES.glob("*.spear")), ids=lambda path: path.name
)
def test_one_scan_per_checked_source(path, scans):
    source = path.read_text()
    result = check_program(source)
    assert scans == [source]
    # The same findings as a separate parse plus a suppression scan.
    expected = check_program(parse(source), suppressions=collect_suppressions(source))
    assert [d.render() for d in result] == [d.render() for d in expected]


def test_suppressions_fixture_still_suppresses(scans):
    source = (FIXTURES / "suppressed_pipeline.spear").read_text()
    codes = {d.code for d in check_program(source)}
    assert len(scans) == 1
    assert "SPEAR121" not in codes  # silenced by the standalone comment
    assert "SPEAR199" in codes  # the stale trailing suppression
