"""Documentation lint, as an opt-in test (marker: ``docs_lint``).

Runs the same checks as ``python -m repro.tools.check_docs`` against
this checkout: every relative link, backticked path reference and
backticked ``repro.…`` name in ``README.md`` / ``DESIGN.md`` /
``EXPERIMENTS.md`` / ``docs/*.md`` must resolve, and every registered
experiment must be mentioned in the docs.  Opt in with ``--docs-lint``
or ``REPRO_DOCS_LINT=1`` — the lint inspects the working tree, not the
installed library, so it is not part of the default suite.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.tools import check_docs

pytestmark = pytest.mark.docs_lint

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_docs_have_no_problems():
    problems = check_docs.collect_problems(ROOT)
    assert problems == [], "\n".join(problems)


def test_cli_exit_code_clean():
    assert check_docs.main(["--root", str(ROOT)]) == 0


def test_cli_exit_code_dirty(tmp_path):
    (tmp_path / "README.md").write_text(
        "[dead](missing.md) and `nowhere.py`\n", encoding="utf-8")
    (tmp_path / "DESIGN.md").write_text(
        "`repro.faults.FaultyRelay` lives; `repro.faults.Gone` and "
        "`repro.nowhere.Thing` do not; `repro.runtime.report/v2` is a "
        "schema tag\n", encoding="utf-8")
    problems = check_docs.collect_problems(tmp_path)
    assert any("missing.md" in p for p in problems)
    assert any("nowhere.py" in p for p in problems)
    dangling = [p for p in problems if "dangling name" in p]
    assert dangling == ["DESIGN.md: dangling name -> repro.faults.Gone",
                        "DESIGN.md: dangling name -> repro.nowhere.Thing"]
    assert check_docs.main(["--root", str(tmp_path)]) == 1


def test_experiment_mentions_detected(tmp_path):
    # A doc set that links fine but never mentions any experiment.
    (tmp_path / "README.md").write_text("hello\n", encoding="utf-8")
    problems = check_docs.collect_problems(tmp_path)
    assert any("registered but never mentioned" in p for p in problems)
