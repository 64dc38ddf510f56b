"""Documentation lint: dead links, dangling names, undocumented experiments.

The docs cross-reference each other, the source tree, and the experiment
catalog — all of which drift as the library grows.  This checker keeps
``README.md``, ``DESIGN.md``, ``EXPERIMENTS.md`` and ``docs/*.md``
honest:

* every relative markdown link (``[text](OTHER.md)``) must resolve to an
  existing file;
* every backticked path reference (`` `docs/RUNTIME.md` ``,
  `` `src/repro/cli.py` ``) must exist, resolved against the referencing
  file's directory, the repo root, and ``src/repro``;
* every backticked dotted name (`` `repro.faults.FaultyRelay` ``) must
  import and resolve attribute by attribute — so no document names
  deleted code (schema tags such as ``repro.runtime.report/v2`` contain
  a ``/`` and are not names);
* every experiment registered in :mod:`repro.eval.experiments` must be
  mentioned by name in at least one checked document.

Run it directly::

    PYTHONPATH=src python -m repro.tools.check_docs
    python -m repro.tools.check_docs --root /path/to/checkout

Exit code 0 = clean, 1 = problems (each printed on its own line).  The
test suite runs the same checks behind the opt-in ``docs_lint`` marker
(``pytest --docs-lint`` or ``REPRO_DOCS_LINT=1``).
"""

from __future__ import annotations

import argparse
import importlib
import pathlib
import re
import sys

__all__ = ["collect_problems", "main"]

#: Relative markdown links: [text](target) with no scheme/anchor-only.
_LINK_RE = re.compile(r"\[[^\]]+\]\(([^)\s]+)\)")

#: Backticked path-looking references ending in .md or .py.
_BACKTICK_RE = re.compile(r"`([^`\s]+\.(?:md|py))`")

#: Backticked dotted names in the package: `repro.a.b...`.
_NAME_RE = re.compile(r"`(repro(?:\.\w+)+)`")


def _repo_root():
    """The checkout root, assuming the ``src/repro/tools`` layout."""
    return pathlib.Path(__file__).resolve().parents[3]


def _documents(root):
    """The markdown files under lint, in deterministic order."""
    docs = [root / "README.md", root / "DESIGN.md", root / "EXPERIMENTS.md"]
    docs_dir = root / "docs"
    if docs_dir.is_dir():
        docs.extend(sorted(docs_dir.glob("*.md")))
    return [d for d in docs if d.is_file()]


def _is_external(target):
    return target.startswith(("http://", "https://", "mailto:", "#"))


def _resolves(target, doc_path, root):
    """Can ``target`` be found anywhere sensible?"""
    if any(ch in target for ch in "*?<>{}"):
        return True  # glob/placeholder, not a literal path
    candidates = (
        doc_path.parent / target,
        root / target,
        root / "src" / "repro" / target,
        root / "examples" / target,
        root / "benchmarks" / target,
    )
    return any(c.exists() for c in candidates)


def check_links(root, problems):
    """Validate relative links and backticked path references."""
    for doc in _documents(root):
        text = doc.read_text(encoding="utf-8")
        rel = doc.relative_to(root)
        for match in _LINK_RE.finditer(text):
            target = match.group(1).split("#", 1)[0]
            if not target or _is_external(match.group(1)):
                continue
            if "." not in target and "/" not in target:
                continue  # math notation or intra-page anchor, not a path
            if not _resolves(target, doc, root):
                problems.append(f"{rel}: dead link -> {target}")
        for match in _BACKTICK_RE.finditer(text):
            target = match.group(1)
            if not _resolves(target, doc, root):
                problems.append(f"{rel}: missing path reference "
                                f"-> {target}")


def _name_resolves(dotted):
    """Import the longest module prefix of ``dotted``, getattr the rest."""
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for attr in parts[split:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def check_names(root, problems):
    """Every backticked ``repro.…`` name must resolve in the package."""
    for doc in _documents(root):
        rel = doc.relative_to(root)
        for match in _NAME_RE.finditer(doc.read_text(encoding="utf-8")):
            if not _name_resolves(match.group(1)):
                problems.append(f"{rel}: dangling name -> {match.group(1)}")


def check_experiments_documented(root, problems):
    """Every registered experiment must appear in the checked docs."""
    from ..eval import experiments

    corpus = "\n".join(doc.read_text(encoding="utf-8")
                       for doc in _documents(root))
    for name in experiments.experiment_names():
        if name not in corpus:
            problems.append(
                f"experiment {name!r} is registered but never mentioned "
                "in the checked documents"
            )


def collect_problems(root=None):
    """Run every check; returns a list of problem strings (empty = clean)."""
    root = pathlib.Path(root) if root is not None else _repo_root()
    problems = []
    if not _documents(root):
        return [f"no markdown documents found under {root}"]
    check_links(root, problems)
    check_names(root, problems)
    check_experiments_documented(root, problems)
    return problems


def main(argv=None):
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.check_docs",
        description="lint intra-repo documentation links, names and "
                    "coverage",
    )
    parser.add_argument("--root", default=None,
                        help="checkout root (default: inferred from the "
                             "installed package location)")
    args = parser.parse_args(argv)
    problems = collect_problems(args.root)
    for problem in problems:
        print(problem)
    if problems:
        print(f"check_docs: {len(problems)} problem(s)")
        return 1
    print("check_docs: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
