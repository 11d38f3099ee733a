"""Docs can't rot: link check and snippet syntax in tier-1.

The CI docs job additionally *executes* every fenced Python snippet
(``tools/check_docs.py`` with no flags); here we keep the fast guarantees —
pages exist, are linked from the README, contain no dead relative links, and
every snippet at least parses — in the default test run.
"""

from __future__ import annotations

import importlib.util
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def load_checker():
    spec = importlib.util.spec_from_file_location(
        "check_docs", REPO_ROOT / "tools" / "check_docs.py"
    )
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolves the defining module through sys.modules, so the
    # registration must happen before execution.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


checker = load_checker()


class TestDocsSite:
    def test_docs_pages_exist(self):
        pages = sorted(p.name for p in (REPO_ROOT / "docs").glob("*.md"))
        assert {"architecture.md", "engine.md", "serving.md", "faq.md"} <= set(pages)
        assert len(pages) >= 4

    def test_readme_links_every_docs_page(self):
        readme = (REPO_ROOT / "README.md").read_text()
        for page in (REPO_ROOT / "docs").glob("*.md"):
            assert f"docs/{page.name}" in readme, (
                f"README.md does not link docs/{page.name}"
            )

    def test_no_dead_relative_links(self):
        assert checker.check_links(checker.doc_files()) == []

    def test_every_python_snippet_parses(self):
        assert checker.check_snippets(checker.doc_files(), compile_only=True) == []

    def test_docs_have_executable_snippets(self):
        # The CI docs job is only meaningful if there is something to run.
        runnable = [
            snippet
            for path in checker.doc_files()
            for snippet in checker.python_snippets(path)
            if not snippet.skip
        ]
        assert len(runnable) >= 5

    def test_skip_marker_is_honoured(self, tmp_path):
        page = tmp_path / "page.md"
        page.write_text(
            "# t\n\n<!-- docs: no-run -->\n```python\nraise RuntimeError('boom')\n```\n"
        )
        assert checker.check_snippets([page]) == []

    def test_snippet_failures_are_reported(self, tmp_path):
        page = tmp_path / "page.md"
        page.write_text("# t\n\n```python\nraise RuntimeError('boom')\n```\n")
        failures = checker.check_snippets([page])
        assert len(failures) == 1 and "boom" in failures[0]

    def test_dead_links_are_reported(self, tmp_path):
        page = tmp_path / "page.md"
        page.write_text("see [missing](does-not-exist.md) and [ok](page.md)\n")
        failures = checker.check_links([page])
        assert len(failures) == 1 and "does-not-exist.md" in failures[0]


#: Where the program reads its environment: the package, both benchmark
#: harnesses and the tools.
ENV_READER_DIRS = ("src", "benchmarks", "bench", "tools")


#: ``environ.get("X")``, ``getenv("X")``, or ``environ["X"]`` not being assigned.
ENV_READ = re.compile(
    r"""(?:environ\.get|getenv)\(\s*["'](REPRO_\w+)["']"""
    r"""|environ\[\s*["'](REPRO_\w+)["']\s*\](?!\s*=[^=])"""
)


def env_vars_read(roots) -> set[str]:
    """Every ``REPRO_*`` name some ``.py`` file under ``roots`` reads from
    the environment."""
    names: set[str] = set()
    for root in roots:
        for path in Path(root).rglob("*.py"):
            for match in ENV_READ.finditer(path.read_text()):
                names.add(match.group(1) or match.group(2))
    return names


def env_vars_documented(pages) -> dict[str, list[str]]:
    """``REPRO_*`` name -> the pages that mention it."""
    names: dict[str, list[str]] = {}
    for page in pages:
        for name in sorted(set(re.findall(r"\bREPRO_[A-Z0-9_]+\b", page.read_text()))):
            names.setdefault(name, []).append(page.name)
    return names


class TestDocumentedKnobs:
    """A documented environment variable must still do something."""

    def test_every_documented_env_var_is_read_by_the_code(self):
        documented = env_vars_documented(checker.doc_files())
        assert documented, "the docs name no REPRO_* variable; is the scan broken?"
        read = env_vars_read(REPO_ROOT / name for name in ENV_READER_DIRS)
        dead = {name: pages for name, pages in documented.items() if name not in read}
        assert dead == {}, f"docs name environment variables nothing reads: {dead}"

    def test_a_dead_knob_is_reported(self, tmp_path):
        code = tmp_path / "code"
        code.mkdir()
        (code / "knobs.py").write_text(
            "import os\n"
            'os.environ.get("REPRO_LIVE")\n'
            'os.environ["REPRO_WRITTEN"] = "1"\n'
            'if os.environ["REPRO_INDEXED"] == "1": pass\n'
            "# REPRO_COMMENTED\n"
        )
        page = tmp_path / "page.md"
        page.write_text("Set `REPRO_LIVE=1` or `REPRO_WRITTEN=0`.\n")
        assert set(env_vars_documented([page])) == {"REPRO_LIVE", "REPRO_WRITTEN"}
        assert env_vars_read([code]) == {"REPRO_LIVE", "REPRO_INDEXED"}
