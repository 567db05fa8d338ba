"""Documentation consistency gates.

The docs site has two generated pages (CLI reference, benchmarks) and a
version-stamped footer; these tests fail whenever the committed artifacts
drift from what ``tools/gen_docs.py`` would produce, and run a strict
internal-link check over every markdown page so dead links fail the test
suite even on machines without mkdocs installed (CI additionally runs
``mkdocs build --strict``).
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
DOCS_DIR = REPO_ROOT / "docs"

sys.path.insert(0, str(REPO_ROOT / "tools"))
import gen_docs  # noqa: E402


class TestGeneratedPages:
    def test_cli_page_is_up_to_date(self):
        # argparse help wrapping varies slightly across Python minor versions,
        # so compare whitespace-normalized here (this still catches missing
        # subcommands, flags, and help-text drift); the CI docs job holds the
        # byte-exact line via `git diff` on the pinned generator Python
        def normalize(text: str) -> str:
            return re.sub(r"\s+", " ", text).strip()

        committed = (DOCS_DIR / "cli.md").read_text(encoding="utf-8")
        assert normalize(committed) == normalize(gen_docs.render_cli_page()), (
            "docs/cli.md is stale; run: python tools/gen_docs.py"
        )

    @staticmethod
    def _mask_timings(text: str) -> str:
        # running a benchmark harness by name (`pytest benchmarks/...`)
        # rewrites the BENCH_*.json wall-clock numbers, so the pytest-level
        # freshness check must be timing-insensitive; the CI docs job does
        # the byte-exact `git diff` check against the committed artifacts
        return re.sub(r"\b\d+\.\d+\b", "~", text)

    def test_benchmarks_page_is_up_to_date(self):
        committed = (DOCS_DIR / "benchmarks.md").read_text(encoding="utf-8")
        assert self._mask_timings(committed) == self._mask_timings(
            gen_docs.render_benchmarks_page()
        ), "docs/benchmarks.md is structurally stale; run: python tools/gen_docs.py"

    def test_benchmarks_page_covers_every_artifact(self):
        page = (DOCS_DIR / "benchmarks.md").read_text(encoding="utf-8")
        artifacts = sorted(p.name for p in REPO_ROOT.glob("BENCH_*.json"))
        assert artifacts, "no BENCH_*.json artifacts at the repo root"
        for name in artifacts:
            assert f"## {name}" in page


class TestVersionSingleSource:
    def test_mkdocs_footer_shows_package_version(self):
        import repro

        mkdocs = (REPO_ROOT / "mkdocs.yml").read_text(encoding="utf-8")
        match = re.search(r'^copyright:\s*"repro ([^\s"]+)', mkdocs, re.MULTILINE)
        assert match, "mkdocs.yml must carry a 'repro <version>' copyright footer"
        assert match.group(1) == repro.__version__, (
            "mkdocs.yml footer version is stale; run: python tools/gen_docs.py"
        )

    def test_setup_py_reads_version_from_package(self):
        import repro

        setup_text = (REPO_ROOT / "setup.py").read_text(encoding="utf-8")
        assert "__init__.py" in setup_text and "version" in setup_text
        assert repro.__version__ not in setup_text, (
            "setup.py must read the version from repro/__init__.py, not repeat it"
        )


class TestInternalLinks:
    PAGES = [REPO_ROOT / "README.md", *sorted(DOCS_DIR.glob("*.md"))]
    LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

    @pytest.mark.parametrize("page", PAGES, ids=lambda p: p.name)
    def test_relative_links_resolve(self, page):
        broken = []
        for target in self.LINK.findall(page.read_text(encoding="utf-8")):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            resolved = (page.parent / target.split("#", 1)[0]).resolve()
            if not resolved.exists():
                broken.append(target)
        assert not broken, f"{page.name} has dead relative links: {broken}"

    def test_nav_pages_exist(self):
        mkdocs = (REPO_ROOT / "mkdocs.yml").read_text(encoding="utf-8")
        for target in re.findall(r"^\s+- [^:]+:\s+(\S+\.md)\s*$", mkdocs, re.MULTILINE):
            assert (DOCS_DIR / target).is_file(), f"mkdocs nav points at missing {target}"
