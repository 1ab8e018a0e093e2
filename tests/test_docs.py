"""The spec→docs contract: documentation that cannot silently rot.

Four guarantees, all enforced on every tier-1 run (and by the CI ``docs``
job):

1. every registered component name *and alias* appears in ``docs/api.md`` —
   registering a component without documenting it fails the build;
2. every fenced ```json block in ``docs/`` parses, and blocks shaped like
   sweeps / experiment specs round-trip exactly through
   ``SweepSpec.from_json`` / ``ExperimentSpec.from_json``;
3. every intra-repo markdown link in ``docs/``, ``README.md`` and
   ``ROADMAP.md`` resolves to an existing file;
4. every fenced ```python block in ``docs/`` executes against the real
   package (examples use the ``tiny`` dataset, so this stays fast).
"""

from __future__ import annotations

import json
import os
import re
from pathlib import Path

import pytest

import repro  # noqa: F401  (imports populate the registries)
from helpers import import_all_repro_modules
from repro.api import ExperimentSpec, SweepSpec
from repro.api.spec import COMPONENT_FIELDS
from repro.registry import DEFENSES, all_registries
from repro.utils.knobs import KNOBS

REPO_ROOT = Path(__file__).resolve().parent.parent
DOCS_DIR = REPO_ROOT / "docs"
DOC_PAGES = ("index.md", "architecture.md", "api.md", "benchmarks.md")
LINK_CHECKED = [
    *(DOCS_DIR / page for page in DOC_PAGES),
    REPO_ROOT / "README.md",
    REPO_ROOT / "ROADMAP.md",
]

_FENCE = re.compile(r"```(\w*)\n(.*?)```", re.DOTALL)
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def _fenced_blocks(text: str, language: str):
    """All fenced code blocks of ``language`` in a markdown string."""
    return [body for lang, body in _FENCE.findall(text) if lang == language]


def _strip_fences(text: str) -> str:
    """Markdown with every fenced block removed (links in code are not links)."""
    return _FENCE.sub("", text)


def _doc_text(name: str) -> str:
    return (DOCS_DIR / name).read_text(encoding="utf-8")


class TestDocsTreeExists:
    @pytest.mark.parametrize("page", DOC_PAGES)
    def test_page_exists_and_has_content(self, page):
        path = DOCS_DIR / page
        assert path.is_file(), f"docs/{page} is missing"
        assert len(path.read_text(encoding="utf-8")) > 500

    def test_readme_links_into_docs(self):
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        for page in DOC_PAGES:
            assert f"docs/{page}" in readme, f"README.md does not link docs/{page}"


class TestRegistryContract:
    """docs/api.md must list every registered name and alias, and vice versa
    cannot name components that do not exist."""

    def test_every_component_name_and_alias_is_documented(self):
        api_text = _doc_text("api.md")
        missing = []
        for kind, registry in all_registries().items():
            for name in registry.known():  # canonical names AND aliases
                if f"`{name}`" not in api_text:
                    missing.append(f"{kind}:{name}")
        assert not missing, (
            "registered components missing from docs/api.md: "
            f"{missing} — update the registry table"
        )

    def test_env_table_lists_every_knob(self):
        """The env-var table claims completeness: its rows are the declared knobs."""
        import_all_repro_modules()
        rows = re.findall(r"^\| `(REPRO_\w+)` \|", _doc_text("api.md"), re.MULTILINE)
        assert sorted(rows) == sorted(KNOBS)

    def test_every_defense_documents_defend(self):
        """Each row of the defense table names ``defend``, the one protocol."""
        api_text = _doc_text("api.md")
        for name in DEFENSES.available():
            row = re.search(rf"^\| `{re.escape(name)}` \|([^\n]*)$", api_text, re.MULTILINE)
            assert row is not None, f"defense {name!r} has no row in docs/api.md"
            assert "`defend`" in row.group(1), f"the {name!r} row does not name defend"


class TestJsonBlocks:
    def _all_json_blocks(self):
        blocks = []
        for page in DOC_PAGES:
            for body in _fenced_blocks(_doc_text(page), "json"):
                blocks.append((page, body))
        return blocks

    def test_every_json_block_parses(self):
        blocks = self._all_json_blocks()
        assert blocks, "expected at least one ```json block in docs/"
        for page, body in blocks:
            try:
                json.loads(body)
            except json.JSONDecodeError as error:
                pytest.fail(f"unparseable json block in docs/{page}: {error}")

    def test_spec_shaped_blocks_round_trip(self):
        """Sweep-shaped blocks go through SweepSpec, cell-shaped ones through
        ExperimentSpec; both must round-trip exactly."""
        round_tripped = 0
        for page, body in self._all_json_blocks():
            payload = json.loads(body)
            if not isinstance(payload, dict):
                continue
            if "axes" in payload:
                sweep = SweepSpec.from_json(body)
                assert SweepSpec.from_json(sweep.to_json()) == sweep, page
                assert sweep.num_cells >= 1
                round_tripped += 1
            elif set(payload) <= set(COMPONENT_FIELDS) | {"seed"}:
                spec = ExperimentSpec.from_json(body)
                assert ExperimentSpec.from_json(spec.to_json()) == spec, page
                round_tripped += 1
        assert round_tripped >= 2, "expected sweep and experiment examples in docs/"

    def test_documented_sweep_matches_shipped_example(self):
        """The api.md walkthrough quotes examples/sweep.json — verbatim."""
        shipped = SweepSpec.from_json(
            (REPO_ROOT / "examples" / "sweep.json").read_text(encoding="utf-8")
        )
        documented = None
        for body in _fenced_blocks(_doc_text("api.md"), "json"):
            payload = json.loads(body)
            if isinstance(payload, dict) and "axes" in payload:
                documented = SweepSpec.from_json(body)
                break
        assert documented is not None, "api.md lost its sweep walkthrough"
        assert documented == shipped, (
            "docs/api.md's sweep walkthrough no longer matches "
            "examples/sweep.json"
        )


class TestMarkdownLinks:
    @pytest.mark.parametrize("path", LINK_CHECKED, ids=lambda p: p.name)
    def test_intra_repo_links_resolve(self, path):
        assert path.is_file(), f"{path} is missing"
        text = _strip_fences(path.read_text(encoding="utf-8"))
        dead = []
        for target in _LINK.findall(text):
            if re.match(r"^[a-z][a-z0-9+.-]*:", target):  # http:, mailto:, ...
                continue
            relative = target.split("#", 1)[0]
            if not relative:  # pure in-page anchor
                continue
            if not (path.parent / relative).resolve().exists():
                dead.append(target)
        assert not dead, f"dead intra-repo links in {path.name}: {dead}"


class TestPythonBlocksExecute:
    """Every ```python block in docs/ must run (on the tiny dataset)."""

    @pytest.mark.parametrize("page", DOC_PAGES)
    def test_python_blocks_run(self, page, monkeypatch, capsys):
        import sys
        import types

        blocks = _fenced_blocks(_doc_text(page), "python")
        monkeypatch.chdir(REPO_ROOT)  # examples use repo-root-relative paths
        for index, body in enumerate(blocks):
            # A real module context so e.g. @dataclass examples resolve their
            # module globals the way they would in user code.
            module = types.ModuleType(f"docs_example_{index}")
            sys.modules[module.__name__] = module
            try:
                exec(compile(body, f"docs/{page}[python #{index}]", "exec"), module.__dict__)
            except Exception as error:  # pragma: no cover - failure reporting
                pytest.fail(f"python block #{index} in docs/{page} raised: {error!r}")
            finally:
                sys.modules.pop(module.__name__, None)
        capsys.readouterr()  # swallow example prints

    def test_docs_contain_python_examples(self):
        total = sum(len(_fenced_blocks(_doc_text(page), "python")) for page in DOC_PAGES)
        assert total >= 3
