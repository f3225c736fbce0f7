"""Repo-consistency checks: the documentation references real artefacts.

Documentation that points at files which no longer exist is worse than
no documentation; these tests keep DESIGN.md / EXPERIMENTS.md / README
honest as the code moves.
"""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def read(name: str) -> str:
    return (ROOT / name).read_text()


class TestDesignDoc:
    def test_every_referenced_bench_exists(self):
        text = read("DESIGN.md") + read("EXPERIMENTS.md")
        for match in set(re.findall(r"bench_[a-z0-9_]+\.py", text)):
            assert (ROOT / "benchmarks" / match).exists(), f"missing {match}"

    def test_every_referenced_module_exists(self):
        text = read("DESIGN.md")
        for match in set(re.findall(r"`([a-z_]+/[a-z_]+\.py)`", text)):
            assert (ROOT / "src" / "repro" / match).exists(), f"missing {match}"

    def test_identity_check_present(self):
        assert "Paper identity check" in read("DESIGN.md")


class TestExperimentsDoc:
    def test_covers_every_table_and_figure(self):
        text = read("EXPERIMENTS.md")
        for exp in ("Table I", "Table II", "Figure 1", "Figure 2", "Figure 3"):
            assert exp in text, f"EXPERIMENTS.md missing {exp}"

    def test_records_paper_and_measured(self):
        text = read("EXPERIMENTS.md")
        assert "Paper" in text and "Measured" in text or "measured" in text


class TestReadme:
    def test_install_and_quickstart_sections(self):
        text = read("README.md")
        assert "pip install" in text
        assert "Quickstart" in text or "quickstart" in text

    def test_referenced_examples_exist(self):
        text = read("README.md")
        for match in set(re.findall(r"`([a-z_]+\.py)`", text)):
            if (ROOT / "examples" / match).exists():
                continue
            # allow references to non-example paths mentioned with full dirs
            assert any(
                (ROOT / d / match).exists() for d in ("examples", "src/repro")
            ), f"README references missing file {match}"

    def test_docs_directory_files_exist(self):
        for name in ("ALGORITHMS.md", "SIMULATOR.md", "REPRODUCING.md", "API.md"):
            assert (ROOT / "docs" / name).exists()


class TestPackageMetadata:
    def test_license_and_citation(self):
        assert (ROOT / "LICENSE").exists()
        assert (ROOT / "CITATION.cff").exists()
        assert (ROOT / "src" / "repro" / "py.typed").exists()

    def test_examples_have_readme_rows(self):
        listing = read("examples/README.md")
        for path in sorted((ROOT / "examples").glob("*.py")):
            assert path.name in listing, f"examples/README.md missing {path.name}"

    def test_every_subpackage_has_docstring(self):
        import importlib

        for pkg in (
            "repro", "repro.models", "repro.core", "repro.structures",
            "repro.simulator", "repro.governors", "repro.schedulers",
            "repro.workloads", "repro.analysis", "repro.perf", "repro.obs",
        ):
            mod = importlib.import_module(pkg)
            assert mod.__doc__ and len(mod.__doc__) > 40, f"{pkg} lacks a docstring"

    def test_every_module_has_docstring(self):
        import ast

        for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
            if path.name == "__main__.py":
                continue
            tree = ast.parse(path.read_text())
            doc = ast.get_docstring(tree)
            assert doc and len(doc) > 20, f"{path} lacks a module docstring"


class TestDocsDrift:
    """The doc-drift gate (`make docs-check`): README indexes every doc,
    docs/API.md tracks the real CLI, and relative Markdown links resolve."""

    # [text](target) — good enough for this repo's plain Markdown; we skip
    # absolute URLs and in-page anchors below.
    LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

    @staticmethod
    def cli_subcommands() -> list[str]:
        import argparse

        from repro.cli import build_parser

        sub = next(
            a for a in build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)
        )
        return sorted(sub.choices)

    def test_every_docs_file_linked_from_readme(self):
        readme = read("README.md")
        for path in sorted((ROOT / "docs").glob("*.md")):
            assert f"docs/{path.name}" in readme, (
                f"README.md does not link docs/{path.name} — "
                "add it to the Documentation index"
            )

    def test_every_cli_subcommand_in_api_doc(self):
        api = read("docs/API.md")
        for name in self.cli_subcommands():
            # `name` alone, or `name ARGS...` / `name {choices}` in a table row
            assert re.search(rf"`{name}[` {{]", api), (
                f"docs/API.md does not document the `{name}` subcommand"
            )

    def test_api_doc_synopsis_matches_parser(self):
        # the fenced synopsis block must name every subcommand too
        api = read("docs/API.md")
        synopsis = api[api.index("repro-dvfs"):]
        synopsis = synopsis[:synopsis.index("```")]
        for name in self.cli_subcommands():
            assert re.search(rf"\b{name}\b", synopsis), (
                f"docs/API.md synopsis missing {name}"
            )

    def test_relative_markdown_links_resolve(self):
        files = [ROOT / "README.md", ROOT / "DESIGN.md"]
        files += sorted((ROOT / "docs").glob("*.md"))
        problems = []
        for f in files:
            for target in self.LINK_RE.findall(f.read_text()):
                if target.startswith(("http://", "https://", "mailto:", "#")):
                    continue
                rel = target.split("#", 1)[0]
                if rel and not (f.parent / rel).exists():
                    problems.append(
                        f"{f.relative_to(ROOT)}: broken link {target}"
                    )
        assert not problems, "\n".join(problems)


class TestBenchmarksDoc:
    """benchmarks/README.md must track the actual bench files."""

    def test_every_bench_file_has_a_readme_row(self):
        listing = read("benchmarks/README.md")
        for path in sorted((ROOT / "benchmarks").glob("bench_*.py")):
            assert f"`{path.name}`" in listing, (
                f"benchmarks/README.md missing a row for {path.name}"
            )

    def test_every_readme_row_names_a_real_file(self):
        listing = read("benchmarks/README.md")
        for match in set(re.findall(r"`(bench_[a-z0-9_]+\.py)`", listing)):
            assert (ROOT / "benchmarks" / match).exists(), (
                f"benchmarks/README.md references missing {match}"
            )

    def test_repro_bench_documented(self):
        listing = read("benchmarks/README.md")
        assert "repro" in listing and "bench" in listing
        assert "BENCH_schedulers.json" in listing


class TestBenchBaseline:
    """The committed BENCH_schedulers.json must parse and stay complete."""

    def test_baseline_validates_against_schema(self):
        from repro.perf import load_report_file

        profiles = load_report_file(ROOT / "BENCH_schedulers.json")
        assert {"full", "quick"} <= set(profiles)
        for profile, report in profiles.items():
            if profile in ("full", "quick"):
                assert len(report.scenarios) >= 3
            assert report.repeats >= 1
            for name, scenario in report.scenarios.items():
                assert scenario.name == name
                assert scenario.wall_time_s and all(
                    t > 0 for t in scenario.wall_time_s.values()
                )
                assert scenario.ops and all(
                    isinstance(v, int) for v in scenario.ops.values()
                )
                assert re.fullmatch(r"[0-9a-f]{16}", scenario.checksum)
                assert scenario.params

    def test_baseline_covers_the_pinned_suite(self):
        from repro.perf import load_report_file
        from repro.scenarios import SCENARIOS

        profiles = load_report_file(ROOT / "BENCH_schedulers.json")
        for profile in ("full", "quick"):
            assert set(profiles[profile].scenarios) == set(SCENARIOS)

    def test_recorded_sweep_profile_names_registered_sweeps(self):
        # the sweep profile (docs/PARALLELISM.md) holds `repro sweep
        # --record` grids; every entry must map to a registered sweep
        from repro.perf import SWEEP_PROFILE, SWEEPS, load_report_file

        profiles = load_report_file(ROOT / "BENCH_schedulers.json")
        assert SWEEP_PROFILE in profiles
        scenarios = profiles[SWEEP_PROFILE].scenarios
        assert "sweep_fig3_replication" in scenarios
        for name, scenario in scenarios.items():
            assert name.startswith("sweep_")
            assert scenario.params["sweep"] in SWEEPS
            # the recorded fan-out is auditable: both wall times present
            # when --compare-serial measured them
            assert scenario.ops["cells"] == scenario.params["cells"]

    def test_recorded_sweep_checksum_reproduces(self):
        # the committed fig3_replication grid must still come out of the
        # current code: a moved margin changes this checksum
        from repro.perf import SWEEP_PROFILE, load_report_file, run_sweep

        profiles = load_report_file(ROOT / "BENCH_schedulers.json")
        recorded = profiles[SWEEP_PROFILE].scenarios["sweep_fig3_replication"]
        assert recorded.params["quick"] is True
        assert recorded.checksum == "8760e2bf8807e436"
        assert run_sweep("fig3_replication", quick=True).checksum == recorded.checksum


class TestStaticAnalysis:
    """The tree must stay clean under its own linter (docs/STATIC_ANALYSIS.md)."""

    def test_src_passes_full_lint_rule_set(self):
        from repro.lint import Baseline, lint_paths

        report = lint_paths(
            [ROOT / "src"], baseline_path=ROOT / "lint-baseline.json"
        )
        details = "\n".join(f.render() for f in report.findings)
        assert report.ok, f"repro lint found new violations:\n{details}"

    def test_committed_baseline_is_empty(self):
        # Grandfathered debt is meant to be paid down, not accumulated:
        # the committed baseline must stay empty, so every pre-existing
        # finding is either fixed or carries a justified suppression.
        import json

        data = json.loads((ROOT / "lint-baseline.json").read_text())
        assert data["version"] == 1
        assert data["findings"] == []

    def test_every_rule_is_documented(self):
        from repro.lint import all_rules

        doc = read("docs/STATIC_ANALYSIS.md")
        for rule in all_rules():
            assert rule.code in doc, f"docs/STATIC_ANALYSIS.md missing {rule.code}"

    def test_rule_catalog_is_complete(self):
        from repro.lint import all_rules

        codes = {r.code for r in all_rules()}
        assert {"RP000", "RP001", "RP002", "RP003", "RP004", "RP005",
                "RP006"} <= codes

    def test_in_tree_suppressions_carry_justifications(self):
        from repro.lint import Project

        project = Project.from_paths([ROOT / "src"])
        for mod in project:
            for d in mod.directives.values():
                assert d.justification, (
                    f"{mod.pkgpath}:{d.line} suppression lacks a justification"
                )


class TestTypingBaseline:
    """pyproject's mypy config must keep promising what py.typed implies."""

    def test_mypy_config_declares_strict_tier(self):
        text = read("pyproject.toml")
        assert "[tool.mypy]" in text
        for module in ("repro.models.*", "repro.structures.*",
                       "repro.core.dominating", "repro.lint.*"):
            assert module in text, f"strict tier missing {module}"
        assert "disallow_untyped_defs = true" in text

    def test_mypy_in_dev_extra(self):
        text = read("pyproject.toml")
        dev_line = next(
            line for line in text.splitlines() if line.startswith("dev = ")
        )
        assert "mypy" in dev_line

    def test_strict_tier_defs_fully_annotated(self):
        """AST-level stand-in for mypy's disallow_(un|in)complete_defs.

        mypy itself runs in CI; this keeps the strict-tier promise
        checkable in environments without mypy installed.
        """
        import ast

        strict: list[Path] = [ROOT / "src/repro/core/dominating.py"]
        for pkg in ("models", "structures", "lint"):
            strict += sorted((ROOT / "src" / "repro" / pkg).glob("*.py"))
        problems = []
        for path in strict:
            tree = ast.parse(path.read_text())
            for node in ast.walk(tree):
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if node.returns is None:
                    problems.append(f"{path.name}:{node.lineno} {node.name}: no return type")
                args = node.args
                for a in args.posonlyargs + args.args + args.kwonlyargs:
                    if a.arg not in ("self", "cls") and a.annotation is None:
                        problems.append(
                            f"{path.name}:{node.lineno} {node.name}: arg {a.arg} untyped"
                        )
        assert not problems, "\n".join(problems)

    def test_mypy_strict_tier_if_available(self):
        mypy_api = pytest.importorskip("mypy.api", reason="mypy not installed")
        stdout, stderr, status = mypy_api.run(
            ["--config-file", str(ROOT / "pyproject.toml"),
             str(ROOT / "src" / "repro" / "models"),
             str(ROOT / "src" / "repro" / "structures"),
             str(ROOT / "src" / "repro" / "lint"),
             str(ROOT / "src" / "repro" / "core" / "dominating.py")]
        )
        assert status == 0, f"mypy failed:\n{stdout}\n{stderr}"
