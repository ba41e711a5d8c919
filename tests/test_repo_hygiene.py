"""Repository-level checks: examples compile, public modules are
documented, experiment registry matches DESIGN.md's inventory."""

import pathlib
import py_compile

REPO = pathlib.Path(__file__).resolve().parent.parent


class TestExamples:
    def test_all_examples_compile(self):
        examples = sorted((REPO / "examples").glob("*.py"))
        assert len(examples) >= 5
        for path in examples:
            py_compile.compile(str(path), doraise=True)

    def test_examples_reference_public_api_only(self):
        # Examples should demonstrate the public surface, not internals.
        for path in (REPO / "examples").glob("*.py"):
            text = path.read_text()
            assert "._" not in text.replace("self._", ""), path.name


class TestDocstrings:
    def test_every_package_module_has_a_docstring(self):
        missing = []
        for path in sorted((REPO / "src" / "repro").rglob("*.py")):
            source = path.read_text()
            stripped = source.lstrip()
            if not stripped:
                continue
            if not stripped.startswith(('"""', "'''")):
                missing.append(str(path.relative_to(REPO)))
        assert not missing, missing


class TestDesignDocSync:
    def test_every_experiment_listed_in_design(self):
        from repro.experiments.registry import EXPERIMENTS

        design = (REPO / "DESIGN.md").read_text()
        for experiment_id in EXPERIMENTS:
            base = experiment_id.split("-q")[0]
            assert base.split("-")[0] in design or base in design, (
                experiment_id
            )

    def test_every_bench_file_exists_per_figure(self):
        bench_dir = REPO / "benchmarks"
        for figure in ("fig2", "fig3", "fig5", "fig6", "fig7", "fig8",
                       "fig9", "fig10", "fig11", "fig12", "fig13", "fig14",
                       "fig15", "table1"):
            assert (bench_dir / "test_bench_{}.py".format(figure)).exists()

    def test_readme_mentions_core_commands(self):
        readme = (REPO / "README.md").read_text()
        for needle in ("pip install -e .", "concord-repro", "pytest tests/",
                       "pytest benchmarks/"):
            assert needle in readme
