"""The CI workflow loads as YAML and runs its steps in the expected order."""

import pathlib

import pytest

yaml = pytest.importorskip("yaml")

WORKFLOW = pathlib.Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"


class UniqueKeyLoader(yaml.SafeLoader):
    """A safe loader that refuses a mapping with a repeated key, which a
    plain loader would silently resolve to the last value."""

    def construct_mapping(self, node, deep=False):
        keys = set()
        for key_node, _ in node.value:
            key = self.construct_object(key_node, deep=deep)
            if key in keys:
                raise yaml.constructor.ConstructorError(
                    None, None, f"duplicate key {key!r}", key_node.start_mark
                )
            keys.add(key)
        return super().construct_mapping(node, deep)


def test_unique_key_loader_rejects_a_repeated_key():
    with pytest.raises(yaml.constructor.ConstructorError, match="duplicate key 'run'"):
        yaml.load("steps:\n  - name: a\n    run: x\n    run: y\n", Loader=UniqueKeyLoader)


def test_the_tests_workflow_loads_with_its_steps_in_order():
    workflow = yaml.load(WORKFLOW.read_text(encoding="utf-8"), Loader=UniqueKeyLoader)
    steps = workflow["jobs"]["tests"]["steps"]
    assert [step.get("name", step.get("uses")) for step in steps] == [
        "actions/checkout@v4",
        "actions/setup-python@v5",
        "Install test dependencies",
        "Tier-1 suite",
        "Benchmark self-tests",
        "Benchmark verdicts",
        "Traced benchmark passes",
        "Same answers as the base commit",
        "Installed entry point",
    ]
    install = steps[2]["run"].split()
    assert {"pytest", "hypothesis", "pyyaml"} <= set(install)
    assert all("run" in step or "uses" in step for step in steps)
