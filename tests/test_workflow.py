"""The CI workflow names only test files and tests that exist.

A step that runs ``tests/test_cli.py::TestSweep::test_x`` fails only in CI
once that test is renamed; this check fails wherever the suite runs.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"

# a file under tests/ or perfbench/, then the class and function names of a
# node id, if any; a parametrized case's "[...]" is not checked
NAMED = re.compile(r"\b((?:tests|perfbench)/[\w/]+\.py)((?:::\w+)*)")


def _defines(path: Path, names: list[str]) -> bool:
    """Whether the module at ``path`` defines the class or function chain
    ``names`` (``["TestSweep", "test_x"]``)."""
    body = ast.parse(path.read_text(encoding="utf-8")).body
    for name in names:
        found = [
            node for node in body
            if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == name
        ]
        if not found:
            return False
        body = found[0].body
    return True


def test_every_test_file_and_node_id_the_workflow_names_exists():
    named = set(NAMED.findall(WORKFLOW.read_text(encoding="utf-8")))
    assert any(node for _file, node in named)  # the pattern finds node ids at all
    missing = [
        file + node for file, node in sorted(named)
        if not (ROOT / file).is_file() or not _defines(ROOT / file, node.split("::")[1:])
    ]
    assert missing == []
