"""The README's code examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_api_example_runs():
    section = README.read_text(encoding="utf-8").split("## Python API", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace: dict = {}
    exec(compile(code, "README.md", "exec"), namespace)
    result = namespace["result"]
    assert result.arrivals > 0 and result.completed > 0
    assert namespace["per_cluster"]
