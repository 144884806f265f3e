"""The README's documented library usage runs against the package exports."""

import re
from pathlib import Path

import bpv_effect

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_example_runs_on_the_exports():
    code = library_example()
    imported = re.search(r"^from bpv_effect import (.+)$", code, re.MULTILINE).group(1)
    assert {name.strip() for name in imported.split(",")} <= set(bpv_effect.__all__)
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    report = namespace["report"]
    assert report.outranking.shape == report.strict_outranking.shape == (1, 1)
    assert report.outranking[0, 0] == namespace["prof"].rho.values.max()
    assert report.effectiveness.shape == report.strict_effectiveness.shape == (1,)
