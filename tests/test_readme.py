"""The README's library sketch runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_sketch_runs():
    section = README.read_text(encoding="utf-8").split("\n## Library sketch\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    assert "automorphism_group" in block
    exec(compile(block, "README.md (Library sketch)", "exec"), {})
