"""README's python examples run, in order, as one script."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run(tmp_path, monkeypatch):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert len(blocks) >= 2
    # the examples write their files into the working directory
    monkeypatch.chdir(tmp_path)
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert (tmp_path / "whirl.csv").is_file()
