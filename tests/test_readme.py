"""The python examples of README.md run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_python_block_of_the_readme_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 3
    for i, block in enumerate(blocks, start=1):
        exec(compile(block, f"README.md, python block {i}", "exec"), {})
    out = capsys.readouterr().out.splitlines()
    # the comments under and beside the last two prints
    unity = (
        "1/4*D({1}|{1}) + -1/4*D({1}|{2}) + -1/4*D({2}|{1}) + 1/4*D({2}|{2})"
        " + 1/2*D({1,2}|{1,2})"
    )
    assert out[-2:] == [unity, "5 39"]
    assert f"\n# {unity}\n" in README.read_text()
