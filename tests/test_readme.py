"""The README quick start runs as written and prints what its comments say."""

import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _python_blocks():
    return re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


def test_readme_python_blocks_print_their_comments():
    blocks = _python_blocks()
    assert blocks
    namespace = {}
    checked = 0
    for block in blocks:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(block, str(README), "exec"), namespace)
        commented = [
            line.split("#", 1)[1]
            for line in block.splitlines()
            if line.startswith("print(") and "#" in line
        ]
        printed = out.getvalue().splitlines()
        assert len(printed) == len(commented), block
        for value, comment in zip(printed, commented):
            assert value in comment.split(), (value, comment)
            checked += 1
    assert checked >= 8
