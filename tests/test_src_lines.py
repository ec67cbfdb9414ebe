"""tools/src_lines.py on a small module and on this checkout."""

import importlib.util
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "src_lines.py"

MODULE = '''"""Module docstring,
on two lines."""

import math

# A comment line.


def area(r):
    """One-line docstring."""
    return (math.pi   # a trailing comment
            * r ** 2)


def name():
    return """a string
that is a value"""
'''


def _tool():
    spec = importlib.util.spec_from_file_location("src_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_skip_docstrings_comments_and_blank_lines():
    # import, def area, both lines of its return, def name and both lines
    # of its return: a string that is a value is code.
    assert MODULE.count("\n") == 17
    assert _tool().code_lines(MODULE) == 7


def test_the_table_adds_up_its_modules():
    out = subprocess.run([sys.executable, str(TOOL)], capture_output=True,
                         text=True, check=True).stdout.splitlines()
    assert out[0] == "module,lines,code"
    rows = [line.split(",") for line in out[1:]]
    assert rows[-1][0] == "total"
    for column in (1, 2):
        assert int(rows[-1][column]) == sum(int(r[column])
                                            for r in rows[:-1])
