"""``scripts/code_lines.py``, the code-line count of ``src/secantplane``."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

# Each line is marked by whether it counts: docstrings, blank lines and
# comment-only lines do not; every line of a statement over several lines
# does, and so does every line of a string that is not a docstring.
SOURCE = '''\
"""A module docstring                     no
over two lines."""                        # no

# A comment-only line.                    no
import math                               # yes


class Box:                                # yes
    """A class docstring."""              # no
    LABEL = """a string,                  yes
not a docstring"""                        # yes

    def area(self, width,                 # yes
             height):                     # yes
        """A function docstring."""       # no
        return (width *                   # yes
                height)                   # yes
'''


def test_counts_only_code_lines():
    marked = [line.rstrip().endswith("yes") for line in SOURCE.splitlines()]
    assert code_lines.code_lines(SOURCE) == sum(marked) == 8


def test_main_prints_every_module_and_the_total(capsys):
    assert code_lines.main() == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [name for name, _ in rows[:-1]] == sorted(
        path.name for path in code_lines.PACKAGE.glob("*.py"))
    assert rows[-1] == ["total", str(sum(int(count) for _, count in rows[:-1]))]
