"""tools/code_lines.py: what counts as a code line."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

FIXTURE = '''"""A module docstring
over two lines."""

import os  # a trailing comment: the line counts once

# a comment line


class Box:
    """A class docstring."""

    size = 3


def area(a,
         b):
    """A function docstring,
    over two lines."""
    text = """a string that is
    no docstring"""
    return (a
            * b)
'''


def test_fixture_counts():
    # import, class, size, def (2 lines), text (2 lines), return (2 lines)
    assert code_lines.code_lines(FIXTURE) == 9


def test_blank_comment_and_docstring_only_source_has_none():
    assert code_lines.code_lines('"""Only a docstring."""\n\n# and a comment\n') == 0


def test_table(tmp_path, capsys):
    (tmp_path / "b.py").write_text(FIXTURE)
    (tmp_path / "a.py").write_text("x = 1\n\ny = 2\n")
    (tmp_path / "notes.txt").write_text("x = 1\n")
    assert code_lines.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["a.py", "2"], ["b.py", "9"], ["total", "11"]]
