"""``tools/code_lines.py`` counts the lines that hold code: no blank,
comment-only or docstring line counts."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

_FIXTURE = '''"""A module docstring
over two lines."""

import math  # a trailing comment does not hide the code


# a comment alone
class Box:
    """One line."""

    def area(self):
        """Two
        lines."""
        text = """a string that is no docstring:
        each of its lines counts"""
        return math.pi, text
'''


def _tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_skip_docstrings_comments_and_blanks():
    # import, class, def, the two lines of the string, return
    assert _tool().code_lines(_FIXTURE) == 6


def test_code_lines_cli_counts_files_and_directories(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(_FIXTURE)
    (tmp_path / "b.py").write_text("x = 1\n\n# note\n")
    assert _tool().main([str(tmp_path / "pkg"), str(tmp_path / "b.py")]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in out] == ["6", "1", "7"]
    assert out[-1].endswith("total")
