"""Count the lines of each `src/oscpot` module.

    python tools/src_lines.py

Run from anywhere; it reads this checkout's `src/oscpot/*.py`.  For each
module it prints `wc -l`'s line count and its code lines: the lines that
hold a token of a statement, so not blank lines, comments or docstrings
(a statement made only of string literals).  A statement that spans
several lines counts each of them.  The last row gives the totals.
"""

from __future__ import annotations

import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Tokens that are not code: layout, comments and the stream's ends.
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """Lines of `source` that hold a token of a statement that is not a
    docstring."""
    rows: set[int] = set()
    statement: list[tokenize.TokenInfo] = []
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            statement.append(tok)
        if tok.type in (tokenize.NEWLINE, tokenize.ENDMARKER):
            if any(t.type != tokenize.STRING for t in statement):
                for t in statement:
                    rows.update(range(t.start[0], t.end[0] + 1))
            statement = []
    return len(rows)


def main() -> int:
    total_lines = total_code = 0
    print("module,lines,code")
    for path in sorted((ROOT / "src" / "oscpot").glob("*.py")):
        source = path.read_text()
        lines, code = source.count("\n"), code_lines(source)
        print(f"{path.name},{lines},{code}")
        total_lines += lines
        total_code += code
    print(f"total,{total_lines},{total_code}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
