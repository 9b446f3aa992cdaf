"""The README's Quickstart block runs and prints what its comments say, and
its exit codes are the command line's."""

from __future__ import annotations

import contextlib
import io
import re
from decimal import Decimal
from pathlib import Path

import bankcover.cli as cli

README = Path(__file__).resolve().parents[1] / "README.md"
NUMBER = re.compile(r"\d+\.\d+(?:e[-+]?\d+)?")


def quickstart_block() -> str:
    section = README.read_text(encoding="utf-8").split("## Quickstart", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_quickstart_prints_what_its_comments_say():
    code = quickstart_block()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    printed = out.getvalue().splitlines()
    prints = [line for line in code.splitlines() if line.startswith("print(")]
    assert len(printed) == len(prints)
    checked = []
    for line, shown in zip(prints, printed):
        comment = line.partition("#")[2]
        for claim, value in zip(NUMBER.findall(comment), shown.split()):
            # a comment gives the printed value rounded to the digits it shows
            step = Decimal(1).scaleb(Decimal(claim).as_tuple().exponent)
            assert Decimal(value).quantize(step) == Decimal(claim), (claim, value)
            checked.append(claim)
    assert checked == ["65.0144", "9.807e-12", "11.507"]


def documented_exit_codes(text: str) -> list[int]:
    """The codes of the "Exit codes:" sentence in ``text``: the number that
    opens it and each one that follows a comma."""
    sentence = " ".join(text.split()).split("Exit codes:", 1)[1].split(").", 1)[0]
    return [int(code) for code in re.findall(r"(?:^|,) (\d+) ", sentence)]


def test_exit_codes_are_the_cli_constants():
    # a code deleted from the command line cannot stay documented, in the
    # README or in the module's docstring
    constants = sorted(value for name, value in vars(cli).items() if name.startswith("EXIT_"))
    assert constants == [0, 1, 2, 4, 5]
    assert documented_exit_codes(README.read_text(encoding="utf-8")) == constants
    assert documented_exit_codes(cli.__doc__) == constants
