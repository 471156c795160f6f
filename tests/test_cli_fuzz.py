"""The command line on malformed input: a derandomized fuzz of ``main``.

Each example runs one of ``mean``, ``polytrope FILE``, ``polytrope
--matrix``, ``certify --point`` and ``distance`` in-process on either raw
bytes or a seed document, JSON or CSV, with tokens inserted, deleted or
doubled.  The inserted tokens include huge literals, deep nesting, ``NaN``,
booleans, ``null`` and extra or missing coordinates.  Whatever the input,
no exception escapes ``main``, the exit code is 0, 2 or 3, an exit 2
leaves stdout empty and writes exactly one stderr line of at most 300
bytes, and an exit 3 writes at most one stderr line.
"""

import contextlib
import io
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropmean.cli import main

POINT_SEEDS = (
    '{"points": [[-3, 0, 0], [0, -6, 0], [0, 0, -12]]}',
    '{"points": [["1/2", 0, "2.5"], [0, 1, 1], ["-1e1", 3, 0], [0, 0, 0]]}',
    "[[0, 0, 0, 0], [0, 1, 1, 0], [0, -1, 0, 1]]",
    "-3,0,0\n0,-6,0\n0,0,-12\n",
    '1/2,0\n"3",4\n5,-1\n',
)
MATRIX_SEEDS = (
    '{"entries": [[0, "-1/2", null], [-2, 0, "-3/2"], [-1, -1, 0]]}',
    '{"n": 2, "entries": [[0, -1], [-1, 0]]}',
)

# Tokens of JSON and CSV documents, the whitespace between them included,
# so that joining them gives the document back.
_TOKEN = re.compile(r'"[^"]*"|[-+0-9./eE]+|[A-Za-z]+|\s+|.', re.DOTALL)

_INSERTED = st.sampled_from(
    (
        "1e4400", '"1e100000"', "7" * 5000, '"%s"' % ("7" * 5000), "1e300",
        "123456789012345678901234567890/7", "-0", "1/0", '"1/0"', "0.5e-3",
        "[" * 3000, "{" * 3000, "[[[[[[[[", "]]", "}",
        "NaN", "Infinity", "-Infinity", "true", "false", "null",
        "[]", "{}", '""', '"x"', '"points"', '"entries"', '"n"', ":",
        ",", ", 0", "0,", ", [0, 1, 2]", ", [0, 1]", "[0, 1, 2, 3],",
        "\n", "\n0,1,2\n", '"', "\r", "\x00", "\ufeff", "\u0661", " ",
    )
)


@st.composite
def _mutated(draw, seeds):
    """A seed document with one to three tokens inserted, deleted or doubled."""
    tokens = _TOKEN.findall(draw(st.sampled_from(seeds)))
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(tokens)))
        edit = draw(st.sampled_from(("insert", "delete", "double")))
        if edit == "insert":
            tokens.insert(at, draw(_INSERTED))
        elif tokens and at < len(tokens):
            if edit == "delete":
                del tokens[at]
            else:
                tokens.insert(at, tokens[at])
    return "".join(tokens).encode("utf-8")


def _inputs(seeds):
    return st.one_of(st.binary(max_size=120), _mutated(seeds))


_COMMANDS = st.one_of(
    st.tuples(st.just(("mean",)), _inputs(POINT_SEEDS)),
    st.tuples(st.just(("polytrope",)), _inputs(POINT_SEEDS)),
    st.tuples(st.just(("polytrope", "--matrix")), _inputs(MATRIX_SEEDS)),
    st.tuples(
        st.sampled_from(
            [("certify", "--point", p) for p in ("0,0,-1", "0,0,0", "0,1/2", "0,0,1/3,1/3")]
        ),
        _inputs(POINT_SEEDS),
    ),
    st.tuples(st.just(("distance",)), _inputs(POINT_SEEDS)),
)


@pytest.fixture(scope="module")
def input_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input"


def _run(path, command, data):
    """(exit code, stdout, stderr) of ``main`` on ``data`` written to path."""
    path.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*command, str(path)])
    return code, out.getvalue(), err.getvalue()


def _assert_guarded(code, out, err):
    assert code in (0, 2, 3)
    if code == 2:
        assert out == ""
        assert err.count("\n") == 1 and err.endswith("\n")
        assert len(err.encode("utf-8", "surrogateescape")) <= 300
    if code == 3:
        assert err.count("\n") <= 1


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(_COMMANDS)
def test_malformed_input_exits_with_one_guarded_line(input_path, case):
    command, data = case
    _assert_guarded(*_run(input_path, command, data))
