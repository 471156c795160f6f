"""The command line on malformed input: a derandomized fuzz of ``main``.

Each example runs one of ``mean``, ``polytrope FILE``, ``polytrope
--matrix``, ``certify --point`` and ``distance`` in-process on either raw
bytes or a seed document, JSON or CSV, with tokens inserted, deleted or
doubled.  The inserted tokens include huge literals, deep nesting, ``NaN``,
booleans, ``null`` and extra or missing coordinates.  Whatever the input,
no exception escapes ``main``, the exit code is 0, 2 or 3, an exit 2
leaves stdout empty and writes exactly one stderr line of at most 300
bytes, and an exit 3 writes at most one stderr line.

The flag values are fuzzed the same way on a well-formed points file:
``certify --point V`` with V mutated from ``0,0,-1`` or ``0,1/2,-1``, and
``distance --pair A B`` with A and B mutated from ``1`` or ``2``, by the
same inserted tokens.  The same guard holds, except where argparse reads a
value as an unknown option, one that starts with "-" and is not a negative
number: that is a fault of the command's shape, and it keeps argparse's
usage error, ``SystemExit(2)`` with nothing on stdout.  ``bench``'s flags
stay out, since a valid huge size such as ``--dims 1e9`` runs for ever.
"""

import contextlib
import io
import re

import pytest
from hypothesis import example, given, settings
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
    """A seed text with one to three tokens inserted, deleted or doubled."""
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
    return "".join(tokens)


def _inputs(seeds):
    return st.one_of(st.binary(max_size=120), _mutated(seeds).map(str.encode))


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


_FLAG_VALUES = st.one_of(
    _mutated(("0,0,-1", "0,1/2,-1")).map(lambda v: ("certify", "--point", v)),
    st.tuples(_mutated(("1", "2")), _mutated(("1", "2"))).map(
        lambda pair: ("distance", "--pair", *pair)
    ),
)


@pytest.fixture(scope="module")
def points_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "points.json"
    path.write_text(POINT_SEEDS[0], encoding="utf-8")
    return path


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_FLAG_VALUES)
@example(("distance", "--pair", "-Infinity1", "2"))
def test_malformed_flag_values_exit_with_one_guarded_line(points_path, command):
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*command, str(points_path)])
    except SystemExit as exc:
        assert exc.code == 2 and out.getvalue() == ""
        assert err.getvalue().startswith("usage: tropmean")
        assert any(v.startswith("-") for v in command[2:])
        return
    _assert_guarded(code, out.getvalue(), err.getvalue())
