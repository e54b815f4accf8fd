"""Command-line misuse: every spoiled argv exits 2 with one ``error:`` line.

Each example builds a valid command line for ``run``, ``sweep``, ``sample``
or ``catalog`` and spoils it one way: an option value of the wrong type, a
negative, NaN or infinite value, an integer past its cap, an ``--out`` path
that cannot be written, an unknown or a repeated flag, or a missing
positional or required option.  Only misuse is
generated, since a valid ``--dim`` near 4096 or ``--shots`` near 2^24 takes
seconds to minutes.  The parser is built once per process and shared by
every call, so after each misuse the test repeats one fixed valid call and
requires its output to stay byte-identical.
"""

import contextlib
import io
import os
import string

from hypothesis import example, given, settings
from hypothesis import strategies as st

import weakmeas as wm
from weakmeas import cli, harness
from weakmeas.tensor import MAX_ARRAY_BYTES

#: The fixed valid call made between misuses.
VALID_CALL = ["run", "aav_qubit"]

SCENARIOS = {name: wm.resolve_scenario(name) for name in wm.catalog_names()}
#: Scenarios ``sample`` accepts: pointer 0 is a Fock pointer.
SAMPLED = sorted(
    name for name, s in SCENARIOS.items() if isinstance(s.pointers[0], wm.FockPointerSpec)
)
GRID = "0.16,0.08,0.04,0.02"

#: Options of each command and the kind of value each takes.
OPTIONS = {
    "run": {"--dim": "dim", "--tolerance": "tolerance", "--format": "format", "--out": "path"},
    "sweep": {"--grid": "grid", "--dim": "dim", "--format": "format", "--out": "path"},
    "sample": {
        "--pointer": "pointer",
        "--shots": "shots",
        "--seed": "seed",
        "--dim": "dim",
        "--out": "path",
    },
    "catalog": {},
}
KNOWN_FLAGS = {"-h", "--help"}.union(*OPTIONS.values())

#: Largest Fock truncation whose dim x dim complex operator fits the array cap.
MAX_DIM = int((MAX_ARRAY_BYTES // 16) ** 0.5)


def _parses(kind, token: str) -> bool:
    try:
        kind(token)
    except ValueError:
        return False
    return True


def _tokens(alphabet: str, kind) -> st.SearchStrategy[str]:
    """Short tokens over ``alphabet`` that ``kind`` cannot parse."""
    return st.text(alphabet=alphabet, max_size=6).filter(lambda t: not _parses(kind, t))


NOT_INT = st.one_of(
    st.sampled_from(["1.5", "1e3", "0x10", "nan", "inf", "-inf", "2**8", "1,000"]),
    st.floats().map(repr),
    _tokens(string.ascii_letters + ".", int),
)
NOT_FLOAT = st.one_of(
    st.sampled_from(["1,5", "0x1p3", "1e", "--", "one"]),
    _tokens(string.ascii_letters + ",", float),
)
NON_FINITE = st.sampled_from(["nan", "NaN", "inf", "-inf", "Infinity", "1e400", "-1e400"])


def _ints(**bounds) -> st.SearchStrategy[str]:
    return st.integers(**bounds).map(str)


def bad_values(kind: str, scenario: str) -> st.SearchStrategy[str]:
    """Values of one option kind that the command must refuse."""
    if kind == "dim":
        return st.one_of(NOT_INT, _ints(max_value=1), _ints(min_value=MAX_DIM + 1))
    if kind == "pointer":
        n = SCENARIOS[scenario].n_pointers
        return st.one_of(NOT_INT, _ints(max_value=-1), _ints(min_value=n))
    if kind == "shots":
        return st.one_of(NOT_INT, _ints(max_value=0), _ints(min_value=harness.MAX_SHOTS + 1))
    if kind == "seed":
        return st.one_of(NOT_INT, _ints(max_value=-1))
    if kind == "tolerance":
        negative = st.floats(max_value=-5e-324, allow_infinity=False).map(repr)
        return st.one_of(NOT_FLOAT, negative, NON_FINITE)
    if kind == "format":
        return st.text(alphabet=string.ascii_letters, max_size=6).filter(
            lambda t: t not in ("csv", "json")
        )
    if kind == "path":
        return st.just(os.path.join(os.devnull, "out"))
    assert kind == "grid"
    valid = ["0.16", "0.08", "0.04", "0.02", "0.01", "0.005"]
    outside = st.one_of(
        st.floats(max_value=0.0).map(repr),
        st.floats(min_value=0.2, exclude_min=True).map(repr),
        NON_FINITE,
        _tokens(string.ascii_letters, float).filter(bool),
    )
    one_bad = st.tuples(st.lists(st.sampled_from(valid), min_size=3, max_size=5, unique=True),
                        outside, st.integers(0, 5))
    too_few = st.lists(st.sampled_from(valid), max_size=3, unique=True)
    repeated = st.lists(st.sampled_from(valid), min_size=4, max_size=6, unique=True).map(
        lambda g: g + g[:1]
    )
    return st.one_of(
        one_bad.map(lambda t: t[0][: t[2]] + [t[1]] + t[0][t[2] :]),
        too_few,
        repeated,
    ).map(",".join)


def good_values(kind: str) -> st.SearchStrategy[str]:
    """Values of one option kind that the command accepts."""
    return {
        "dim": _ints(min_value=8, max_value=16),
        "pointer": st.just("0"),
        "shots": _ints(min_value=1, max_value=100),
        "seed": _ints(min_value=0, max_value=2**64),
        "tolerance": st.sampled_from(["0.5", "1e-3"]),
        "format": st.sampled_from(["csv", "json"]),
        "grid": st.just(GRID),
        "path": st.just(os.devnull),
    }[kind]


@st.composite
def valid_units(draw, command: str) -> list[list[str]]:
    """A valid command line as units (the command, its positional, each option pair)."""
    if command == "catalog":
        return [["catalog"], ["list"]]
    names = SAMPLED if command == "sample" else sorted(SCENARIOS)
    units = [[command], [draw(st.sampled_from(names))]]
    if command == "sweep":
        units.append(["--grid", GRID])
    if command == "sample":
        units += [["--shots", draw(_ints(min_value=1, max_value=100))], ["--seed", "1"]]
    return units


def _option(draw, flag: str, value: str) -> list[str]:
    return [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]


def _join(draw, units: list[list[str]], extra: list[list[str]]) -> list[str]:
    """The command unit, then the other units and ``extra`` in a drawn order."""
    rest = draw(st.permutations(units[1:] + extra))
    return [token for unit in [units[0], *rest] for token in unit]


@st.composite
def misuse(draw) -> list[str]:
    """A valid command line spoiled one way."""
    command = draw(st.sampled_from(sorted(OPTIONS)))
    units = draw(valid_units(command))
    options = OPTIONS[command]
    spoil = draw(st.sampled_from(["bad value", "unknown flag", "repeated flag", "missing"]))
    if spoil == "bad value" and command == "catalog":
        return ["catalog", draw(st.text(string.ascii_letters).filter(lambda t: t != "list"))]
    if spoil == "bad value":
        flag = draw(st.sampled_from(sorted(options)))
        units = [unit for unit in units if unit[0] != flag]
        value = draw(bad_values(options[flag], units[1][0]))
        return _join(draw, units, [_option(draw, flag, value)])
    if spoil == "repeated flag" and options:
        flag = draw(st.sampled_from(sorted(options)))
        values = [draw(good_values(options[flag])) for _ in range(2)]
        units = [unit for unit in units if unit[0] != flag]
        return _join(draw, units, [_option(draw, flag, value) for value in values])
    if spoil == "unknown flag":
        name = draw(st.text(alphabet=string.ascii_lowercase + "-", min_size=1, max_size=8))
        flag = draw(st.sampled_from(["-", "--"])) + name
        # Skip abbreviations of a known flag, "-hh" (two -h) and the "--" separator.
        if any(known.startswith(flag) or flag.startswith(known) for known in KNOWN_FLAGS):
            flag = "--no-such-" + name
        extra = [flag] + draw(st.lists(st.sampled_from(["1", "x", "-1"]), max_size=1))
        return _join(draw, units, [extra])
    dropped = draw(st.integers(0, len(units) - 1))
    if dropped == 0:
        return draw(st.sampled_from([[], ["help"], ["list"], ["runs"], ["Run"]]))
    return _join(draw, [units[0], *units[1:dropped], *units[dropped + 1 :]], [])


def call(argv: list[str]) -> tuple[int, str, str]:
    """Exit status, standard output and standard error of one in-process call."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, stdout.getvalue(), stderr.getvalue()


#: Taken when the module is collected, before any test has used the shared parser.
REFERENCE = call(VALID_CALL)


@settings(max_examples=400, deadline=None)
@given(argv=misuse())
# Repeated flags: argparse kept the last value and ran the command.
@example(argv=["run", "aav_qubit", "--format", "json", "--format", "csv"])
@example(argv=["sample", "aav_qubit", "--shots", "5", "--seed", "1", "--seed", "2"])
@example(argv=["sweep", "aav_qubit", f"--grid={GRID}", "--grid", GRID])
@example(argv=["run", "aav_qubit", "--dim", "8", "--di", "9"])
# argparse passed [] for a value of "--", which ended in a traceback or, for --out, stdout.
@example(argv=["run", "aav_qubit", "--tolerance=--"])
@example(argv=["sweep", "aav_qubit", "--grid=--"])
@example(argv=["run", "aav_qubit", "--out=--"])
# A non-numeric --grid entry reached float() and named neither the option nor the entry.
@example(argv=["sweep", "aav_qubit", "--grid", "0.16,0.08,0.04,abc"])
# A dim override of a scenario without Fock pointers went unchecked.
@example(argv=["run", "aav_qubit_spinptr", "--dim", "-3"])
@example(argv=["sweep", "joint_pair_spinptr", "--grid", GRID, "--dim", str(MAX_DIM + 1)])
def test_misuse_exits_2_with_one_error_line(argv):
    code, stdout, stderr = call(argv)
    assert code == 2
    assert stdout == ""
    assert "Traceback" not in stderr
    assert sum("error:" in line for line in stderr.splitlines()) == 1
    assert call(VALID_CALL) == REFERENCE


def test_valid_call_passes():
    assert REFERENCE[0] == 0
    assert REFERENCE[2] == ""
