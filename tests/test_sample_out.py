"""`weakmeas sample --out` writes the bytes of ``"%.12g\\n"`` per shot, as pinned.

``tests/data/sample_digests.json`` holds, per case in :data:`CASES`, the
sha256 of the positions file and of the printed summary.  A change to the
sampler or to the writer must keep both.  Regenerate the file only for a
change that is meant to move the samples:
``PYTHONPATH=src python tests/test_sample_out.py > tests/data/sample_digests.json``.
"""

import contextlib
import hashlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weakmeas import cli, harness

DIGESTS = Path(__file__).resolve().parent / "data" / "sample_digests.json"

#: ``sample`` arguments by case; ``--out`` is appended.  50,001 shots is not a
#: multiple of any power-of-two chunk.
CASES = {
    "aav_qubit_200k": ["aav_qubit", "--shots", "200000", "--seed", "11"],
    "joint_pair_200k": ["joint_pair", "--shots", "200000", "--seed", "12"],
    "joint_pair_50001": ["joint_pair", "--shots", "50001", "--seed", "5"],
    "aav_qubit_dim40": ["aav_qubit", "--dim", "40", "--shots", "20000", "--seed", "3"],
    "joint_pair_pointer1": ["joint_pair", "--pointer", "1", "--shots", "20000", "--seed", "7"],
}


def sample_digests(args, out):
    """sha256 of the positions file and of the printed summary of one ``sample`` run."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert cli.main(["sample", *args, "--out", str(out)]) == 0
    return {
        "out_sha256": hashlib.sha256(Path(out).read_bytes()).hexdigest(),
        "summary_sha256": hashlib.sha256(stdout.getvalue().encode()).hexdigest(),
    }


@pytest.mark.parametrize("case", sorted(CASES))
def test_sample_out_matches_its_digest(tmp_path, case):
    pinned = json.loads(DIGESTS.read_text(encoding="utf-8"))
    assert sample_digests(CASES[case], tmp_path / "positions.csv") == pinned[case]


def test_every_case_is_pinned():
    assert sorted(json.loads(DIGESTS.read_text(encoding="utf-8"))) == sorted(CASES)


def tie(digits: int, exp10: int) -> float:
    """A binary value whose 12-digit rounding is an exact or near tie."""
    return (digits + 0.5) * 10.0 ** (exp10 - 11)


#: Ties at the 12th digit, the fixed/exponent boundaries, signed zeros,
#: subnormals, non-finite values and integers with zeros in the integer part.
EDGES = [
    0.5, 0.125, 1.5, 2.5, tie(123456789012, 0), tie(999999999999, 3), tie(100000000000, -4),
    1e-5, 1e-4, math.nextafter(1e-4, 0.0), 9.999999999995e-5, 9.9999999999949e-5, 2.5e-5,
    1e11, 1e12, math.nextafter(1e12, 0.0), 999999999999.5, 999999999999.4, 99999999999.95,
    0.0, -0.0, 5e-324, 2.2250738585072014e-308, math.inf, -math.inf, math.nan,
    230395786470.0, 230395786400.0, 120000.0, 1000.0, 1.0, 10.0,
]  # fmt: skip


def expected(values):
    return b"".join(b"%.12g\n" % v for v in values)


@pytest.mark.parametrize("value", EDGES + [-v for v in EDGES], ids=repr)
def test_format_matches_percent_g_on_edges(value):
    assert harness._format_g12(np.array([value])) == expected([value])


def test_format_matches_percent_g_near_powers_of_ten():
    values = [
        math.nextafter(10.0**p, 10.0**p * scale) for p in range(-6, 14) for scale in (0, 1, 2)
    ]
    values += [-v for v in values]
    assert harness._format_g12(np.array(values)) == expected(values)


@settings(max_examples=2500, deadline=None)
@given(st.lists(st.floats(width=64), min_size=1, max_size=8))
@example([tie(230395786470, 11), 230395786470.0, 1e-5, -0.0, math.nan])
def test_format_matches_percent_g(values):
    assert harness._format_g12(np.array(values, dtype=np.float64)) == expected(values)


@settings(max_examples=500, deadline=None)
@given(
    st.floats(min_value=1e-4, max_value=1e12, exclude_max=True),
    st.integers(min_value=1, max_value=4096),
)
def test_format_matches_percent_g_in_fixed_notation(value, n):
    values = value * np.linspace(0.5, 2.0, n)
    assert harness._format_g12(values) == expected(values.tolist())


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        out = Path(work) / "positions.csv"
        doc = {name: sample_digests(args, out) for name, args in CASES.items()}
    json.dump(doc, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
