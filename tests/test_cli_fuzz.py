"""Property test of the command-line contract over generated inputs.

Every run of :func:`xychain.cli.main` on a config document and argument list
that argparse accepts must end in one of the documented exit codes 0, 2, 3
or 4 without an exception escaping, and exits 2 and 3 must explain
themselves in exactly one stderr line starting with ``error:``.  A ``scan``
exits 3 only when no draw is valid, and says so.  Documents start from
valid configs of each kind and are then corrupted: wrong types, ``bool``,
missing and extra keys, NaN and Infinity, extreme magnitudes and inverted
ranges.  ``N`` stays at most 4 and ``samples`` at most 20 so that
no example is expensive.
"""

import copy
import io
import json
import re
import warnings
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from xychain.chain import SCAN_LEVELS
from xychain.cli import main
from xychain.report import TOLERANCES

BASE_DOCUMENTS = (
    {"family": "qr24", "a": -0.3, "b": 0.3, "c": -0.8, "q": 0.7, "N": 4},
    {"family": "qr13", "a": 4.21, "b": 6.28, "c": -0.54, "q": 0.7, "N": 3},
    {"family": "explicit", "N": 3, "alpha": [1.0, -0.5, 0.8],
     "beta": [0.5, 0.2, -0.3, 0.1], "gamma": [0.2, 0.0, -0.4]},
    {"family": "qr24", "N": 3, "samples": 12, "level": "full", "seed": 3,
     "ranges": {"a": [-0.9, -0.05], "b": [0.05, 0.9], "c": [-0.95, -0.1],
                "q": [0.3, 0.5, 0.7]}},
)

WRONG_TYPES = st.one_of(
    st.booleans(),
    st.none(),
    st.text(max_size=3),
    st.lists(st.integers(-2, 2), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(-2, 2), max_size=1),
)
NUMBERS = st.one_of(
    st.floats(-2.0, 2.0),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([5e-324, 1e-200, 1e200, -1e308, 1e308]),
    st.integers(-3, 3),
    st.just(10**400),
)
VALUES = NUMBERS | WRONG_TYPES
RANGES = st.lists(NUMBERS, min_size=1, max_size=3)

#: Values of the right JSON type for each field, in or out of its domain.
TYPED_VALUES = {
    "family": st.sampled_from(["qr13", "qr24", "explicit", "qr99"]),
    "N": st.integers(-1, 4),
    "a": NUMBERS,
    "b": NUMBERS,
    "c": NUMBERS,
    "q": NUMBERS,
    "alpha": st.lists(NUMBERS, max_size=5),
    "beta": st.lists(NUMBERS, max_size=5),
    "gamma": st.lists(NUMBERS, max_size=5),
    "ranges": st.dictionaries(st.sampled_from("abcqz"), RANGES, max_size=5),
    "samples": st.integers(-1, 20),
    "level": st.sampled_from(SCAN_LEVELS + ("bogus",)),
    "seed": st.integers(-5, 2**70),
    "tolerances": st.dictionaries(
        st.sampled_from(sorted(TOLERANCES) + ["wibble"]), NUMBERS, max_size=2
    ),
    "note": st.text(max_size=5),
    "bogus": VALUES,
}


@st.composite
def cases(draw):
    """A config document, the subcommand argument list, and an ``--out`` suffix.

    The document is a valid config of one kind with up to three fields
    corrupted; the subcommand mostly matches its kind.
    """
    base = draw(st.sampled_from(BASE_DOCUMENTS))
    commands = ["scan"] if "ranges" in base else ["spectrum", "chain-coeffs", "verify", "manybody"]
    if draw(st.integers(0, 9)) == 0:
        commands = ["spectrum", "chain-coeffs", "verify", "manybody", "scan"]
    command = draw(st.sampled_from(commands))
    doc = copy.deepcopy(base)
    for _ in range(draw(st.integers(0, 3))):
        own_key = draw(st.integers(0, 3)) > 0
        key = draw(st.sampled_from(sorted(doc) if own_key else sorted(TYPED_VALUES)))
        action = draw(st.sampled_from(["delete", "retype", "replace", "entry", "entry"]))
        value = doc.get(key)
        if action == "delete":
            doc.pop(key, None)
        elif action == "retype":
            doc[key] = draw(WRONG_TYPES)
        elif action == "entry" and isinstance(value, list) and value:
            value[draw(st.integers(0, len(value) - 1))] = draw(NUMBERS)
        elif action == "entry" and isinstance(value, dict) and value:
            value[draw(st.sampled_from(sorted(value)))] = draw(RANGES | WRONG_TYPES)
        else:
            doc[key] = draw(TYPED_VALUES[key])
    if draw(st.integers(0, 19)) == 0:
        doc = draw(VALUES)  # a root that is not an object

    argv = [command]
    if draw(st.integers(0, 4)) == 0:
        argv += ["--family", draw(st.sampled_from(["qr13", "qr24", "explicit"]))]
    if command == "scan" and draw(st.integers(0, 3)) == 0:
        argv.append("--seed=" + str(draw(st.integers(-10, 10) | st.integers(0, 10**20))))
    if command in ("spectrum", "verify") and draw(st.integers(0, 3)) == 0:
        tol = draw(
            st.sampled_from(["nan", "inf", "-inf", "1e400", "0", "-1", "1e-30", "1e-8"])
            | st.floats(allow_nan=True, allow_infinity=True).map(repr)
        )
        argv.append("--tol=" + tol)
    return doc, argv, draw(st.sampled_from([None, ".csv", ".json"]))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=cases())
def test_main_ends_in_a_documented_exit(workdir, case):
    doc, argv, suffix = case
    config = workdir / "config.json"
    config.write_text(json.dumps(doc))
    argv = argv + ["--config", str(config)]
    if suffix is not None:
        argv += ["--out", str(workdir / f"out{suffix}")]
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = main(argv)
    event(f"exit {code}")
    assert code in (0, 2, 3, 4)
    if code in (2, 3):
        lines = stderr.getvalue().splitlines() + [str(w.message) for w in caught]
        assert len(lines) == 1 and lines[0].startswith("error:"), lines
    if code == 3 and argv[0] == "scan":  # a scan rejects every failing draw
        assert re.match(r"error: no \S+-valid draws", lines[0]), lines
