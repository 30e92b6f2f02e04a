"""Fuzz the command line with bad flag values and bad target files.

Whatever the input, ``main`` must end with exit code 0, 1 or 2, print
no traceback, and on failure print an ``error:`` line that names the
flag or target field at fault (exit 2) or a flag (exit 1).
"""

import json
import re

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from langevin_lab.cli import main

NUMBERS = ["nan", "NaN", "inf", "-inf", "1e308", "-1e308", "1e-320", "0", "-0", "-1", "1.5",
           "", "abc", "0x10", "1e", " 7", "99999999999999999999"]
INITS = ["nan,0", "inf,1", "1e308,1e308", "-1e308,1e308", "1,2,3", "1", "", ",", "a,b", "0.5,1e-320"]

BASE = {
    "sample": {"--h": "0.05", "--K": "20", "--seed": "3", "--sigma": "0.5", "--replicas": "3",
               "--init": "0.5,0.5"},
    "bound": {"--m": "4", "--M": "5", "--h": "0.2", "--K": "10", "--p": "3", "--w2init": "1",
              "--sigma": "0.1"},
    "plan": {"--m": "4", "--M": "5", "--p": "10", "--eps": "0.3", "--w2init": "1"},
}
# values a valid run would take too long or too much memory for
TOO_BIG = {("sample", "--K"), ("sample", "--replicas")}

QUADRATIC = {"type": "quadratic", "mean": [1.0, -1.0], "precision": [[2.0, 0.5], [0.5, 1.0]]}
LOGISTIC = {"type": "logistic", "X": [[0.5, -1.0], [1.0, 0.2], [-0.3, 0.8], [0.1, 0.1]],
            "y": [0, 1, 0, 1], "ridge": 0.5}
NASTY_JSON = [float("nan"), float("inf"), float("-inf"), 1e308, -1e308, 0, -1, 1e-320, True, None,
              "abc", [], [[]], {}, [1.0, 2.0, 3.0], [[1.0, 2.0], [3.0]], [[[1.0]]],
              [[1e308, 0.0], [0.0, 1e308]], [[1e308, 1e308], [1e308, 1e308]],
              [[-1e308, 0.0], [0.0, 1e308]], [1e308, -1e308], [[1.0, 0.0], [0.0, -1.0]]]


def run(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects a flag value
        code = exc.code
    return code, capsys.readouterr()


# library names of the flags, which library errors use
FIELD_NAMES = {"--w2init": "w2_init", "--eps": "epsilon"}


def names(err, named):
    """err names the flag, or its library name as a word of its own."""
    word = FIELD_NAMES.get(named, named.lstrip("-"))
    return named in err or re.search(rf"(?<!\w){re.escape(word)}(?!\w)", err) is not None


def check_outcome(code, captured, named):
    assert code in (0, 1, 2), (code, captured.err)
    assert "Traceback" not in captured.err and "Traceback" not in captured.out
    if code == 2:
        assert names(captured.err, named), (named, captured.err)
    elif code == 1:
        assert captured.err.startswith("error: "), captured.err
        assert re.search(r"--\w", captured.err), captured.err


def flag_value(command, flag):
    values = INITS if flag == "--init" else NUMBERS
    if (command, flag) in TOO_BIG:
        values = [v for v in values if v != "99999999999999999999"]
    return st.sampled_from(values)


@st.composite
def bad_argv(draw):
    command = draw(st.sampled_from(sorted(BASE)))
    flag = draw(st.sampled_from(sorted(BASE[command])))
    flags = dict(BASE[command], **{flag: draw(flag_value(command, flag))})
    return command, flag, flags


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=bad_argv())
def test_bad_flag_values_fail_cleanly(case, tmp_path, capsys):
    command, flag, flags = case
    argv = [command] + [part for item in flags.items() for part in item]
    if command == "sample":
        target = tmp_path / "quad.json"
        target.write_text(json.dumps(QUADRATIC))
        argv += ["--target", str(target), "--oracle", "gaussian", "--out", str(tmp_path / "out.csv")]
    check_outcome(*run(argv, capsys), named=flag)


@st.composite
def bad_target(draw):
    payload = json.loads(json.dumps(draw(st.sampled_from([QUADRATIC, LOGISTIC]))))
    field = draw(st.sampled_from(sorted(payload)))
    value = draw(st.sampled_from(NASTY_JSON))
    where = draw(st.sampled_from(["whole", "entry", "drop"]))
    if where == "drop":
        del payload[field]
    elif where == "entry" and isinstance(payload[field], list):
        row = payload[field]
        i = draw(st.integers(0, len(row) - 1))
        if isinstance(row[i], list):
            row[i][draw(st.integers(0, len(row[i]) - 1))] = value
        else:
            row[i] = value
    else:
        payload[field] = value
    return field, payload


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=bad_target())
def test_bad_target_files_fail_cleanly(case, tmp_path, capsys):
    field, payload = case
    target = tmp_path / "target.json"
    target.write_text(json.dumps(payload))  # NaN / Infinity literals, as Python's json reads them
    argv = ["sample", "--target", str(target), "--h", "0.01", "--K", "20", "--replicas", "2",
            "--out", str(tmp_path / "out.csv")]
    check_outcome(*run(argv, capsys), named=field)


@pytest.mark.parametrize("payload, named", [
    ({"type": "quadratic", "mean": [], "precision": []}, "mean must have at least one entry"),
    ({"type": "quadratic", "mean": [1.0, [2.0]], "precision": [[1.0, 0.0], [0.0, 1.0]]},
     "mean must be numbers in a rectangular array"),
    ({"type": "quadratic", "mean": [1.0, 2.0], "precision": [[1e308, 1e308], [1e308, 1e308]]},
     "precision must be positive definite"),
    ({"type": "quadratic", "mean": [1.0, 2.0], "precision": [[1.7e308, 1e308], [1e308, 1.7e308]]},
     "precision's largest eigenvalue overflows"),
    ({"type": "logistic", "X": [[1e308, 1.0], [2.0, 1.0]], "y": [0, 1], "ridge": 0.5}, "X is too large"),
    ({"type": "logistic", "X": [[1.0], [2.0]], "y": [0, 1], "ridge": "abc"}, "ridge must be a number"),
])
def test_target_cases_the_fuzz_found(payload, named, tmp_path, capsys):
    target = tmp_path / "target.json"
    target.write_text(json.dumps(payload))
    code, captured = run(["sample", "--target", str(target), "--h", "0.01", "--K", "3",
                          "--out", str(tmp_path / "out.csv")], capsys)
    assert code == 2 and named in captured.err, captured.err


def test_precision_near_the_float_limit_is_symmetrized_without_overflow(tmp_path, capsys):
    target = tmp_path / "target.json"
    target.write_text(json.dumps({"type": "quadratic", "mean": [0.5, 0.25],
                                  "precision": [[1e308, 0.0], [0.0, 1e308]]}))
    code, captured = run(["sample", "--target", str(target), "--h", "1e-309", "--K", "3",
                          "--init", "0.5,0.25", "--out", str(tmp_path / "out.csv")], capsys)
    assert code == 0, captured.err


@pytest.mark.parametrize("argv, named", [
    (["--m", "4", "--M", "5", "--w2init", "1e308"], "w2_init=1e+308 is too large"),
    (["--m", "1e308", "--M", "1e308", "--w2init", "1"], "m=1e+308 and M=1e+308 are too large"),
])
def test_plan_cases_the_fuzz_found(argv, named, capsys):
    code, captured = run(["plan", "--p", "10", "--eps", "0.3"] + argv, capsys)
    assert code == 2 and named in captured.err, captured.err
