"""Fuzz the command line with bad flag values and bad target files.

Whatever the input, ``main`` must end with exit code 0, 1 or 2, print
no traceback, and on failure print an ``error:`` line that names the
flag or target field at fault (exit 2) or a flag (exit 1).
"""

import json
import re

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from langevin_lab._scalars import count, finite, nonnegative, positive
from langevin_lab.cli import build_parser, main

NUMBERS = ["nan", "NaN", "inf", "-inf", "1e308", "-1e308", "1e-320", "0", "-0", "-1", "1.5",
           "", "abc", "0x10", "1e", " 7", "99999999999999999999"]
INITS = ["nan,0", "inf,1", "1e308,1e308", "-1e308,1e308", "1,2,3", "1", "", ",", "a,b", "0.5,1e-320"]

BASE = {
    "sample": {"--h": "0.05", "--K": "20", "--seed": "3", "--sigma": "0.5", "--replicas": "3",
               "--init": "0.5,0.5"},
    "bound": {"--m": "4", "--M": "5", "--h": "0.2", "--K": "10", "--p": "3", "--w2init": "1",
              "--sigma": "0.1"},
    "plan": {"--m": "4", "--M": "5", "--p": "10", "--eps": "0.3", "--w2init": "1"},
    "validate": {"--seed": "3"},
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
FIELD_NAMES = {"--w2init": "w2_init", "--eps": "epsilon", "--init": "initial state"}


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


# every numeric flag: the _scalars rule and bounds the library applies to its value
FLAG_RULES = {
    ("sample", "--h"): (positive,),
    ("sample", "--K"): (count,),
    ("sample", "--seed"): (count,),
    ("sample", "--sigma"): (nonnegative,),
    ("sample", "--batch"): (count, 1),
    ("sample", "--replicas"): (count, 1),
    ("sample", "--init"): (finite,),
    ("bound", "--m"): (positive,),
    ("bound", "--M"): (positive,),
    ("bound", "--h"): (positive,),
    ("bound", "--K"): (count,),
    ("bound", "--p"): (count, 1),
    ("bound", "--w2init"): (nonnegative,),
    ("bound", "--sigma"): (nonnegative,),
    ("plan", "--m"): (positive,),
    ("plan", "--M"): (positive,),
    ("plan", "--p"): (count, 1),
    ("plan", "--eps"): (positive,),
    ("plan", "--w2init"): (nonnegative,),
    ("figure1", "--m"): (positive,),
    ("figure1", "--M"): (positive,),
    ("figure1", "--eps"): (positive,),
    ("figure1", "--p-values"): (count, 1),
    ("figure1", "--grid-size"): (count, 1),
    ("figure1", "--span"): (positive,),
    ("validate", "--seed"): (count, 0, 2**64),
}
LISTS = {("sample", "--init"), ("figure1", "--eps"), ("figure1", "--p-values")}
REQUIRED = {
    "sample": ["--target", "t.json", "--h", "0.1", "--K", "1"],
    "bound": ["--m", "4", "--M", "5", "--h", "0.2", "--K", "10", "--p", "3", "--w2init", "1"],
    "plan": ["--m", "4", "--M", "5", "--p", "10", "--eps", "0.3", "--w2init", "1"],
    "figure1": [],
    "validate": [],
}


def read(rule, text):
    """text as the flag reads it: a count through int(), None where int() refuses it."""
    try:
        return int(text) if rule is count else text
    except ValueError:
        return None


def library_rejects(rule, bounds, value):
    try:
        rule("x", value, *bounds)  # None, a refused count, is no real number
    except ValueError:
        return True
    return False


def test_every_numeric_flag_is_listed():
    listed = set()
    for command, parser in build_parser()._subparsers._group_actions[0].choices.items():
        listed |= {(command, a.option_strings[0]) for a in parser._actions if a.type is not None}
    assert listed == set(FLAG_RULES)


@pytest.mark.parametrize("command, flag", sorted(FLAG_RULES))
def test_flags_apply_the_library_rules(command, flag, capsys):
    # parsing exits 2 exactly when the rule rejects a comma-separated part (list flags) or the value
    rule, *bounds = FLAG_RULES[command, flag]
    parser = build_parser()
    for text in NUMBERS:
        parts = [part for part in text.split(",") if part] if (command, flag) in LISTS else [text]
        values = [read(rule, part) for part in parts]
        expected = 2 if any(library_rejects(rule, bounds, value) for value in values) else 0
        try:
            parser.parse_args([command, *REQUIRED[command], f"{flag}={text}"])
            code = 0
        except SystemExit as exc:
            code = exc.code
        err = capsys.readouterr().err
        assert code == expected, (text, err)
        if code:
            shown = text if values[0] is None else values[0]
            assert f"argument {flag}: must be " in err and f"got {shown}" in err.replace("'", ""), err
