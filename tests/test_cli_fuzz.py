"""Fuzz the command line with bad flag values and bad target files.

Whatever the input, ``main`` must end with exit code 0, 1 or 2, print
no traceback, and on failure print an ``error:`` line that names the
flag or target field at fault (exit 2) or a flag (exit 1).
"""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from langevin_lab._scalars import array, count, curvature, finite, nonnegative, positive
from langevin_lab.cli import build_parser, main

NUMBERS = ["nan", "NaN", "inf", "-inf", "1e308", "-1e308", "1e-320", "0", "-0", "-1", "1", "1.5",
           "", "abc", "0x10", "1e", " 7", str(2**62), str(2**64 - 1), "99999999999999999999"]
INITS = ["nan,0", "inf,1", "1e308,1e308", "-1e308,1e308", "1,2,3", "1", "", ",", "a,b", "0.5,1e-320"]

BASE = {
    "sample": {"--h": "0.05", "--K": "20", "--seed": "3", "--sigma": "0.5", "--batch": "1", "--replicas": "3",
               "--init": "0.5,0.5"},
    "bound": {"--m": "4", "--M": "5", "--h": "0.2", "--K": "10", "--p": "3", "--w2init": "1",
              "--sigma": "0.1"},
    "plan": {"--m": "4", "--M": "5", "--p": "10", "--eps": "0.3", "--w2init": "1"},
    "figure1": {"--m": "4", "--M": "5", "--eps": "0.5", "--p-values": "1", "--grid-size": "50", "--span": "1e9"},
    "validate": {"--seed": "3"},
}
# flags whose large counts a valid run would take too long for
TOO_BIG = {("sample", "--K")}

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
FIELD_NAMES = {"--w2init": "w2_init", "--eps": "epsilon", "--init": "initial state", "--p-values": "dimension p",
               "--grid-size": "grid size"}


def names(err, named):
    """err names the flag, or its library name as a word of its own."""
    word = FIELD_NAMES.get(named, named.lstrip("-"))
    return named in err or re.search(rf"(?<!\w){re.escape(word)}(?!\w)", err) is not None


def check_outcome(code, captured, named, command=None):
    assert code in (0, 1, 2), (code, captured.err)
    assert "Traceback" not in captured.err and "Traceback" not in captured.out
    if code == 2:
        assert names(captured.err, named), (named, captured.err)
    elif code == 1:
        assert captured.err.startswith("error: "), captured.err
        # figure1 may fail only on an unreachable precision; a failed chain names a flag
        assert ("is unreachable" in captured.err if command == "figure1"
                else re.search(r"--\w", captured.err)), captured.err


def flag_texts(command, flag):
    texts = INITS if flag == "--init" else NUMBERS
    if (command, flag) in TOO_BIG:
        texts = [text for text in texts if not text.isdigit() or int(text) < 2**62]
    return texts


def file_flags(command, tmp_path):
    """The command's file flags, with its outputs under tmp_path (sample runs QUADRATIC)."""
    if command == "sample":
        target = tmp_path / "quad.json"
        target.write_text(json.dumps(QUADRATIC))
        return ["--target", str(target), "--oracle", "gaussian", "--out", str(tmp_path / "out.csv")]
    return ["--out", str(tmp_path / "fig.csv")] if command == "figure1" else []


@st.composite
def bad_argv(draw):
    command = draw(st.sampled_from(sorted(BASE)))
    flag = draw(st.sampled_from(sorted(BASE[command])))
    flags = dict(BASE[command], **{flag: draw(st.sampled_from(flag_texts(command, flag)))})
    return command, flag, flags


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=bad_argv())
def test_bad_flag_values_fail_cleanly(case, tmp_path, capsys):
    command, flag, flags = case
    argv = [command] + [part for item in flags.items() for part in item] + file_flags(command, tmp_path)
    check_outcome(*run(argv, capsys), named=flag, command=command)


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


# every numeric flag: the type argparse reads it with, and the rule the library applies to the
# value at the flags of BASE (to the whole list, for a list flag); a rule raises ValueError to refuse
def rule(check, *bounds):
    """The _scalars rule check with these bounds, as a rule of the value alone."""
    return lambda value: check("x", value, *bounds)


def each(check, *bounds):
    """A list flag's rule: a nonempty list whose parts each meet the _scalars rule."""
    def parts(values):
        if not values:
            raise ValueError("empty list")
        for value in values:
            check("x", value, *bounds)
    return parts


def held(least, width=1):
    """A count >= least of rows of width floats that numpy can allocate, as the library does
    (numpy refuses NUMBERS' large counts before allocating anything)."""
    return lambda value: np.empty((count("x", value, least), width))


def bound_at(m=4.0, M=5.0, h=0.2):
    """bound's rules on m, M and h (of --kind lmc): 0 < m <= M and 0 < h < 2/M."""
    m, M = curvature(m, M)
    if not 0.0 < positive("h", h) < 2.0 / M:
        raise ValueError("h outside (0, 2/M)")


def plan_at(m=4.0, M=5.0, p=10, eps=0.3, w2init=1.0):
    """plan's rules: its flags' own, a finite 2 w2init / eps and, with kappa = M/m, a float
    1 - 2/(1 + kappa) below 1, a finite 14 kappa^2 p, a positive 2/(m+M) and a finite step
    h = min(eps^2 / (14 kappa^2 p), 2/(m+M)) whose float 1 - m h is below 1."""
    m, M = curvature(m, M)
    p, eps, w2init = count("p", p, 1), positive("eps", eps), nonnegative("w2init", w2init)
    kappa, boundary = M / m, 2.0 / (m + M)
    scale = 14.0 * kappa * kappa * p
    h = min(eps * eps / scale, boundary)
    if not (math.isfinite(2.0 * w2init / eps) and 1.0 - 2.0 / (1.0 + kappa) < 1.0 and math.isfinite(scale)
            and boundary > 0.0 and h < math.inf and 1.0 - m * h < 1.0):
        raise ValueError("no plan")


def grid_at(m=4.0, M=5.0):
    """figure1's rule on m and M: 0 < m <= M, with 2/(1 + M/m) below 2/(M/m) in floating point
    (the step grid is taken where m = 1)."""
    m, M = curvature(m, M)
    if not 2.0 / (1.0 + M / m) < 2.0 / (M / m):
        raise ValueError("no step grid")


def span(value):
    """figure1's rule on the grid span: finite and above 1."""
    if not finite("span", value) > 1.0:
        raise ValueError("span must exceed 1")


FLAG_RULES = {
    ("sample", "--h"): (float, rule(positive)),
    ("sample", "--K"): (int, rule(count)),
    ("sample", "--seed"): (int, rule(count, 0, 2**64)),
    ("sample", "--sigma"): (float, rule(nonnegative)),
    ("sample", "--batch"): (int, rule(count, 1)),
    ("sample", "--replicas"): (int, held(1, 2)),
    ("sample", "--init"): (float, lambda values: array("x", values, (2,))),
    ("bound", "--m"): (float, lambda m: bound_at(m=m)),
    ("bound", "--M"): (float, lambda M: bound_at(M=M)),
    ("bound", "--h"): (float, lambda h: bound_at(h=h)),
    ("bound", "--K"): (int, rule(count)),
    ("bound", "--p"): (int, rule(count, 1)),
    ("bound", "--w2init"): (float, rule(nonnegative)),
    ("bound", "--sigma"): (float, rule(nonnegative)),
    ("plan", "--m"): (float, lambda m: plan_at(m=m)),
    ("plan", "--M"): (float, lambda M: plan_at(M=M)),
    ("plan", "--p"): (int, lambda p: plan_at(p=p)),
    ("plan", "--eps"): (float, lambda eps: plan_at(eps=eps)),
    ("plan", "--w2init"): (float, lambda w2init: plan_at(w2init=w2init)),
    ("figure1", "--m"): (float, lambda m: grid_at(m=m)),
    ("figure1", "--M"): (float, lambda M: grid_at(M=M)),
    ("figure1", "--eps"): (float, each(positive)),
    ("figure1", "--p-values"): (int, each(count, 1)),
    ("figure1", "--grid-size"): (int, held(2)),
    ("figure1", "--span"): (float, span),
    ("validate", "--seed"): (int, rule(count, 0, 2**64)),
}
LISTS = {("sample", "--init"), ("figure1", "--eps"), ("figure1", "--p-values")}


def read(kind, text, listed):
    """text as argparse reads it, or None where it refuses the text."""
    try:
        return [kind(part) for part in text.split(",") if part] if listed else kind(text)
    except ValueError:
        return None


def refuses(check, value):
    try:
        check(value)
    except ValueError:
        return True
    return False


def test_every_numeric_flag_is_listed():
    listed = {}
    for command, parser in build_parser()._subparsers._group_actions[0].choices.items():
        listed |= {(command, a.option_strings[0]): a.type for a in parser._actions if a.type is not None}
    assert set(listed) == set(FLAG_RULES)
    for key, (kind, _) in FLAG_RULES.items():
        assert key in LISTS or listed[key] is kind, key


@pytest.mark.parametrize("command, flag", sorted(FLAG_RULES))
def test_flags_apply_the_library_rules(command, flag, tmp_path, capsys):
    # each run exits 2, naming the flag, exactly where argparse cannot read the text or the
    # library's rule refuses the value; a flag adds no rule of its own
    kind, check = FLAG_RULES[command, flag]
    ran_validate = False
    for text in flag_texts(command, flag):
        value = read(kind, text, (command, flag) in LISTS)
        refused = value is None or refuses(check, value)
        if command == "validate" and not refused:  # one accepted seed will do: each runs the whole sweep
            if ran_validate:
                continue
            ran_validate = True
        flags = [f"{name}={given}" for name, given in dict(BASE[command], **{flag: text}).items()]
        code, captured = run([command, *flags, *file_flags(command, tmp_path)], capsys)
        assert (code == 2) == refused, (text, code, captured.err)
        check_outcome(code, captured, flag, command)
