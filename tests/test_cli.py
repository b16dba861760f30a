import hashlib
import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stdout
from itertools import takewhile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cuspforge.cli import _FORMS, _SLICE, _emit, _parse, run
from cuspforge.errors import BadFlag
from cuspforge.etaq import F_EXPONENTS

from oracles import ParserRefused, build_parser

SRC = Path(__file__).resolve().parent.parent / "src"


def _run(argv):
    buf = io.StringIO()
    code = run(argv, stdout=buf)
    return code, buf.getvalue()


def _result(argv):
    code, text = _run(argv)
    assert code == 0, text
    envelope = json.loads(text)
    assert set(envelope) == {"command", "params", "result", "version"}
    return envelope["result"]


def test_genus_command():
    result = _result(["genus", "--level", "20", "--gamma1"])
    assert result["g"] == 3
    assert result["mu"] == 144
    assert result["nu_inf"] == 20
    assert result["nu2"] == 0 and result["nu3"] == 0


def test_genus_with_explicit_delta():
    result = _result(["genus", "--level", "20", "--delta", "9"])
    assert result["g"] == 1 and result["delta"] == [1, 9, 11, 19]


def test_empty_delta_is_a_delta():
    # --delta "" names Delta = {+-1} by its generators, as --delta , does
    for command in ("genus", "cusps"):
        empty = _run([command, "--level", "20", "--delta", ""])
        assert empty == _run([command, "--level", "20", "--delta", ","])
        assert json.loads(empty[1])["params"]["group"] == "delta"


def test_empty_delta_lists_pm_one():
    result = _result(["cusps", "--level", "20", "--delta", ""])
    assert result["delta"] == [1, 19]
    assert _result(["genus", "--level", "20", "--delta", ""])["delta"] == [1, 19]


def test_flag_syntax():
    # --flag=value, the last repeat of a flag wins, the form word may
    # follow flags, and a negative integer is a value
    want = _run(["verdict", "x1", "--level", "20", "--d", "2"])
    assert want[0] == 0
    assert _run(["verdict", "x1", "--level=20", "--d=2"]) == want
    assert _run(["verdict", "x1", "--d", "5", "--level", "20", "--d", "2"]) == want
    assert _run(["verdict", "--level", "20", "--d", "2", "x1"]) == want
    code, text = _run(["genus", "--level", "-4", "--gamma1"])
    assert json.loads(text)["error"]["type"] == "NotPositive"


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["verdict", "-h"], ["eta", "series", "--help"]])
def test_help_lists_every_form(argv):
    code, text = _run(argv)
    assert code == 0
    forms = [
        " ".join(takewhile(lambda w: w[0] not in "-[", line.split()[1:]))
        for line in text.splitlines()
        if line.startswith("  cuspforge ")
    ]
    assert forms == ["genus", "cusps", "orbits", "verdict x1", "verdict x0", "survey x1",
                     "eta series", "eta div", "certify x1-20"]


def test_cusps_command():
    result = _result(["cusps", "--level", "20", "--gamma1"])
    assert len(result["cusps"]) == 20
    irregular = [c for c in result["cusps"] if c["irregular"]]
    assert len(irregular) == 4


def test_cusps_delta_command():
    result = _result(["cusps", "--level", "20", "--delta", "9"])
    assert len(result["cusps"]) == 12  # nu_inf(20, Delta_2)
    sizes = {c["representative"]: c["orbit_size"] for c in result["cusps"]}
    assert sizes["1:10"] == 1


def test_orbits_command():
    result = _result(["orbits", "--level", "20"])
    assert any(set(orbit) == {"1:2", "1:6", "1:10", "3:10"} for orbit in result["orbits"])


def test_verdict_x1_command():
    result = _result(["verdict", "x1", "--level", "18", "--d", "3"])
    assert result["status"] == "NotWeierstrass"
    assert result["certificate"][0]["rule"] == "FactTable"


def test_verdict_x0_command():
    result = _result(["verdict", "x0", "--p", "2", "--m", "16"])
    assert result["status"] == "Weierstrass" and result["N"] == 64


def test_survey_command():
    result = _result(["survey", "x1", "--max", "40", "--jobs", "1"])
    bad = [r for r in result["rows"] if r["status"] == "NotWeierstrass"]
    assert {r["N"] for r in bad} == {18}


def test_survey_tsv():
    code, text = _run(["survey", "x1", "--max", "30", "--format", "tsv", "--jobs", "1"])
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[0] == "N\td\tstatus\trule"
    assert any(line.startswith("18\t") for line in lines)


def test_eta_series_command():
    result = _result(["eta", "series", "--level", "20", "--r", "1", "--terms", "5"])
    assert result["leading_exponent"] == "143/120"
    assert result["denom"] == 240


def test_eta_div_command(tmp_path):
    spec = tmp_path / "f.json"
    spec.write_text(
        json.dumps(
            {"level": 20, "exponents": {"2": 1, "4": 2, "6": 2, "1": -2, "8": -1, "9": -2}}
        )
    )
    result = _result(["eta", "div", "--spec", str(spec)])
    assert result["divisor"]["degree"] == 0
    orders = {o["cusp"]: o["order"] for o in result["divisor"]["orders"]}
    assert orders["1:10"] == -3
    # plain decimal keys fold mod N and up to sign: 22 is block 2, -1 block 1
    spec.write_text(
        json.dumps(
            {"level": 20, "exponents": {"22": 1, "4": 2, "6": 2, "-1": -2, "8": -1, "9": -2}}
        )
    )
    assert _result(["eta", "div", "--spec", str(spec)]) == result


def test_certify_command():
    result = _result(["certify", "x1-20"])
    assert result["gaps"] == [1, 2, 5] and result["weight"] == 2
    assert result["verdict"]["status"] == "Weierstrass"


# one command per form and the params it echoes, in the order they print
PARAMS = [
    (["genus", "--level", "20", "--gamma0"], {"level": 20, "group": "gamma0"}),
    (["cusps", "--level", "20"], {"level": 20, "group": "gamma1"}),
    (["orbits", "--level", "20"], {"level": 20}),
    (["verdict", "x1", "--level", "20", "--d", "2"],
     {"curve": "x1", "level": 20, "d": 2}),
    (["verdict", "x0", "--p", "2", "--m", "16"], {"curve": "x0", "p": 2, "m": 16}),
    (["survey", "x1", "--max", "300"], {"curve": "x1", "max": 300}),
    (["eta", "series", "--level", "20", "--r", "1", "--terms", "7"],
     {"what": "series", "level": 20, "r": 1}),
    (["eta", "div", "--spec", "{dir}/f.json"], {"what": "div", "spec": "f.json"}),
    (["certify", "x1-20"], {"target": "x1-20"}),
]


def test_params_cover_every_form():
    forms = [tuple(takewhile(lambda w: w[0] != "-", argv)) for argv, _ in PARAMS]
    assert forms == list(_FORMS)


@pytest.mark.parametrize("argv, params", PARAMS)
def test_params_of_every_form(argv, params, tmp_path):
    # no group flag is Gamma_1, and a spec path echoes as its base name
    (tmp_path / "f.json").write_text(json.dumps({"level": 20, "exponents": F_EXPONENTS}))
    code, text = _run([word.format(dir=tmp_path) for word in argv])
    assert code == 0, text
    assert list(json.loads(text)["params"].items()) == list(params.items())


def test_determinism():
    for argv in (
        ["genus", "--level", "36", "--gamma0"],
        ["survey", "x1", "--max", "40", "--jobs", "1"],
        ["orbits", "--level", "16"],
    ):
        assert _run(argv) == _run(argv)


def test_domain_error_exit_code():
    code, text = _run(["verdict", "x1", "--level", "200", "--d", "7"])
    assert code == 2
    assert json.loads(text)["error"]["type"] == "NotADivisor"


def test_bad_flag_exit_code():
    code, text = _run(["verdict", "x1", "--level", "twenty", "--d", "2"])
    assert code == 2
    assert "error" in json.loads(text)


def test_missing_required_flag():
    code, text = _run(["verdict", "x1", "--level", "20"])
    assert code == 2
    assert json.loads(text)["error"]["type"] == "BadFlag"


def test_unknown_command():
    code, text = _run(["frobnicate"])
    assert code == 2


@pytest.mark.parametrize(
    "argv, spec, error",
    [
        (["genus", "--level", "0", "--gamma1"], None, "NotPositive"),
        (["cusps", "--level", "0", "--gamma1"], None, "NotPositive"),
        (["orbits", "--level", "0"], None, "NotPositive"),
        (["genus", "--level", "-4", "--gamma1"], None, "NotPositive"),
        (["genus", "--level", "20", "--delta", "x"], None, "BadFlag"),
        (["eta", "div", "--spec", "missing.json"], None, "BadSpec"),
        (["eta", "div", "--spec", "spec.json"], '{"level": 20}', "BadSpec"),
        (["eta", "div", "--spec", "spec.json"], '{"exponents": {"1": 1}}', "BadSpec"),
        (["eta", "div", "--spec", "spec.json"], "level 20", "BadSpec"),
        (["eta", "div", "--spec", "spec.json"], '{"level": 0, "exponents": {}}', "NotPositive"),
        (["survey", "x1", "--max", "40", "--jobs", "0"], None, "NotPositive"),
        (["survey", "x1", "--max", "40", "--jobs", "-3"], None, "NotPositive"),
        (["eta", "div", "--spec", "spec.json"], '{"level": 20, "exponents": {"1": 1}}', "NotAFunction"),
        (["eta", "div", "--spec", "spec.json", "--terms", "0"], '{"level": 20, "exponents": {}}', "TruncationTooSmall"),
        (["eta", "div", "--spec", "spec.json", "--terms", "-3"], '{"level": 20, "exponents": {}}', "TruncationTooSmall"),
        # flags the chosen form does not take, and abbreviations
        (["verdict", "x1", "--level", "20", "--d", "2", "--p", "3"], None, "BadFlag"),
        (["verdict", "x0", "--p", "2", "--m", "16", "--level", "64"], None, "BadFlag"),
        (["eta", "series", "--level", "20", "--r", "1", "--spec", "x"], None, "BadFlag"),
        (["eta", "div", "--spec", "spec.json", "--r", "1"], None, "BadFlag"),
        (["genus", "--lev", "20"], None, "BadFlag"),
        (["genus", "--level", "20", "--gamma1=1"], None, "BadFlag"),
        (["genus", "--level", "20", "--delta", "-x"], None, "BadFlag"),
        (["genus", "--level", "20", "--delta", "--gamma1"], None, "BadFlag"),
        (["genus", "--level", "20", "--gamma0", "--delta", "9"], None, "BadFlag"),
        # spec values must be JSON integers, not anything int() accepts
        (["eta", "div", "--spec", "spec.json"], '{"level": 20.9, "exponents": {}}', "BadSpec"),
        (["eta", "div", "--spec", "spec.json"], '{"level": 20, "exponents": {"9": -2.7}}', "BadSpec"),
        (["eta", "div", "--spec", "spec.json"], '{"level": true, "exponents": {}}', "BadSpec"),
        (["eta", "div", "--spec", "spec.json"], '{"level": "20", "exponents": {}}', "BadSpec"),
        # F's spec with one key that int() reads as its block but that is not
        # plain decimal ("\u0662" is an Arabic-Indic 2)
        (["eta", "div", "--spec", "spec.json"], '{"level": 20, "exponents": {"+2": 1, "4": 2, "6": 2, "1": -2, "8": -1, "9": -2}}', "BadSpec"),
        (["eta", "div", "--spec", "spec.json"], '{"level": 20, "exponents": {"2": 1, " 4": 2, "6": 2, "1": -2, "8": -1, "9": -2}}', "BadSpec"),
        (["eta", "div", "--spec", "spec.json"], '{"level": 20, "exponents": {"2": 1, "4": 2, "0_6": 2, "1": -2, "8": -1, "9": -2}}', "BadSpec"),
        (["eta", "div", "--spec", "spec.json"], '{"level": 20, "exponents": {"\\u0662": 1, "4": 2, "6": 2, "1": -2, "8": -1, "9": -2}}', "BadSpec"),
        (["eta", "div", "--spec", "spec.json"], '{"level": 20, "exponents": {"2": 1, "04": 2, "6": 2, "1": -2, "8": -1, "9": -2}}', "BadSpec"),
        (["eta", "div", "--spec", "spec.json"], '{"level": 20, "exponents": {"0": 1}}', "RCongruentZero"),
        # integer flags and --delta generators in plain decimal only, as the
        # spec keys above ("\u0662\u0660" is 20 in Arabic-Indic digits)
        (["genus", "--level", "\u0662\u0660", "--gamma1"], None, "BadFlag"),
        (["genus", "--level", "2_0", "--gamma1"], None, "BadFlag"),
        (["genus", "--level", "+20", "--gamma1"], None, "BadFlag"),
        (["genus", "--level", " 20", "--gamma1"], None, "BadFlag"),
        (["genus", "--level=020", "--gamma1"], None, "BadFlag"),
        (["verdict", "x1", "--level", "20", "--d", "-0"], None, "BadFlag"),
        (["genus", "--level", "20", "--delta", "+9"], None, "BadFlag"),
        (["genus", "--level", "20", "--delta", "3, 7"], None, "BadFlag"),
        (["cusps", "--level", "20", "--delta", "0_9"], None, "BadFlag"),
        (["cusps", "--level", "20", "--delta", "\u0669"], None, "BadFlag"),
    ],
)
def test_invalid_input_exits_2(argv, spec, error, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    if spec is not None:
        (tmp_path / "spec.json").write_text(spec)
    code, text = _run(argv)
    assert code == 2
    assert json.loads(text)["error"]["type"] == error


def test_oversized_series_is_refused_quickly():
    t0 = time.perf_counter()
    code, text = _run(["eta", "series", "--level", "2", "--r", "1", "--terms", "100000000"])
    assert time.perf_counter() - t0 < 1
    assert code == 2
    assert json.loads(text)["error"]["type"] == "TruncationTooLarge"


def test_eta_div_checks_terms_without_expanding(tmp_path, monkeypatch):
    # the series is not printed: 5000 terms cost no more than 400, and
    # --terms is still checked after the divisor
    monkeypatch.chdir(tmp_path)
    (tmp_path / "f.json").write_text(json.dumps({"level": 20, "exponents": F_EXPONENTS}))
    t0 = time.perf_counter()
    code, text = _run(["eta", "div", "--spec", "f.json", "--terms", "5000"])
    assert time.perf_counter() - t0 < 0.5
    assert code == 0
    assert text == _run(["eta", "div", "--spec", "f.json", "--terms", "400"])[1]
    code, text = _run(["eta", "div", "--spec", "f.json", "--terms", "10000000"])
    assert code == 2
    assert json.loads(text)["error"]["type"] == "TruncationTooLarge"


@pytest.mark.parametrize(
    "argv, spec",
    [
        (["cusps", "--level", "1000000", "--gamma1"], None),
        (["orbits", "--level", "1000000"], None),
        (["eta", "div", "--spec", "spec.json"], '{"level": 1000000, "exponents": {}}'),
        (["cusps", "--level", "99991", "--gamma1"], None),
        (["cusps", "--level", "10000200001", "--gamma0"], None),
    ],
)
def test_oversized_atlas_is_refused_quickly(argv, spec, tmp_path, monkeypatch):
    # X_1(10^6) has 5.4 million cusps; X_1(99991) has 99990, just past
    # the bound; X_0(100001^2) has 12 * 9092 = 109104
    monkeypatch.chdir(tmp_path)
    if spec is not None:
        (tmp_path / "spec.json").write_text(spec)
    t0 = time.perf_counter()
    code, text = _run(argv)
    assert time.perf_counter() - t0 < 1
    assert code == 2
    assert json.loads(text)["error"]["type"] == "AtlasTooLarge"


def test_oversized_divisor_is_refused_quickly(tmp_path):
    # X_1(49999) has 49998 cusps, inside the atlas bound, but times 24999
    # blocks that is 1.25 * 10^9 (cusp, block) pairs: still running after
    # 30 s before the divisor bound
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"level": 49999, "exponents": {r: 12 for r in range(1, 25000)}}))
    t0 = time.perf_counter()
    code, text = _run(["eta", "div", "--spec", str(spec), "--terms", "1"])
    assert time.perf_counter() - t0 < 1
    assert code == 2
    assert json.loads(text)["error"]["type"] == "DivisorTooLarge"


@pytest.mark.parametrize(
    "argv",
    [
        ["genus", "--level", "1000000", "--gamma0"],
        ["genus", "--level", "510510", "--gamma0"],
        ["genus", "--level", "20011", "--gamma0"],
    ],
)
def test_oversized_unit_group_is_refused_quickly(argv):
    # phi(10^6) = 400000; phi(510510) = 92160; phi(20011) = 20010, just
    # past the bound
    t0 = time.perf_counter()
    code, text = _run(argv)
    assert time.perf_counter() - t0 < 1
    assert code == 2
    assert json.loads(text)["error"]["type"] == "UnitGroupTooLarge"


@pytest.mark.parametrize(
    "argv, error",
    [
        (["cusps", "--level", "100000000000000003", "--gamma1"], "LevelTooLarge"),
        (["verdict", "x0", "--p", "1000000000000000003", "--m", "1"], "LevelTooLarge"),
        (["genus", "--level", "1000000000001", "--gamma1"], "LevelTooLarge"),
        (["genus", "--level", "1000003", "--delta", "2"], "UnitGroupTooLarge"),
        (["cusps", "--level", "1000003", "--delta", "2"], "UnitGroupTooLarge"),
        (["survey", "x1", "--max", "1000000", "--format", "tsv"], "SurveyTooLarge"),
        (["survey", "x1", "--max", "200001"], "SurveyTooLarge"),
    ],
)
def test_cost_bounds_refuse_quickly(argv, error):
    # each ran for seconds or was still running after 10 s before its bound
    t0 = time.perf_counter()
    code, text = _run(argv)
    assert time.perf_counter() - t0 < 1
    assert code == 2
    assert json.loads(text)["error"]["type"] == error


def test_largest_prime_level_is_factored():
    # 999999999989 is the largest prime within the level bound
    t0 = time.perf_counter()
    result = _result(["genus", "--level", "999999999989", "--gamma1"])
    assert time.perf_counter() - t0 < 2
    assert result["nu_inf"] == 999999999988


def test_gamma0_atlas_needs_no_unit_group():
    # (Z/10^6 Z)* is past the unit bound, but X_0(10^6) has only
    # 12 * 150 = 1800 cusps, and the atlas never lists the units
    t0 = time.perf_counter()
    result = _result(["cusps", "--level", "1000000", "--gamma0"])
    assert time.perf_counter() - t0 < 1
    assert len(result["cusps"]) == 1800


def test_module_entry_point():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-m", "cuspforge.cli", "genus", "--level", "20", "--gamma1"],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["result"]["g"] == 3


def _main(argv):
    """argv run through main in a fresh interpreter, stdout into a pipe."""
    return subprocess.run(
        [sys.executable, "-c", "from cuspforge.cli import main; main()", *argv],
        env={**os.environ, "PYTHONPATH": str(SRC), "PYTHONUNBUFFERED": ""},
        capture_output=True,
        timeout=120,
    )


@pytest.mark.parametrize(
    "argv", [["survey", "x1", "--max", "10000"], ["cusps", "--level", "2520", "--gamma1"]]
)
def test_main_writes_what_run_writes(argv):
    # main ends the process with os._exit: everything must be flushed first
    proc = _main(argv)
    assert proc.returncode == 0 and proc.stderr == b""
    want = _run(argv)[1].encode()
    assert len(proc.stdout) > 500_000
    assert hashlib.sha256(proc.stdout).hexdigest() == hashlib.sha256(want).hexdigest()


@pytest.mark.parametrize(
    "argv, code, error",
    [
        (["verdict", "x1", "--level", "20", "--d", "2", "--p", "3"], 2, "BadFlag"),
        (["genus", "--level", "0", "--gamma1"], 2, "NotPositive"),
        (["-h"], 0, None),
    ],
)
def test_main_exit_codes(argv, code, error):
    proc = _main(argv)
    assert proc.returncode == code and proc.stderr == b""
    if error:
        assert json.loads(proc.stdout) == json.loads(_run(argv)[1])
        assert json.loads(proc.stdout)["error"]["type"] == error
    else:
        assert proc.stdout.decode() == _run(argv)[1]


@pytest.mark.parametrize("unbuffered", ["1", ""])
def test_closed_pipe_exits_quietly(unbuffered):
    # a reader that stops early, like `| head`, is not an error
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONUNBUFFERED": unbuffered}
    with subprocess.Popen(
        [sys.executable, "-m", "cuspforge.cli", "survey", "x1", "--max", "2000"],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    ) as proc:
        assert proc.stdout.read(16)
        proc.stdout.close()
        stderr = proc.stderr.read()
        assert proc.wait(timeout=60) == 0
    assert b"Traceback" not in stderr, stderr


# strings that look like the separators _emit re-indents, and escapes
TRICKY = ["", "\n", "},\n    {", "},\n      {", '"q"', "\\", "\u00e9\u2603", "\ud83d\ude00", "\t"]
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**40), max_value=10**40)
    | st.floats(allow_nan=False)
    | st.text(max_size=8)
    | st.sampled_from(TRICKY)
)
KEYS = st.text(max_size=6) | st.sampled_from(TRICKY) | st.integers() | st.booleans() | st.none()
FLAT_DICTS = st.dictionaries(KEYS, SCALARS, min_size=1, max_size=4)
TREES = st.recursive(
    SCALARS,
    lambda kids: st.lists(kids, max_size=4)
    | st.lists(kids, max_size=4).map(tuple)
    | st.dictionaries(KEYS, kids, max_size=4)
    | st.lists(FLAT_DICTS, min_size=1, max_size=4),
    max_leaves=30,
)


def _emitted(obj) -> str:
    buf = io.StringIO()
    _emit(obj, buf)
    return buf.getvalue()


@settings(max_examples=200, deadline=None)
@given(TREES)
def test_emit_matches_indented_dumps(obj):
    assert _emitted(obj) == json.dumps(obj, indent=2) + "\n"


@settings(max_examples=30, deadline=None)
@given(
    st.lists(FLAT_DICTS, min_size=1, max_size=3),
    st.sampled_from([_SLICE - 1, _SLICE, _SLICE + 1, 2 * _SLICE + 3]),
)
def test_emit_matches_indented_dumps_across_slices(rows, length):
    obj = {"result": {"rows": [rows[i % len(rows)] for i in range(length)]}}
    assert _emitted(obj) == json.dumps(obj, indent=2) + "\n"


class _CountingIO(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, s):
        self.writes += 1
        return super().write(s)


def test_survey_json_is_written_in_few_chunks():
    # 0.74 MB of JSON; the stdlib's indenting encoder writes once per token
    buf = _CountingIO()
    assert run(["survey", "x1", "--max", "10000"], stdout=buf) == 0
    assert len(buf.getvalue()) > 700_000
    assert buf.writes <= 30


COMMANDS = [
    [],
    ["genus"],
    ["cusps"],
    ["orbits"],
    ["verdict"],
    ["verdict", "x1"],
    ["verdict", "x0"],
    ["survey", "x1"],
    ["eta", "series"],
    ["eta", "div"],
    ["certify", "x1-20"],
    ["frobnicate"],
]
FLAGS = ["--level", "--gamma1", "--gamma0", "--delta", "--d", "--p", "--m", "--max",
         "--format", "--jobs", "--r", "--terms", "--spec", "-h"]
VALUES = ["0", "1", "2", "3", "4", "7", "9", "12", "16", "18", "20", "-1", "-12",
          "x", "", "1,-1", "3,7", ",", "tsv", "json", "x1", "missing.json", "."]




def _tokens(flag, values, joined):
    """The flag and its values, the first joined as --flag=value if asked."""
    if joined and values:
        return [f"{flag}={values[0]}", *values[1:]]
    return [flag, *values]


ARGVS = st.builds(
    lambda command, flags: command + [t for flag in flags for t in _tokens(*flag)],
    st.sampled_from(COMMANDS),
    st.lists(
        st.tuples(
            st.sampled_from(FLAGS), st.lists(st.sampled_from(VALUES), max_size=2), st.booleans()
        ),
        max_size=4,
    ),
)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ARGVS)
def test_any_short_argv_exits_0_1_or_2(argv):
    code, text = _run(argv)
    assert code in (0, 1, 2)
    if code:
        assert set(json.loads(text)) == {"error"}


def _outcome(parse, argv):
    """What a parser makes of argv: its flags as a dict, "help", or the
    type of the exception it raised."""
    try:
        with redirect_stdout(io.StringIO()):
            args = parse(argv)
    except SystemExit as exc:  # argparse -h
        assert exc.code == 0
        return "help"
    except Exception as exc:
        return type(exc)
    return "help" if args is None else vars(args)


FORM_FLAGS = {
    "genus": ["--level", "--gamma1", "--gamma0", "--delta"],
    "cusps": ["--level", "--gamma1", "--gamma0", "--delta"],
    "orbits": ["--level"],
    "verdict x1": ["--level", "--d"],
    "verdict x0": ["--p", "--m"],
    "survey x1": ["--max", "--format", "--jobs"],
    "eta series": ["--level", "--r", "--terms"],
    "eta div": ["--spec", "--terms"],
    "certify x1-20": [],
}


@st.composite
def _form_argvs(draw):
    """A form and mostly its own flags, so that most argvs are taken."""
    form = draw(st.sampled_from(sorted(FORM_FLAGS)))
    argv = form.split()
    for flag in draw(st.lists(st.sampled_from(FORM_FLAGS[form] or FLAGS), max_size=4)):
        values = [] if flag in ("--gamma1", "--gamma0") else [draw(st.sampled_from(VALUES))]
        argv += _tokens(flag, values, draw(st.booleans()))
    return argv


@settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ARGVS | _form_argvs())
@example(["genus", "--level", "20", "--delta", "--gamma1"])
@example(["genus", "--level", "20", "--delta", "-h"])
@example(["genus", "--level", "-4", "--delta", "-1"])
@example(["genus", "--level", "20", "--delta", "-"])
@example(["verdict", "--d", "2", "x1", "--level", "20"])
def test_parser_agrees_with_argparse_oracle(argv):
    # the table parser takes nothing argparse refused, and what it takes it
    # reads as argparse did; argparse's extra flags of the other form stay
    # unset.  Abbreviations and flags of the other form it refuses.
    new, old = _outcome(_parse, argv), _outcome(build_parser().parse_args, argv)
    if isinstance(new, dict):
        assert isinstance(old, dict), (argv, old)
        assert new == {name: old[name] for name in new}
        assert all(old[name] is None for name in old.keys() - new.keys())
    if new == "help":
        assert old == "help", (argv, old)
    if old is ParserRefused:
        assert new is BadFlag, (argv, new)
