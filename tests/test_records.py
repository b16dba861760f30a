"""The package's records are frozen values.

The plain records are NamedTuples; `DeltaSubgroup`, which spans its
elements from its generators when built, is a slot class whose fields
are set once.  Either way no attribute can be set or deleted, cusp
classes sort as their field tuples, and a `DeltaSubgroup` compares and
hashes by level and elements only.  The package imports no `dataclasses`.
"""

import importlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from cuspforge.arith import DeltaSubgroup, delta_d, pm_one
from cuspforge.criteria import certify_x1_20, survey_x1, x1_verdict
from cuspforge.cusps import GAMMA0, GAMMA1, atlas, canonicalize_x1
from cuspforge.etaq import F_EXPONENTS, EtaQuotient, divisor, eta_series
from cuspforge.genus import genus_delta
from cuspforge.symmetry import cusp_orbits_x1

SRC = Path(__file__).resolve().parent.parent / "src"
LAYERS = ("arith", "cusps", "genus", "symmetry", "etaq", "criteria")


def _records():
    quotient = EtaQuotient.make(20, F_EXPONENTS)
    verdict = x1_verdict(20, 2)
    report = survey_x1(20)
    return [
        pm_one(20),
        canonicalize_x1(20, 1, 10),
        genus_delta(pm_one(20)),
        cusp_orbits_x1(20),
        eta_series(20, 1, 5),
        quotient,
        divisor(quotient),
        verdict,
        verdict.certificate[0],
        certify_x1_20()[0],
        report,
    ]


def _fields(record):
    return getattr(record, "_fields", None) or type(record).__slots__


def test_every_record_class_is_covered():
    # a new record class must join _records() and so the frozen check
    classes = set()
    for layer in LAYERS:
        mod = importlib.import_module(f"cuspforge.{layer}")
        classes |= {
            obj
            for obj in vars(mod).values()
            if isinstance(obj, type) and obj.__module__ == mod.__name__
        }
    assert classes == {type(r) for r in _records()}


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_records_are_frozen(record):
    for name in _fields(record):
        value = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is value
    with pytest.raises(AttributeError):
        record.extra = 1


def test_cusp_classes_sort_as_field_tuples():
    rng = random.Random(17)
    cusps = [c for n in (12, 20, 36, 48) for g in (GAMMA0, GAMMA1) for c in atlas(n, g)]
    rng.shuffle(cusps)
    fields = lambda c: (c.level, c.group, c.d, c.y, c.x, c.e, c.irregular)  # noqa: E731
    assert sorted(cusps) == sorted(cusps, key=fields)
    assert [fields(c) for c in sorted(cusps)] == sorted(map(fields, cusps))


def test_delta_subgroup_identity_ignores_member_set():
    a, b = DeltaSubgroup(20, (19, 11, 9, 1)), delta_d(20, 2)
    assert a is not b and a.elements == (1, 9, 11, 19)
    assert a == b and hash(a) == hash(b)
    assert a != DeltaSubgroup(20, (1, 19)) and a != (20, (1, 9, 11, 19))
    assert genus_delta(a) == genus_delta(b)


def test_import_loads_no_dataclasses():
    # the records cost no dataclasses (and so no inspect, ast, dis) at start-up
    code = (
        "import json, sys; before = set(sys.modules); import cuspforge.cli; "
        "print(json.dumps(sorted(set(sys.modules) - before)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout))
    assert "cuspforge.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "ast", "dis", "tokenize"}
    # nor argparse and its gettext: the CLI reads argv off a table
    assert not loaded & {"argparse", "gettext"}
    # nor fractions and what it imports: every exact ratio is two ints
    assert not loaded & {"fractions", "decimal", "_decimal", "numbers"}
