"""Golden verdicts: one sha256 over the JSON, or the error type and
message, of every x0/x1 verdict and criterion case below.

The digest was recorded before the (N, d) guard, the cusp-order formula
and the X_0 decision steps each moved to one place; any change to these
answers is a regression, not a reason to re-record.  The lemma lines
were recorded from library functions that `x1_verdict` has since
absorbed; the oracles of `tests/oracles.py` now make them, under the
same names.
"""

import hashlib
import json

from cuspforge import survey_x1, x0_verdict, x1_verdict
from cuspforge.arith import divisors

from oracles import bf_al_min, bf_cusp_inequality, bf_fricke_choice, bf_genus_check

GOLDEN = "2ca38fe866dd3094fd3d81ba73cc9a74de51c50be8c806ebc9b5dea3639107ca"

CRITERIA = (
    ("x1_verdict", x1_verdict),
    ("lemma_cusp_inequality", bf_cusp_inequality),
    ("lemma_genus_check", bf_genus_check),
    ("fricke_reduce", bf_fricke_choice),
    ("atkin_lehner_reduce", bf_al_min),
)


def _answer(fn, *args):
    try:
        out = fn(*args)
    except Exception as exc:
        return [type(exc).__name__, str(exc)]
    return out.to_json() if hasattr(out, "to_json") else out


def _cases():
    for p in range(-3, 60):
        for m in range(-2, 120):
            yield ["x0", p, m, _answer(x0_verdict, p, m)]
    for n in range(1, 1501):
        # every divisor, d = 0 and a few non-divisors
        extra = [0, -1, n + 1] + [k for k in (7, 12, 25) if n % k]
        for d in divisors(n) + extra:
            for name, fn in CRITERIA:
                yield [name, n, d, _answer(fn, n, d)]
    yield ["survey_x1", 3000, _answer(survey_x1, 3000)]


def test_verdicts_match_parent_digest():
    h = hashlib.sha256()
    for case in _cases():
        h.update(json.dumps(case).encode() + b"\n")
    assert h.hexdigest() == GOLDEN
