"""Golden verdicts: sha256 digests over the JSON, or the error type and
message, of every x0/x1 verdict and criterion case below, one digest per
curve so that each can be re-recorded on its own.  The JSON of a verdict
is what `cli` renders, and that of the survey what `survey x1` prints.

`GOLDEN_X0` covers the X_0(p^2 M) verdicts, `GOLDEN_X1` the per-(N, d)
criterion lines and `GOLDEN_SURVEY` the X_1 survey to 3000.  The three
were split off one digest (2ca38fe8...07ca) over the same cases in the
same order, which was recorded before the (N, d) guard, the cusp-order
formula and the X_0 decision steps each moved to one place; any change
to these answers is a regression, not a reason to re-record.  The lemma lines were recorded
from library functions that `x1_verdict` has since absorbed; the oracles
of `tests/oracles.py` now make them, under the same names.
"""

import hashlib
import io
import json

from cuspforge import Verdict, x0_verdict, x1_verdict
from cuspforge.arith import divisors
from cuspforge.cli import _verdict, run

from oracles import bf_al_min, bf_cusp_inequality, bf_fricke_choice, bf_genus_check

GOLDEN_X0 = "bc8caff8243831e941a15ccdfd190252f9b0e03fb34f07a9008efd509de6b04d"
GOLDEN_X1 = "3e9b5fddb6a971de34f4faaaf6ce876391d6b163d68b6f35a51a7c3b615dc2eb"
GOLDEN_SURVEY = "6341825de49d2dd594a4344bae750080d46133773a0ecc84cbb984e6caac95d1"

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
    return _verdict(out) if isinstance(out, Verdict) else out


def _survey_x1(max_n):
    """The result of `survey x1 --max max_n`, as the CLI prints it."""
    buf = io.StringIO()
    run(["survey", "x1", "--max", str(max_n)], stdout=buf)
    return json.loads(buf.getvalue())["result"]


def _cases():
    """(group, case) pairs, the group naming the digest the case goes to."""
    for p in range(-3, 60):
        for m in range(-2, 120):
            yield "x0", ["x0", p, m, _answer(x0_verdict, p, m)]
    for n in range(1, 1501):
        # every divisor, d = 0 and a few non-divisors
        extra = [0, -1, n + 1] + [k for k in (7, 12, 25) if n % k]
        for d in divisors(n) + extra:
            for name, fn in CRITERIA:
                yield "x1", [name, n, d, _answer(fn, n, d)]
    yield "survey", ["survey_x1", 3000, _answer(_survey_x1, 3000)]


def test_verdicts_match_parent_digest():
    parts = {group: hashlib.sha256() for group in ("x0", "x1", "survey")}
    for group, case in _cases():
        parts[group].update(json.dumps(case).encode() + b"\n")
    got = {group: h.hexdigest() for group, h in parts.items()}
    assert got == {"x0": GOLDEN_X0, "x1": GOLDEN_X1, "survey": GOLDEN_SURVEY}
