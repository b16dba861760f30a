"""Command-line front end: structured JSON on stdout, exit 2 on bad input.

Each command form is one row of `_FORMS`: its flags, the flags it
requires and its handler.  The parser, the -h text and the dispatch all
read that row, so a new form is one row and its handler.
"""

import errno
import json
import os
import sys
from contextlib import suppress
from itertools import islice
from types import SimpleNamespace

from . import __version__
from .arith import DeltaSubgroup, check_positive, full_units, pm_one, ratio_text
from .criteria import certify_x1_20, survey_x1, x0_verdict, x1_verdict
from .cusps import GAMMA0, GAMMA1, atlas, atlas_delta, width
from .errors import BadFlag, BadSpec, DomainError
from .etaq import EtaQuotient, check_terms, divisor, eta_series
from .genus import genus_delta
from .symmetry import cusp_orbits_x1


def _group_tag(args) -> str:
    return GAMMA0 if args.gamma0 else "delta" if args.delta is not None else GAMMA1


def _delta_for(args, n: int):
    """The subgroup Delta that the group flags name, built only on demand:
    the Gamma_0 and Gamma_1 atlases need the tag alone."""
    if args.gamma0:
        return full_units(n)
    if args.delta is not None:
        gens = [_decimal(t) for t in args.delta.split(",") if t.strip()]
        if None in gens:
            raise BadFlag(f"--delta takes comma-separated integers, got {args.delta!r}")
        return DeltaSubgroup(n, gens)
    return pm_one(n)


def _decimal(text: str) -> int | None:
    """The integer that text spells in plain decimal, else None.  int()
    alone also reads "+2", " 4", "0_6", "04" and "\u0662" (an Arabic-Indic
    digit) as 2, 4, 6, 4 and 2."""
    try:
        value = int(text)
    except ValueError:
        return None
    return value if str(value) == text else None


def _read_spec(path: str) -> EtaQuotient:
    try:
        with open(path) as fh:
            spec = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # JSON nested past the stack
        raise BadSpec(f"cannot read {path}: {exc}")
    try:
        level, keys = spec["level"], list(spec["exponents"])
        exponents = {int(r): k for r, k in spec["exponents"].items()}
    except (LookupError, TypeError, AttributeError, ValueError) as exc:
        raise BadSpec(f'{path} is not {{"level": N, "exponents": {{r: k}}}}: {exc!r}')
    # `make` checks the level and the values
    if None in map(_decimal, keys):
        raise BadSpec(f"{path}: each exponent key must be an integer in plain decimal")
    return EtaQuotient.make(level, exponents)


def _verdict(v) -> dict:
    """A Verdict as every form prints it: the weight only when known."""
    out = {"status": v.status}
    if v.weight is not None:
        out["weight"] = v.weight
    out["certificate"] = [s._asdict() for s in v.certificate]
    return out


def _genus(args) -> dict:
    p = genus_delta(_delta_for(args, args.level))
    # N, then the profile's fields in order, Delta written as its elements
    return {"N": p.delta.level, **p._asdict(), "delta": p.delta.elements}


def _cusps(args) -> dict:
    tag = _group_tag(args)
    if tag in (GAMMA0, GAMMA1):
        rows = [(c.x, c.y, c.d, c.e, c.irregular, width(c)) for c in atlas(args.level, tag)]
        return {"cusps": _Table(("x", "y", "d", "e", "irregular", "width"), rows)}
    delta = _delta_for(args, args.level)
    rows = [(o[0].key(), [c.key() for c in o], len(o)) for o in atlas_delta(delta)]
    keys = ("representative", "members", "orbit_size")
    return {"delta": list(delta.elements), "cusps": _Table(keys, rows)}


def _orbits(args) -> dict:
    report = cusp_orbits_x1(args.level)
    return {**report._asdict(), "orbits": [[c.key() for c in orb] for orb in report.orbits]}


def _survey_x1(args) -> dict | str:
    if args.jobs is not None:
        check_positive(args.jobs, "jobs")
    report = survey_x1(args.max)
    if args.format == "tsv":
        rows = [f"{n}\t{d}\t{status}\t{rule}\n" for n, d, status, rule in report.rows]
        return "N\td\tstatus\trule\n" + "".join(rows)
    return {
        "max": report.max_n,
        "rows": _Table(("N", "d", "status", "rule"), report.rows),
        "lemma_cusp_failures": {
            str(d): list(v) for d, v in sorted(report.lemma_cusp_failures.items())
        },
    }


def _eta_series(args) -> dict:
    series = eta_series(args.level, args.r, args.terms)
    lead, denom = series.lead, series.denom
    return {
        "level": series.level,
        "denom": denom,
        "truncation": series.truncation,
        "leading_exponent": ratio_text(lead, denom),
        "coeffs": {str(lead + denom * j): c for j, c in enumerate(series.coeffs) if c},
    }


def _eta_div(args) -> dict:
    quot = _read_spec(args.spec)
    div = divisor(quot)
    if args.terms is not None:  # checked only: the series is not printed
        check_terms(quot, args.terms)
    orders = [(c.key(), c.d, o) for c, o in div.orders]
    return {
        "quotient": {"level": quot.level, "exponents": {str(r): k for r, k in quot.exponents}},
        "leading_exponent": ratio_text(quot.lead, 12 * quot.level),
        "divisor": {
            "level": div.level,
            "orders": _Table(("cusp", "d", "order"), orders),
            "degree": div.degree(),
        },
    }


def _certify_x1_20(args) -> dict:
    gapseq, verdict = certify_x1_20()
    return {**gapseq._asdict(), "verdict": _verdict(verdict)}


# Each command form: its flags with their kinds, the flags it requires, and
# its handler.  A kind is int, str, bool (a switch) or a tuple of choices,
# the first of which is the default; an absent flag is None or False.  A
# handler takes the parsed args and returns the result, or a str that is
# printed in place of the envelope.  _WORD names a second word's value.
_DELTA = {"gamma1": bool, "gamma0": bool, "delta": str}
_EXCLUSIVE = "--gamma1, --gamma0 and --delta exclude each other"
_FORMS = {
    ("genus",): ({"level": int, **_DELTA}, {"level"}, _genus),
    ("cusps",): ({"level": int, **_DELTA}, {"level"}, _cusps),
    ("orbits",): ({"level": int}, {"level"}, _orbits),
    ("verdict", "x1"): (
        {"level": int, "d": int},
        {"level", "d"},
        lambda a: {"N": a.level, "d": a.d, **_verdict(x1_verdict(a.level, a.d))},
    ),
    ("verdict", "x0"): (
        {"p": int, "m": int},
        {"p", "m"},
        lambda a: {
            "p": a.p, "M": a.m, "N": a.p * a.p * a.m, **_verdict(x0_verdict(a.p, a.m))
        },
    ),
    ("survey", "x1"): (
        {"max": int, "format": ("json", "tsv"), "jobs": int},
        {"max"},
        _survey_x1,
    ),
    ("eta", "series"): ({"level": int, "r": int, "terms": int}, {"level", "r"}, _eta_series),
    ("eta", "div"): ({"spec": str, "terms": int}, {"spec"}, _eta_div),
    ("certify", "x1-20"): ({}, set(), _certify_x1_20),
}
_WORD = {"verdict": "curve", "survey": "curve", "eta": "what", "certify": "target"}
_HELP = ("-h", "--help")


def _parse(argv) -> SimpleNamespace | None:
    """The command, second word and flags of argv, read off _FORMS left to
    right; None once -h or --help is read.

    A flag is --name value or --name=value, and the last one given wins.
    A separate value that starts with - must be a negative integer.  An
    empty argv, or the first token refused, raises BadFlag; a missing
    flag, or one the form does not take, is refused after the last token.
    """
    if not argv:
        raise BadFlag("no command given; see --help")
    command, tokens = argv[0], iter(argv[1:])
    if command in _HELP:
        return None
    forms = {form[1:]: spec for form, spec in _FORMS.items() if form[0] == command}
    if not forms:
        raise BadFlag(f"unknown command {command!r}; see --help")
    spec = forms.get(())
    kinds = {name: kind for flags, *_ in forms.values() for name, kind in flags.items()}
    given = {}
    for token in tokens:
        if token in _HELP:
            return None
        if not token.startswith("--"):
            if spec is not None or (token,) not in forms:
                raise BadFlag(f"unexpected argument {token!r} to {command}")
            spec, given[_WORD[command]] = forms[(token,)], token
            continue
        name, eq, value = token[2:].partition("=")
        kind = kinds.get(name)
        if kind is None:
            raise BadFlag(f"{command} takes no --{name}")
        if kind is bool:
            if eq:
                raise BadFlag(f"--{name} takes no value")
            value = True
        elif not eq:
            value = next(tokens, None)
            if value is None or value[:1] == "-" and not value[1:].isdecimal():
                raise BadFlag(f"--{name} needs a value")
        if kind is int:
            if _decimal(value) is None:
                raise BadFlag(f"--{name} takes an integer, got {value!r}")
            value = int(value)
        elif type(kind) is tuple and value not in kind:
            raise BadFlag(f"--{name} takes one of {', '.join(kind)}, got {value!r}")
        if name in _DELTA and given.keys() & _DELTA.keys() - {name}:
            raise BadFlag(_EXCLUSIVE)
        given[name] = value
    if spec is None:
        raise BadFlag(f"{command} takes one of {', '.join(w for w, in forms)}")
    flags, required, _ = spec
    stray = sorted(given.keys() - flags.keys() - {_WORD.get(command)})
    if stray:
        raise BadFlag(f"{command} {given[_WORD[command]]} takes no --{stray[0]}")
    missing = sorted(required - given.keys())
    if missing:
        raise BadFlag(f"--{missing[0]} is required here")
    unset = {
        name: kind[0] if type(kind) is tuple else False if kind is bool else None
        for name, kind in flags.items()
    }
    return SimpleNamespace(command=command, **{**unset, **given})


def _usage() -> str:
    """The -h text: one line per command form."""
    lines = [__doc__.split("\n")[0], "", "usage:"]
    for form, (flags, required, _) in _FORMS.items():
        words = ["  cuspforge", *form]
        for name, kind in flags.items():
            text = f"--{name}" if kind is bool else f"--{name} " + (
                "|".join(kind) if type(kind) is tuple else name.upper()
            )
            words.append(text if name in required else f"[{text}]")
        lines.append(" ".join(words))
    return "\n".join([*lines, "", _EXCLUSIVE + "."]) + "\n"


def _dispatch(args) -> dict | str:
    """The envelope of the form that args names, or the text that its
    handler returns in place of one.  The params are the second word, the
    required flags in the form's order, the group tag if the form takes the
    group flags, and a spec path as its base name."""
    values, word = vars(args), _WORD.get(args.command)
    form = (args.command, values[word]) if word else (args.command,)
    flags, required, handler = _FORMS[form]
    if values.get("level") is not None:
        check_positive(args.level)
    result = handler(args)
    if isinstance(result, str):
        return result
    params = {word: values[word]} if word else {}
    params.update((name, values[name]) for name in flags if name in required)
    if _DELTA.keys() <= flags.keys():
        params["group"] = _group_tag(args)
    if "spec" in params:
        params["spec"] = os.path.basename(args.spec)
    return dict(command=args.command, params=params, result=result, version=__version__)


# characters gathered before one write, about the size of a table's pieces
_FLUSH = 1 << 16


class _Table:
    """Flat rows that _emit writes as a list of JSON objects: the keys, at
    least one, and a sequence of rows, each a tuple of cells in key order.
    A cell is a scalar or a list of scalars.  It is no tuple, list or dict,
    so plain json.dumps refuses it instead of writing it as an array."""

    def __init__(self, keys, rows):
        self.keys, self.rows = keys, rows


def _key(key) -> str:
    """A dict key and its colon as the stdlib writes them: non-str keys quoted."""
    return json.dumps(key if isinstance(key, str) else json.dumps(key)) + ": "


def _flat(obj, nl: str) -> str:
    """json.dumps(obj, indent=2) of a scalar or of a container of scalars,
    at the depth whose line break is `nl`: one C-encoder call, with the
    break as item separator and the brackets broken again."""
    if not isinstance(obj, (dict, list, tuple)) or not obj:
        return json.dumps(obj)
    inner = nl + "  "
    text = json.dumps(obj, separators=("," + inner, ": "))
    return text[0] + inner + text[1:-1] + nl + text[-1]


def _column(cells, field: str):
    """The %-slot of a table column and the cells that fill it, for fields
    whose line break is `field`.  Ints fill %d.  An all-str or all-bool
    column is encoded once per distinct value; any other column cell by
    cell: 1 == True and 0.0 == -0.0, but json.dumps writes them apart."""
    kinds = set(map(type, cells))
    if kinds == {int}:
        return "%d", cells
    if kinds not in ({str}, {bool}):
        return "%s", [_flat(cell, field) for cell in cells]
    values = list(set(cells))
    # one encoder call, split at its line breaks, which no JSON scalar holds raw
    encoded = json.dumps(values, separators=("\n", ": "))[1:-1].split("\n")
    return "%s", map(dict(zip(values, encoded)).__getitem__, cells)


def _table(table: _Table, nl: str):
    """Pieces of json.dumps of the table's rows as dicts, indent 2, at the
    depth whose line break is `nl`: one %-template for every row, with its
    keys and their escapes written by json.dumps, and rows joined about one
    write's worth at a time, so no piece holds the whole table."""
    if not table.rows:
        yield "[]"
        return
    inner, field = nl + "  ", nl + "    "
    slots, cells = zip(*(_column(column, field) for column in zip(*table.rows)))
    keys = map(_key, table.keys)
    fields = ("," + field).join(k.replace("%", "%%") + s for k, s in zip(keys, slots))
    rows = map(f"{{{field}{fields}{inner}}}".__mod__, zip(*cells))
    first = next(rows)
    yield "[" + inner + first
    sep, count = "," + inner, _FLUSH // len(first) + 1
    while piece := list(islice(rows, count)):
        yield sep + sep.join(piece)
    yield nl + "]"


def _chunks(obj, nl: str):
    """Pieces of json.dumps(obj, indent=2) at the depth whose line break is
    `nl`: one C-encoder call per flat container, one template per table."""
    is_dict = isinstance(obj, dict)
    values = obj.values() if is_dict else obj
    kinds = set(map(type, values)) if isinstance(obj, (dict, list, tuple)) else ()
    if isinstance(obj, _Table):
        yield from _table(obj, nl)
    elif not any(issubclass(t, (dict, list, tuple, _Table)) for t in kinds):
        # a scalar, or flat: checked once per type
        yield _flat(obj, nl)
    else:
        inner, sep = nl + "  ", "{" if is_dict else "["
        for key, value in zip(map(_key, obj) if is_dict else [""] * len(obj), values):
            yield sep + inner + key
            yield from _chunks(value, inner)
            sep = ","
        yield nl + ("}" if is_dict else "]")


def _emit(obj, out) -> None:
    """Write json.dumps(obj, indent=2) + "\n" to out in a few large writes."""
    buf, size = [], 0
    for chunk in _chunks(obj, "\n"):
        buf.append(chunk)
        size += len(chunk)
        if size >= _FLUSH:
            out.write("".join(buf))
            buf, size = [], 0
    out.write("".join(buf) + "\n")


def run(argv, stdout=None) -> int:
    out = stdout or sys.stdout
    try:
        args = _parse(argv)
        output = _dispatch(args) if args else _usage()
    except Exception as exc:  # bad input exits 2, a broken invariant 1; never a traceback
        _emit({"error": {"type": type(exc).__name__, "message": str(exc)}}, out)
        return 2 if isinstance(exc, DomainError) else 1
    if isinstance(output, str):
        out.write(output)
    else:
        _emit(output, out)
    return 0


def main() -> None:
    """Run the command in sys.argv, flush stdout and stderr, and end the
    process with os._exit: the interpreter's teardown would free, one by
    one, objects that the process is about to drop anyway."""
    error = None
    try:
        if sys.stdout is None:  # started with stdout closed
            raise OSError(errno.EBADF, "stdout is closed")
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe: not an error; send anything still
        # buffered for stdout to the null device
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 0
    except OSError as exc:  # stdout cannot be written: say so on stderr
        code, error = 1, {"error": {"type": type(exc).__name__, "message": str(exc)}}
    if sys.stderr is not None:
        with suppress(OSError):  # stderr cannot be written either: exit silently
            if error:
                sys.stderr.write(json.dumps(error) + "\n")
            sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    main()
