"""Command-line front end: structured JSON on stdout, exit 2 on bad input.

Each command form is one row of `_FORMS`: its flags, the flags it
requires and its handler.  The parser, the -h text and the dispatch all
read that row, so a new form is one row and its handler.
"""

from __future__ import annotations

import json
import os
import sys
from types import SimpleNamespace

from . import __version__
from .arith import check_positive, full_units, pm_one, subgroup_generated
from .criteria import certify_x1_20, survey_x1, x0_verdict, x1_verdict
from .cusps import GAMMA0, GAMMA1, atlas, atlas_delta
from .errors import BadFlag, BadSpec, DomainError, NotPositive, UnknownCommand
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
        return subgroup_generated(n, gens)
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
    except (OSError, ValueError) as exc:
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


def _cusps(args) -> dict:
    tag = _group_tag(args)
    if tag in (GAMMA0, GAMMA1):
        return {"cusps": [c.to_json() for c in atlas(args.level, tag)]}
    delta = _delta_for(args, args.level)
    return {
        "delta": list(delta.elements),
        "cusps": [
            {
                "representative": o[0].key(),
                "members": [c.key() for c in o],
                "orbit_size": len(o),
            }
            for o in atlas_delta(delta)
        ],
    }


def _survey_x1(args) -> dict | str:
    if args.jobs is not None and args.jobs < 1:
        raise NotPositive(f"jobs must be at least 1, got {args.jobs}")
    report = survey_x1(args.max)
    return report.to_tsv() if args.format == "tsv" else report.to_json()


def _eta_div(args) -> dict:
    quot = _read_spec(args.spec)
    div = divisor(quot)
    check_terms(quot, args.terms)  # checked only: the series is not printed
    return {
        "quotient": quot.to_json(),
        "leading_exponent": str(quot.leading_exponent()),
        "divisor": div.to_json(),
    }


def _certify_x1_20(args) -> dict:
    gapseq, verdict = certify_x1_20()
    return {
        "genus": gapseq.genus,
        "gaps": list(gapseq.gaps),
        "weight": gapseq.weight,
        "verdict": verdict.to_json(),
    }


# Each command form: its flags with their kinds, the flags it requires, and
# its handler.  A kind is int, str, bool (a switch) or a tuple of choices,
# the first of which is the default; an absent flag is None or False.  A
# handler takes the parsed args and returns the result, or a str that is
# printed in place of the envelope.  _WORD names a second word's value.
_DELTA = {"gamma1": bool, "gamma0": bool, "delta": str}
_EXCLUSIVE = "--gamma1, --gamma0 and --delta exclude each other"
_FORMS = {
    ("genus",): (
        {"level": int, **_DELTA},
        {"level"},
        lambda a: genus_delta(_delta_for(a, a.level)).to_json(),
    ),
    ("cusps",): ({"level": int, **_DELTA}, {"level"}, _cusps),
    ("orbits",): ({"level": int}, {"level"}, lambda a: cusp_orbits_x1(a.level).to_json()),
    ("verdict", "x1"): (
        {"level": int, "d": int},
        {"level", "d"},
        lambda a: {"N": a.level, "d": a.d, **x1_verdict(a.level, a.d).to_json()},
    ),
    ("verdict", "x0"): (
        {"p": int, "m": int},
        {"p", "m"},
        lambda a: {
            "p": a.p, "M": a.m, "N": a.p * a.p * a.m, **x0_verdict(a.p, a.m).to_json()
        },
    ),
    ("survey", "x1"): (
        {"max": int, "format": ("json", "tsv"), "jobs": int},
        {"max"},
        _survey_x1,
    ),
    ("eta", "series"): (
        {"level": int, "r": int, "terms": int},
        {"level", "r"},
        lambda a: eta_series(a.level, a.r, a.terms).to_json(),
    ),
    ("eta", "div"): ({"spec": str, "terms": int}, {"spec"}, _eta_div),
    ("certify", "x1-20"): ({}, set(), _certify_x1_20),
}
_WORD = {"verdict": "curve", "survey": "curve", "eta": "what", "certify": "target"}
_HELP = ("-h", "--help")


def _parse(argv) -> SimpleNamespace | None:
    """The command, second word and flags of argv, read off _FORMS left to
    right; None once -h or --help is read.

    A flag is --name value or --name=value, and the last one given wins.
    A separate value that starts with - must be a negative integer.  The
    first token refused raises BadFlag; a missing flag, or one the form
    does not take, is refused after the last token.
    """
    if not argv:
        raise UnknownCommand("no command given; see --help")
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


# rows per C-encoder call, and characters gathered before one write
_SLICE = 512
_FLUSH = 1 << 16


def _flat(values) -> bool:
    """No dict, list or tuple among the values, checked once per type."""
    return not any(issubclass(t, (dict, list, tuple)) for t in set(map(type, values)))


def _key(key) -> str:
    """A dict key and its colon as the stdlib writes them: non-str keys quoted."""
    return json.dumps(key if isinstance(key, str) else json.dumps(key)) + ": "


def _chunks(obj, nl: str):
    """Pieces of json.dumps(obj, indent=2) at the depth whose line break is
    `nl`: one C-encoder call per flat container or per slice of flat rows.

    A flat container is encoded with the line break as item separator.  A
    list of flat rows is encoded a slice at a time with the field line break
    as separator for rows and fields alike; JSON escapes every newline in a
    string, so "}," + break + "{" only ever sits between two rows.
    """
    if not isinstance(obj, (dict, list, tuple)) or not obj:
        yield json.dumps(obj)
        return
    inner = nl + "  "
    is_dict = isinstance(obj, dict)
    values = obj.values() if is_dict else obj
    if _flat(values):
        text = json.dumps(obj, separators=("," + inner, ": "))
        yield text[0] + inner + text[1:-1] + nl + text[-1]
    elif (
        not is_dict
        and all(isinstance(v, dict) and v for v in obj)
        and _flat(x for v in obj for x in v.values())
    ):
        field = inner + "  "
        for i in range(0, len(obj), _SLICE):
            text = json.dumps(obj[i : i + _SLICE], separators=("," + field, ": "))
            rows = text[2:-2].replace("}," + field + "{", f"{inner}}},{inner}{{{field}")
            yield f"{',' if i else '['}{inner}{{{field}{rows}{inner}}}"
        yield nl + "]"
    else:
        sep = "{" if is_dict else "["
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
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe: not an error; send anything still
        # buffered for stdout to the null device
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 0
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    main()
