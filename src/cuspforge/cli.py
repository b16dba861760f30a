"""Command-line front end: structured JSON on stdout, exit 2 on bad input.

Commands: genus, cusps, orbits, verdict (x1 | x0), survey (x1),
eta (series | div), certify (x1-20).
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


# Each command form, its flags with their kinds, and the flags it requires.
# A kind is int, str, bool (a switch) or a tuple of choices, the first of
# which is the default; an absent flag is None or False.  _WORD names the
# value of a command's second word.
_DELTA = {"gamma1": bool, "gamma0": bool, "delta": str}
_EXCLUSIVE = "--gamma1, --gamma0 and --delta exclude each other"
_FORMS = {
    ("genus",): ({"level": int, **_DELTA}, {"level"}),
    ("cusps",): ({"level": int, **_DELTA}, {"level"}),
    ("orbits",): ({"level": int}, {"level"}),
    ("verdict", "x1"): ({"level": int, "d": int}, {"level", "d"}),
    ("verdict", "x0"): ({"p": int, "m": int}, {"p", "m"}),
    ("survey", "x1"): ({"max": int, "format": ("json", "tsv"), "jobs": int}, {"max"}),
    ("eta", "series"): ({"level": int, "r": int, "terms": int}, {"level", "r"}),
    ("eta", "div"): ({"spec": str, "terms": int}, {"spec"}),
    ("certify", "x1-20"): ({}, set()),
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
    kinds = {name: kind for flags, _ in forms.values() for name, kind in flags.items()}
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
            try:
                value = int(value)
            except ValueError:
                raise BadFlag(f"--{name} takes an integer, got {value!r}")
        elif type(kind) is tuple and value not in kind:
            raise BadFlag(f"--{name} takes one of {', '.join(kind)}, got {value!r}")
        if name in _DELTA and given.keys() & _DELTA.keys() - {name}:
            raise BadFlag(_EXCLUSIVE)
        given[name] = value
    if spec is None:
        raise BadFlag(f"{command} takes one of {', '.join(w for w, in forms)}")
    flags, required = spec
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
    for form, (flags, required) in _FORMS.items():
        words = ["  cuspforge", *form]
        for name, kind in flags.items():
            text = f"--{name}" if kind is bool else f"--{name} " + (
                "|".join(kind) if type(kind) is tuple else name.upper()
            )
            words.append(text if name in required else f"[{text}]")
        lines.append(" ".join(words))
    return "\n".join([*lines, "", _EXCLUSIVE + "."]) + "\n"


def _group_tag(args) -> str:
    return GAMMA0 if args.gamma0 else "delta" if args.delta is not None else GAMMA1


def _delta_for(args, n: int):
    """The subgroup Delta that the group flags name, built only on demand:
    the Gamma_0 and Gamma_1 atlases need the tag alone."""
    if args.gamma0:
        return full_units(n)
    if args.delta is not None:
        try:
            gens = tuple(int(t) for t in args.delta.split(",") if t.strip())
        except ValueError:
            raise BadFlag(f"--delta takes comma-separated integers, got {args.delta!r}")
        return subgroup_generated(n, gens)
    return pm_one(n)


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
    # int() would read the keys "+2", " 4", "0_6" and "\u0662" (an
    # Arabic-Indic digit) as the blocks 2, 4, 6 and 2; `make` checks the
    # level and the values
    if [str(r) for r in exponents] != keys:
        raise BadSpec(f"{path}: each exponent key must be an integer in plain decimal")
    return EtaQuotient.make(level, exponents)


def _dispatch(args) -> tuple[dict, dict, str | None]:
    """Returns (params, result, raw_text); raw_text bypasses the envelope."""
    cmd = args.command
    if getattr(args, "level", None) is not None:
        check_positive(args.level)
    if cmd == "genus":
        profile = genus_delta(_delta_for(args, args.level))
        return {"level": args.level, "group": _group_tag(args)}, profile.to_json(), None

    if cmd == "cusps":
        tag = _group_tag(args)
        params = {"level": args.level, "group": tag}
        if tag in (GAMMA0, GAMMA1):
            return params, {"cusps": [c.to_json() for c in atlas(args.level, tag)]}, None
        delta = _delta_for(args, args.level)
        orbits = atlas_delta(delta)
        return (
            params,
            {
                "delta": list(delta.elements),
                "cusps": [
                    {
                        "representative": o[0].key(),
                        "members": [c.key() for c in o],
                        "orbit_size": len(o),
                    }
                    for o in orbits
                ],
            },
            None,
        )

    if cmd == "orbits":
        return {"level": args.level}, cusp_orbits_x1(args.level).to_json(), None

    if cmd == "verdict":
        if args.curve == "x1":
            v = x1_verdict(args.level, args.d)
            return (
                {"curve": "x1", "level": args.level, "d": args.d},
                {"N": args.level, "d": args.d, **v.to_json()},
                None,
            )
        v = x0_verdict(args.p, args.m)
        return (
            {"curve": "x0", "p": args.p, "m": args.m},
            {"p": args.p, "M": args.m, "N": args.p * args.p * args.m, **v.to_json()},
            None,
        )

    if cmd == "survey":
        if args.jobs is not None and args.jobs < 1:
            raise NotPositive(f"jobs must be at least 1, got {args.jobs}")
        report = survey_x1(args.max)
        params = {"curve": "x1", "max": args.max}
        if args.format == "tsv":
            return params, {}, report.to_tsv()
        return params, report.to_json(), None

    if cmd == "eta":
        if args.what == "series":
            series = eta_series(args.level, args.r, args.terms)
            return (
                {"what": "series", "level": args.level, "r": args.r},
                series.to_json(),
                None,
            )
        quot = _read_spec(args.spec)
        div = divisor(quot)
        check_terms(quot, args.terms)  # checked only: the series is not printed
        return (
            {"what": "div", "spec": os.path.basename(args.spec)},
            {
                "quotient": quot.to_json(),
                "leading_exponent": str(quot.leading_exponent()),
                "divisor": div.to_json(),
            },
            None,
        )

    gapseq, verdict = certify_x1_20()  # certify x1-20
    return (
        {"target": "x1-20"},
        {
            "genus": gapseq.genus,
            "gaps": list(gapseq.gaps),
            "weight": gapseq.weight,
            "verdict": verdict.to_json(),
        },
        None,
    )


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
        params, result, raw = _dispatch(args) if args else ({}, {}, _usage())
    except Exception as exc:  # bad input exits 2, a broken invariant 1; never a traceback
        _emit({"error": {"type": type(exc).__name__, "message": str(exc)}}, out)
        return 2 if isinstance(exc, DomainError) else 1
    if raw is not None:
        out.write(raw)
        return 0
    envelope = {
        "command": args.command,
        "params": params,
        "result": result,
        "version": __version__,
    }
    _emit(envelope, out)
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
