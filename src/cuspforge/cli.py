"""Command-line front end: structured JSON on stdout, exit 2 on bad input.

Commands: genus, cusps, orbits, verdict (x1 | x0), survey (x1),
eta (series | div), certify (x1-20).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .arith import check_positive, full_units, pm_one, subgroup_generated
from .criteria import certify_x1_20, survey_x1, x0_verdict, x1_verdict
from .cusps import GAMMA0, GAMMA1, atlas, atlas_delta
from .errors import BadFlag, BadSpec, DomainError, NotPositive, UnknownCommand
from .etaq import EtaQuotient, check_terms, divisor, eta_series
from .genus import genus_delta
from .symmetry import cusp_orbits_x1


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise BadFlag(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="cuspforge", description=__doc__)
    sub = p.add_subparsers(dest="command")

    def add_delta_flags(sp):
        grp = sp.add_mutually_exclusive_group()
        grp.add_argument("--gamma1", action="store_true", help="Delta = {+-1} (default)")
        grp.add_argument("--gamma0", action="store_true", help="Delta = all units")
        grp.add_argument("--delta", help="comma-separated generators of Delta")

    sp = sub.add_parser("genus", description="Genus profile of X_Delta(N).")
    sp.add_argument("--level", type=int, required=True)
    add_delta_flags(sp)

    sp = sub.add_parser("cusps", description="Cusp atlas with widths.")
    sp.add_argument("--level", type=int, required=True)
    add_delta_flags(sp)

    sp = sub.add_parser("orbits", description="Cusp orbits of X_1(N) under [a], W_Q.")
    sp.add_argument("--level", type=int, required=True)

    sp = sub.add_parser("verdict", description="Weierstrass verdict for irregular cusps.")
    sp.add_argument("curve", choices=["x1", "x0"])
    sp.add_argument("--level", type=int, help="N (x1 only)")
    sp.add_argument("--d", type=int, help="divisor invariant of the cusps (x1 only)")
    sp.add_argument("--p", type=int, help="prime p (x0 only)")
    sp.add_argument("--m", type=int, help="M with N = p^2 M (x0 only)")

    sp = sub.add_parser("survey", description="Verdicts for all levels up to a bound.")
    sp.add_argument("curve", choices=["x1"])
    sp.add_argument("--max", type=int, required=True)
    sp.add_argument("--format", choices=["json", "tsv"], default="json")
    sp.add_argument(
        "--jobs", type=int, default=None, help="at least 1; the survey runs serially"
    )

    sp = sub.add_parser("eta", description="Eta-block series and quotient divisors.")
    sp.add_argument("what", choices=["series", "div"])
    sp.add_argument("--level", type=int, help="N (series)")
    sp.add_argument("--r", type=int, help="residue r (series)")
    sp.add_argument("--terms", type=int, default=None)
    sp.add_argument("--spec", help="JSON file with {level, exponents} (div)")

    sp = sub.add_parser("certify", description="Recompute a stored certificate.")
    sp.add_argument("target", choices=["x1-20"])

    return p


def _group_tag(args) -> str:
    return GAMMA0 if args.gamma0 else "delta" if args.delta else GAMMA1


def _delta_for(args, n: int):
    """The subgroup Delta that the group flags name, built only on demand:
    the Gamma_0 and Gamma_1 atlases need the tag alone."""
    if args.gamma0:
        return full_units(n)
    if args.delta:
        try:
            gens = tuple(int(t) for t in args.delta.split(",") if t.strip())
        except ValueError:
            raise BadFlag(f"--delta takes comma-separated integers, got {args.delta!r}")
        return subgroup_generated(n, gens)
    return pm_one(n)


def _require(args, names):
    for name in names:
        if getattr(args, name) is None:
            raise BadFlag(f"--{name} is required here")


def _read_spec(path: str) -> EtaQuotient:
    try:
        with open(path) as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        raise BadSpec(f"cannot read {path}: {exc}")
    try:
        level = int(spec["level"])
        exponents = {int(r): int(k) for r, k in spec["exponents"].items()}
    except (LookupError, TypeError, AttributeError, ValueError) as exc:
        raise BadSpec(f'{path} is not {{"level": N, "exponents": {{r: k}}}}: {exc!r}')
    check_positive(level)
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
                        "representative": o.representative.key(),
                        "members": [c.key() for c in o.members],
                        "orbit_size": o.orbit_size,
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
            _require(args, ["level", "d"])
            v = x1_verdict(args.level, args.d)
            return (
                {"curve": "x1", "level": args.level, "d": args.d},
                {"N": args.level, "d": args.d, **v.to_json()},
                None,
            )
        _require(args, ["p", "m"])
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
            _require(args, ["level", "r"])
            series = eta_series(args.level, args.r, args.terms)
            return (
                {"what": "series", "level": args.level, "r": args.r},
                series.to_json(),
                None,
            )
        _require(args, ["spec"])
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

    if cmd == "certify":
        gapseq, verdict = certify_x1_20()
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

    raise UnknownCommand("no command given; see --help")


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
        args = _build_parser().parse_args(argv)
        params, result, raw = _dispatch(args)
    except SystemExit as exc:  # argparse -h
        return int(exc.code or 0)
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
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe: not an error; send what the
        # interpreter still flushes at exit to the null device
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 0
    sys.exit(code)


if __name__ == "__main__":
    main()
