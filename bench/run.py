"""Benchmark of the cuspforge CLI: whole-process timings and per-layer traces.

    python3 bench/run.py --workload survey --seed 0 --seconds 50 --trace 0

One client runs the commands of a workload one at a time (a closed loop),
each as its own process, and repeats the list until ``--seconds`` have
passed.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Run from a
checkout of the repository; no install is needed.

The CLI is launched from the source tree as
``python -c "from cuspforge.cli import main; main()"`` with
``PYTHONPATH=src`` and ``CUSPFORGE_JOBS`` unset: the ``cuspforge`` console
script exists only after ``pip install``, and ``python -m cuspforge.cli``
exits 0 with no output because the module has no ``__main__`` guard.

Seed 0 runs each workload's pinned list in order.  Any other seed shuffles
the order and draws each heavy input from a small family of equal cost.
Every output is checked: exit 0, non-empty stdout, the sha256 recorded in
``bench/digests.json`` and the invariants in ``check``.

    python3 bench/run.py --record-digests   # rewrite bench/digests.json
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from tracer import CACHED_LAYERS, LAYERS

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
OUT = BENCH / "out"
DIGESTS = BENCH / "digests.json"
LAUNCHER = "from cuspforge.cli import main; main()"

DEADLINE_S = 170
# Set-up is timed a few times before every pass, so that its median covers
# the same stretch of time as the passes.
SETUP_REPS_PER_PASS = 3

F_SPEC = {"level": 20, "exponents": {"2": 1, "4": 2, "6": 2, "1": -2, "8": -1, "9": -2}}
G_SPEC = {
    "level": 20,
    "exponents": {"3": 1, "4": 2, "5": 1, "6": 1, "7": 1, "1": -2, "8": -2, "9": -1, "10": -1},
}
SPEC_FILES = {"f": "bench/out/f.json", "g": "bench/out/g.json"}

# Each workload: families of heavy inputs (the first value is the one seed 0
# pins) and the command templates.  Family members were timed to cost about
# the same: primes near 2003, levels with about the same cusp count or
# phi(N), residues r whose series take as long, truncations within 0.5%.
WORKLOADS = {
    # Many small levels: arith, genus and criteria (verdicts, the process
    # pool) plus the JSON of ~6300 survey rows.  Serial and pool runs sit
    # side by side to show whether the pool pays off.
    "survey": (
        {"max": [10000, 9990, 9995, 10005, 10010], "small": [300, 296, 298, 302, 304]},
        [
            "survey x1 --max {max} --jobs 1",
            "survey x1 --max {max} --jobs 2",
            "survey x1 --max {small} --format tsv --jobs 2",
            "verdict x1 --level 18 --d 3",
            "verdict x0 --p 2 --m 16",
        ],
    ),
    # One level per command, large objects: a 2002-element Delta and its
    # closure check, cusp atlases and width scans, orbit BFS and 1.2 MB of
    # JSON; then the eta-quotient series, where etaq's Fraction inverse and
    # O(T^2) dict convolution do the work.
    "curves_eta": (
        {
            "p": [2003, 1993, 1997, 1999, 2011],
            "n1": [2520, 2800, 2856],
            "n0": [5040, 4032, 4320],
            "gen": [7, 11, 13],
            "orb": [1440, 1400, 1520],
            "terms": [400, 398, 399, 401, 402],
            "r": [7, 11, 13],
        },
        [
            "genus --level {p} --gamma0",
            "cusps --level {n1} --gamma1",
            "cusps --level {n0} --gamma0",
            "cusps --level 720 --delta {gen}",
            "orbits --level {orb}",
            "genus --level 20 --gamma1",
            "genus --level 20 --delta 9",
            "cusps --level 20 --gamma1",
            "orbits --level 20",
            "eta div --spec {f} --terms {terms}",
            "eta div --spec {g} --terms {terms}",
            "eta series --level 60 --r {r} --terms 10000",
            "certify x1-20",
            "verdict x1 --level 20 --d 2",
            "eta series --level 20 --r 1 --terms 12",
            "eta div --spec {f}",
        ],
    ),
}

RULES = ("LemmaCuspIneq", "LemmaGenus", "FactTable", "EtaCertificate")

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    **{f"{layer}.{kind}": unit for layer in LAYERS.values()
       for kind, unit in (("self_s", "s"), ("calls", "count"))},
    **{f"{layer}.{kind}": unit for layer in CACHED_LAYERS
       for kind, unit in (("cache_hits", "count"), ("cache_misses", "count"),
                          ("cache_hit_ratio", "ratio"))},
    **{f"criteria.rule.{rule}": "count" for rule in RULES},
    "cli.out_bytes": "bytes",
    "trace_overhead": "ratio",
    "fail_ratio": "ratio",
}


def commands(workload: str, seed: int) -> list[str]:
    families, templates = WORKLOADS[workload]
    fields = {**SPEC_FILES, **{k: v[0] for k, v in families.items()}}
    if seed == 0:
        return [t.format(**fields) for t in templates]
    rng = random.Random(seed)
    fields.update({k: rng.choice(v) for k, v in families.items()})
    out = [t.format(**fields) for t in templates]
    rng.shuffle(out)
    return out


def all_commands(workload: str) -> list[str]:
    """Every command any seed can produce for the workload."""
    families, templates = WORKLOADS[workload]
    out = []
    for values in itertools.product(*families.values()):
        fields = {**SPEC_FILES, **dict(zip(families, values))}
        out += [t.format(**fields) for t in templates]
    return list(dict.fromkeys(out))


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "cpu": cpu,
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def _env() -> dict:
    env = dict(os.environ)
    env.pop("CUSPFORGE_JOBS", None)
    # Byte code is cached under bench/out, as an installed package would have
    # it, whatever the caller's PYTHONDONTWRITEBYTECODE says.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONPYCACHEPREFIX"] = str(OUT / "pycache")
    return env


def spawn(argv: list[str]) -> tuple[float, int, bytes, float]:
    """Run one process to completion: (wall s, exit code, stdout, max RSS MB)."""
    env = _env()
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, start_new_session=True
    )
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    finally:
        proc.stdout.close()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, out, usage.ru_maxrss / 1024


def check(command: str, code: int, out: bytes, digests: dict | None):
    """(error or None, parsed JSON result or None) for one command's output."""
    if code != 0:
        return f"exit code {code}", None
    if not out:
        return "empty stdout", None
    if digests is not None and digests.get(command) != hashlib.sha256(out).hexdigest():
        return "stdout differs from the recorded digest", None
    try:
        return _invariants(command.split(), out)
    except (ValueError, LookupError, TypeError) as exc:
        return f"malformed output: {exc!r}", None


def _invariants(argv: list[str], out: bytes):
    if "tsv" in argv:
        rows = [line.split("\t") for line in out.decode().splitlines()[1:]]
        bad = sorted({int(r[0]) for r in rows if r[2] == "NotWeierstrass"})
        return (None if bad == [18] else f"survey exceptions {bad}"), None
    envelope = json.loads(out)
    if set(envelope) != {"command", "params", "result", "version"}:
        return "malformed envelope", None
    result = envelope["result"]
    if argv[0] == "survey":
        bad = sorted({r["N"] for r in result["rows"] if r["status"] == "NotWeierstrass"})
        if bad != [18]:
            return f"survey exceptions {bad}", result
    elif argv[0] == "certify":
        if result["gaps"] != [1, 2, 5] or result["weight"] != 2:
            return "certificate is not gaps [1, 2, 5] with weight 2", result
    elif argv[:2] == ["eta", "div"]:
        orders = result["divisor"]["orders"]
        if result["divisor"]["degree"] != 0 or sum(o["order"] for o in orders) != 0:
            return "divisor degree is not 0", result
    elif argv[0] == "genus":
        if type(result["g"]) is not int or result["g"] < 0:
            return f"genus {result['g']!r} is not a non-negative integer", result
    return None, result


def run_pass(cmds: list[str], digests: dict | None, traced: bool) -> dict:
    """Run every command once; totals for the pass."""
    acc = {"walls": [], "peak_rss_mb": 0.0, "failed": 0, "out_bytes": 0}
    layers = Counter()
    survey = None
    trace_file = OUT / "trace.json"
    for cmd in cmds:
        argv = cmd.split()
        if traced:
            trace_file.unlink(missing_ok=True)
            prog = [sys.executable, str(BENCH / "tracer.py"), str(trace_file), *argv]
        else:
            prog = [sys.executable, "-c", LAUNCHER, *argv]
        wall, code, out, rss = spawn(prog)
        acc["walls"].append(wall)
        acc["peak_rss_mb"] = max(acc["peak_rss_mb"], rss)
        acc["out_bytes"] += len(out)
        error, result = check(cmd, code, out, digests)
        if error:
            acc["failed"] += 1
            print(f"FAIL {cmd}: {error}", file=sys.stderr)
        if argv[0] == "survey" and result and (survey is None or result["max"] > survey["max"]):
            survey = result
        if traced and code == 0:
            with open(trace_file) as fh:
                trace = json.load(fh)
            for layer in LAYERS.values():
                layers[f"{layer}.self_s"] += trace["self_s"].get(layer, 0.0)
                layers[f"{layer}.calls"] += trace["calls"].get(layer, 0)
            for layer, (hits, misses) in trace["cache"].items():
                layers[f"{layer}.cache_hits"] += hits
                layers[f"{layer}.cache_misses"] += misses
    if traced:
        for layer in CACHED_LAYERS:
            looked = layers[f"{layer}.cache_hits"] + layers[f"{layer}.cache_misses"]
            layers[f"{layer}.cache_hit_ratio"] = (
                layers[f"{layer}.cache_hits"] / looked if looked else 0.0
            )
        rules = Counter(r["rule"] for r in survey["rows"]) if survey else Counter()
        for rule in RULES:
            layers[f"criteria.rule.{rule}"] = rules[rule]
        layers["cli.out_bytes"] = acc["out_bytes"]
        acc["layers"] = layers
    return acc


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def setup_time() -> float:
    wall, code, _, _ = spawn([sys.executable, "-c", "import cuspforge.cli"])
    if code != 0:
        raise RuntimeError("import cuspforge.cli failed")
    return wall


def warm_up() -> None:
    """Compile the byte code once and check that the checkout's source is used."""
    probe = "import cuspforge.cli, sys; sys.stdout.write(cuspforge.cli.__file__)"
    _, code, out, _ = spawn([sys.executable, "-c", probe])
    expected = ROOT / "src" / "cuspforge" / "cli.py"
    if code != 0 or Path(out.decode()).resolve() != expected.resolve():
        raise RuntimeError(f"cuspforge.cli does not load from {expected}")


def write_specs() -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    for key, spec in (("f", F_SPEC), ("g", G_SPEC)):
        (ROOT / SPEC_FILES[key]).write_text(json.dumps(spec) + "\n")


def record_digests() -> int:
    write_specs()
    warm_up()
    digests, failed = {}, 0
    for workload in WORKLOADS:
        for cmd in all_commands(workload):
            _, code, out, _ = spawn([sys.executable, "-c", LAUNCHER, *cmd.split()])
            error, _ = check(cmd, code, out, None)
            if error:
                failed += 1
                print(f"FAIL {cmd}: {error}", file=sys.stderr)
            digests[cmd] = hashlib.sha256(out).hexdigest()
            print(f"{digests[cmd][:12]}  {cmd}")
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 1 if failed else 0


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    write_specs()
    warm_up()
    digests = json.loads(DIGESTS.read_text())
    cmds = commands(workload, seed)
    print(f"workload {workload} seed {seed}: {len(cmds)} commands; machine {json.dumps(machine())}")
    for cmd in cmds:
        print(f"  {cmd}")
    setup, plain, traced = [], [], []
    start = time.perf_counter()
    while not plain or (trace and not traced) or time.perf_counter() - start < seconds:
        if not trace:
            setup += [setup_time() for _ in range(SETUP_REPS_PER_PASS)]
        plain.append(run_pass(cmds, digests, traced=False))
        if trace:
            traced.append(run_pass(cmds, digests, traced=True))
    passes = plain + traced
    attempted = len(cmds) * len(passes)
    failed = sum(p["failed"] for p in passes)
    walls = [sum(p["walls"]) for p in plain]
    q1, med, q3 = quartiles(walls)
    print(f"wall_s over {len(walls)} passes: median {med:.4f} s, quartiles {q1:.4f} .. {q3:.4f} s")
    print("  passes: " + " ".join(f"{w:.3f}" for w in walls))
    for i, cmd in enumerate(cmds):
        times = [p["walls"][i] for p in plain]
        print(f"  {statistics.median(times):8.4f} s  {cmd}   [{min(times):.3f} .. {max(times):.3f}]")
    if trace:
        t_walls = [sum(p["walls"]) for p in traced]
        print(f"traced wall_s over {len(t_walls)} passes: median {statistics.median(t_walls):.4f} s")
        values = {
            name: statistics.median_low(p["layers"][name] for p in traced)
            for name in PER_LAYER
            if name not in ("trace_overhead", "fail_ratio")
        }
        values["trace_overhead"] = statistics.median(t_walls) / med
        values["fail_ratio"] = failed / attempted
        units = PER_LAYER
    else:
        values = {
            "wall_s": med,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": max(p["peak_rss_mb"] for p in plain),
        }
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=50)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--record-digests", action="store_true")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "cuspforge" / "cli.py").is_file():
        print(f"no cuspforge source tree under {ROOT}", file=sys.stderr)
        return 2
    if args.record_digests:
        return record_digests()
    if args.workload is None:
        p.error("--workload is required")

    def deadline(signum, frame):
        raise TimeoutError(f"benchmark run exceeded {DEADLINE_S} s")

    signal.signal(signal.SIGALRM, deadline)
    signal.alarm(DEADLINE_S)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (TimeoutError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
