"""Tests of the benchmark itself:  python3 -m pytest bench/tests"""

import io
import json
import re
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
from cuspforge import cli  # noqa: E402


def test_self_time_on_synthetic_call_tree():
    # cli [0, 10] > arith [1, 4] > genus [2, 3];  cli > arith [5, 9]
    ticks = iter([0, 1, 2, 3, 4, 5, 9, 10])
    t = tracer.Tracer(clock=lambda: next(ticks))
    t.enter("cli")
    t.enter("arith")
    t.enter("genus")
    t.leave()
    t.leave()
    t.enter("arith")
    t.leave()
    t.leave()
    assert t.self_s == {"cli": 3, "arith": 6, "genus": 1}
    assert t.calls == {"cli": 1, "arith": 2, "genus": 1}
    assert sum(t.self_s.values()) == 10


def _namespaces():
    """Every attribute of the cuspforge modules and of their classes."""
    out = {}
    for name, mod in sys.modules.items():
        if name == "cuspforge" or name.startswith("cuspforge."):
            for attr, obj in vars(mod).items():
                out[(name, attr)] = obj
                if isinstance(obj, type):
                    for k, v in vars(obj).items():
                        out[(name, attr, k)] = v
    return out


def test_wrappers_leave_outputs_unchanged(tmp_path):
    spec = tmp_path / "f.json"
    spec.write_text(json.dumps(run.F_SPEC))
    commands = [
        ["genus", "--level", "20", "--delta", "9"],
        ["cusps", "--level", "20", "--gamma1"],
        ["orbits", "--level", "20"],
        ["verdict", "x1", "--level", "18", "--d", "3"],
        ["survey", "x1", "--max", "40", "--jobs", "1"],
        ["eta", "series", "--level", "20", "--r", "1", "--terms", "12"],
        ["eta", "div", "--spec", str(spec)],
        ["certify", "x1-20"],
    ]

    def outputs():
        result = []
        for argv in commands:
            buf = io.StringIO()
            result.append((cli.run(argv, stdout=buf), buf.getvalue()))
        return result

    plain = outputs()
    before = _namespaces()
    t = tracer.Tracer()
    patches = tracer.install(t)
    try:
        assert patches
        traced = outputs()
    finally:
        tracer.uninstall(patches)
    assert traced == plain
    assert all(code == 0 for code, _ in plain)
    assert set(t.calls) == set(tracer.LAYERS.values())
    after = _namespaces()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert outputs() == plain


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert end_to_end == run.END_TO_END
    assert per_layer == run.PER_LAYER
    for name in [*end_to_end, *per_layer]:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)


def test_every_seed_draws_commands_with_recorded_digests():
    digests = json.loads(run.DIGESTS.read_text())
    for workload, (families, templates) in run.WORKLOADS.items():
        pinned = run.commands(workload, 0)
        assert pinned == [
            t.format(**run.SPEC_FILES, **{k: v[0] for k, v in families.items()})
            for t in templates
        ]
        possible = set(run.all_commands(workload))
        assert possible <= digests.keys()
        for seed in range(1, 20):
            drawn = run.commands(workload, seed)
            assert len(drawn) == len(templates) and set(drawn) <= possible


def _envelope(command, result):
    return json.dumps({"command": command, "params": {}, "result": result, "version": "0"}).encode()


def test_invariants_fail_without_digests():
    good_cert = {"genus": 3, "gaps": [1, 2, 5], "weight": 2, "verdict": {}}
    assert run.check("certify x1-20", 0, _envelope("certify", good_cert), None)[0] is None
    bad_cert = {**good_cert, "gaps": [1, 2, 4]}
    assert run.check("certify x1-20", 0, _envelope("certify", bad_cert), None)[0]
    rows = [{"N": 18, "d": 3, "status": "NotWeierstrass", "rule": "FactTable"},
            {"N": 20, "d": 2, "status": "NotWeierstrass", "rule": "EtaCertificate"}]
    survey = _envelope("survey", {"max": 20, "rows": rows})
    assert run.check("survey x1 --max 20 --jobs 1", 0, survey, None)[0]
    tsv = b"N\td\tstatus\trule\n18\t3\tNotWeierstrass\tFactTable\n"
    assert run.check("survey x1 --max 20 --format tsv --jobs 1", 0, tsv, None)[0] is None
    divisor = {"divisor": {"degree": 1, "orders": [{"order": 1}]}}
    assert run.check("eta div --spec f.json", 0, _envelope("eta", divisor), None)[0]
    assert run.check("genus --level 20 --gamma1", 0, _envelope("genus", {"g": "3/2"}), None)[0]
    assert run.check("genus --level 20 --gamma1", 0, b"not json", None)[0]
    assert run.check("genus --level 20 --gamma1", 2, b"{}", None)[0] == "exit code 2"
    assert run.check("certify x1-20", 0, b"", None)[0] == "empty stdout"
