"""Tests of the benchmark itself: pins catch a wrong answer, refusals are
counted apart from failures, and BENCHMARK.json lists what run.py emits.

    python3 -m pytest perfbench/test_perfbench.py
"""

import json
import os

import layers
import run

BENCHMARK = os.path.join(run.ROOT, "BENCHMARK.json")


def _last_json(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_planted_wrong_pin_fails_the_run_and_refusal_is_not_a_failure(tmp_path, monkeypatch, capsys):
    with open(run.PINS, encoding="utf-8") as fh:
        pins = json.load(fh)
    pins["session"]["000 load t-boolx.json --name t-boolx"] = "rc=0 loaded t-boolx: 5 elements"
    planted = tmp_path / "pins.json"
    planted.write_text(json.dumps(pins))
    monkeypatch.setattr(run, "PINS", str(planted))

    code = run.main(["--workload", "session", "--seed", "5", "--seconds", "1", "--trace", "0"])
    out = _last_json(capsys)
    assert code == 1
    assert out["correct"] is False
    assert out["failed"] == 1
    # The designed exit 8 is refused, not failed.
    n = out["attempted"]
    assert out["metrics"]["answered_frac"]["value"] == (n - 1) / n
    assert out["metrics"]["pinned_frac"]["value"] == (n - 1) / n


def test_score_separates_refusals_errors_and_mismatches():
    pins = {"ladder": {"a/spec": "3", "b/spec": "5", "c/spec": "7"}}
    records = [
        ["a/spec", 0.0, 1.0, "ok", "3"],
        ["b/spec", 1.0, 2.0, "refused", "ResourceError: b: size 64 over spectrum limit"],
        ["c/spec", 2.0, 3.0, "ok", "8"],
        ["c/spec", 3.0, 4.0, "error", "InternalCheckError: disagree"],
        ["d/spec", 4.0, 5.0, "ok", "1"],
    ]
    tally = run.score("ladder", records, pins)
    assert (tally["attempted"], tally["failed"], tally["refused"]) == (5, 3, 1)


def test_missing_traced_name_is_reported_absent():
    summary = {
        "stats": {"ideals.all_ideals": {"layer": "ideals", "calls": 4, "self_s": 0.5, "incl_s": 0.5, "refused": 0}},
        "counters": {"ideals.all_ideals.returned": 8},
    }
    metrics, absent = layers.per_layer(summary, plain_wall=2.0, traced_wall=2.5)
    assert metrics["ideals.all_ideals.calls"]["value"] == 4
    assert metrics["trace_overhead_frac"]["value"] == 0.25
    assert "core.bx_witness_exhaustive.calls" in absent
    assert metrics["core.bx_witness_exhaustive.calls"]["value"] == 0
    assert "ideals.all_ideals.calls" not in absent


def test_benchmark_json_lists_what_the_run_emits():
    with open(BENCHMARK, encoding="utf-8") as fh:
        bench = json.load(fh)
    assert bench["per_layer"] == layers.declared()
    result = {"records": [["x", 0.0, 0.5, "ok", "1"], ["y", 0.5, 2.0, "ok", "2"]], "maxrss_mb": 20.0}
    emitted = run.end_to_end([result], [0.3], {"attempted": 2, "failed": 0, "refused": 0})
    assert emitted["wall_s"]["value"] == 2.0
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == [(k, v["unit"]) for k, v in emitted.items()]
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
