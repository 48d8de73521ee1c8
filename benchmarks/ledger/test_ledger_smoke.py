"""Smoke test of the ledger: ``python -m pytest benchmarks/ledger -q``.

Outside tier-1's ``testpaths``.  Runs ``run.py --smoke --trace`` once
(every workload at 1/20 size) and checks the contract between what the
ledger prints and what ``BENCHMARK.json`` promises.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


@pytest.fixture(scope="module")
def ledger(tmp_path_factory):
    out = tmp_path_factory.mktemp("ledger") / "result.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--trace",
         "--seed", "5", "--out", str(out)],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    return json.loads(out.read_text()), proc.stdout


@pytest.fixture(scope="module")
def spec():
    return json.loads((REPO / "BENCHMARK.json").read_text())


def test_every_benchmark_json_metric_is_printed_with_its_unit(ledger, spec):
    """A workload prints the metrics that apply to it, under the listed
    unit; every listed metric applies to at least one workload."""
    document, stdout = ledger
    assert [w["name"] for w in spec["workloads"]] == list(document["workloads"])
    for kind, printed in (
            ("end_to_end", {w: r["metrics"]
                            for w, r in document["workloads"].items()}),
            ("per_layer", document["per_layer"])):
        units = {m["name"]: m["unit"] for m in spec[kind]}
        seen = set()
        for workload, entries in printed.items():
            for name, entry in entries.items():
                if kind == "per_layer" or name in units:
                    assert entry["unit"] == units[name], (workload, name)
                    assert f"  {name} " in stdout
                    seen.add(name)
            if kind == "end_to_end":
                assert all(entries[name]["value"] != 0
                           for name in units if name in entries), workload
        assert seen == set(units), kind


def test_benchmark_json_bounds_are_the_ledgers_own(spec):
    sys.path.insert(0, str(HERE))
    from run import CONTRACT_BOUNDS, END_TO_END

    assert all(bound <= 0.10 for _, _, bound in END_TO_END.values())
    for metric in spec["end_to_end"]:
        unit, better, bound = END_TO_END[metric["name"]]
        assert (metric["unit"], metric["better"], metric["bound"]) \
            == (unit, better, CONTRACT_BOUNDS.get(metric["name"], bound))
    assert any(m["name"] == "setup_s" for m in spec["end_to_end"])


def test_contract_line_names_every_listed_metric(ledger, spec):
    """Off-path metrics read the documented sentinels, never go missing."""
    sys.path.insert(0, str(HERE))
    from run import NOT_APPLICABLE, _contract_line

    document, _ = ledger
    for workload, result in document["workloads"].items():
        gated = json.loads(_contract_line(spec, result, None, True))["metrics"]
        assert list(gated) == [m["name"] for m in spec["end_to_end"]]
        assert all(entry["value"] != 0 for entry in gated.values())
        assert (gated["mape_pct"]["value"] == NOT_APPLICABLE) \
            == (workload != "replay_eval")
        layer = json.loads(_contract_line(
            spec, result, document["per_layer"][workload], True))["metrics"]
        assert list(layer) == [m["name"] for m in spec["per_layer"]]
        assert layer["fleet.front.hop_us"]["value"] == 0 \
            or workload == "fleet_mixed"


def test_names_are_plain(ledger, spec):
    document, _ = ledger
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    for result in document["workloads"].values():
        names += list(result["metrics"])
    assert all(NAME.match(name) and len(name) <= 64 for name in names)
    assert len(set(m["name"] for m in spec["end_to_end"] + spec["per_layer"])) \
        == len(spec["end_to_end"]) + len(spec["per_layer"])


def test_counts_repeat_and_every_answer_is_right(ledger):
    document, _ = ledger
    assert document["correct"]
    for workload, result in document["workloads"].items():
        assert result["problems"] == [], workload
        assert result["failed"] == 0
        assert result["metrics"]["ok_ratio"]["value"] == 1
        assert result["counts"]["oracle_checked"] > 0
        assert len(result["probe_ms"]) == 3


def test_result_carries_the_machine_fingerprint(ledger):
    document, _ = ledger
    assert set(document["fingerprint"]) == {
        "cores", "affinity", "cpu_model", "kernel", "python", "numpy",
        "git_sha"}


def test_trace_file_has_covered_inprocess_roots():
    spans = [json.loads(line)
             for line in (REPO / ".ledger" / "trace.jsonl").read_text().splitlines()]
    by_id = {span["id"]: span for span in spans}
    covered = {}
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] = covered.get(span["parent"], 0) \
                + span["end_ns"] - span["start_ns"]
    roots = [s for s in spans if s["name"].startswith("inproc.")]
    assert roots and any(s["name"].startswith("e2e.") for s in spans)
    for root in roots:
        assert covered[root["id"]] >= 0.9 * (root["end_ns"] - root["start_ns"])
    assert all(by_id[s["parent"]]["workload"] == s["workload"]
               for s in spans if s["parent"] is not None)
