"""Tests of run.py's result handling: python3 -m unittest discover -s perfbench"""

import json
import unittest
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent


def report(metrics, correct=True):
    return {"correct": correct, "attempted": 10, "failed": 0,
            "metrics": {k: {"value": v, "unit": u, "n": 1} for k, (v, u) in metrics.items()}}


class ContractLine(unittest.TestCase):
    def test_keeps_exactly_the_contract_keys(self):
        line = run.contract_line(report({"a_s": (1.5, "s")}), {"a_s": "s"})
        self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(line["metrics"], {"a_s": {"value": 1.5, "unit": "s"}})

    def test_refuses_a_different_metric_set_or_unit(self):
        with self.assertRaises(ValueError):
            run.contract_line(report({"a_s": (1.0, "s")}), {"a_s": "s", "b_s": "s"})
        with self.assertRaises(ValueError):
            run.contract_line(report({"a_s": (1.0, "ms")}), {"a_s": "s"})

    def test_manifest_and_contract_name_the_same_metrics(self):
        manifest = json.loads((HERE / "manifest.json").read_text())
        contract = json.loads(run.CONTRACT.read_text())
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            names = run.contract_names(contract, trace)
            self.assertEqual(names, {k: v["unit"] for k, v in manifest[section].items()})
        self.assertEqual([w["name"] for w in contract["workloads"]], list(manifest["workloads"]))


if __name__ == "__main__":
    unittest.main()
