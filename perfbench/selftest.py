"""Self-tests of the benchmark, at a tiny problem size.

Run from the repository root::

    python3 perfbench/selftest.py

Checks that every metric ``BENCHMARK.json`` names is printed with its
unit on every workload, traced and untraced; that one deliberately
altered result counter is counted as a failure; that the module->layer
table covers ``src/repro`` exactly once; and the profile attribution
and host-speed scaling on hand-made inputs.
"""

from __future__ import annotations

import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import layers  # noqa: E402

WORKLOADS = ("sweep_cold", "sweep_warm", "paper_apps")


def bench(workload: str, trace: int, *extra: str):
    proc = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"),
            "--workload", workload, "--seed", "0", "--seconds", "1",
            "--trace", str(trace), "--size", "tiny", *extra,
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    if proc.returncode != 0:
        raise AssertionError(f"{workload} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


class MetricsPrinted(unittest.TestCase):
    def test_every_metric_with_its_unit(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual([w["name"] for w in spec["workloads"]], list(WORKLOADS))
        for workload in WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    text, result = bench(workload, trace)
                    self.assertEqual(
                        sorted(result), ["attempted", "correct", "failed", "metrics"]
                    )
                    self.assertTrue(result["correct"], text)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    want = {m["name"]: m["unit"] for m in spec[key]}
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)
                    printed = {line.split()[0]: line.split()[2] for line in text if len(line.split()) >= 3}
                    for name, unit in want.items():
                        self.assertEqual(printed.get(name), unit, name)
                    self.assertEqual(printed.get("fail_ratio"), "ratio")
                    if trace == 0:
                        for name in ("wall_s", "setup_s", "refs_per_s", "job_p50_ms"):
                            self.assertGreater(result["metrics"][name]["value"], 0, name)


class AlteredCounterFails(unittest.TestCase):
    def test_one_wrong_counter_raises_fail_ratio(self):
        for workload in ("sweep_cold", "paper_apps"):
            with self.subTest(workload=workload):
                _, result = bench(workload, 0, "--corrupt")
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)


class LayerTable(unittest.TestCase):
    def test_every_module_has_exactly_one_layer(self):
        self.assertEqual(layers.coverage(ROOT / "src"), {})

    def test_unmapped_and_doubly_mapped_modules_are_caught(self):
        self.assertEqual(layers.layers_of("repro.newpackage.module"), [])
        layers.MODULE_LAYERS["repro.sim.engine"] = "extra"
        try:
            self.assertIn("repro.sim.engine", layers.coverage(ROOT / "src"))
        finally:
            del layers.MODULE_LAYERS["repro.sim.engine"]

    def test_builtins_are_charged_to_the_calling_layer(self):
        src = (ROOT / "src").resolve()
        miss = (str(src / "repro" / "sim" / "engine.py"), 494, "_miss")
        lookup = (str(src / "repro" / "coherence" / "directory.py"), 10, "lookup")
        heap = ("~", 0, "<built-in method _heapq.heappush>")
        stats = {
            miss: (1, 1, 0.5, 1.0, {}),
            lookup: (1, 1, 0.2, 0.3, {miss: (1, 1, 0.2, 0.3)}),
            heap: (4, 4, 0.4, 0.4, {miss: (3, 3, 0.3, 0.3), lookup: (1, 1, 0.1, 0.1)}),
        }
        totals = layers.attribute(stats, src, HERE)
        self.assertAlmostEqual(totals["sim.miss"], 0.8)
        self.assertAlmostEqual(totals["coherence"], 0.3)
        self.assertNotIn(layers.OTHER, totals)


class HostSpeed(unittest.TestCase):
    def test_probe_windows_are_excluded_and_speed_applied(self):
        slow = hostspeed.REFERENCE_S * 2  # host at half speed
        cal = hostspeed.Calibration([(0.0, slow), (10.0, 10.0 + slow)])
        self.assertAlmostEqual(cal.scaled(0.0, 10.0 + slow), (10.0 - slow) / 2)
        self.assertAlmostEqual(cal.scaled(2.0, 4.0), 1.0)

    def test_speed_changes_between_probes(self):
        ref = hostspeed.REFERENCE_S
        cal = hostspeed.Calibration([(0.0, ref), (5.0, 5.0 + ref * 3), (9.0, 9.0 + ref)])
        # gap 1 at mean factor (1 + 1/3) / 2, gap 2 the same.
        gap1 = (5.0 - ref) * (1 + 1 / 3) / 2
        gap2 = (9.0 - 5.0 - ref * 3) * (1 + 1 / 3) / 2
        self.assertAlmostEqual(cal.scaled(0.0, 9.0 + ref), gap1 + gap2)


if __name__ == "__main__":
    unittest.main()
