"""The benchmark's output checks read keys of the ``verify`` report.

``perfbench/workloads.py`` checks each ``verify`` iteration by reading
the report's JSON: ``doc["<block>"]["<key>"]`` pairs, the ``exact2d`` or
``exact3d`` bound, and the keys of the ``ensemble`` block, which it
passes on as ``ens``. A report without one of them would fail every
benchmark iteration while the rest of the suite passes. This test reads
those keys from the workloads, without changing anything under
``perfbench/``, and checks that a small report has each of them.
"""

import json
import pathlib
import re

from wavedof import Dimension, PhysicalConfig, RankPolicy, cli

WORKLOADS = (pathlib.Path(__file__).resolve().parent.parent
             / "perfbench" / "workloads.py")


def test_verify_report_has_every_key_the_benchmark_reads():
    text = WORKLOADS.read_text(encoding="utf-8")
    pairs = set(re.findall(r'\bdoc\["(\w+)"\]\["(\w+)"\]', text))
    bounds = set(re.findall(r'"(exact[23]d)"', text))
    ens = set(re.findall(r'\bens\["(\w+)"\]', text))
    assert {("gram", "modes"), ("gram", "rank_threshold")} <= pairs
    assert bounds == {"exact2d", "exact3d"} and 'doc["bounds"][key]' in text
    assert 'doc["ensemble"]' in text and "eigenvalues" in ens
    cfg = PhysicalConfig(R=0.1, W=0.01, T=0.3, f0=10.0, c=1.0)
    doc = json.loads(json.dumps(cli.verify_report(
        cfg, Dimension.TWO_D, waves=4, fields=3, seed=1, resolution=(8, 24, 21),
        policy=RankPolicy())))
    missing = sorted({f"{block}.{key}" for block, key in pairs
                      if key not in doc.get(block, {})}
                     | {f"bounds.{key}" for key in bounds - set(doc["bounds"])}
                     | {f"ensemble.{key}" for key in ens - set(doc["ensemble"])})
    assert missing == []
