"""Every fleet app's canonical report matches its committed golden digest.

``perfbench/golden.json`` pins, per bundled app, the binary trace's footer
digest, its record count and the SHA-256 of the canonical report bytes
(:func:`repro.store.serialize.canonical_report_json`).  Reports must stay
byte-identical across refactors of the walk; this suite is the reference
the analysis routes are checked against.
"""

from __future__ import annotations

import hashlib
import json
import os

import pytest
from conftest import FLEET_NAMES

from repro.store.serialize import canonical_report_json
from repro.trace.binio import read_layout

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench", "golden.json")

with open(GOLDEN_PATH, encoding="utf-8") as _handle:
    GOLDEN = json.load(_handle)["apps"]


def test_golden_covers_the_fleet():
    assert sorted(GOLDEN) == sorted(FLEET_NAMES)


@pytest.mark.parametrize("name", FLEET_NAMES)
def test_report_matches_golden(fleet, name):
    entry = fleet.apps[name]
    golden = GOLDEN[name]
    assert read_layout(entry.trace_path).content_digest \
        == golden["trace_digest"]
    assert entry.report.trace_stats.record_count == golden["records"]
    canonical = canonical_report_json(entry.report).encode()
    assert hashlib.sha256(canonical).hexdigest() == golden["report_sha256"]
