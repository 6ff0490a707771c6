"""Golden event-trace parity: the perf work must not move a single event.

The digests in ``golden/trace_digests.json`` were recorded on the engine
*before* the O(1) hot-path rewrite (deque queues, tombstones, inlined
loop, model caching). Each test replays the same workload on the current
engine and compares the SHA-256 of the full schedule/step stream — any
reordering, extra event, or missing event fails loudly.
"""

from __future__ import annotations

import json

import pytest

from tests.des.goldens import GOLDEN_PATH, RECORDERS


def _golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())["digests"]


@pytest.mark.parametrize("name", sorted(RECORDERS))
def test_trace_matches_pre_optimization_golden(name):
    golden = _golden()
    assert name in golden, (
        f"no golden digest for {name!r}; regenerate with "
        "`PYTHONPATH=src python tests/des/goldens.py --write`"
    )
    current = RECORDERS[name]()
    assert current == golden[name], (
        f"event trace for {name!r} diverged from the pre-optimization "
        f"golden ({current['schedules']} schedules / {current['steps']} steps "
        f"vs {golden[name]['schedules']} / {golden[name]['steps']}); "
        "the engine is no longer bit-identical"
    )
