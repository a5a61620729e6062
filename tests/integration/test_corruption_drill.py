"""Regression drill: benign network corruption convicts nobody.

The Table 1 "message corruption" drill flips bytes in 15% of frames for
two seconds on a six-processor deployment with no Byzantine processor.
It guards against two defects:

* a flip in CDR alignment padding leaves every field intact, so a
  decoder that skips padding unchecked accepts a token that still
  verifies but whose raw bytes differ from the genuine copy, and the
  receivers convict the honest holder of a mutant token (on some seeds
  the membership then falls apart);
* a corrupted membership commit bundle must be dropped like any
  malformed frame, not raise ``MarshalError`` out of the simulation.

The seeds are the ones on which either defect showed.
"""

import pytest

from repro.bench import tables
from repro.multicast.detector import ByzantineFaultDetector

SEEDS = (2, 5, 8, 13, 17, 19, 21, 28, 30)


@pytest.mark.parametrize("seed", SEEDS)
def test_corruption_drill_convicts_no_honest_processor(monkeypatch, seed):
    suspicions = []
    drills = []
    real_suspect = ByzantineFaultDetector.suspect
    real_run = tables._Drill.run

    def recording_suspect(detector, proc_id, reason):
        suspicions.append((detector.my_id, proc_id, reason))
        return real_suspect(detector, proc_id, reason)

    def recording_run(drill, until):
        drills.append(drill)
        return real_run(drill, until)

    monkeypatch.setattr(ByzantineFaultDetector, "suspect", recording_suspect)
    monkeypatch.setattr(tables._Drill, "run", recording_run)

    result = tables.drill_message_corruption(seed)

    assert result.handled, result.evidence
    # Only transient timeout suspicion (a token lost to corruption) may
    # remain: no mutant conviction, no exclusion.
    reasons = {reason for _, _, reason in suspicions}
    assert reasons <= {"fail_to_send"}, suspicions
    (drill,) = drills
    immune = drill.immune
    assert immune.network.stats["corrupted"] > 0
    assert immune.surviving_members() == tuple(sorted(immune.processors))
