# Running verification campaigns programmatically.
#
# A campaign executes named suites, each turning one library identity into
# a batch of deterministic cases.  The same seed always yields the same
# report (timing aside), every failure carries a replayable witness, and
# the CLI exposes the same machinery as `idemx campaign` / `idemx replay`.

import json
import tempfile
from pathlib import Path

from idemx.campaign import (
    CATALOGUE,
    CampaignConfig,
    replay_witnesses,
    run_campaign,
)

print("suite catalogue (default and hard size caps):")
for name, suite in CATALOGUE.items():
    print(f"  {name:32s} {suite.cap_default:>6d} {suite.cap_hard:>7d}")

cfg = CampaignConfig(
    seed=42,
    suites=("support_roundtrip", "usc_forward", "hausdorff_lipschitz"),
    size_caps={"support_roundtrip": 4, "hausdorff_lipschitz": 500},
)
report = run_campaign(cfg)
print()
print(report.summary())

# The JSON report round-trips through disk and replay.
with tempfile.TemporaryDirectory() as d:
    out = Path(d) / "report.json"
    cfg2 = CampaignConfig(
        seed=42, suites=("support_roundtrip",), output=str(out),
        size_caps={"support_roundtrip": 3},
    )
    run_campaign(cfg2)
    data = json.loads(out.read_text())
    print("\nwritten report keys:", sorted(data))
    print("witnesses to replay:", len(replay_witnesses(out)))
