"""Re-record the expected-answer files under bench/expected/.

    python3 bench/record.py search     # brute force, several minutes
    python3 bench/record.py campaign   # one `idemx campaign` run

``search`` builds the pool of 4-in/5-out retraction searches: random
embeddings of 4 subspace points in 9, six with no lsc retraction and six
with a continuous one.  Every answer is the oracle's brute force over all
15^5 candidates in (cardinality, lexicographic) order; idemx is not used.

``campaign`` stores the report of `idemx campaign --seed 42` with the fields
that differ between runs stripped.  Run it only on a commit whose campaign
is known to be right: later runs are checked against this file.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
import workloads  # noqa: E402

POOL_SEED = 20111105
PER_KIND = 6


def record_search() -> None:
    rng = random.Random(POOL_SEED)
    no_lsc, has_cont = [], []
    while len(no_lsc) < PER_KIND or len(has_cont) < PER_KIND:
        nbhd, subset = workloads.random_embedding(rng, 4, 5)
        lsc = oracle.first_retraction(nbhd, subset, "lsc")
        bucket = no_lsc if lsc is None else has_cont
        if len(bucket) >= PER_KIND:
            continue
        answers = {p: oracle.first_retraction(nbhd, subset, p) for p in workloads.PROPS}
        if lsc is not None and answers["continuous"] is None:
            continue
        bucket.append({"nbhd": list(nbhd), "subset": subset, "answers": answers})
        print(f"{len(no_lsc)} without lsc, {len(has_cont)} with continuous", flush=True)
    out = {"k_in": 4, "k_out": 5, "pool_seed": POOL_SEED, "entries": no_lsc + has_cont}
    (workloads.EXPECTED / "search_pool.json").write_text(json.dumps(out, indent=1) + "\n")


def record_campaign() -> None:
    sys.path.insert(0, str(workloads.ROOT / "src"))
    v = workloads.Verdicts()
    ran = workloads.run_campaign(42, v)
    if ran["rc"] != 0:
        sys.exit(f"campaign exited with {ran['rc']}; nothing recorded")
    path = workloads.EXPECTED / "campaign_report.json"
    path.write_text(json.dumps(workloads._strip(ran["report"]), indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    what = sys.argv[1:] or ["search", "campaign"]
    workloads.EXPECTED.mkdir(exist_ok=True)
    if "search" in what:
        record_search()
    if "campaign" in what:
        record_campaign()
