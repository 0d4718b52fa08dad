"""One pass of one workload, in a fresh single-threaded process.

    python3 bench/worker.py --workload verdicts --seed 1 --trace 0

run.py starts it once per pass.  A fresh process per pass keeps every pass
as cold as a user's own `idemx` process: the library's caches (lru_cache,
cached properties) would otherwise carry work from one pass into the next.
The last line of standard output is one JSON object.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=("campaign", "verdicts", "retractions"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after set-up and report only its time")
    args = parser.parse_args()

    # set-up: import, then input generation (campaign cases are generated
    # inside the command, as users pay for them on every run)
    if args.workload == "campaign":
        import idemx.cli  # noqa: F401
    elif args.workload == "verdicts":
        items = workloads.gen_verdicts(args.seed)
        built = workloads.build_verdicts(items)
    else:
        inputs = workloads.gen_retractions(args.seed)
        built = workloads.build_retractions(inputs)
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    v = workloads.Verdicts()
    if args.workload == "campaign":
        ran = workloads.run_campaign(args.seed, v)
        wall_s = ran["wall"]
        result = workloads.check_campaign(args.seed, ran, v)
    else:
        t0 = time.perf_counter()
        if args.workload == "verdicts":
            calls = workloads.run_verdicts(items, built, v)
        else:
            workloads.run_retractions(built, v)
        wall_s = time.perf_counter() - t0
        if args.workload == "verdicts":
            result = workloads.check_verdicts(items, calls, v)
        else:
            result = workloads.check_retractions(inputs, v)

    import numpy

    result.update(
        setup_s=setup_s,
        wall_s=wall_s,
        ms=v.ms,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        python=platform.python_version(),
        numpy=numpy.__version__,
        idemx_threads=os.environ.get("IDEMX_THREADS"),
    )
    if tracer is not None:
        result["layers"] = tracer.metrics()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
