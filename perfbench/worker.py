"""Load-generating child: set up one workload in a fresh interpreter and run it.

Stages:
  setup  import unclab and generate the inputs, then stop
  cold   setup, then the first (cold) pass
  full   setup, the cold pass, then closed-loop passes until --seconds
         have elapsed; with --trace 1 every second pass runs with the
         span wrappers installed

The host-speed probe (probe.py) is timed before setup, after it, between
ops and while they run, so every time can be scaled to reference speed.

Writes one JSON record to --out.  run.py starts this script; it is not
meant to be run by hand.
"""

import argparse
import json
import resource
import statistics
import time

import probe


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) ticks of all CPUs from /proc/stat; (0, 0) elsewhere.

    Steal is time the hypervisor gave this machine's CPUs to someone
    else; on a shared host it is the main cause of slow runs.
    """
    try:
        with open("/proc/stat", encoding="utf-8") as fh:
            ticks = [int(x) for x in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return 0, 0
    return ticks[7], sum(ticks)


def speed(samples: int = 3) -> float:
    return statistics.median(probe.calibrate() for _ in range(samples))


def run_pass(execute, op_list) -> list[dict]:
    """Every op once; each record's ``calib`` is the mean probe time over
    the samples taken before, during and after it."""
    records = []
    before = probe.calibrate()
    for op in op_list:
        rec = execute(op)
        after = probe.calibrate()
        rec["calib"] = statistics.fmean([before, after, *rec.pop("probe_samples")])
        records.append(rec)
        before = after
    return records


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--stage", choices=("setup", "cold", "full"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    calib_before = speed()
    t0 = time.perf_counter()
    import numpy
    import unclab

    import workloads
    from ops import execute

    op_list = workloads.make(args.workload, args.seed, args.tmp)
    setup_s = time.perf_counter() - t0
    record = {
        "setup_s": setup_s,
        "setup_calib": (calib_before + speed()) / 2,
        "unclab_file": unclab.__file__,
        "numpy": numpy.__version__,
        "passes": [],
    }

    if args.stage != "setup":
        record["cold"] = run_pass(execute, op_list)

    if args.stage == "full":
        import spans

        tracer = spans.Tracer()
        ticks0 = cpu_ticks()
        start = time.perf_counter()
        while True:
            traced = bool(args.trace) and len(record["passes"]) % 2 == 1
            undo = spans.install(tracer) if traced else None
            try:
                ops = run_pass(execute, op_list)
            finally:
                if undo:
                    undo()
            record["passes"].append({"traced": traced, "ops": ops})
            done = time.perf_counter() - start >= args.seconds
            if done and (not args.trace or len(record["passes"]) >= 2):
                break
        record["ticks"] = [b - a for a, b in zip(ticks0, cpu_ticks())]
        n_traced = sum(p["traced"] for p in record["passes"])
        if n_traced:
            record["layers"] = spans.layer_metrics(tracer, n_traced)
        record["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    main()
