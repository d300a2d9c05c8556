"""Fresh-interpreter runs: set-up probes, and the untraced pass of a traced run.

    echo '{"ops": [<op spec>, ...], "baseline": false}' | python3 -m perfbench.probe

Run from the checkout root.  A set-up probe runs the first op and prints one
JSON line holding the CLOCK_MONOTONIC time at which it returned, the time
spent sampling the reference kernel before then, the median kernel time, the
process's peak resident set size in KiB and the op's output texts.  With
``"baseline": true`` it warms up, runs every op the way a timed pass does
and prints that pass's times and outputs; a traced run compares against it,
so the two passes share no process state.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def main() -> int:
    request = json.load(sys.stdin)
    from perfbench import speed, use_checkout_source

    if request.get("baseline"):
        use_checkout_source()
        from perfbench.run import timed_pass, warm_up
        from perfbench.workloads import Op

        ops = [Op.from_spec(spec) for spec in request["ops"]]
        warm_up()
        timed = timed_pass(ops)
        timed["outputs"] = [
            {"raised": f"{type(t).__name__}: {t}"} if isinstance(t, Exception) else t
            for t in timed["outputs"]
        ]
        print(json.dumps(timed))
        return 0

    with speed.SpeedSampler() as sampler:
        use_checkout_source()
        from perfbench.workloads import Op, run_op

        texts = run_op(Op.from_spec(request["ops"][0]))
        done = time.clock_gettime(time.CLOCK_MONOTONIC)
    result = {
        "done": done,
        "sampling_s": sum(sampler.spent) - sampler.spent[-1],  # the last sample ran after done
        "kernel_s": sampler.median_kernel(),
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "texts": texts,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
