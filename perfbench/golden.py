"""Golden output digests of every workload, from the reference paths.

::

    python3 perfbench/golden.py            # print the digests
    python3 perfbench/golden.py --write    # refresh perfbench/golden.json

Figures are digested from a ``serial`` regeneration (so the pooled
``fig10-persistent`` pass must match the serial series), the service
workload from ``replay_reference`` — the offline replay of the trace.
Seed 0 is the default and seed 1 the holdout; the reduced sizes (used by
the self-test) are pinned at seed 0.
"""

from __future__ import annotations

import argparse
import json
import sys

import workload as wl

SEEDS = {"full": (0, 1), "reduced": (0,)}


def reference_digest(size: str, name: str, seed: int) -> str:
    w = wl.WORKLOADS[size][name]
    if isinstance(w, wl.FigureWorkload):
        result = wl.figures.run_figure(
            w.figure, wl.figure_scale(w), seed=seed, engine="serial"
        )
        return wl.figure_digest(result)
    trace, config = wl.service_inputs(w, seed)
    return wl.sha256(wl.canonical_bytes(wl.replay_reference(trace, config)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args(argv)
    digests = {
        size: {
            name: {str(seed): reference_digest(size, name, seed) for seed in seeds}
            for name in wl.WORKLOADS[size]
        }
        for size, seeds in SEEDS.items()
    }
    text = json.dumps({"digests": digests}, indent=2, sort_keys=True) + "\n"
    if args.write:
        wl.GOLDEN.write_text(text)
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
