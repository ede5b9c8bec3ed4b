"""One set-up of a batch workload, run as its own process and timed from outside.

``python3 perfbench/setup_probe.py paper-trace <seed>`` imports the program
and builds the synthesizer (model, query universe, population);
``overlay-flood`` imports it and generates the overlay workload.  The
benchmark runs it several times and reports the median wall time, so
work moved into imports or construction shows in ``setup_s``.
"""

from __future__ import annotations

import sys


def main(workload: str, seed: int) -> None:
    if workload == "paper-trace":
        import repro.experiments.registry  # noqa: F401  (the experiments the pass runs)
        from paper_trace import paper_config
        from repro.synthesis import TraceSynthesizer

        TraceSynthesizer(paper_config(seed))
    elif workload == "overlay-flood":
        from overlay_flood import make_workload

        make_workload(seed)
    else:
        raise SystemExit(f"no set-up probe for workload {workload!r}")


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
