#!/usr/bin/env python3
"""Run every scenario from the default configuration into one output tree.

Each scenario lands in <out>/<scenario>/ with its own manifest.json.  Pass
--records to shrink the tomography run for a quick look.  Each scenario runs
through the `jpatomo` command line, so a bad override or a failed scenario
stops the script with the same exit code: 2 configuration error, 3
numerical failure, 4 I/O failure.
"""

import argparse
import sys

from jpatomo import cli
from jpatomo.config import SCENARIOS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out", help="root output directory")
    parser.add_argument("--seed", help="override run.seed")
    parser.add_argument("--records", help="override run.n_records")
    args = parser.parse_args(argv)

    overrides = []
    if args.seed is not None:
        overrides += ["--seed", args.seed]
    if args.records is not None:
        overrides += ["--records", args.records]
    for scenario in SCENARIOS:
        code = cli.main(
            ["--scenario", scenario, "--out", f"{args.out}/{scenario}", *overrides]
        )
        if code:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
