"""Set-up probe, run as a fresh process from the checkout root:

    python3 benchmark/probe.py <config path>

Imports schrodmix from ./src, loads the config and builds the initial data,
then prints time.monotonic() at that point.  The parent reads the clock just
before starting the process; both use CLOCK_MONOTONIC, so the difference is
the set-up time including interpreter start-up.
"""

import os
import sys
import time


def main(config_path: str) -> None:
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from schrodmix.config import build_initial, load_config

    cfg = load_config(config_path)
    build_initial(cfg, "a")
    if cfg.params["initial_b"]:
        build_initial(cfg, "b")
    print(repr(time.monotonic()))


if __name__ == "__main__":
    main(sys.argv[1])
