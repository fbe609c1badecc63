"""Set-up time of a workload, measured in a fresh interpreter.

    python3 bench/setup_probe.py SRC_DIR CONFIG...

Imports driftfit from SRC_DIR, parses each config and builds its model and
EngineConfig, then prints the seconds that took.  Interpreter start-up is
not included: it is the same for every version of the program.
"""
import sys
import time


def main(argv):
    src, paths = argv[0], argv[1:]
    sys.path.insert(0, src)
    start = time.perf_counter()
    from driftfit import config, experiments
    for path in paths:
        cfg = config.parse_config(path)
        model, noise = experiments.build_model(cfg)
        experiments.build_engine_config(cfg, model, noise)
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main(sys.argv[1:])
