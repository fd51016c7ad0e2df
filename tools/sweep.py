"""Seed sweep of one run config: how often each check fails, and where.

Usage, from the root of a checkout:

    python3 tools/sweep.py --config configs/conditional_dm_concentration.yaml \
        --seeds 0:200 --set n_trials=300 --parallelism 2

The config is loaded as ``gaplab run`` loads it, with each ``--set
key=value`` (value parsed as YAML) replacing one experiment field.  Its
shells are checked once, then the experiment runs at every seed of the
half-open range START:STOP, one seed per task of
``gaplab.parallel.run_tasks``, each run serial.  For every check the
script prints the number of seeds at which it failed, the range of its
statistic and the failing seeds, then the seeds at which any check
failed.  It writes no report.  Exit code: 0 if every check passed at
every seed, 1 otherwise, 2 for a bad config or argument.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
import time
from pathlib import Path

import yaml

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gaplab.experiments import EXPERIMENTS, ConfigError  # noqa: E402
from gaplab.parallel import run_tasks  # noqa: E402
from gaplab.runner import (  # noqa: E402
    check_shells,
    experiment_config_from_dict,
    load_run_config,
)


def seed_range(text: str) -> range:
    start, sep, stop = text.partition(":")
    if not sep:
        raise argparse.ArgumentTypeError(f"expected START:STOP, got {text!r}")
    seeds = range(int(start), int(stop))
    if not seeds or seeds.start < 0:
        raise argparse.ArgumentTypeError(f"empty or negative seed range {text!r}")
    return seeds


def with_overrides(run_config, pairs: list[str]):
    overrides = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep:
            raise ConfigError(f"--set expects key=value, got {pair!r}")
        overrides[key] = yaml.safe_load(value)
    fields = dataclasses.asdict(run_config.experiment_config)
    config = experiment_config_from_dict(
        run_config.experiment, {**fields, **overrides}
    )
    return dataclasses.replace(run_config, experiment_config=config)


def checks(run_config, seed: int) -> dict:
    runner = EXPERIMENTS[run_config.experiment].runner
    report = runner(run_config.experiment_config, seed, 1)
    return {c.name: c for c in report.checks}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--config", required=True, help="YAML run configuration")
    parser.add_argument("--seeds", type=seed_range, required=True, help="START:STOP")
    parser.add_argument(
        "--set", action="append", default=[], metavar="KEY=VALUE",
        help="replace one experiment config field; repeatable",
    )
    parser.add_argument(
        "--parallelism", type=int, default=1, help="seeds run at once (threads)"
    )
    args = parser.parse_args(argv)
    try:
        run_config = with_overrides(load_run_config(args.config), args.set)
        check_shells(run_config)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2
    seeds = list(args.seeds)
    t0 = time.perf_counter()
    results = run_tasks(
        [functools.partial(checks, run_config, seed) for seed in seeds],
        args.parallelism,
    )
    names = list(results[0])
    print(
        f"{run_config.experiment}: {len(seeds)} seeds "
        f"{seeds[0]}..{seeds[-1]}, {len(names)} checks, "
        f"{time.perf_counter() - t0:.1f} s"
    )
    width = max(len(name) for name in names)
    for name in names:
        failed = [s for s, r in zip(seeds, results) if not r[name].passed]
        stats = [r[name].statistic for r in results]
        line = (
            f"  {name:<{width}}  {len(failed):>4} / {len(seeds)}"
            f"  statistic {min(stats):.4g}..{max(stats):.4g}"
        )
        print(line + (f"  seeds {failed}" if failed else ""))
    any_failed = [
        s for s, r in zip(seeds, results) if not all(c.passed for c in r.values())
    ]
    print(f"seeds with a failing check: {len(any_failed)} {any_failed}")
    return 1 if any_failed else 0


if __name__ == "__main__":
    sys.exit(main())
