"""Command-line entry point.

Subcommands:
    ingest-check   parse inputs and print corpus counts as JSON
    features       extract the weekly feature and diagnostics tables (+ edge tables,
                   manifest)
    analyze        run the analysis battery over an existing feature table
    run            features then analyze; --dry-run validates config only
    selftest       run built-in fixture checks

``features``, ``analyze`` and ``run`` hold the output directory for the
whole command (``pipeline.holding``): a second command into a held
directory ends in an OutputError.

Flags override the corresponding config-file fields. A ForumcastError ends
the command with its class's ``exit_code`` (see ``forumcast.errors`` and
README "Command line"); 0 is success.

The config is loaded and checked before the pipeline is imported, so
``--help``, ``--version``, ``run --dry-run``, ``ingest-check`` and a config
error never load NumPy or SciPy; ``--help``, ``--version``, a dry run and a
config error load no ``forumcast`` module but this one, ``config`` and
``errors``.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import os
import sys

from . import __version__
from .config import PipelineConfig, load_config, validate, validate_paths
from .errors import ForumcastError

_OVERRIDE_FLAGS = (
    ("output_dir", "--output-dir", str, "directory for all outputs"),
    ("workers", "--workers", int, "parallel window workers"),
    ("seed", "--seed", int, "seed for all sampled computations"),
    ("betweenness_mode", "--betweenness-mode", str, "exact or sampled"),
    ("betweenness_samples", "--samples", int, "source samples in sampled mode"),
    ("window_size", "--window-size", int, "co-occurrence distance limit"),
    ("focal_word", "--focal-word", str, "brand word tracked in the word network"),
    ("horizon_weeks", "--horizon-weeks", int, "number of weekly windows"),
)


def _add_config_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-c", "--config", required=True, help="pipeline config YAML")
    for _field, flag, typ, help_text in _OVERRIDE_FLAGS:
        parser.add_argument(flag, type=typ, default=None, help=help_text)
    parser.add_argument(
        "--no-export-graphs",
        action="store_true",
        help="skip the graphs/ edge tables (diagnostics.csv is still written)",
    )


def _load_with_overrides(args: argparse.Namespace) -> PipelineConfig:
    config = load_config(args.config)
    for field_name, flag, _typ, _help in _OVERRIDE_FLAGS:
        value = getattr(args, flag.lstrip("-").replace("-", "_"))
        if value is not None:
            setattr(config, field_name, value)
    if args.no_export_graphs:
        config.export_graphs = False
    validate(config)
    return config


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="forumcast",
        description="Forum-to-market analytics: networks, weekly features, "
        "and the lagged correlation/Granger/regression battery.",
    )
    parser.add_argument("--version", action="version", version=f"forumcast {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest-check", help="parse inputs, print counts, touch nothing")
    _add_config_arguments(p)

    p = sub.add_parser("features", help="extract the weekly feature and diagnostics tables")
    _add_config_arguments(p)

    p = sub.add_parser("analyze", help="run the battery over a feature table")
    _add_config_arguments(p)
    p.add_argument("--features", default=None, help="feature CSV (default: <output_dir>/features.csv)")

    p = sub.add_parser("run", help="features then analyze")
    _add_config_arguments(p)
    p.add_argument("--dry-run", action="store_true", help="validate config and inputs, then stop")

    sub.add_parser("selftest", help="run built-in fixture checks")

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code.

    The command runs with the cyclic collector off, and the caller's setting
    is restored after it: a run leaves a few hundred objects in reference
    cycles however many weeks it reads, so collecting during the run only
    walks live objects. ``gc.freeze`` is registered to run at exit, once per
    process, so that the interpreter's shutdown does not walk the whole heap
    only for the OS to discard it. Forked window workers inherit the
    collector off and end through ``os._exit``.
    """
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _run_command(argv)
    finally:
        if enabled:
            if not gc.get_freeze_count():
                # Nothing is promoted while the collector is off, so the
                # first collection after it is back on would walk every
                # object the run made. A freeze and a thaw move them all to
                # the oldest generation without a walk; the thaw would also
                # release what a caller froze, hence the freeze count test.
                gc.freeze()
                gc.unfreeze()
            gc.enable()


def _run_command(argv: list[str] | None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "selftest":
            from .selftest import run_selftest

            checks = run_selftest()
            failed = 0
            for name, passed, detail in checks:
                if passed:
                    print(f"PASS {name}")
                else:
                    failed += 1
                    print(f"FAIL {name}: {detail}")
            print(f"{len(checks) - failed}/{len(checks)} checks passed")
            return 0 if failed == 0 else 3

        config = _load_with_overrides(args)
        if args.command == "run" and args.dry_run:
            validate_paths(config)
            print("config and inputs valid; dry run, nothing written")
            return 0

        if args.command == "ingest-check":
            import json

            from .corpus import ingest_check

            print(json.dumps(ingest_check(config), indent=2, sort_keys=True))
            return 0

        from .pipeline import holding, run_all, run_analyze, run_features, write_manifest

        with holding(config):
            if args.command == "features":
                rows = run_features(config)
                write_manifest(config, os.path.join(config.output_dir, "features.csv"))
                print(f"wrote {len(rows)} weekly feature rows to {config.output_dir}")
            elif args.command == "analyze":
                run_analyze(config, features_path=args.features)
                print(f"analysis reports written to {config.output_dir}")
            elif args.command == "run":
                run_all(config)
                print(f"pipeline complete; outputs in {config.output_dir}")
        return 0
    except ForumcastError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
