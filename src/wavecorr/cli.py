"""Command-line front end for scenario runs.

Exit codes: 0 success, 2 a config file that is not JSON (malformed, not
UTF-8, or nested too deeply), 3 invalid configuration (the message names
the offending field) or a config or output path that cannot be read or
written, 4 a numerical or runtime failure during execution.

stdout holds the scenario and ledger lines and one `wrote` line per
file. Every warning a run raises, whichever the exit code, goes to
stderr as `warning: <Code>: <message>`; the code of a wavecorr notice
is its WaveCorrWarning subclass.
"""

import argparse
import functools
import json
import os
import sys
import warnings

from .errors import (ConfigParseError, ScenarioValidationError,
                     WaveCorrError, WaveCorrWarning)
from .scenario import _BUILTINS, builtin_scenarios, run_scenario


def _find_builtin(name):
    """The named builtin's config, built alone."""
    if name not in _BUILTINS:
        raise ScenarioValidationError("name",
                                      f"unknown builtin scenario {name!r}")
    return _BUILTINS[name]()


def _cmd_run(args):
    run_scenario(args.config, out_dir=args.out)
    return 0


def _cmd_run_builtin(args):
    run_scenario(_find_builtin(args.name), out_dir=args.out)
    return 0


def _cmd_list_builtins(args):
    for config in builtin_scenarios():
        print(f"{config.name}\t{config.mode}")
    return 0


def _cmd_show_builtin(args):
    print(json.dumps(_find_builtin(args.name).to_dict(), indent=2))
    return 0


@functools.cache
def build_parser():
    """The command line's parser, built once per process: parsing leaves
    it as it was, and building it costs about a millisecond."""
    parser = argparse.ArgumentParser(
        prog="wavecorr",
        description="Interferometric correlation scenarios for spatially "
                    "incoherent light.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run a scenario from a JSON config file")
    p.add_argument("config", help="path to the scenario JSON")
    p.add_argument("--out", default=None,
                   help="directory for relative output paths (default: cwd)")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("run-builtin", help="run a builtin scenario by name")
    p.add_argument("name")
    p.add_argument("--out", default=None,
                   help="directory for relative output paths (default: cwd)")
    p.set_defaults(func=_cmd_run_builtin)

    p = sub.add_parser("list-builtins", help="list builtin scenario names")
    p.set_defaults(func=_cmd_list_builtins)

    p = sub.add_parser("show-builtin",
                       help="print a builtin scenario config as JSON")
    p.add_argument("name")
    p.set_defaults(func=_cmd_show_builtin)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings(record=True) as notices:
        warnings.simplefilter("always", WaveCorrWarning)
        try:
            if getattr(args, "out", None):
                os.makedirs(args.out, exist_ok=True)
            return args.func(args)
        except ConfigParseError as exc:
            print(f"parse error: {exc}", file=sys.stderr)
            return 2
        except (ScenarioValidationError, OSError) as exc:
            print(f"invalid config: {exc}", file=sys.stderr)
            return 3
        except WaveCorrError as exc:
            print(f"run failed: {exc}", file=sys.stderr)
            return 4
        finally:
            for notice in notices:
                print(f"warning: {notice.category.__name__}: "
                      f"{notice.message}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
