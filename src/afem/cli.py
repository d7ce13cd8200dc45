"""Command line interface.

    afem run --problem lshape --mode uniform --max-ndof 65000
    afem run --config sweep.cfg

A config file holds ``key = value`` lines mirroring the flags (dashes or
underscores); explicit flags override file values. Exit codes: 0 success,
1 usage or configuration error, 2 solver singularity (partial CSV written).
"""

import argparse
import sys

from .bench import ExperimentConfig, run_experiment
from .errors import AfemError, ConfigError


def _switch(text):
    """1/true/yes/on or 0/false/no/off, in any case; ValueError otherwise."""
    words = ("0", "false", "no", "off", "1", "true", "yes", "on")
    return words.index(text.lower()) >= 4


_CONFIG_KEYS = {
    "problem": str,
    "mode": str,
    "theta": float,
    "max_ndof": int,
    "gamma": float,
    "out": str,
    "mesh": str,
    "dump_systems": _switch,
}


def _parse_config_file(path):
    values = {}
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key = value")
                key, _, val = line.partition("=")
                key = key.strip().replace("-", "_")
                if key not in _CONFIG_KEYS:
                    raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
                try:
                    values[key] = _CONFIG_KEYS[key](val.strip())
                except ValueError:
                    raise ConfigError(
                        f"{path}:{lineno}: bad value for {key}: {val.strip()!r}"
                    ) from None
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    return values


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _build_parser():
    parser = _Parser(
        prog="afem",
        description="Adaptive nonconforming/mixed FEM benchmark driver",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run a convergence experiment")
    run.add_argument("--config", help="key = value file mirroring the flags")
    run.add_argument("--problem", default=None, help="any registered problem")
    run.add_argument("--mode", default=None, help="uniform or adaptive")
    run.add_argument("--theta", type=float, default=None,
                     help="bulk marking fraction (default 0.5)")
    run.add_argument("--max-ndof", type=int, default=None,
                     help="stop once the mixed dof count exceeds this")
    run.add_argument("--gamma", type=float, default=None,
                     help="single reaction magnitude for eigen_sweep")
    run.add_argument("--out", default=None, help="output directory")
    run.add_argument("--mesh", default=None,
                     help="start from this mesh file instead of the built-in one")
    run.add_argument("--dump-systems", action="store_true", default=None,
                     help="write assembled systems as triplet text per level")
    return parser


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
        values = _parse_config_file(args.config) if args.config else {}
        for key in _CONFIG_KEYS:
            flag = getattr(args, key)
            if flag is not None:
                values[key] = flag
        if "problem" not in values:
            raise ConfigError("missing required option --problem")
        if "mesh" in values:
            values["mesh_path"] = values.pop("mesh")
        result = run_experiment(ExperimentConfig(**values))
    except ConfigError as exc:
        print(f"afem: configuration error: {exc}", file=sys.stderr)
        return 1
    except AfemError as exc:
        print(f"afem: error: {exc}", file=sys.stderr)
        return 1
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
