"""Command line interface.

    afem run --problem lshape --mode uniform --max-ndof 65000
    afem run --config sweep.cfg

A config file holds ``key = value`` lines. Each option is named once, in
``_OPTIONS``: its key is the file key (dashes or underscores), the flag
``--<key with dashes>`` and the :class:`ExperimentConfig` field. Flags
override file values. Exit codes: 0 success, 1 usage, configuration or
output-path error, 2 solver singularity (partial CSV written).
"""

import argparse
import sys

from .bench import ExperimentConfig, run_experiment
from .errors import AfemError, ConfigError


def _switch(text):
    """1/true/yes/on or 0/false/no/off, in any case; ValueError otherwise."""
    words = ("0", "false", "no", "off", "1", "true", "yes", "on")
    return words.index(text.lower()) >= 4


# key -> (parser of its value, help text); _switch keys are bare flags
_OPTIONS = {
    "problem": (str, "any registered problem"),
    "mode": (str, "uniform or adaptive"),
    "theta": (float, "bulk marking fraction (default 0.5)"),
    "max_ndof": (int, "stop once the mixed dof count exceeds this"),
    "gamma": (float, "single reaction magnitude for eigen_sweep"),
    "out": (str, "output directory"),
    "mesh": (str, "start from this mesh file instead of the built-in one"),
    "dump_systems": (_switch, "write assembled systems as triplet text per level"),
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
                if key not in _OPTIONS:
                    raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
                try:
                    values[key] = _OPTIONS[key][0](val.strip())
                except ValueError:
                    raise ConfigError(
                        f"{path}:{lineno}: bad value for {key}: {val.strip()!r}"
                    ) from None
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    return values


def _join_numeric_values(argv):
    """``--key value`` as ``--key=value`` where the key takes a number:
    argparse reads a value such as -1e5 or -inf, which its negative-number
    pattern does not match, as an option."""
    out = []
    for arg in argv:
        flag = out[-1] if out and out[-1].startswith("--") else ""
        if _OPTIONS.get(flag[2:].replace("-", "_"), (None,))[0] in (int, float):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


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
    for key, (parse, text) in _OPTIONS.items():
        kind = {"action": "store_true"} if parse is _switch else {"type": parse}
        run.add_argument("--" + key.replace("_", "-"), default=None, help=text, **kind)
    return parser


def main(argv=None):
    try:
        argv = sys.argv[1:] if argv is None else argv
        args = _build_parser().parse_args(_join_numeric_values(argv))
        values = _parse_config_file(args.config) if args.config else {}
        flags = {key: getattr(args, key) for key in _OPTIONS}
        values.update((key, v) for key, v in flags.items() if v is not None)
        if "problem" not in values:
            raise ConfigError("missing required option --problem")
        result = run_experiment(ExperimentConfig(**values))
    except AfemError as exc:
        kind = "configuration error" if isinstance(exc, ConfigError) else "error"
        print(f"afem: {kind}: {exc}", file=sys.stderr)
        return 1
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
