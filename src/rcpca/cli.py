"""Command-line front end.

`rcpca run` loads block files, runs the analysis and writes per-rank result
tables plus a manifest; `rcpca explain` prints the method catalog and the
mode-selection guide. Exit codes: 0 success, 1 configuration error, 2 data
error, 3 non-convergence under --strict, 4 violated internal guarantee.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Any, Callable, Iterable, NamedTuple, Sequence

import numpy as np

from . import __version__
from .dataset import BlockSet, build_blockset, load_block
from .deflation import DeflationStrategy, MultiSolution, extract
from .errors import ConfigError, DataError, InternalAssertionError, RcpcaError
from .metrics import ModeSelector
from .methods import (
    MODE_LABEL,
    RELATED_FIXED_POINT_METHODS,
    MethodPreset,
    guide,
    preset,
    preset_names,
)
from .solver import SolverConfig

_DELIMITERS = {"comma": ",", "tab": "\t"}
_NUMBER = "%.12g"  # every number the CLI writes: the result tables and the manifest


def _fmt(x: float) -> str:
    return _NUMBER % x


def _parse_config_file(path: str) -> dict[str, str]:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found or not a file: {path}")
    try:
        text = p.read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise ConfigError(f"config file {path} is not UTF-8 text; save it as UTF-8") from None
    values: dict[str, str] = {}
    for i, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{i}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        values[key] = value
    return values


def _bool(value: str) -> bool:
    if value.lower() in ("true", "yes", "1", "on"):
        return True
    if value.lower() in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"expected a boolean, got {value!r}")


def _csv_list(value: str) -> list[str]:
    return [v.strip() for v in value.split(",") if v.strip()]


def _floats(value: str) -> list[float]:
    try:
        return [float(v) for v in _csv_list(value)]
    except ValueError:
        # argparse prints this text as is; a ValueError would name the function
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {value!r}"
        ) from None


class _Option(NamedTuple):
    parse: Callable[[str], Any]  # _bool makes the flag a store_const switch
    choices: tuple[str, ...] | None
    help: str


def _key(parse, help: str, choices=None, **default) -> Any:
    """A RunConfig field that is also a config key and, as "--" + key with "-" for "_", a flag."""
    return field(**default, metadata={"option": _Option(parse, choices, help)})


@dataclass
class RunConfig:
    """Everything one run depends on; flags override config-file values.

    Each field is a config key and its flag's destination, with its parser, choices and help.
    """

    blocks: list[str] = _key(_csv_list, "comma-separated block files", default_factory=list)
    ids: list[str] | None = _key(_csv_list, "comma-separated block names", default=None)
    preset: str | None = _key(str, "method preset name (see: rcpca explain)", default=None)
    split: int | None = _key(int, "block count for mixed presets", default=None)
    m: float | None = _key(float, "criterion exponent (>= 1)", default=None)
    tau: list[float] | None = _key(_floats, "per-block shrinkage in [0,1]; one value broadcasts",
                                   default=None)
    tau_super: float | None = _key(float, "superblock shrinkage in [0,1]", default=None)
    scale: str = _key(str, "unit-variance scaling of the columns (default none)", ("none", "unit"),
                      default="none")
    delimiter: str = _key(str, "cell delimiter", tuple(_DELIMITERS), default="comma")
    id_column: bool = _key(_bool, "first column holds row identifiers", default=False)
    epsilon: float = _key(float, "convergence threshold on the step between unit iterates, "
                          f"independent of the data's units (default {SolverConfig.epsilon:g})",
                          default=SolverConfig.epsilon)
    max_iter: int = _key(int, "iteration cap", default=SolverConfig.max_iter)
    init: str = _key(str, "start vector", ("eigen", "random", "file"), default=SolverConfig.init)
    init_file: str | None = _key(str, "file with the start's superblock weights, one per column",
                                 default=None)
    seed: int = _key(int, "seed for random starts", default=SolverConfig.seed)
    starts: int = _key(int, "number of multi-starts", default=SolverConfig.n_starts)
    deflate: str = _key(str, "deflation strategy for higher ranks",
                        ("global", "block", "loading", "own"), default="global")
    components: int = _key(int, "number of components to extract", default=1)
    out: str = _key(str, "output directory", default="rcpca_out")
    strict: bool = _key(_bool, "exit 3 when any rank fails to converge", default=False)


_OPTIONS = {f.name: f.metadata["option"] for f in fields(RunConfig)}  # config key -> option
# library field -> config key, where the two differ
_KEYS = {"n_starts": "starts", "block_taus": "tau", "superblock_tau": "tau_super"}


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _flagged(exc: Exception) -> ConfigError:
    """A library fault "<field> must ..., got ..." with the field's flag in its place."""
    name, _, rest = str(exc).partition(" ")
    named = re.fullmatch(r"must .*, got .*", rest, re.S)
    return ConfigError(f"{_flag(_KEYS.get(name, name))} {rest}" if named else str(exc))


def _build_run_config(args: argparse.Namespace) -> RunConfig:
    """The config file's values, each parsed and checked against its choices, then the flags'."""
    cfg = RunConfig()
    for key, text in (_parse_config_file(args.config) if args.config else {}).items():
        if key not in _OPTIONS:
            raise ConfigError(f"unknown config key {key!r}")
        option = _OPTIONS[key]
        try:
            value = option.parse(text)
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise ConfigError(f"config key {key!r}: {exc}") from None
        if option.choices is not None and value not in option.choices:
            allowed = ", ".join(option.choices[:-1]) + " or " + option.choices[-1]
            raise ConfigError(f"{_flag(key)} must be {allowed}, got {value!r}")
        setattr(cfg, key, value)
    for key in _OPTIONS:
        value = getattr(args, key)
        if value is not None:
            setattr(cfg, key, value)
    return cfg


def _validate(cfg: RunConfig) -> tuple[ModeSelector, SolverConfig]:
    """Check the configuration before any block is read; return the modes and the solver's knobs."""
    if not cfg.blocks:
        raise ConfigError("no block files given (--blocks f1.csv,f2.csv)")
    if cfg.ids is not None and len(cfg.ids) != len(cfg.blocks):
        raise ConfigError(f"{len(cfg.ids)} ids for {len(cfg.blocks)} block files")
    ids = cfg.ids or [Path(p).stem for p in cfg.blocks]
    if len(set(ids)) != len(ids):
        raise ConfigError(f"block ids must be unique, got {ids}")
    if any(Path(bid).name != bid for bid in ids):  # output file names end in the id
        raise ConfigError(f"block ids must be names without a path separator, got {ids}")
    if any(p.exists() and not p.is_dir() for p in (Path(cfg.out), *Path(cfg.out).parents)):
        raise ConfigError(f"--out {cfg.out} is a file or lies under one; name a directory")
    if cfg.preset is not None:
        base = preset(cfg.preset)
        if cfg.tau is not None or cfg.tau_super is not None:
            raise ConfigError("--preset and explicit --tau/--tau-super are mutually exclusive")
        if cfg.m is None and base.m is None:
            raise ConfigError(f"--preset {cfg.preset} leaves m free; pass --m")
        if cfg.split is None and base.tau_blocks is None:
            raise ConfigError(f"--preset {cfg.preset} needs --split")
    else:
        if cfg.m is None:
            raise ConfigError("pass either --preset or an explicit --m with --tau/--tau-super")
        if cfg.tau is None or cfg.tau_super is None:
            raise ConfigError("explicit runs need --m, --tau and --tau-super")
        if cfg.split is not None:
            raise ConfigError("--split applies to mixed presets only; explicit runs set --tau")
    if cfg.init == "file" and not cfg.init_file:
        raise ConfigError("--init file needs --init-file PATH")
    if cfg.init != "file" and cfg.init_file:
        raise ConfigError(f"--init-file is read only with --init file, got --init {cfg.init}; "
                          "add --init file")
    if cfg.components < 1:
        raise ConfigError("--components must be at least 1")
    try:
        solver_cfg = SolverConfig(m=float(cfg.m if cfg.m is not None else base.m),
                                  epsilon=cfg.epsilon, max_iter=cfg.max_iter, seed=cfg.seed,
                                  n_starts=cfg.starts)
        # CatalogError for an m or a split that the preset fixes, or a split out of range
        entry = None if cfg.preset is None else preset(cfg.preset, m=cfg.m, split=cfg.split)
        modes = _modes(cfg, entry, len(cfg.blocks))  # each file is one block
    except (ValueError, ConfigError) as exc:
        raise _flagged(exc) from None
    for path in cfg.blocks:
        if not Path(path).is_file():
            raise DataError(f"block file not found or not a file: {path}")
    if cfg.init != "file":
        return modes, replace(solver_cfg, init=cfg.init)
    path = Path(cfg.init_file)  # a bad start-vector file is a data error, exit 2
    if not path.is_file():
        raise DataError(f"start-vector file not found or not a file: {cfg.init_file}")
    try:
        values = [float(s) for s in path.read_text(encoding="utf-8").split()]
    except UnicodeDecodeError:  # a ValueError too
        raise DataError(f"start-vector file {cfg.init_file} is not UTF-8 text; "
                        "save it as UTF-8") from None
    except ValueError:
        raise DataError(f"start-vector file {cfg.init_file} must hold numbers") from None
    if not all(map(math.isfinite, values)):
        raise DataError(f"start-vector file {cfg.init_file} must hold finite numbers")
    return modes, replace(solver_cfg, init=np.array(values, dtype=float))


def _load_blocks(cfg: RunConfig) -> BlockSet:
    ids = cfg.ids or [Path(p).stem for p in cfg.blocks]
    delimiter, scale = _DELIMITERS[cfg.delimiter], cfg.scale == "unit"
    blocks = [
        load_block(path, id=bid, delimiter=delimiter, scale=scale, id_column=cfg.id_column)
        for path, bid in zip(cfg.blocks, ids)
    ]
    return build_blockset(blocks)


def _modes(cfg: RunConfig, entry: MethodPreset | None, n_blocks: int) -> ModeSelector:
    if entry is not None:
        return entry.selector(n_blocks)
    taus = cfg.tau
    if len(taus) == 1:
        taus = taus * n_blocks
    if len(taus) != n_blocks:
        raise ConfigError(f"{len(taus)} tau values for {n_blocks} blocks")
    return ModeSelector.from_taus(taus, cfg.tau_super)


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write one result table; str cells pass through, numbers take _NUMBER.

    Each row is formatted by one % string built from the types of its cells,
    and rows whose cells have the same types share it.
    """
    formats: dict[tuple[type, ...], str] = {}
    lines = [",".join(header)]
    for row in rows:
        kinds = tuple(map(type, row))
        fmt = formats.get(kinds)
        if fmt is None:
            fmt = formats[kinds] = ",".join(
                "%s" if issubclass(k, str) else _NUMBER for k in kinds
            )
        lines.append(fmt % tuple(row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_outputs(
    out_dir: Path,
    cfg: RunConfig,
    blockset: BlockSet,
    modes: ModeSelector,
    m: float,
    result: MultiSolution,
) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    row_ids = blockset.row_ids or tuple(str(i + 1) for i in range(blockset.n))

    for r, sol in enumerate(result.solutions, start=1):
        ys, y_norm, trace = sol.y_super, np.linalg.norm(sol.y_super), sol.trace
        for block, w in zip(blockset.blocks, sol.w_blocks):
            _write_csv(out_dir / f"rank{r}_weights_{block.id}.csv", ("variable", "weight"),
                       zip(block.columns, w))
        _write_csv(out_dir / f"rank{r}_weights_superblock.csv", ("variable", "weight"),
                   zip(blockset.superblock_columns, sol.w_super))
        _write_csv(out_dir / f"rank{r}_components.csv", ("row_id", *blockset.ids, "superblock"),
                   zip(row_ids, *sol.y_blocks, ys))
        _write_csv(out_dir / f"rank{r}_blocks.csv", ("block", "cov", "cor", "contribution"), [
            (block.id, cov, float(yb @ ys) / (np.linalg.norm(yb) * y_norm), contribution)
            for block, yb, cov, contribution
            in zip(blockset.blocks, sol.y_blocks, sol.covs, sol.contributions)
        ])
        correlations = []
        for name, col in zip(blockset.superblock_columns, blockset.superblock.T):
            cn = np.linalg.norm(col)
            correlations.append((name, float(col @ ys) / (cn * y_norm) if cn > 0 else 0.0))
        _write_csv(out_dir / f"rank{r}_variable_correlations.csv", ("variable", "correlation"),
                   correlations)
        _write_csv(out_dir / f"rank{r}_trace.csv", ("iteration", "psi", "step_norm"), [
            ("0", trace.psi[0], ""),
            *((str(s + 1), trace.psi[s + 1], trace.step_norm[s])
              for s in range(trace.iterations)),
        ])

    manifest = [
        f"preset = {cfg.preset or '(explicit)'}",
        f"m = {_fmt(m)}",
        f"tau_blocks = {','.join(_fmt(t) for t in modes.block_taus)}",
        f"tau_superblock = {_fmt(modes.superblock_tau)}",
        f"scale = {cfg.scale}",
        f"delimiter = {cfg.delimiter}",
        f"epsilon = {_fmt(cfg.epsilon)}",
        f"max_iter = {cfg.max_iter}",
        f"init = {cfg.init}",
        *([f"init_file = {cfg.init_file}"] if cfg.init == "file" else []),
        f"seed = {cfg.seed}",
        f"starts = {cfg.starts}",
        f"deflate = {cfg.deflate}",
        f"components_requested = {cfg.components}",
        f"blocks = {','.join(cfg.blocks)}",
        f"ids = {','.join(blockset.ids)}",
        f"n = {blockset.n}",
        f"achieved_rank = {result.achieved_rank}",
        f"converged = {str(all(s.trace.converged for s in result.solutions)).lower()}",
    ]
    all_warnings = list(result.warnings)
    for r, sol in enumerate(result.solutions, start=1):
        manifest += [
            f"rank{r}_psi_final = {_fmt(sol.trace.psi[-1])}",
            f"rank{r}_fixed_point_residual = {_fmt(sol.trace.fixed_point_residual)}",
            f"rank{r}_iterations = {sol.trace.iterations}",
            f"rank{r}_converged = {str(sol.trace.converged).lower()}",
        ]
        all_warnings += [f"rank{r}: {w}" for w in sol.trace.warnings]
    manifest.append(f"warnings = {'; '.join(all_warnings) if all_warnings else '(none)'}")
    (out_dir / "manifest.txt").write_text("\n".join(manifest) + "\n", encoding="utf-8")


def run(cfg: RunConfig) -> int:
    modes, solver_cfg = _validate(cfg)
    blockset = _load_blocks(cfg)
    result = extract(
        blockset, modes, solver_cfg, cfg.components, DeflationStrategy(cfg.deflate)
    )
    _write_outputs(Path(cfg.out), cfg, blockset, modes, solver_cfg.m, result)
    not_converged = [
        f"rank {r} reached max_iter ({t.iterations} iterations)"
        for r, t in enumerate((s.trace for s in result.solutions), start=1) if not t.converged
    ]
    for w in result.warnings:
        print(f"warning: {w}", file=sys.stderr)
    if not_converged:
        msg = f"did not converge: {'; '.join(not_converged)}"
        if cfg.strict:
            print(f"solver error: {msg}", file=sys.stderr)
            return 3
        print(f"warning: {msg}", file=sys.stderr)
    print(f"wrote {result.achieved_rank} rank(s) to {cfg.out}")
    return 0


def explain(args: argparse.Namespace) -> int:
    names = args.what
    if len(names) == 2 and all(n.upper() in ("A", "B") for n in names):
        g = guide(names[0], names[1])
        print(f"Mode {g.block_mode} blocks / Mode {g.superblock_mode} superblock")
        print(f"  generalizes: {g.generalization}")
        print(f"  objective:   {g.objective}")
        return 0
    if len(names) == 1:
        entry = preset(names[0])  # CatalogError -> exit 1
        print(f"{entry.name}")
        print(f"  m:               {entry.m if entry.m is not None else 'free (pass --m)'}")
        if entry.tau_blocks is None:
            print("  block tau:       0 for the first --split blocks, 1 for the rest")
        else:
            print(f"  block tau:       {entry.tau_blocks:g} (Mode {_mode_name(entry.tau_blocks)})")
        print(
            f"  superblock tau:  {entry.tau_superblock:g} "
            f"(Mode {_mode_name(entry.tau_superblock)})"
        )
        print(f"  citation:        {entry.citation}")
        if entry.notes:
            print(f"  notes:           {entry.notes}")
        return 0
    if names:
        raise ConfigError("explain takes a preset name or a mode pair like: explain A B")
    print("method presets")
    print("--------------")
    for name in preset_names():
        entry = preset(name)
        m_txt = f"m={entry.m:g}" if entry.m is not None else "m=free"
        tb = "mixed" if entry.tau_blocks is None else f"{entry.tau_blocks:g}"
        print(
            f"  {name:<22} {m_txt:<8} tau_blocks={tb:<6} "
            f"tau_super={entry.tau_superblock:g}  [{entry.citation}]"
        )
    print()
    print("mode selection guide")
    print("--------------------")
    for (bm, sm), g in sorted(_guide_items()):
        print(f"  blocks {bm} / superblock {sm}: {g.generalization}")
        print(f"      {g.objective}")
    print()
    print("related fixed-point schemes (no optimization problem; not runnable)")
    print("-------------------------------------------------------------------")
    for name, equation in RELATED_FIXED_POINT_METHODS:
        print(f"  {name}")
        print(f"      {equation}")
    return 0


def _guide_items():
    for bm in ("A", "B"):
        for sm in ("A", "B"):
            yield (bm, sm), guide(bm, sm)


def _mode_name(tau: float) -> str:
    return MODE_LABEL.get(tau, f"shrinkage {tau:g}")


class _Parser(argparse.ArgumentParser):
    """Exits 1, the configuration-error code, on a bad command line; argparse exits 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rcpca",
        description="Consensus component analysis of multiblock data with "
                    "shrinkage metrics and a monotone solver.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an analysis and write result files")
    p_run.add_argument("--config", help="key = value config file; flags override it")
    for key, option in _OPTIONS.items():
        if option.parse is _bool:
            p_run.add_argument(_flag(key), dest=key, action="store_const",
                               const=True, help=option.help)
        else:
            p_run.add_argument(_flag(key), dest=key, type=option.parse,
                               choices=option.choices, help=option.help)
    p_run.set_defaults(func=lambda args: run(_build_run_config(args)))

    p_exp = sub.add_parser(
        "explain",
        help="describe a preset, a mode pair (e.g. explain A B), or everything",
    )
    p_exp.add_argument("what", nargs="*", help="preset name, or two modes A|B")
    p_exp.set_defaults(func=explain)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except InternalAssertionError as exc:
        print(f"internal assertion failed: {exc}", file=sys.stderr)
        return 4
    except RcpcaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
