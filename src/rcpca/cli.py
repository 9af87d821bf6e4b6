"""Command-line front end.

`rcpca run` loads block files, runs the analysis and writes per-rank result
tables plus a manifest; `rcpca explain` prints the method catalog and the
mode-selection guide. Exit codes: 0 success, 1 configuration error, 2 data
error, 3 non-convergence under --strict, 4 violated internal guarantee.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .dataset import BlockSet, build_blockset, load_block
from .deflation import DeflationStrategy, MultiSolution, extract
from .errors import (
    BadStartError,
    ConfigError,
    DataError,
    InternalAssertionError,
    RcpcaError,
)
from .metrics import ModeSelector
from .methods import (
    RELATED_FIXED_POINT_METHODS,
    MethodPreset,
    guide,
    preset,
    preset_names,
)
from .solver import SolverConfig

_DELIMITERS = {"comma": ",", "tab": "\t"}


@dataclass
class RunConfig:
    """Everything one run depends on; flags override config-file values."""

    blocks: list[str] = field(default_factory=list)
    ids: list[str] | None = None
    preset: str | None = None
    split: int | None = None
    m: float | None = None
    tau: list[float] | None = None
    tau_super: float | None = None
    scale: str = "none"
    delimiter: str = "comma"
    id_column: bool = False
    epsilon: float = 1e-10
    max_iter: int = 10_000
    init: str = "eigen"
    init_file: str | None = None
    seed: int = 0
    starts: int = 1
    deflate: str = "global"
    components: int = 1
    out: str = "rcpca_out"
    strict: bool = False
    assert_level: str = "cheap"


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _parse_config_file(path: str) -> dict[str, str]:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {path}")
    values: dict[str, str] = {}
    for i, line in enumerate(p.read_text(encoding="utf-8").splitlines(), start=1):
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
    raise ConfigError(f"expected a boolean, got {value!r}")


def _csv_list(value: str) -> list[str]:
    return [v.strip() for v in value.split(",") if v.strip()]


def _floats(value: str) -> list[float]:
    return [float(v) for v in _csv_list(value)]


# config-file key -> (RunConfig field, parser); the field names double as
# the argparse destinations of the matching flags
_CONFIG_KEYS = {
    "blocks": ("blocks", _csv_list),
    "ids": ("ids", _csv_list),
    "preset": ("preset", str),
    "split": ("split", int),
    "m": ("m", float),
    "tau": ("tau", _floats),
    "tau_super": ("tau_super", float),
    "scale": ("scale", str),
    "delimiter": ("delimiter", str),
    "id_column": ("id_column", _bool),
    "epsilon": ("epsilon", float),
    "max_iter": ("max_iter", int),
    "init": ("init", str),
    "init_file": ("init_file", str),
    "seed": ("seed", int),
    "starts": ("starts", int),
    "deflate": ("deflate", str),
    "components": ("components", int),
    "out": ("out", str),
    "strict": ("strict", _bool),
    "assert": ("assert_level", str),
}


def _apply_config_file(cfg: RunConfig, values: dict[str, str]):
    for key, value in values.items():
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        name, parse = _CONFIG_KEYS[key]
        try:
            setattr(cfg, name, parse(value))
        except ValueError as exc:
            raise ConfigError(f"config key {key!r}: {exc}") from None


def _build_run_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if args.config:
        _apply_config_file(cfg, _parse_config_file(args.config))
    for name, _ in _CONFIG_KEYS.values():
        value = getattr(args, name)
        if value is not None:
            setattr(cfg, name, value)
    return cfg


def _validate(cfg: RunConfig) -> None:
    if not cfg.blocks:
        raise ConfigError("no block files given (--blocks f1.csv,f2.csv)")
    for path in cfg.blocks:
        if not Path(path).exists():
            raise DataError(f"block file not found: {path}")
    if cfg.ids is not None and len(cfg.ids) != len(cfg.blocks):
        raise ConfigError(f"{len(cfg.ids)} ids for {len(cfg.blocks)} block files")
    ids = cfg.ids or [Path(p).stem for p in cfg.blocks]
    if len(set(ids)) != len(ids):
        raise ConfigError(f"block ids must be unique, got {ids}")
    if cfg.preset is not None:
        entry = preset(cfg.preset)
        if cfg.tau is not None or cfg.tau_super is not None:
            raise ConfigError("--preset and explicit --tau/--tau-super are mutually exclusive")
        if cfg.m is not None and entry.m is not None:
            raise ConfigError(
                f"--preset {cfg.preset} fixes m = {entry.m:g}; --m is mutually exclusive"
            )
        if cfg.m is None and entry.m is None:
            raise ConfigError(f"--preset {cfg.preset} leaves m free; pass --m")
    else:
        if cfg.m is None:
            raise ConfigError("pass either --preset or an explicit --m with --tau/--tau-super")
        if cfg.tau is None or cfg.tau_super is None:
            raise ConfigError("explicit runs need --m, --tau and --tau-super")
    if cfg.scale not in ("none", "unit"):
        raise ConfigError(f"--scale must be none or unit, got {cfg.scale!r}")
    if cfg.delimiter not in _DELIMITERS:
        raise ConfigError(f"--delimiter must be comma or tab, got {cfg.delimiter!r}")
    if cfg.init not in ("eigen", "random", "file"):
        raise ConfigError(f"--init must be eigen, random or file, got {cfg.init!r}")
    if cfg.init == "file" and not cfg.init_file:
        raise ConfigError("--init file needs --init-file PATH")
    if cfg.deflate not in ("global", "block", "loading", "own"):
        raise ConfigError(f"--deflate must be global, block, loading or own")
    if cfg.components < 1:
        raise ConfigError("--components must be at least 1")
    if cfg.assert_level not in ("off", "cheap", "full"):
        raise ConfigError("--assert must be off, cheap or full")


def _load_blocks(cfg: RunConfig) -> BlockSet:
    ids = cfg.ids or [Path(p).stem for p in cfg.blocks]
    blocks = [
        load_block(
            path,
            id=bid,
            delimiter=_DELIMITERS[cfg.delimiter],
            scale=cfg.scale == "unit",
            id_column=cfg.id_column,
        )
        for path, bid in zip(cfg.blocks, ids)
    ]
    return build_blockset(blocks)


def _solver_config(cfg: RunConfig, entry: MethodPreset | None) -> SolverConfig:
    m = entry.m if entry is not None and entry.m is not None else cfg.m
    if cfg.init == "file":
        path = Path(cfg.init_file)
        if not path.exists():
            raise DataError(f"start-vector file not found: {cfg.init_file}")
        try:
            init = np.array(
                [float(line) for line in path.read_text().split()], dtype=float
            )
        except ValueError:
            raise DataError(f"start-vector file {cfg.init_file} must hold numbers") from None
    else:
        init = cfg.init
    return SolverConfig(
        m=float(m),
        epsilon=cfg.epsilon,
        max_iter=cfg.max_iter,
        init=init,
        seed=cfg.seed,
        n_starts=cfg.starts,
        assert_level=cfg.assert_level,
    )


def _modes(cfg: RunConfig, entry: MethodPreset | None, n_blocks: int) -> ModeSelector:
    if entry is not None:
        if entry.tau_blocks is None and entry.split is None:
            if cfg.split is None:
                raise ConfigError(f"preset {entry.name} needs --split")
            entry = preset(entry.name, split=cfg.split)
        return entry.selector(n_blocks)
    taus = cfg.tau
    if len(taus) == 1:
        taus = taus * n_blocks
    if len(taus) != n_blocks:
        raise ConfigError(f"{len(taus)} tau values for {n_blocks} blocks")
    try:
        return ModeSelector.from_taus(taus, cfg.tau_super)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


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
    n = blockset.n

    for r, sol in enumerate(result.solutions, start=1):
        for b, block in enumerate(blockset.blocks):
            lines = ["variable,weight"]
            lines += [
                f"{name},{_fmt(w)}"
                for name, w in zip(block.columns, sol.w_blocks[b])
            ]
            (out_dir / f"rank{r}_weights_{block.id}.csv").write_text(
                "\n".join(lines) + "\n", encoding="utf-8"
            )
        lines = ["variable,weight"]
        lines += [
            f"{name},{_fmt(w)}"
            for name, w in zip(blockset.superblock_columns, sol.w_super)
        ]
        (out_dir / f"rank{r}_weights_superblock.csv").write_text(
            "\n".join(lines) + "\n", encoding="utf-8"
        )

        header = "row_id," + ",".join(blockset.ids) + ",superblock"
        lines = [header]
        for i in range(n):
            cells = [row_ids[i]]
            cells += [_fmt(sol.y_blocks[b][i]) for b in range(blockset.n_blocks)]
            cells.append(_fmt(sol.y_super[i]))
            lines.append(",".join(cells))
        (out_dir / f"rank{r}_components.csv").write_text(
            "\n".join(lines) + "\n", encoding="utf-8"
        )

        y_norm = np.linalg.norm(sol.y_super)
        lines = ["block,cov,cor,contribution"]
        for b, block in enumerate(blockset.blocks):
            yb = sol.y_blocks[b]
            cor = float(yb @ sol.y_super) / (np.linalg.norm(yb) * y_norm)
            lines.append(
                f"{block.id},{_fmt(sol.covs[b])},{_fmt(cor)},{_fmt(sol.contributions[b])}"
            )
        (out_dir / f"rank{r}_blocks.csv").write_text(
            "\n".join(lines) + "\n", encoding="utf-8"
        )

        lines = ["variable,correlation"]
        for j, name in enumerate(blockset.superblock_columns):
            col = blockset.superblock[:, j]
            cn = np.linalg.norm(col)
            cor = float(col @ sol.y_super) / (cn * y_norm) if cn > 0 else 0.0
            lines.append(f"{name},{_fmt(cor)}")
        (out_dir / f"rank{r}_variable_correlations.csv").write_text(
            "\n".join(lines) + "\n", encoding="utf-8"
        )

        lines = ["iteration,psi,step_norm,bound"]
        lines.append(f"0,{_fmt(sol.trace.psi[0])},,")
        for s in range(sol.trace.iterations):
            lines.append(
                f"{s + 1},{_fmt(sol.trace.psi[s + 1])},"
                f"{_fmt(sol.trace.step_norm[s])},{_fmt(sol.trace.bound[s])}"
            )
        (out_dir / f"rank{r}_trace.csv").write_text(
            "\n".join(lines) + "\n", encoding="utf-8"
        )

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
    for r, sol in enumerate(result.solutions, start=1):
        manifest.append(f"rank{r}_psi_final = {_fmt(sol.psi_final)}")
        manifest.append(f"rank{r}_fixed_point_residual = {_fmt(sol.fixed_point_residual)}")
        manifest.append(f"rank{r}_iterations = {sol.trace.iterations}")
        manifest.append(f"rank{r}_converged = {str(sol.trace.converged).lower()}")
    all_warnings = list(result.warnings)
    for r, sol in enumerate(result.solutions, start=1):
        all_warnings += [f"rank{r}: {w}" for w in sol.trace.warnings]
    manifest.append(f"warnings = {'; '.join(all_warnings) if all_warnings else '(none)'}")
    (out_dir / "manifest.txt").write_text("\n".join(manifest) + "\n", encoding="utf-8")


def run(cfg: RunConfig) -> int:
    _validate(cfg)
    entry = None
    if cfg.preset:
        base = preset(cfg.preset)
        kwargs = {}
        if base.m is None:
            kwargs["m"] = cfg.m
        if base.tau_blocks is None and cfg.split is not None:
            kwargs["split"] = cfg.split
        entry = preset(cfg.preset, **kwargs) if kwargs else base
    blockset = _load_blocks(cfg)
    modes = _modes(cfg, entry, blockset.n_blocks)
    solver_cfg = _solver_config(cfg, entry)
    result = extract(
        blockset, modes, solver_cfg, cfg.components, DeflationStrategy(cfg.deflate)
    )
    _write_outputs(Path(cfg.out), cfg, blockset, modes, solver_cfg.m, result)
    not_converged = [
        r for r, s in enumerate(result.solutions, start=1) if not s.trace.converged
    ]
    for w in result.warnings:
        print(f"warning: {w}", file=sys.stderr)
    if not_converged:
        msg = f"ranks {not_converged} did not converge within {cfg.max_iter} iterations"
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
    if tau == 1.0:
        return "A"
    if tau == 0.0:
        return "B"
    return f"shrinkage {tau:g}"


def _float_list(value: str) -> list[float]:
    try:
        return _floats(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {value!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rcpca",
        description="Consensus component analysis of multiblock data with "
                    "shrinkage metrics and a monotone solver.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an analysis and write result files")
    p_run.add_argument("--config", help="key = value config file; flags override it")
    p_run.add_argument("--blocks", type=_csv_list, help="comma-separated block files")
    p_run.add_argument("--ids", type=_csv_list, help="comma-separated block names")
    p_run.add_argument("--preset", help="method preset name (see: rcpca explain)")
    p_run.add_argument("--split", type=int, help="block count for mixed presets")
    p_run.add_argument("--m", type=float, help="criterion exponent (>= 1)")
    p_run.add_argument("--tau", type=_float_list,
                       help="per-block shrinkage in [0,1]; one value broadcasts")
    p_run.add_argument("--tau-super", dest="tau_super", type=float,
                       help="superblock shrinkage in [0,1]")
    p_run.add_argument("--scale", choices=["none", "unit"],
                       help="unit-variance scaling of the columns (default none)")
    p_run.add_argument("--delimiter", choices=["comma", "tab"], help="cell delimiter")
    p_run.add_argument("--id-column", dest="id_column", action="store_const", const=True,
                       help="first column holds row identifiers")
    p_run.add_argument("--epsilon", type=float,
                       help="convergence threshold: absolute bound on the per-iteration "
                            "psi increment, at covariance scale (default 1e-10)")
    p_run.add_argument("--max-iter", dest="max_iter", type=int, help="iteration cap")
    p_run.add_argument("--init", choices=["eigen", "random", "file"], help="start vector")
    p_run.add_argument("--init-file", dest="init_file", help="file with the start vector")
    p_run.add_argument("--seed", type=int, help="seed for random starts")
    p_run.add_argument("--starts", type=int, help="number of multi-starts")
    p_run.add_argument("--deflate", choices=["global", "block", "loading", "own"],
                       help="deflation strategy for higher ranks")
    p_run.add_argument("--components", type=int, help="number of components to extract")
    p_run.add_argument("--out", help="output directory")
    p_run.add_argument("--strict", action="store_const", const=True,
                       help="exit 3 when any rank fails to converge")
    p_run.add_argument("--assert", dest="assert_level", choices=["off", "cheap", "full"],
                       help="runtime verification level")
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
    except (ConfigError, BadStartError) as exc:
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
