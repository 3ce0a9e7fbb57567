"""Command line interface.

Subcommands: gen, influence, witness, simulate, trace, pairings, check.
Every command is a pure function of its RunConfig and input files: fixed
seeds, canonical JSON with stable key order, and write-then-rename file
output make reruns byte-identical.  Human-readable tables and CSV are
rendered from the JSON payload, never computed separately.  Wall-clock
times appear in terminal tables only, not in output files.

Exit status: 0 on success (and on "inequality holds" for check),
1 with a diagnostic on stderr for violations and errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from .forms import BlockMultilinearForm, _payload_float, _payload_int, random_form
from .freecomb import enumerate_star_pairings, fuss_catalan, moment_upper_bound, trace_moment_exact
from .matnum import DEFAULT_DIM_SCHEDULE, Seed
from .ncpoly import NCPolynomial
from .quantum import (QuantumQueryCircuit, address_form, extract_form, forrelation_circuit,
                      random_circuit)
from .simulate import ERROR_PROFILE_CAP, SimulationPolicy, error_profile, reference_query_bound
from .witness import (general_form_witness, influence_floor, root_influence_witness,
                      scalar_phase_address_witness, sign_baseline)

SIMULATE_COLUMNS = ("budget", "epsilon", "achieved_failing_fraction", "mean_queries")


@dataclass
class RunConfig:
    """Everything a command run depends on besides its input files."""

    command: str
    input_path: str | None = None
    out_path: str | None = None
    method: str | None = None
    kind: str | None = None
    seed: int = 0
    dim: int | None = None
    schedule: tuple[int, ...] = DEFAULT_DIM_SCHEDULE
    trials: int = 256
    eps: float = 0.25
    delta: float = 0.25
    budgets: tuple[int, ...] = (16,)
    fmt: str = "table"
    cap: int | None = None
    d: int = 2
    n: int = 4
    s: int = 1
    m: int = 1
    terms: int = 8
    homogeneous: bool = True


def _resolve_out(path: str) -> Path:
    out = Path(path)
    base = os.environ.get("CBFORMS_OUTDIR")
    if base and not out.is_absolute():
        out = Path(base) / out
    return out


def _write_atomic(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _dump(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _render_table(rows: list[dict]) -> str:
    if not rows:
        return "(empty)\n"
    cols = list(rows[0].keys())
    cells = [[_fmt_cell(r[c]) for c in cols] for r in rows]
    widths = [max(len(c), *(len(row[k]) for row in cells)) for k, c in enumerate(cols)]
    lines = ["  ".join(c.ljust(w) for c, w in zip(cols, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines) + "\n"


def _fmt_cell(v) -> str:
    if isinstance(v, float):
        return f"{v:.10g}"
    if isinstance(v, (list, dict)):
        return json.dumps(v)
    return str(v)


def _render_csv(rows: list[dict]) -> str:
    if not rows:
        return ""
    cols = list(rows[0].keys())
    lines = [",".join(cols)]
    for row in rows:
        lines.append(",".join(_fmt_cell(row[c]) for c in cols))
    return "\n".join(lines) + "\n"


def _emit(cfg: RunConfig, payload: dict, rows: list[dict]):
    """Render the payload; rows are pre-extracted from it for csv/table."""
    if cfg.fmt == "json":
        text = _dump(payload)
    elif cfg.fmt == "csv":
        text = _render_csv(rows)
    else:
        text = _render_table(rows)
    sys.stdout.write(text)


def _load_form(path: str) -> BlockMultilinearForm:
    """A form file, or a circuit file (as ``gen forrelation`` and ``gen
    random-circuit`` write) read as the form it computes."""
    data = json.loads(Path(path).read_text())
    if isinstance(data, dict) and "unitaries" in data:
        return extract_form(QuantumQueryCircuit.from_dict(data))
    return BlockMultilinearForm.from_dict(data)


def _influence_payload(f: BlockMultilinearForm) -> dict:
    b, i, val = f.max_influence()
    table = f.influences()
    entries = []
    for bb in range(f.d):
        for ii in range(f.n):
            entries.append({"block": bb + 1, "index": ii + 1,
                            "influence": float(table[bb, ii])})
    return {
        "d": f.d,
        "n": f.n,
        "variance": f.variance(),
        "max_influence": {"block": b + 1, "index": i + 1, "value": val},
        "block_sums": [float(table[bb].sum()) for bb in range(f.d)],
        "influences": entries,
    }


# -- commands ------------------------------------------------------------


def cmd_gen(cfg: RunConfig) -> int:
    seed = Seed(cfg.seed)
    if cfg.kind == "address":
        obj = address_form(cfg.d)
    elif cfg.kind == "forrelation":
        obj = forrelation_circuit(cfg.n, k=max(cfg.d, 2))
    elif cfg.kind == "random-form":
        obj = random_form(cfg.d, cfg.n, cfg.terms, seed, homogeneous=cfg.homogeneous)
    elif cfg.kind == "random-circuit":
        obj = random_circuit(cfg.n, cfg.s, cfg.d, seed)
    else:
        raise ValueError(f"unknown generator kind {cfg.kind!r}")
    if not cfg.out_path:
        raise ValueError("gen requires --out")
    out = _resolve_out(cfg.out_path)
    _write_atomic(out, _dump(obj.to_dict()))

    if isinstance(obj, BlockMultilinearForm):
        info = _influence_payload(obj)
        payload = {"kind": cfg.kind, "path": str(out), "d": info["d"], "n": info["n"],
                   "variance": info["variance"], "max_influence": info["max_influence"]}
    else:
        payload = {"kind": cfg.kind, "path": str(out), "n": obj.n, "s": obj.s, "d": obj.d}
    _emit(cfg, payload, [payload])
    return 0


def cmd_influence(cfg: RunConfig) -> int:
    f = _load_form(cfg.input_path)
    payload = _influence_payload(f)
    if cfg.out_path:
        _write_atomic(_resolve_out(cfg.out_path), _dump(payload))
    _emit(cfg, payload, payload["influences"])
    return 0


def cmd_witness(cfg: RunConfig) -> int:
    f = _load_form(cfg.input_path)
    seed = Seed(cfg.seed)
    schedule = cfg.schedule if cfg.dim is None else (cfg.dim,)
    if cfg.method == "sign-baseline":
        report = sign_baseline(f, cfg.trials, seed)
    elif cfg.method == "scalar-phase":
        d = f.d - 1
        if f != address_form(d):
            raise ValueError("scalar-phase witness applies to address forms; "
                             "generate one with: gen address")
        report = scalar_phase_address_witness(d)
    elif cfg.method == "polar-homogeneous":
        report = root_influence_witness(f, side="first", schedule=schedule, seed=seed)
    elif cfg.method == "polar-general":
        report = general_form_witness(f, schedule=schedule, seed=seed)
    else:
        raise ValueError(f"unknown witness method {cfg.method!r}")

    payload = report.to_dict(include_timing=True)
    if cfg.out_path:
        # files must be byte-identical across reruns; timing stays out
        _write_atomic(_resolve_out(cfg.out_path), _dump(report.to_dict(include_timing=False)))
    row = {k: v for k, v in payload.items() if k != "seed"}
    row["seed"] = json.dumps(payload["seed"])
    _emit(cfg, payload, [row])
    return 0


def cmd_simulate(cfg: RunConfig) -> int:
    f = _load_form(cfg.input_path)
    rows = []
    for budget in cfg.budgets:
        policy = SimulationPolicy(epsilon=cfg.eps, delta=cfg.delta, query_budget=budget)
        profile = error_profile(f, policy,
                                cap=ERROR_PROFILE_CAP if cfg.cap is None else cfg.cap)
        rows.append({
            "budget": budget,
            "epsilon": cfg.eps,
            "achieved_failing_fraction": profile.failing_fraction,
            "mean_queries": profile.mean_queries,
        })
    payload = {
        "epsilon": cfg.eps,
        "delta": cfg.delta,
        "variance_threshold": cfg.eps ** 2 * cfg.delta,
        "reference_query_bound": reference_query_bound(f.d, cfg.eps, cfg.delta),
        "rows": rows,
    }
    if cfg.out_path:
        _write_atomic(_resolve_out(cfg.out_path), _dump(payload))
    _emit(cfg, payload, [{c: r[c] for c in SIMULATE_COLUMNS} for r in payload["rows"]])
    return 0


def _ncpoly_from_dict(data: dict) -> NCPolynomial:
    terms = {}
    try:
        for item in data["terms"]:
            word = tuple(_payload_int(g, "generator label", "trace") for g in item["vars"])
            if word in terms:
                raise ValueError(f"duplicate term in payload: {item}")
            terms[word] = _payload_float(item["coeff"], "coefficient", "trace")
        constant = _payload_float(data.get("constant", 0.0), "constant", "trace")
    except KeyError as exc:
        raise ValueError(f"malformed trace payload: no field {exc}") from exc
    except TypeError as exc:
        raise ValueError(f"malformed trace payload: {exc}") from exc
    return NCPolynomial(terms, constant=constant)


def cmd_trace(cfg: RunConfig) -> int:
    p = _ncpoly_from_dict(json.loads(Path(cfg.input_path).read_text()))
    kwargs = {} if cfg.cap is None else {"cap": cfg.cap}
    moment = trace_moment_exact(p, cfg.m, **kwargs)
    bound = moment_upper_bound(p, cfg.m)
    payload = {
        "m": cfg.m,
        "degree": p.degree(),
        "num_terms": len(p.terms),
        "moment": moment,
        "upper_bound": bound,
        "exact_integers": isinstance(moment, int),
    }
    if cfg.out_path:
        _write_atomic(_resolve_out(cfg.out_path), _dump(payload))
    _emit(cfg, payload, [payload])
    return 0


def cmd_pairings(cfg: RunConfig) -> int:
    kwargs = {} if cfg.cap is None else {"cap": cfg.cap}
    pairings = enumerate_star_pairings(cfg.d, cfg.m, **kwargs)
    payload = {
        "d": cfg.d,
        "m": cfg.m,
        "count": len(pairings),
        "formula": fuss_catalan(cfg.d, cfg.m),
        "pairings": [sp.to_lists() for sp in pairings],
    }
    if cfg.out_path:
        _write_atomic(_resolve_out(cfg.out_path), _dump(payload))
    summary = {"d": payload["d"], "m": payload["m"], "count": payload["count"],
               "formula": payload["formula"]}
    _emit(cfg, payload, [summary])
    return 0


def cmd_check(cfg: RunConfig) -> int:
    f = _load_form(cfg.input_path)
    b, i, maxinf = f.max_influence()
    floor = influence_floor(f)
    holds = maxinf >= floor
    payload = {
        "d": f.d,
        "n": f.n,
        "variance": f.variance(),
        "max_influence": {"block": b + 1, "index": i + 1, "value": maxinf},
        "floor": floor,
        "holds": holds,
    }
    if cfg.out_path:
        _write_atomic(_resolve_out(cfg.out_path), _dump(payload))
    row = dict(payload)
    row["max_influence"] = maxinf
    _emit(cfg, payload, [row])
    if not holds:
        print(f"influence floor violated: max influence {maxinf} < floor {floor}",
              file=sys.stderr)
        return 1
    return 0


# -- argument parsing ------------------------------------------------------


def _parse_ints(text: str) -> tuple[int, ...]:
    out = tuple(int(tok) for tok in text.split(",") if tok.strip())
    if not out:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cbforms",
                                     description="block-multilinear form toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, fmt=True):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--cap", type=int, default=None)
        p.add_argument("--out", dest="out_path", default=None,
                       help="write the JSON payload to this file")
        if fmt:
            p.add_argument("--format", dest="fmt", choices=("table", "csv", "json"),
                           default="table")

    p = sub.add_parser("gen", help="generate forms and circuits")
    p.add_argument("kind", choices=("address", "forrelation", "random-form", "random-circuit"))
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--s", type=int, default=1)
    p.add_argument("--terms", type=int, default=8)
    p.add_argument("--general", action="store_true",
                   help="random-form: allow monomials of every degree")
    common(p)

    p = sub.add_parser("influence", help="influence table of a form")
    p.add_argument("input_path")
    common(p)

    p = sub.add_parser("witness", help="run a lower-bound witness")
    p.add_argument("input_path")
    p.add_argument("method", choices=("sign-baseline", "scalar-phase",
                                      "polar-homogeneous", "polar-general"))
    p.add_argument("--trials", type=int, default=256)
    p.add_argument("--dim", type=int, default=None,
                   help="single substitution dimension instead of the schedule")
    p.add_argument("--schedule", type=_parse_ints, default=DEFAULT_DIM_SCHEDULE)
    common(p)

    p = sub.add_parser("simulate", help="exact error profile of the greedy simulator")
    p.add_argument("input_path")
    p.add_argument("--eps", type=float, default=0.25)
    p.add_argument("--delta", type=float, default=0.25)
    p.add_argument("--budget", dest="budgets", type=_parse_ints, default=(16,),
                   help="comma-separated query budgets, one output row each")
    common(p)

    p = sub.add_parser("trace", help="exact free moment of a generator polynomial")
    p.add_argument("input_path")
    p.add_argument("m", type=int)
    common(p)

    p = sub.add_parser("pairings", help="non-crossing bicolored pairings")
    p.add_argument("d", type=int)
    p.add_argument("m", type=int)
    common(p)

    p = sub.add_parser("check", help="max influence against the variance floor")
    p.add_argument("input_path")
    common(p)
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(command=args.command)
    for name in ("input_path", "out_path", "method", "kind", "seed", "dim", "schedule",
                 "trials", "eps", "delta", "budgets", "fmt", "cap", "d", "n", "s", "m",
                 "terms"):
        if hasattr(args, name) and getattr(args, name) is not None:
            setattr(cfg, name, getattr(args, name))
    if getattr(args, "general", False):
        cfg.homogeneous = False
    return cfg


def _check_sizes(cfg: RunConfig):
    for name in ("cap", "dim"):
        value = getattr(cfg, name)
        if value is not None and value < 1:
            raise ValueError(f"--{name} must be at least 1, got {value}")


COMMANDS = {
    "gen": cmd_gen,
    "influence": cmd_influence,
    "witness": cmd_witness,
    "simulate": cmd_simulate,
    "trace": cmd_trace,
    "pairings": cmd_pairings,
    "check": cmd_check,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cfg = _config_from_args(args)
    try:
        _check_sizes(cfg)
        return COMMANDS[cfg.command](cfg)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
