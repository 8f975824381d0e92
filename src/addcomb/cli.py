"""Command-line front end. All outputs are canonical JSON on stdout.

Exit codes: 0 when every assertion-class verdict passed, 1 when one failed,
2 on usage errors (argparse's convention).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .bohr import bohr_set
from .bourgain import (GRID_DEPTH_CAP, birkhoff_metric, constant_family,
                       interval_family, sandwich_audit, system_from_balls)
from .covering import chang_cover, ruzsa_cover
from .pipeline import FreimanConfig, run_freiman
from .serialize import dumps, group_from_json, load_set, set_from_json, set_to_json
from .sets import GroupSet, Multiples, growth_profile
from .spectrum import lspec
from .verify import SUITES, run_suite


def _emit(payload: dict, out: str | None) -> None:
    text = dumps(payload)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    sys.stdout.write(text)


#: The keys a --config file may set; any other key is an error.
_CONFIG_KEYS = ("n_max", "ratio_bound", "C", "max_retries", "dim_grid_cap",
               "bourgain_depth_cap")


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError("config file must hold a JSON object")
    unknown = sorted(set(cfg) - set(_CONFIG_KEYS))
    if unknown:
        raise ValueError(f"unknown config key {unknown[0]!r} in {path} "
                         f"(known: {', '.join(_CONFIG_KEYS)})")
    return cfg


def _cmd_analyze(args, cfg) -> int:
    A = load_set(args.set)
    n_max = args.n_max if args.n_max is not None else cfg.get("n_max", 8)
    profile = growth_profile(Multiples(A), args.d, n_max)
    _emit({"set": set_to_json(A), "growth_profile": profile.to_jsonable()}, args.out)
    return 0


def _cmd_spectrum(args, cfg) -> int:
    A = load_set(args.set)
    spec = lspec(A, args.delta)
    _emit(spec.to_jsonable(), args.out)
    return 0


def _cmd_bohr(args, cfg) -> int:
    freqs = load_set(args.freqs)
    B = bohr_set(freqs, args.radius)
    _emit(B.to_jsonable(), args.out)
    return 0


def _cmd_cover(args, cfg) -> int:
    B = load_set(args.set)
    if args.mode == "ruzsa":
        cert = ruzsa_cover(B)
    else:
        Bp = load_set(args.bprime)
        cert = chang_cover(B, Bp, args.k)[0]
    _emit(cert.to_jsonable(), args.out)
    if not cert.containment_verified:
        return 1
    if cert.kind == "chang" and cert.parameters["precondition_held"] \
            and not cert.size_bound_verified:
        return 1
    return 0


def _system_from_file(path: str, cfg: dict):
    with open(path) as fh:
        obj = json.load(fh)
    d = float(obj.get("d", 1.0))
    depth = obj.get("K")
    cap = cfg.get("bourgain_depth_cap", GRID_DEPTH_CAP)
    if "interval" in obj:
        spec = obj["interval"]
        group = group_from_json(spec["group"])
        fam = interval_family(group, float(spec["scale"]))
    elif "constant" in obj:
        fam = constant_family(set_from_json(obj["constant"]))
    elif "levels" in obj:
        levels = sorted(
            ((float(lv["radius"]), set_from_json(lv["set"])) for lv in obj["levels"]),
            key=lambda p: p[0])
        for r, _ in levels:
            if not (math.isfinite(r) and r >= 0):
                raise ValueError(f"system file needs each level radius finite and >= 0, "
                                 f"got {r}")
        if not levels:
            raise ValueError("system file has an empty levels list")

        def fam(radius: float) -> GroupSet:
            best = levels[0][1]
            for r, S in levels:
                if r <= radius:
                    best = S
                else:
                    break
            return best
    else:
        raise ValueError("system file needs 'interval', 'constant', or 'levels'")
    return system_from_balls(fam, d, K=depth, cap=cap)


def _cmd_birkhoff(args, cfg) -> int:
    system = _system_from_file(args.system, cfg)
    payload = {"system": system.to_jsonable()}
    code = 0
    if system.audit.all_pass:
        metric = birkhoff_metric(system)
        verdicts = sandwich_audit(metric)
        factor2 = all(metric.factor_two())
        payload["metric"] = metric.dump_jsonable()
        payload["factor2_ok"] = factor2
        payload["sandwich"] = [
            {"delta": v.delta, "left_ok": v.left_ok, "right_ok": v.right_ok,
             "note": v.note} for v in verdicts
        ]
        if not factor2 or not all(v.passed for v in verdicts):
            code = 1
    else:
        payload["metric"] = None
    _emit(payload, args.out)
    return code


def _cmd_freiman(args, cfg) -> int:
    A = load_set(args.set)
    config = FreimanConfig(
        d=args.d,
        mode=args.mode,
        epsilon=args.epsilon,
        l=args.l,
        radius=args.radius,
        ratio_bound=cfg.get("ratio_bound", FreimanConfig.ratio_bound),
        C=cfg.get("C", FreimanConfig.C),
        max_retries=cfg.get("max_retries", FreimanConfig.max_retries),
        n_max=cfg.get("n_max"),
        dim_grid_cap=cfg.get("dim_grid_cap", FreimanConfig.dim_grid_cap),
    )
    report = run_freiman(A, config)
    _emit(report.to_jsonable(), args.out)
    return 0 if (report.containment and report.lowerbound.holds) else 1


def _cmd_verify(args, cfg) -> int:
    results = run_suite(args.suite, seed=args.seed)
    for r in results:
        print(r.line(), file=sys.stderr)
    payload = {
        "suite": args.suite,
        "seed": args.seed,
        "criteria": [r.to_jsonable() for r in results],
        "all_passed": all(r.passed for r in results),
    }
    _emit(payload, args.out)
    return 0 if payload["all_passed"] else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="addcomb",
        description="additive-combinatorics toolkit over explicit finite abelian groups")
    p.add_argument("--config", help="optional JSON config (caps, grid depths)")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("analyze", help="growth profile of a set")
    sp.add_argument("set", help="set literal JSON file")
    sp.add_argument("--d", type=float, required=True)
    sp.add_argument("--n-max", type=int, default=None)
    sp.add_argument("--out")
    sp.set_defaults(fn=_cmd_analyze)

    sp = sub.add_parser("spectrum", help="large spectrum of a set")
    sp.add_argument("set")
    sp.add_argument("--delta", type=float, required=True)
    sp.add_argument("--out")
    sp.set_defaults(fn=_cmd_spectrum)

    sp = sub.add_parser("bohr", help="Bohr set of a frequency set")
    sp.add_argument("--freqs", required=True)
    sp.add_argument("--radius", type=float, required=True)
    sp.add_argument("--out")
    sp.set_defaults(fn=_cmd_bohr)

    sp = sub.add_parser("cover", help="Ruzsa or Chang covering certificate")
    sp.add_argument("set", help="the set B to cover")
    sp.add_argument("--mode", choices=("ruzsa", "chang"), required=True)
    sp.add_argument("--bprime", help="B' for Chang")
    sp.add_argument("--k", type=int, help="Chang size bound")
    sp.add_argument("--out")
    sp.set_defaults(fn=_cmd_cover)

    sp = sub.add_parser("birkhoff", help="Bourgain-system audit and chain metric")
    sp.add_argument("--system", required=True, help="system description JSON")
    sp.add_argument("--out")
    sp.set_defaults(fn=_cmd_birkhoff)

    sp = sub.add_parser("freiman", help="run the containment pipeline")
    sp.add_argument("set")
    sp.add_argument("--d", type=float, required=True)
    sp.add_argument("--mode", choices=("paper", "empirical"), default="empirical")
    sp.add_argument("--epsilon", type=float)
    sp.add_argument("--l", type=int)
    sp.add_argument("--radius", type=float)
    sp.add_argument("--out")
    sp.set_defaults(fn=_cmd_freiman)

    sp = sub.add_parser("verify", help="run the randomized verification suites")
    sp.add_argument("--suite", default="all", choices=("all",) + tuple(SUITES))
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out")
    sp.set_defaults(fn=_cmd_verify)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "cover" and args.mode == "chang" and (
            not args.bprime or args.k is None):
        parser.error("cover --mode chang needs --bprime and --k")
    try:
        cfg = _load_config(args.config)
        return args.fn(args, cfg)
    except SystemExit:
        raise
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
