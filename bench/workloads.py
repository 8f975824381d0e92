"""The benchmark's workloads: fixed instance lists built from a seed.

Each workload is a list of Instance objects. ``call`` is the timed library
work; ``check`` turns its result into operations (one per verdict the CLI
would gate on), each with the problems found, canonical bytes for the
pass-to-pass determinism check, and, for seed-independent instances, a
digest compared against ``digests.json``.

The library is always reached through module attributes
(``pipeline.run_freiman``, ``cli.main``, ...) at call time, so the tracer's
rebinding sees every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from addcomb import bohr, bourgain, cli, groups, pipeline, serialize, sets, verify

#: Report fields hashed into a freiman digest. Fields added after this
#: projection was fixed (such as a vacuity flag) do not change the digest.
FREIMAN_PROJECTION = (
    "mu_A", "l", "K_l", "d_prime", "epsilon_used", "escape_flagged",
    "spectrum_count", "radius", "mu_B", "containment", "chain",
    "lowerbound_audit", "empirical_dim", "measure_ratio",
)


@dataclass
class Op:
    """One operation's outcome: problems (empty when it passed) and identity bytes."""

    op_id: str
    problems: list[str]
    canonical: bytes
    digest: str | None = None


@dataclass
class Instance:
    name: str
    call: Callable[[], Any]
    check: Callable[[Any], list[Op]]
    ops: int = 1                 # operations one call performs
    headline: bool = False
    fixed: bool = False          # seed-independent: a digest must be recorded
    tables: list = field(default_factory=list)  # groups whose lazy tables set-up warms


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _canonical_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


# -- freiman -----------------------------------------------------------------------


def _freiman(workload: str, name: str, A, d: float, eps: float, *,
             headline: bool = False, fixed: bool = True, escapes: bool = False) -> Instance:
    config = pipeline.FreimanConfig(d=d, mode="empirical", epsilon=eps)
    op_id = f"{workload}/{name}"

    def call():
        report = pipeline.run_freiman(A, config)
        payload = report.to_jsonable()
        return payload, serialize.dumps(payload)

    def check(result) -> list[Op]:
        payload, text = result
        problems = []
        if not payload["containment"]:
            problems.append("containment false")
        if not payload["lowerbound_audit"]["holds"]:
            problems.append("lower-bound audit false")
        for link in payload["chain"]:
            if link["applicable"] and not link["holds"]:
                problems.append(f"applicable chain link false: {link['name']}")
        if payload["escape_flagged"] and not escapes:
            problems.append("escaped, but declared non-escaping")
        projection = {k: payload[k] for k in FREIMAN_PROJECTION}
        return [Op(op_id, problems, text.encode(), _sha(_canonical_json(projection)))]

    return Instance(name, call, check, headline=headline, fixed=fixed,
                    tables=[A.group])


def _random_subset(rng: np.random.Generator, g, size: int):
    return sets.GroupSet.from_indices(g, rng.choice(g.order, size=size, replace=False))


def freiman_growth(seed: int) -> list[Instance]:
    w = "freiman_growth"
    rng = np.random.default_rng(seed)
    z18, z16 = groups.FinAbGroup([2 ** 18]), groups.FinAbGroup([2 ** 16])
    z256sq, z16cube = groups.FinAbGroup([256, 256]), groups.FinAbGroup([16, 16, 16])
    box = sets.GroupSet.linf_ball
    return [
        _freiman(w, "Z2^18 interval r=2048", sets.GroupSet.interval(z18, 2048), 1.0, 0.05,
                 headline=True),
        _freiman(w, "Z2^16 interval r=512", sets.GroupSet.interval(z16, 512), 1.0, 0.05),
        _freiman(w, "Z256^2 box r=8", box(z256sq, 8), 2.0, 0.05),
        _freiman(w, "Z16^3 box r=2", box(z16cube, 2), 3.0, 0.05),
        _freiman(w, "Z2^16 random 40-subset", _random_subset(rng, z16, 40), 3.0, 0.02,
                 fixed=False),
        _freiman(w, "Z256^2 random 30-subset", _random_subset(rng, z256sq, 30), 3.0, 0.02,
                 fixed=False),
    ]


def freiman_spectral(seed: int) -> list[Instance]:
    w = "freiman_spectral"
    z18, z16 = groups.FinAbGroup([2 ** 18]), groups.FinAbGroup([2 ** 16])
    z512sq = groups.FinAbGroup([512, 512])
    return [
        _freiman(w, "Z2^18 interval r=16", sets.GroupSet.interval(z18, 16), 1.0, 0.05,
                 headline=True),
        _freiman(w, "Z2^18 interval r=32", sets.GroupSet.interval(z18, 32), 1.0, 0.03),
        _freiman(w, "Z2^16 interval r=16", sets.GroupSet.interval(z16, 16), 1.0, 0.02),
        _freiman(w, "Z512^2 box r=2", sets.GroupSet.linf_ball(z512sq, 2), 2.0, 0.03),
    ]


# -- birkhoff ----------------------------------------------------------------------


def _birkhoff(workload: str, name: str, family, group, d: float, *,
              headline: bool = False) -> Instance:
    op_id = f"{workload}/{name}"

    def call():
        system = bourgain.system_from_balls(family, d)
        metric = bourgain.birkhoff_metric(system)
        return system, metric, bourgain.sandwich_audit(metric)

    def check(result) -> list[Op]:
        system, metric, verdicts = result
        problems = []
        if not system.audit.all_pass:
            problems.append(f"axiom audit: {system.audit.violations}")
        fin = np.isfinite(metric.rho_star)
        if not (np.all(metric.rho[fin] <= metric.rho_star[fin] + 1e-12)
                and np.all(metric.rho[fin] >= metric.rho_star[fin] / 2 - 1e-12)):
            problems.append("factor-2 check false")
        problems += [f"sandwich fails at delta={v.delta:g} (left_ok={v.left_ok}, "
                     f"right_ok={v.right_ok})" for v in verdicts if not v.passed]
        rho_bytes = metric.rho_star.tobytes() + metric.rho.tobytes()
        sandwich = [(v.delta, v.left_ok, v.right_ok) for v in verdicts]
        return [Op(op_id, problems, rho_bytes + repr(sandwich).encode(), _sha(rho_bytes))]

    return Instance(name, call, check, headline=headline, fixed=True, tables=[group])


def birkhoff_chain(seed: int) -> list[Instance]:
    w = "birkhoff_chain"
    out = []
    for n in (4096, 8192, 16384):
        g = groups.FinAbGroup([n])
        out.append(_birkhoff(w, f"Z{n} interval system", bourgain.interval_family(g, n / 4),
                             g, 2.0, headline=n == 16384))
    g = groups.FinAbGroup([8192])
    freqs = sets.GroupSet.from_indices(g, [0, 1, 8191, 97, 8192 - 97])
    out.append(_birkhoff(w, "Z8192 Bohr system {0,+-1,+-97}", bohr.bohr_family(freqs), g, 4.0))
    g = groups.FinAbGroup([64, 64])
    freqs = sets.GroupSet.from_coords(g, [(0, 0), (1, 0), (63, 0), (5, 3), (59, 61)])
    out.append(_birkhoff(w, "Z64^2 Bohr system {0,+-(1,0),+-(5,3)}", bohr.bohr_family(freqs),
                         g, 4.0))
    return out


# -- verify ------------------------------------------------------------------------


def _verify(workload: str, seed: int) -> Instance:
    argv = ["verify", "--suite", "all", "--seed", str(seed)]

    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue()

    def check(result) -> list[Op]:
        code, text = result
        payload = json.loads(text)
        ops = []
        for i, crit in enumerate(payload["criteria"]):
            problems = [] if crit["passed"] else [f"FAIL {crit['name']}"]
            identity = {k: v for k, v in crit.items() if k != "seconds"}
            ops.append(Op(f"{workload}/seed {seed}/{i}", problems, _canonical_json(identity)))
        if code != (0 if all(c["passed"] for c in payload["criteria"]) else 1):
            ops[0].problems.append(f"exit code {code}")
        return ops

    return Instance(f"verify --suite all --seed {seed}", call, check,
                    ops=len(verify.CRITERIA), headline=True)


def verify_suite(seed: int) -> list[Instance]:
    # The suite's own seed stays fixed at 0, the acceptance gate that the tests
    # and the README run: the work per suite seed varies by about 20% (quartile
    # spread over seeds 0-9), which would swamp any change. One suite seed per
    # pass gives about eight passes in a 32 s run; with two, the three or four
    # passes left headline_s a quartile spread of up to 0.30 over ten runs on
    # a noisy machine. wall_s and headline_s are then the same measurement.
    return [_verify("verify_suite", 0)]


# -- the harness self-test's tiny workload ------------------------------------------


def tiny(seed: int) -> list[Instance]:
    w = "tiny"
    g = groups.FinAbGroup([256])
    return [
        _freiman(w, "Z256 interval r=2", sets.GroupSet.interval(g, 2), 1.0, 0.5,
                 headline=True, escapes=True),
        _birkhoff(w, "Z256 interval system", bourgain.interval_family(g, 64), g, 2.0),
    ]


WORKLOADS = {
    "freiman_growth": freiman_growth,
    "freiman_spectral": freiman_spectral,
    "birkhoff_chain": birkhoff_chain,
    "verify_suite": verify_suite,
    "tiny": tiny,
}
