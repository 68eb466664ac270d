"""Seeded job generator for the three benchmark workloads.

A workload is a pool of distinct jobs, each an INI document or a verify
suite, run in passes: every pass runs each pool job once, in an order of its
own.  Documents and orders come from ``random.Random`` seeded with the
workload name and ``--seed`` only, so one seed gives byte-identical documents
and the same job order on every machine.  The program sees nothing but the
documents and the ``dodiff`` command line built from them.

Pools are laid out, not sampled: the sizes, weight families, time counts and
verify seeds that set a job's cost are fixed per pool, and the seed draws the
values that do not (initial states, coefficients, output times, job order).
Every pool then costs about the same, so seed-to-seed spread in the timing
metrics is the machine's, not the generator's.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field

WORKLOADS = ("solve", "oracle", "crosscheck")

# [weight] sections of the three families: constant and tapered as in
# configs/constant.ini and configs/tapered_fd.ini, box(0.5, 0.02).
WEIGHTS = {
    "constant": "[weight]\ntype = constant\nvalue = 1.0\nalpha0 = 0.5\ndelta = 0.25\n",
    "box": "[weight]\ntype = box\nalpha0 = 0.5\nh = 0.02\n",
    "tapered": ("[weight]\ntype = piecewise\nbreakpoints = 0 0.75 0.8 1\n"
                "coeffs = 1 ; 16 -20 ; 0\nalpha0 = 0.75\ndelta = 0.5\n"
                "mu_at_alpha0 = 1\nsup_norm = 1\nalpha1 = 0.8\n"),
}
FAMILIES = tuple(WEIGHTS)

# variable-coefficient operator of configs/tapered_fd.ini
FD_OPERATOR = "kind = fd\na = 1 + x/2\nq = 0.1\nc_a = 1.0\n"

# Mode counts per operator band.  Dirichlet N stays <= 1000: the CLI's sine
# basis has a fixed 1025-point grid and rejects N > 1023, although
# [operator] N accepts up to 4096.
SOLVE_OPERATORS = (("dirichlet", (32, 45, 63)), ("dirichlet", (64, 128, 255)),
                   ("dirichlet", (256, 512, 1000)), ("fd", (8, 16, 32)))
SOLVE_TIME_COUNTS = (4, 10, 16)
ORACLE_GRIDS = (101, 201, 401)
ORACLE_STEPS = (500, 1000, 1500)
KERNEL_TIME_COUNTS = (4, 5, 6, 7, 8)
# First output time of the kernel documents, 10**lo.  These documents are
# not seeded: moving the times by a twentieth of a decade changes a kernel
# job's cost by up to a quarter (the contour follows t), which moved the
# median job time of crosscheck from seed to seed.
KERNEL_LO_EXPS = (-4.0, -3.25, -2.5, -1.75, -1.0)
# Each suite runs with a fixed seed (all five suites pass on seeds 1, 2 and
# 3): bounds costs 1.2-1.4 s depending on its seed, so a seeded choice
# would move the 90th percentile of job time from seed to seed.
VERIFY_SUITES = (("decay", 1), ("bounds", 2), ("h2", 3), ("stability", 1),
                 ("smoothness", 2))
KAPPAS = 2  # the CLI's default kappas, "0.5 1.0"


@dataclass(frozen=True)
class Job:
    """One ``dodiff`` call: a subcommand, its document (or none) and extra
    arguments.  ``times`` is the number of output times of the document."""

    subcommand: str
    doc: str | None = None
    extra: tuple = ()
    times: int = 0


@dataclass
class Workload:
    name: str
    docs: dict = field(default_factory=dict)  # doc id -> INI text
    meta: dict = field(default_factory=dict)  # doc id -> {"times": ..., ...}
    pool: list = field(default_factory=list)  # every distinct job once
    seed: int = 0

    def passes(self):
        """The endless sequence of passes over the pool.  Each pass shuffles
        the jobs of every subcommand and deals the subcommands out in turn,
        so kernel and verify jobs alternate on crosscheck."""
        rng = random.Random(f"{self.name}:{self.seed}:order")
        kinds = {}
        for job in self.pool:
            kinds.setdefault(job.subcommand, []).append(job)
        while True:
            groups = [rng.sample(jobs, len(jobs)) for jobs in kinds.values()]
            yield [job for turn in itertools.zip_longest(*groups) for job in turn
                   if job is not None]


def _fmt(x: float) -> str:
    return repr(float(x))


def _linear_times(n: int) -> list[float]:
    return [k / n for k in range(1, n + 1)]


def _log_times(lo_exp: float, hi_exp: float, n: int) -> list[float]:
    return [10.0 ** (lo_exp + (hi_exp - lo_exp) * k / (n - 1)) for k in range(n)]


def document(weight: str, operator: str, problem: dict, numerics: dict) -> str:
    lines = [WEIGHTS[weight].rstrip("\n"), "", "[operator]", operator.rstrip("\n"),
             "", "[problem]"]
    lines += [f"{k} = {v}" for k, v in problem.items()]
    if numerics:
        lines += ["", "[numerics]"] + [f"{k} = {v}" for k, v in numerics.items()]
    return "\n".join(lines) + "\n"


def _solve(rng: random.Random, wl: Workload) -> None:
    """Four operator bands x three sizes x {homogeneous, sourced}.

    Sizes, weight families, time counts and spacing follow a fixed Latin
    layout, so every family meets every band and every time count, and every
    pool costs the same: a seed that drew them would move the 90th percentile
    by a third from seed to seed.  The seed picks the initial mode and source
    coefficients and the job order.
    """
    for band, (kind, sizes) in enumerate(SOLVE_OPERATORS):
        for sourced in (False, True):
            for slot, n_modes in enumerate(sizes):
                family = FAMILIES[(slot + band) % 3]
                n_times = SOLVE_TIME_COUNTS[(slot + 2 * band + sourced) % 3]
                if kind == "dirichlet":
                    operator = f"kind = dirichlet\nL = {_fmt(math.pi)}\nN = {n_modes}\n"
                else:
                    operator = FD_OPERATOR + f"L = {_fmt(math.pi)}\nm = 801\nn = {n_modes}\n"
                if (slot + band + sourced) % 2:
                    horizon, times = 100.0, _log_times(-4.0, 2.0, n_times)
                else:
                    horizon, times = 1.0, _linear_times(n_times)
                # a profile is projected onto the basis, modes are not: the
                # kind is laid out, the mode coefficients are seeded
                u0 = ("profile: sine", "profile: parabola", "modes")[(2 * slot + band) % 3]
                if u0 == "modes":
                    u0 = "modes: " + " ".join(f"{rng.uniform(0.1, 1.0):.3f}" for _ in range(3))
                source = "none"
                if sourced:
                    source = "modes: " + " ".join(
                        f"{rng.uniform(0.1, 1.0):.3f}" for _ in range(n_modes))
                problem = {"u0": u0, "source": source, "T": _fmt(horizon),
                           "times": " ".join(_fmt(t) for t in times)}
                doc_id = f"solve-b{band}-n{n_modes}-{'src' if sourced else 'hom'}"
                wl.docs[doc_id] = document(family, operator, problem, {})
                wl.meta[doc_id] = {"times": n_times, "sourced": sourced}
    wl.pool = [Job("solve", d, times=wl.meta[d]["times"]) for d in wl.docs]


def _oracle(rng: random.Random, wl: Workload) -> None:
    """A Latin square of three families x M in {101, 201, 401}, each cell
    with its own K in {500, 1000, 1500} on T = 1: every family meets every
    grid and every step count, and every grid every step count.  Output
    times are T/10, T and seeded multiples of dt between."""
    for f, family in enumerate(FAMILIES):
        for g, grid in enumerate(ORACLE_GRIDS):
            steps = ORACLE_STEPS[(f + g) % len(ORACLE_STEPS)]
            # T/10, T and up to three seeded times between, as in the
            # shipped configs: the gap at the first few steps measures
            # start-up, not the scheme
            ks = sorted({steps // 10, steps}
                        | set(rng.sample(range(steps // 10, steps), rng.randint(0, 3))))
            times = " ".join(_fmt(k / steps) for k in ks)
            if family == "tapered":
                operator = FD_OPERATOR + f"L = {_fmt(math.pi)}\nm = {grid}\nn = 16\n"
                problem = {"u0": "profile: parabola", "source": "modes: 0.5 0.25",
                           "T": "1.0", "times": times}
            else:
                operator = f"kind = dirichlet\nm = {grid}\nN = 16\n"
                problem = {"u0": "profile: sine", "source": "none",
                           "T": "1.0", "times": times}
            numerics = {"dt": _fmt(1.0 / steps), "steps": str(steps)}
            doc_id = f"oracle-{family}-m{grid}-k{steps}"
            wl.docs[doc_id] = document(family, operator, problem, numerics)
            wl.meta[doc_id] = {"times": len(ks)}
    wl.pool = [Job("oracle", d, times=wl.meta[d]["times"]) for d in wl.docs]


def _crosscheck(rng: random.Random, wl: Workload) -> None:
    """Five kernel documents (4-8 log-spaced times from 10**lo to 1e4,
    N = 64, the weight families in turn) and the five verify suites; a pass
    alternates between the two kinds.  The seed sets only the job order."""
    for k, n_times in enumerate(KERNEL_TIME_COUNTS):
        family = FAMILIES[k % len(FAMILIES)]
        lo_exp = KERNEL_LO_EXPS[(2 * k) % len(KERNEL_LO_EXPS)]
        problem = {"u0": "modes: 1", "source": "none", "T": "10000.0",
                   "times": " ".join(_fmt(t) for t in _log_times(lo_exp, 4.0, n_times))}
        doc_id = f"kernel-{family}-t{n_times}"
        wl.docs[doc_id] = document(family, "kind = dirichlet\nN = 64\n", problem, {})
        wl.meta[doc_id] = {"times": n_times}
    wl.pool = [Job("kernel", d, times=wl.meta[d]["times"]) for d in wl.docs]
    wl.pool += [Job("verify", None, ("--suite", suite, "--seed", str(seed)))
                for suite, seed in VERIFY_SUITES]


_GENERATORS = {"solve": _solve, "oracle": _oracle, "crosscheck": _crosscheck}


def build(name: str, seed: int) -> Workload:
    """Documents and job pool of one workload for one seed."""
    if name not in _GENERATORS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{name}:{seed}")
    wl = Workload(name, seed=seed)
    _GENERATORS[name](rng, wl)
    return wl
