"""Benchmark workloads: seeded input trees, initializers and solver settings.

Every workload runs ``tol=1e-12`` and ``max_outer=3``, so each commit does
the same outer work.  A workload covers ``instances`` independent input
trees drawn from the seed.  The distance a reduction reaches from a random
start, and the LP or Bregman work on the way, change by 10-30% from one
random tree to the next, so deep-lp, wide-ibp and wide-mam take a batch of
small trees per seed, one pass of about 15 s: a single large tree per seed
spreads between seeds by more than any regression bound could tolerate.

wide-ibp and wide-mam cap each iterative solve at ``SOLVE_MAX_ITER``
iterations.  Under the default caps (10000 and 5000) the iterations a bench
tree needs vary by a factor of two to three between trees of one shape, and
for MAM the few solves that never converge take most of the time.  Under the
lower cap a solve does at most a fixed amount of work, so the batch time is
steady and follows the cost of an iteration, while about half of the solves
stop unconverged: a solver that converges faster shows in ``nd_exact``,
``report.unconverged_share`` and ``report.final_nd_error``.

The initializers are looked up on ``treeshrink.init_filtration`` at call
time, so the tracer can wrap them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import treeshrink
from treeshrink import cli, init_filtration

SOLVE_MAX_ITER = 300


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``original(seed)`` builds input tree k from its instance seed and
    ``start(original, seed)`` runs the initializer; ``options`` are extra
    ``ReductionConfig`` fields.
    """

    name: str
    solver: str
    instances: int
    original: object
    start: object
    options: dict = field(default_factory=dict)

    def seeds(self, seed):
        """Instance seeds of the given workload seed; disjoint across seeds."""
        return [seed * self.instances + k for k in range(self.instances)]

    def config(self):
        return treeshrink.ReductionConfig(solver=self.solver, tol=1e-12, max_outer=3,
                                          **self.options)


def _deep(stages, branching):
    # The first deep instance of seed 0 is generate_random(..., seed=1).
    return lambda seed: treeshrink.generate_random(stages, branching, dim=2, seed=seed + 1)


def _random_start(branching):
    return lambda original, seed: init_filtration.random_init(
        branching, dim=original.d, seed=seed)


def _ffs_start(k):
    return lambda original, seed: init_filtration.ffs_init(
        init_filtration.ScenarioMatrix.from_tree(original), k)


def _bench(n_subtrees, children):
    # Seed s is the instance `treeshrink bench --seed s` reduces.
    return lambda seed: cli._bench_tree(n_subtrees, children, 1, seed)


def workloads(toy=False):
    """The workloads by name; ``toy`` shrinks every input for the self-test."""
    ibp = {"ibp_max_iter": SOLVE_MAX_ITER}
    mam = {"mam_max_iter": SOLVE_MAX_ITER}
    if toy:
        specs = [
            ("deep-lp", "lp", 1, _deep(2, 3), _random_start([2, 2])),
            ("fan-ffs", "auto", 1, _deep(2, 3), _ffs_start(3)),
            ("wide-ibp", "ibp", 2, _bench(2, 3), _random_start([2, 2, 2]), ibp),
            ("wide-mam", "mam", 2, _bench(2, 3), _random_start([2, 2, 2]), mam),
        ]
    else:
        specs = [
            ("deep-lp", "lp", 10, _deep(3, 6), _random_start([3, 3, 3])),
            ("fan-ffs", "auto", 1, _deep(4, 6), _ffs_start(81)),
            ("wide-ibp", "ibp", 24, _bench(8, 50), _random_start([2, 2, 2]), ibp),
            ("wide-mam", "mam", 14, _bench(8, 10), _random_start([2, 2, 2]), mam),
        ]
    return {name: Workload(name, *rest) for name, *rest in specs}
