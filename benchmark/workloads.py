"""Benchmark workloads: which unitaries, on which architectures, under
which search settings, and why.

Every input is derived from the run's seed; the compiler receives only the
generated matrices and the shipped graphs.  The warm-up unitary, compiled
untimed during set-up, is Haar-random on every workload: a dense matrix
costs about the same to compile whatever the seed, while one d=7 Clifford
compiled in 10 ms and another in 700 ms.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from quditc import SearchConfig, random_cliffords
from quditc.bench import architectures_for_dim


@dataclass(frozen=True)
class Workload:
    name: str
    dim: int
    source: str                 # "clifford" or "haar"
    per_arch: int               # measured instances per architecture
    search: dict = field(default_factory=dict)  # SearchConfig arguments

    @property
    def config(self) -> SearchConfig:
        return SearchConfig(**self.search)

    def architectures(self):
        return architectures_for_dim(self.dim)

    def unitaries(self, seed: int, per_arch: int | None = None) -> list[np.ndarray]:
        count = self.per_arch if per_arch is None else per_arch
        if self.source == "clifford":
            return random_cliffords(self.dim, count, seed)
        rng = np.random.default_rng(np.random.SeedSequence([seed, self.dim]))
        return [haar_unitary(self.dim, rng) for _ in range(count)]

    def warmup(self, seed: int) -> np.ndarray:
        rng = np.random.default_rng(np.random.SeedSequence([seed, self.dim, 1]))
        return haar_unitary(self.dim, rng)


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary: QR of a complex Ginibre matrix with the phases
    of R's diagonal moved into Q (Mezzadri 2007)."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


WORKLOADS = {
    w.name: w
    for w in (
        # The paper's benchmark set.  Nearly every search uses the whole node
        # budget, so the scoring loop does almost all of the work and
        # cost_ratio.geomean is the cost reached at a fixed budget.
        Workload("clifford7-budget", 7, "clifford", 40, {"max_nodes": 1000}),
        # Every search exhausts its space in a few dozen nodes: no layer
        # dominates, and cost_ratio.geomean is the optimum within the limit.
        Workload("haar3-exhaust", 3, "haar", 300, {"max_nodes": 100_000}),
        # The warm-start ladder is accepted and no node is expanded: only the
        # qr bound, the replay with its routing, and assemble remain.
        Workload("haar31-first", 31, "haar", 40, {"return_first": True}),
    )
}
