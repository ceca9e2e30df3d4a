"""The benchmark's workloads and the seeds they run under.

Each workload is one call of ``wlansteer.runner.run`` on a filtered campaign
grid at a fixed reduced ``k``. The sizes below are part of the benchmark and
must stay the same on every commit that is compared. They keep one call near
a second, so that a run's rate is taken over enough calls to ride out the
speed swings of a shared machine.

This module imports nothing from ``wlansteer`` at load time, so the set-up
probe can time the package import from a clean start.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

# ``--seed n`` selects SEEDS[n % len(SEEDS)] as ``RunConfig.seed``. None keeps
# the grid's own seed (1.3 -> 103, 2.1 -> 201, 2.4 -> 204, 1.2 -> 102).
SEEDS: tuple[Optional[int], ...] = (None, 1, 2, 3, 4, 5)
# pinned like the others but never picked by ``--seed``: a claim checked while
# a change is written can be re-checked on it with ``--held-out``
HELD_OUT_SEED = 2026


@dataclass(frozen=True)
class Workload:
    """A workload's name and the ``RunConfig`` fields it sets; the reasons for
    each choice are in BENCHMARK.json and README.md."""

    name: str
    overrides: dict = field(default_factory=dict)

    @property
    def test_id(self) -> str:
        return self.overrides["test_id"]

    @property
    def workers(self) -> int:
        return self.overrides.get("workers", 1)

    @property
    def emit_events(self) -> bool:
        return self.overrides.get("emit_events", False)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("stock-circle", {"test_id": "1.3", "mechanism": "rssi", "k": 8}),
        # not in BENCHMARK.json: on a shared 2-vCPU machine its run medians
        # spread by 14-29% between runs, more than the bound allows
        Workload("loadaware-home", {"test_id": "2.1", "mechanism": "loadaware", "k": 4}),
        # not in BENCHMARK.json either: its run medians spread by up to 31%
        # between runs; its protocol layers are timed on probes elsewhere
        Workload("trace-interference", {"test_id": "2.4", "emit_events": True}),
        Workload("reach-pool", {"test_id": "1.2", "k": 400, "workers": 2}),
    )
}


def seed_value(seed: int, held_out: bool = False) -> Optional[int]:
    """The ``RunConfig.seed`` a benchmark ``--seed`` stands for."""
    if held_out:
        return HELD_OUT_SEED
    return SEEDS[seed % len(SEEDS)]


def seed_key(value: Optional[int]) -> str:
    """Key of a seed in the golden digest files."""
    return "default" if value is None else str(value)


def run_config(workload: Workload, seed: Optional[int], out_dir: Optional[str], **changes):
    """The ``RunConfig`` of one workload run; ``changes`` override its fields."""
    from wlansteer.runner import RunConfig

    kwargs = dict(workload.overrides, seed=seed, out_dir=out_dir)
    kwargs.update(changes)
    return RunConfig(**kwargs)
