"""Workload definitions for the frmsim benchmark.

Every workload runs the same researcher cycle in one process, in a
closed loop (each operation starts when the previous one has finished):
``simulate`` the workload's scenario, ``report`` on the persisted log,
``ablate`` a paired-seed toggle comparison, and ``calibrate`` the
session-length hazard. Running the whole cycle on every workload means
every end-to-end metric is measured on every workload; the workloads
differ in which step dominates and in which layer that step stresses.

All inputs are generated from the workload seed. The generator keeps
the amount of work nearly the same for every seed (the same mix of
specialists, dealt out in a seeded order), so seeds change the random
stream the simulator sees, not the size of the job.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Optional

from frmsim.config import ScenarioConfig, ShiftConfig, SpecialistDef, Toggles, default_config
from frmsim.scheduling import Stage

# The four blocks other than engagement, in the CLI's ``--set`` spelling.
ALL_BUT_ENGAGEMENT = "education,awareness,vigilance,scheduling"


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # Scenario that ``simulate`` and ``report`` run. ``fleet_size`` of
    # None means the packaged one-specialist default config.
    fleet_size: Optional[int]
    horizon_days: int
    toggles: Toggles
    # ``ablate`` compares these toggle sets (NAME:SPEC) over
    # ``ablation_seeds`` paired seeds of the default config.
    ablation_sets: tuple[str, ...]
    ablation_seeds: int
    # ``simulate`` operations per round of the closed loop.
    simulate_reps: int

    def tiny(self) -> "Workload":
        """Toy-scale variant for the benchmark's smoke test."""
        return dataclasses.replace(
            self,
            fleet_size=None if self.fleet_size is None else 3,
            horizon_days=2,
            ablation_seeds=3,
            simulate_reps=1,
        )

    def scenario(self, seed: int) -> ScenarioConfig:
        if self.fleet_size is None:
            return default_config(seed=seed, horizon_days=self.horizon_days, toggles=self.toggles)
        return fleet_config(seed, self.fleet_size, self.horizon_days, self.toggles)

    def ablation_base_seed(self, seed: int, op_index: int) -> int:
        # Each ablate op in a run takes a fresh block of paired seeds, so
        # the pooled delta SD rests on every pair the run simulated.
        return seed * 100_000 + op_index * self.ablation_seeds


def fleet_config(seed: int, size: int, horizon_days: int, toggles: Toggles) -> ScenarioConfig:
    """A mixed night-shift fleet: every fourth specialist is dual, the
    susceptibility ladder spans 0.8 to 1.2, one in ten is a trainee and
    one in ten dual-qualified, and every shift has one scheduled break."""
    rng = random.Random(f"frmsim-bench-fleet:{size}:{seed}")
    if size > 1:
        ladder = [0.8 + 0.4 * i / (size - 1) for i in range(size)]
    else:
        ladder = [1.0]
    rng.shuffle(ladder)
    specs = []
    for i in range(size):
        stage = Stage.SINGLE_QUALIFIED
        if i % 10 == 3:
            stage = Stage.TRAINEE
        elif i % 10 == 7:
            stage = Stage.DUAL_QUALIFIED
        specs.append(
            SpecialistDef(
                specialist_id=f"as-{i:02d}",
                susceptibility=round(ladder[i], 4),
                initial_sleep_pressure=round(rng.uniform(0.05, 0.2), 4),
                stage=stage,
                dual=i % 4 == 0,
            )
        )
    break_offset_min = rng.randrange(200, 281, 10)
    return default_config(
        seed=seed,
        horizon_days=horizon_days,
        fleet=tuple(specs),
        shift=ShiftConfig(scheduled_breaks=((break_offset_min, 20),)),
        toggles=toggles,
    )


WORKLOADS = {
    w.name: w
    for w in (
        # The per-second ICT path dominates: every specialist drives with
        # engagement on, so ict_tick runs every driving second, and the
        # log is heavy (about 8 MiB), so encoding and the digest show.
        # Next-event time advance cannot skip seconds here and should
        # change nothing; drawing the ICT jitter once per gap should.
        Workload(
            name="fleet_all_on",
            why="20 specialists x 3 days, all blocks on: the per-second ICT path and a heavy log dominate",
            fleet_size=20,
            horizon_days=3,
            toggles=Toggles.all_on(),
            ablation_sets=("off:none", "on:all"),
            ablation_seeds=30,
            simulate_reps=1,
        ),
        # No second needs per-second work, so the loop overhead per
        # simulated second and the per-minute blocks dominate, and the
        # reliability re-fold grows with the fleet. Next-event advance
        # and fleet-level reliability show here; ICT changes must not.
        # The ablation keeps engagement off in both arms so that no
        # operation of this workload reaches the ICT code.
        Workload(
            name="fleet_engagement_off",
            why="40 specialists x 3 days, engagement off: loop overhead, per-minute blocks and the reliability re-fold dominate",
            fleet_size=40,
            horizon_days=3,
            toggles=Toggles(engagement=False),
            ablation_sets=("off:none", "on:" + ALL_BUT_ENGAGEMENT),
            ablation_seeds=30,
            simulate_reps=1,
        ),
        # The paper's paired ablation on the default 1-specialist, 2-day
        # config: per-run fixed cost dominates (config override
        # round-trip, hashing, rater qualification, the metrics fold).
        # Its logs are small and never encoded by ``ablate``, so this
        # workload bypasses every event-log optimisation.
        Workload(
            name="ablation_sweep",
            why="60-seed paired ablation of the default config plus calibrate: per-run fixed cost dominates, no log encoding",
            fleet_size=None,
            horizon_days=2,
            toggles=Toggles.all_on(),
            ablation_sets=("off:none", "on:all"),
            ablation_seeds=60,
            simulate_reps=4,
        ),
    )
}
