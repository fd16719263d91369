"""Each countermeasure block keeps its fleet-run code in its own module.

A block that is off never runs: with every function of its module that
takes the runner (``run``) patched to raise, a run with the block off
logs the same records as an unpatched one. Each block module also
imports on its own in a fresh interpreter: ``config`` imports the block
modules, so none of them may import ``config`` or ``sim`` when it loads.
"""

from __future__ import annotations

import dataclasses
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

from frmsim import awareness, engagement, scheduling, vigilance
from frmsim.sim import run_scenario

from configs import odd_shift_configs, reassignment_config
from logchecks import log_digest

BLOCKS = {
    "engagement": engagement,
    "vigilance": vigilance,
    "awareness": awareness,
    "scheduling": scheduling,
}


class BlockRan(Exception):
    pass


def runner_functions(module) -> list[str]:
    """The functions defined in ``module`` whose first parameter is ``run``."""
    return sorted(
        name
        for name, value in vars(module).items()
        if inspect.isfunction(value)
        and value.__module__ == module.__name__
        and next(iter(inspect.signature(value).parameters), None) == "run"
    )


def patch_to_raise(monkeypatch, module) -> list[str]:
    names = runner_functions(module)
    for name in names:

        def raise_(*args, name=name, **kwargs):
            raise BlockRan(f"{module.__name__}.{name}")

        monkeypatch.setattr(module, name, raise_)
    return names


def configs_with(block: str, on: bool):
    """A mixed three-specialist fleet with frequent control transitions,
    and a specialist whose survey outreach reassigns them, with ``block``
    switched on or off."""
    for cfg in (next(odd_shift_configs()), reassignment_config(seed=1)):
        yield cfg.with_overrides(toggles=dataclasses.replace(cfg.toggles, **{block: on}))


@pytest.mark.parametrize("block", sorted(BLOCKS))
def test_a_block_that_is_off_never_runs(monkeypatch, block):
    expected = [log_digest(cfg) for cfg in configs_with(block, on=False)]
    assert patch_to_raise(monkeypatch, BLOCKS[block])
    assert [log_digest(cfg) for cfg in configs_with(block, on=False)] == expected
    # The patch reaches the block: switched on, it raises.
    with pytest.raises(BlockRan):
        run_scenario(next(configs_with(block, on=True)))


@pytest.mark.parametrize("block", sorted(BLOCKS))
def test_a_block_module_imports_on_its_own(block):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", f"import frmsim.{block}"],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
