"""Independent random substreams: one generator per purpose per
specialist, or of the fleet, so that toggling a block or adding a
specialist leaves every other stream's draws unchanged."""

from __future__ import annotations

import hashlib
import json
import random

__all__ = ["substream"]


def substream(seed: int, purpose: str, ident: str) -> random.Random:
    """The generator for one purpose of one specialist (or of the fleet),
    seeded from sha256 of (seed, purpose, id)."""
    key = json.dumps([seed, purpose, ident]).encode("utf-8")
    return random.Random(int.from_bytes(hashlib.sha256(key).digest(), "big"))
