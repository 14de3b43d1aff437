"""Run configuration and the event cap, shared by both engines.

A path may take at most DEFAULT_EVENT_CAP events; SimConfig.check_event_cap
is the one rule that enforces it. Both engines, the log reader's header
check and the CLI's up-front estimate read the cap when they run, so
patching it here caps them all, and neither engine imports the other.

SimConfig refuses more than MAX_SAMPLES samples when it is built, so a
flag, a manifest and a log header all meet that bound before any state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .density import UniformDensity, parse_density

DEFAULT_EVENT_CAP = 10_000_000

# What still grows with n: the start state's label bitmasks, about n^2 / 16
# bytes (6 MB at the bound), and the back-in-time engine's per-event
# tuple(weights) and fsum over its O(n) rank weights, so a rho=0 path costs
# O(n^2) time there. An Arg holds only its events and end.
MAX_SAMPLES = 10_000


class EventCapExceeded(RuntimeError):
    """A simulation ran, or would run, past the hard event cap."""


@dataclass(frozen=True)
class SimConfig:
    """Everything one simulation depends on; immutable and picklable.

    seed is the 64-bit root seed; replicate_index selects the child stream
    (see rng.child_seed), so a batch of replicates shares one config except
    for this index.
    """

    n_samples: int
    rho: float = 0.0
    density: object = field(default_factory=UniformDensity)
    seed: int = 0
    replicate_index: int = 0

    def __post_init__(self):
        if self.n_samples < 2:
            raise ValueError("need at least 2 samples, got %r" % (self.n_samples,))
        if not 0.0 <= self.rho < math.inf:
            raise ValueError("recombination rate must be finite and >= 0, got %r" % (self.rho,))
        try:
            rho = float(self.rho)
        except OverflowError:  # an int compares below inf but may not fit a float
            raise ValueError("recombination rate must be finite, got an integer too large for a float") from None
        # -0.0 would print "-0" in a log header, which reads back as 0
        object.__setattr__(self, "rho", abs(rho))
        if isinstance(self.density, str):
            object.__setattr__(self, "density", parse_density(self.density))
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be an unsigned 64-bit integer")
        if self.replicate_index < 0:
            raise ValueError("replicate_index must be nonnegative")
        if self.n_samples > MAX_SAMPLES:
            if self.n_samples - 1 > DEFAULT_EVENT_CAP:  # its coalescences alone pass the cap
                raise EventCapExceeded("a path is expected to take at least n - 1 events, past the cap of %d"
                                       " (n=%d rho=%g)" % (DEFAULT_EVENT_CAP, self.n_samples, self.rho))
            raise ValueError("need at most %d samples, got %d: the start state takes about n^2/16 bytes"
                             " and each back-in-time step sums O(n) rank weights" % (MAX_SAMPLES, self.n_samples))

    def with_replicate(self, r):
        return SimConfig(self.n_samples, self.rho, self.density, self.seed, r)

    def check_event_cap(self, events):
        """Raise EventCapExceeded if a path of this config has taken more than the cap."""
        cap = DEFAULT_EVENT_CAP
        if events > cap:
            raise EventCapExceeded("exceeded %d events (n=%d rho=%g)" % (cap, self.n_samples, self.rho))
