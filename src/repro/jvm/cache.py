"""Two-level cache simulator.

Stands in for the paper's hardware cache-miss counters (the ``cachemiss``
metric of Table 2).  The model is deliberately simple and deterministic:

- per-core L1: direct-mapped, 32 KiB (512 lines of 64 bytes),
- shared LLC: direct-mapped, 2 MiB (32768 lines).

Every heap access goes through :meth:`CacheModel.access` with the word
address assigned by the heap at allocation time.  A miss in L1 falls
through to the LLC; misses at either level increment the counter and add
a latency penalty to the executing thread, which is what makes
memory-bound workloads (``scrabble``, ``streams-mnemonics``) behave
differently from compute-bound ones in the simulated timing.
"""

from __future__ import annotations

from repro.jvm.costmodel import L1_MISS_PENALTY, LLC_MISS_PENALTY

WORDS_PER_LINE = 8
L1_LINES = 512
LLC_LINES = 32768


class CacheModel:
    """Deterministic L1 (per core) + shared LLC cache model.

    When a :class:`~repro.jvm.counters.Counters` instance is supplied, each
    miss also bumps its ``cachemiss`` counter (the Table 2 metric).
    """

    def __init__(self, cores: int, counters=None) -> None:
        self.cores = cores
        self.counters = counters
        self.l1_tags = [[-1] * L1_LINES for _ in range(cores)]
        self.llc_tags = [-1] * LLC_LINES
        self.l1_misses = 0
        self.llc_misses = 0

    def access(self, core: int, word_addr: int) -> int:
        """Simulate an access; returns the added latency penalty in cycles."""
        line = word_addr // WORDS_PER_LINE
        if self.l1_tags[core][line % L1_LINES] == line:
            return 0
        return self.miss(core, line)

    def miss(self, core: int, line: int) -> int:
        """L1-miss slow path (tag ``line`` absent from ``core``'s L1).

        Split out of :meth:`access` so the tier-1 emitter can inline the
        hit check (a single list compare) and only pay a call on a miss.
        """
        self.l1_tags[core][line % L1_LINES] = line
        self.l1_misses += 1
        if self.counters is not None:
            self.counters.cachemiss += 1
        idx2 = line % LLC_LINES
        if self.llc_tags[idx2] == line:
            return L1_MISS_PENALTY
        self.llc_tags[idx2] = line
        self.llc_misses += 1
        if self.counters is not None:
            self.counters.cachemiss += 1
        return L1_MISS_PENALTY + LLC_MISS_PENALTY

    @property
    def total_misses(self) -> int:
        return self.l1_misses + self.llc_misses

    def reset(self) -> None:
        for tags in self.l1_tags:
            tags[:] = [-1] * L1_LINES
        self.llc_tags = [-1] * LLC_LINES
        self.l1_misses = 0
        self.llc_misses = 0

