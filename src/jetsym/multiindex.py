"""Multi-indices K = (k_1, ..., k_p) for jet coordinates and total derivatives."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations


@dataclass(frozen=True, order=False)
class MultiIndex:
    """A p-tuple of non-negative derivative counts.

    Ordered by total order |K| first, then lexicographically on the counts.
    """

    counts: tuple

    def __post_init__(self):
        if any(k < 0 for k in self.counts):
            raise ValueError(f"negative count in multi-index {self.counts}")
        object.__setattr__(self, "counts", tuple(int(k) for k in self.counts))

    @classmethod
    def zero(cls, p):
        return cls((0,) * p)

    @classmethod
    def unit(cls, p, i):
        """The multi-index e_i (slots are 0-based)."""
        c = [0] * p
        c[i] = 1
        return cls(tuple(c))

    @classmethod
    def from_slots(cls, p, slots):
        c = [0] * p
        for i in slots:
            c[i] += 1
        return cls(tuple(c))

    @property
    def p(self):
        return len(self.counts)

    @property
    def order(self):
        return sum(self.counts)

    def inc(self, i):
        """K,i — increment slot i."""
        c = list(self.counts)
        c[i] += 1
        return MultiIndex(tuple(c))

    def slots(self):
        """Slot indices with multiplicity, lowest slot first."""
        out = []
        for i, k in enumerate(self.counts):
            out.extend([i] * k)
        return tuple(out)

    def routes(self):
        """All distinct orderings of the slot multiset.

        Each route is a tuple of slot indices; resolving a jet on a section
        applies the section derivatives in route order (outermost first).
        """
        return sorted(set(permutations(self.slots())))

    def sort_key(self):
        return (self.order, self.counts)


def indices_of_order(p, n):
    """All multi-indices with p slots and |K| = n, in canonical order."""
    out = []

    def rec(prefix, remaining, slots_left):
        if slots_left == 1:
            out.append(MultiIndex(tuple(prefix + [remaining])))
            return
        for k in range(remaining + 1):
            rec(prefix + [k], remaining - k, slots_left - 1)

    rec([], n, p)
    return sorted(out, key=MultiIndex.sort_key)


def indices_up_to(p, n):
    """All multi-indices with 1 <= |K| <= n."""
    out = []
    for m in range(1, n + 1):
        out.extend(indices_of_order(p, m))
    return out
