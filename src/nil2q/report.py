"""Deterministic line-oriented check reports shared by the verifier
suites and the CLI, and the one rule by which a suite picks the members
of a family too large to sweep."""

from __future__ import annotations

# The golden-ratio sequence k·φ⁻¹ mod 1 has no period, so its positions
# fall in every residue class of the enumerations' mixed-radix blocks (the
# maps of one fab, of one fcomm, ...).  A plain stride does not: 256 maps
# D4 -> Q8 taken 8 at step 33 ≡ 1 mod 16 stay in the first slot of each
# 16-map block, where fcomm = 0.
_INV_PHI = (5 ** 0.5 - 1) / 2


def pick(items, cap):
    """min(n, cap) of the n `items`, in their order: the first distinct
    positions ⌊n·(k·φ⁻¹ mod 1)⌋, k = 0, 1, 2, ...  So all of them when
    n <= cap, and the first item, k = 0, always."""
    items = list(items)
    at, k = set(), 0
    while len(at) < min(len(items), cap):
        at.add(int(len(items) * (k * _INV_PHI % 1)))
        k += 1
    return [items[i] for i in sorted(at)]


class CheckResult:
    __slots__ = ("check_id", "instance", "ok", "detail")

    def __init__(self, check_id: str, instance: str, ok: bool, detail: str = ""):
        self.check_id, self.instance, self.ok, self.detail = (
            check_id, instance, ok, detail)

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        tail = f"  # {self.detail}" if self.detail and not self.ok else ""
        return f"{status} {self.check_id} {self.instance}{tail}"


def all_ok(results) -> bool:
    return all(r.ok for r in results)
