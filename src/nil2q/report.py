"""Deterministic line-oriented check reports shared by the verifier
suites and the CLI."""

from __future__ import annotations


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

