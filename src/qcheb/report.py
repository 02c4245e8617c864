"""Result records for identity checks."""

from typing import NamedTuple, Optional

from .polyring import format_rational
from .qkernel import ParamPoint


class IdentityReport(NamedTuple):
    """Outcome of one identity at one parameter point over an index range.

    A fail report, made only by check_range, carries a witness (the first
    offending index with both sides serialized); a skipped report carries the
    reason, such as the pole that stopped the check.
    """

    identity_id: str
    point: Optional[ParamPoint]
    index_range: tuple
    status: str  # "pass" | "fail" | "skipped"
    witness: Optional[dict] = None
    reason: Optional[str] = None

    def sort_key(self):
        q = format_rational(self.point.q) if self.point else ""
        b = format_rational(self.point.b) if self.point else ""
        return (self.identity_id, q, b, self.index_range)

    def to_json(self):
        data = {
            "identity_id": self.identity_id,
            "point": None
            if self.point is None
            else {
                "q": format_rational(self.point.q),
                "b": format_rational(self.point.b),
            },
            "index_range": list(self.index_range),
            "status": self.status,
        }
        if self.reason is not None:
            data["reason"] = self.reason
        if self.witness is not None:
            data["witness"] = {k: str(v) for k, v in self.witness.items()}
        return data


def skipped(identity_id, point, index_range, reason) -> IdentityReport:
    return IdentityReport(identity_id, point, index_range, "skipped", reason=reason)


def check_range(identity_id, point, indices, both_sides, index_range=None) -> IdentityReport:
    """Compare the (lhs, rhs) pairs that both_sides(n) yields, n over indices.

    This is the one place that makes a pass or fail report, and the one place
    that picks a witness: the first unequal pair, at its index n.  The pairs
    are drawn one at a time, so no pair after it (at n or at a later index) is
    evaluated.  The report's index range is index_range when given, else the
    least and greatest index."""
    indices = list(indices)
    if index_range is None:
        index_range = (min(indices), max(indices)) if indices else (0, 0)
    for n in indices:
        for lhs, rhs in both_sides(n):
            if lhs != rhs:
                witness = {"n": n, "lhs": lhs, "rhs": rhs}
                return IdentityReport(identity_id, point, index_range, "fail", witness)
    return IdentityReport(identity_id, point, index_range, "pass")
