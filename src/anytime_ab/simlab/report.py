"""Study result container and its serializations."""

import json
from dataclasses import dataclass, field, fields


@dataclass
class SimReport:
    """Aggregated outcome of one Monte Carlo study run for one method.

    ``cumulative_rejection_by_peek`` is the fraction of replications that
    have crossed by each peek; it is nondecreasing by construction and a
    violation is treated as a harness bug. ``meta`` records the scale the
    study actually ran at (replication count, peek cadence, tuning)
    alongside any study-specific summaries.
    """

    study: str
    method: str
    replications: int
    horizon: int
    master_seed: int
    peek_ns: list[int] = field(default_factory=list)
    cumulative_rejection_by_peek: list[float] = field(default_factory=list)
    power: float | None = None
    power_by_multiple: list[tuple[float, float]] | None = None
    stop_time_quantiles: dict[str, float] | None = None
    miscoverage_at_stop: float | None = None
    mean_loss_at_stop: float | None = None
    calibration_pairs: list[tuple[float, float]] | None = None
    stop_ratio_by_effect: list[tuple[float, float]] | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.peek_ns) != len(self.cumulative_rejection_by_peek):
            raise ValueError("peek grid and rejection curve lengths differ")
        curve = self.cumulative_rejection_by_peek
        if any(not 0.0 <= v <= 1.0 for v in curve):
            raise ValueError("rejection fractions must lie in [0, 1]")
        if any(b < a for a, b in zip(curve, curve[1:])):
            raise ValueError("cumulative rejection curve must be nondecreasing")

    def to_dict(self) -> dict:
        """The fields by name, sharing their values; ``asdict``'s deep copy is not needed to serialize."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    def csv_rows(self):
        """Tidy (study, method, peek_n, value) rows for external plotting."""
        for n, v in zip(self.peek_ns, self.cumulative_rejection_by_peek):
            yield self.study, self.method, n, v


def write_csv(reports, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("study,method,peek_n,value\n")
        for report in reports:
            for study, method, n, v in report.csv_rows():
                fh.write(f"{study},{method},{n},{v!r}\n")


def write_json(reports, path) -> None:
    payload = [r.to_dict() for r in reports]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")
