"""The competitiveness window as a walk over the ledger's rows, kept as the
reference.

``churnskip.metrics.competitiveness`` reads a window's work and churn as
differences of the ledger's prefix sums. This is the scan it replaced: the
rows from the back-shifted start to ``t_e``, as far as they are sealed,
with work counted from ``t_s`` on. Both must give equal reports for every
window, one whose back-shifted start is below round 0 or whose end runs
past the last sealed row included.
"""

from churnskip.errors import EmptyWindow
from churnskip.metrics import CompetitivenessReport


def competitiveness(ledger, t_s: int, t_e: int, alpha: int,
                    beta_bound: float) -> CompetitivenessReport:
    if t_e <= t_s or t_s < 0 or alpha < 0:
        raise EmptyWindow(f"bad window [{t_s}, {t_e}] with back-shift {alpha}")
    work = 0
    churn = 0
    # row r sits at index r
    for row in ledger.rows[max(0, t_s - alpha):t_e + 1]:
        if t_s <= row.round:
            work += row.messages_sent + row.edges_formed + row.edges_deleted
        churn += row.churn_in + row.churn_out
    return CompetitivenessReport(t_s, t_e, work, churn, alpha, beta_bound)
