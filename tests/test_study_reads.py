"""A refinement study reads each partial value once per distinct eps and n.

The partial column depends on eps and n only, so the table interpolates
the run's profile once per distinct eps, not once per (eps, level) row.
"""

from fractions import Fraction as F

import kantgap as kg
from kantgap import primal


def test_a_study_interpolates_once_per_distinct_eps(monkeypatch):
    masses = []
    read = primal.value_from_run

    def counted(run, m):
        masses.append(m)
        return read(run, m)

    monkeypatch.setattr(primal, "value_from_run", counted)
    # "1/n" and "1/2" coincide at n = 2
    rows = kg.refinement_study(kg.example_diagonal, [2, 4], ["1/n", 0, "1/2"], [0, 1, 2])
    assert len(rows) == 2 * 3 * 3
    # per n: the full value, then each distinct eps in grid order
    assert masses == [1, F(1, 2), 1, 1, F(3, 4), 1, F(1, 2)]
    assert [row.partial for row in rows if row.n == 4 and row.level == 0] == [0, 1, 0]
