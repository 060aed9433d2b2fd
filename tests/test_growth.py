"""Growth of the worst overshoot with M, past the reach of criterion 8.

Criterion 8 (``test_acceptance.py``) runs the smallbase d=2 ladder to
M=128.  The one-plane window scan that ``disc_report`` uses on latin
colorings carries the same ladder to M=512, where disc+ still grows by at
most 2 per doubling of M, as the paper's O(log^(d-1) M) bound predicts.
"""

from fractions import Fraction

from decluster.discrepancy import disc_report
from decluster.schemegen import generate_scheme


def test_smallbase_planar_ladder_to_512():
    ladder = [2**k for k in range(2, 10)]  # 4 .. 512
    plus = {}
    for M in ladder:
        rep = disc_report(generate_scheme(M, 2, "smallbase"), M, positive_only=True)
        plus[M] = rep.disc_plus.value
    steps = [plus[2 * M] - plus[M] for M in ladder[:-1]]
    assert all(step <= 2 for step in steps), f"growth steps {steps}"
    assert plus[128] == Fraction(768, 128)
    assert plus[256] == Fraction(1776, 256)
    assert plus[512] == Fraction(4124, 512)
