"""Known-defect probe: the semigroup ladder cannot reach n = 256 yet.

``build_sm_kernel`` evaluates the Poisson pmf in log space; at n = 256 the
exponent is about 1.1e4 and rounding leaves row 1545 short by 1.103e-12,
above tail_eps = 1e-12, although the truly truncated mass is about 1e-44.
The CLI exits 2 with that CutoffTooSmallError.  The probe is a strict
expected failure: the change that fixes the defect turns it into an
unexpected pass, which fails the suite until the marker is removed.  No
workload raises tail_eps to step around the defect.
"""

import pytest

import oplimits.cli


class CutoffDefect(Exception):
    """The known kernel-cutoff defect reproduced."""


@pytest.mark.xfail(strict=True, raises=CutoffDefect,
                   reason="log-space pmf rounding in build_sm_kernel at n=256")
def test_semigroup_ladder_reaches_256(tmp_path, capsys):
    code = oplimits.cli.main(["semigroup", "--n-ladder", "8,32,128,256",
                              "--out", str(tmp_path / "semigroup.csv")])
    err = capsys.readouterr().err
    if code == 2 and "loses mass" in err:
        raise CutoffDefect(err)
    assert code == 0, err
