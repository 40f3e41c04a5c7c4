"""The stdout of every `verify` suite at its defaults and seed 0, pinned by sha256.

A change that alters any report byte fails here.  The table holds for the
numpy the project is tested with (2.4.6); a change that moves a digest on
purpose updates the table and lists the old and new values in CHANGES.md.
"""

import hashlib

import pytest

from wyinfo import cli
from wyinfo.suites import SUITES

SEED0_DIGESTS = {
    "wy-curvature": "17e3680182835d712aec380ac481f4e946687058893c55b5336db373e9f495b8",
    "pullback": "8418aee91b0b17cf399bedde801d4a4f9ab62ec407c684133509e77bb15bc3cd",
    "hessian": "96a387b834ec386c78e1a49b2bd9c1a651ea89ef77a17a85051ff4273542abb2",
    "monotonicity": "2dc9842f11984e05fa0a3240a76c4884f829c2af807eafa68c73c6b20c25b19c",
    "geodesic-length": "076a944cb5fd42b057eb50459fa0282f502763bd5eb07ef0aa7bde441fba9a4f",
    "dual-pairs": "d87e452a3f43a3e53036f52cbf55786c10266eadd27bee79dd9d568fe2ada638",
    "classical": "d70983493465380f292575f539010d94b40e975f2282bbf29a9ae26e16b55e3c",
    "skew-identity": "5007dcddedfb2ba9762c7772d81b1baf9f16f593b7264044f87b81547373c8ad",
    "alpha": "c3fdb8938bb1d9155390b99524c39af2643f4b0efac901414cecd0140e2b8ef3",
    "distance-bound": "e4fa31a7eba655970842167a6042f312b3e93bcc5b0b25f087155ac7c27d9cd8",
}


def test_table_names_every_suite():
    assert list(SEED0_DIGESTS) == list(SUITES)


@pytest.mark.parametrize("suite", list(SEED0_DIGESTS))
def test_verify_stdout_digest(suite, capsys):
    assert cli.main(["verify", suite, "--seed", "0"]) == 0
    stdout = capsys.readouterr().out
    assert hashlib.sha256(stdout.encode()).hexdigest() == SEED0_DIGESTS[suite]
