"""The stdout of every `verify` suite at its defaults and seeds 0-2, pinned by sha256.

A change that alters any report byte fails here.  The table holds for the
numpy the project is tested with (2.4.6); a change that moves a digest on
purpose updates the table and lists the old and new values in CHANGES.md.
"""

import hashlib

import pytest

from wyinfo import cli
from wyinfo.suites import SUITES

DIGESTS = {
    0: {
        "wy-curvature": "88047d73b09da7c25e03a06237e1667ce3ba1d74a0309d7c515bb0cd82e0aa5c",
        "pullback": "8418aee91b0b17cf399bedde801d4a4f9ab62ec407c684133509e77bb15bc3cd",
        "hessian": "96a387b834ec386c78e1a49b2bd9c1a651ea89ef77a17a85051ff4273542abb2",
        "monotonicity": "318d4041830db34c99a129655697c7b3cbbaf96ede31d310f90a5b8e0e81908d",
        "geodesic-length": "1263e595d64a33fbb3de5269b53fb57821c910aa8be292e1e1cd85895bb0e563",
        "dual-pairs": "d87e452a3f43a3e53036f52cbf55786c10266eadd27bee79dd9d568fe2ada638",
        "classical": "d70983493465380f292575f539010d94b40e975f2282bbf29a9ae26e16b55e3c",
        "skew-identity": "5007dcddedfb2ba9762c7772d81b1baf9f16f593b7264044f87b81547373c8ad",
        "alpha": "c3fdb8938bb1d9155390b99524c39af2643f4b0efac901414cecd0140e2b8ef3",
        "distance-bound": "e4fa31a7eba655970842167a6042f312b3e93bcc5b0b25f087155ac7c27d9cd8",
    },
    1: {
        "wy-curvature": "9cdc89a499a7c7766dbc729de0586dfbd7b3497c6f5b32bd9bbb6b01644ac67d",
        "pullback": "3acb7bd67a3dd6d4fca27954dd82d3480345a8945f66aa329320f9c5969fb4c7",
        "hessian": "5c8de51d1166248b85baa66b30d0e7ab6a45332bfa2e0c9f11f2b5f0e83438dc",
        "monotonicity": "c8069d8891929edf4de700f7cd65dc97b5736669f88349f5cd1636b769086bb1",
        "geodesic-length": "7532a305b2f8d6201f93af65bc983dfb9ae4492f844ba6faa2e033996f62e3ff",
        "dual-pairs": "f7015a0a0a93364341a67188c710b75e013dbf4734d6826673b9d87b6dae69e4",
        "classical": "6aeb20130297b7cbe00f6df5c74ab32205a7958f353c15cc3a6dfc4541961fad",
        "skew-identity": "b4e03254125befc52e0d23be4dcc823ad2e1d7d7af42baaab135172fb3aab4d7",
        "alpha": "3e0f3125142d65f37569b9a2f1524b2811d3cfc4935c1834b43654b6e82202cf",
        "distance-bound": "d1453d11c4960fbdeb49a4005e2b7108885929566939022f7d1a0158252deea0",
    },
    2: {
        "wy-curvature": "a3bc5b9179ec17b4d06fe83312406b66fb3c1521c1efa3ffbf8f223ae223cbc9",
        "pullback": "ae5f8a74b7bba51aea4432b5c4ae174223d0db021ca20ac435d25b31effa06d5",
        "hessian": "ede5364bd7c09e6ee34247edc05e45c7539b9baad396e079491d18bcee4ebec5",
        "monotonicity": "a6cd0db5ed20bc83ef443b9f662bf923982b86d13236fe623bce72f18030f7a6",
        "geodesic-length": "645ffe974a019c5a22e7e2766f09a1ffe1b69d3ebbcc1cad3e1d76a712647534",
        "dual-pairs": "7000383aecb0b33c591b1d938774f3de32d8e58b58491dd56f89b36c6e1f61cb",
        "classical": "bbda827154f92b6bead5dcd2085d1250aa8106179eea5b98fe51260a193b1ea6",
        "skew-identity": "2fc4e1ca34240149cce3279c39ca345221baec4bd61ad475aff9302b18529ec9",
        "alpha": "717ebba678cf0abcb0482949c9a00375e55b9c391223062ed9d1f91beff9702c",
        "distance-bound": "0c0928f06989124dc4265efad08475f9943fd2acbb1f5de502f98d1108f0d42b",
    },
}


def test_table_names_every_suite():
    assert all(list(table) == list(SUITES) for table in DIGESTS.values())


@pytest.mark.parametrize("suite", list(SUITES))
def test_verify_stdout_digest(suite, capsys):
    for seed, table in DIGESTS.items():
        assert cli.main(["verify", suite, "--seed", str(seed)]) == 0
        stdout = capsys.readouterr().out
        assert hashlib.sha256(stdout.encode()).hexdigest() == table[suite], f"seed {seed}"
