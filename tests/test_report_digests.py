"""The stdout of every `verify` suite at its defaults and seeds 0-2, and every
catalog entry's curvature reports over a fixed list of spectra, pinned by sha256.

A change that alters any report byte fails here.  The tables hold for the
numpy the project is tested with (2.4.6); a change that moves a digest on
purpose updates the table and lists the old and new values in CHANGES.md.
"""

import hashlib
import json

import numpy as np
import pytest

from wyinfo import cli
from wyinfo.curvature import scalar_curvature
from wyinfo.monotone import catalog
from wyinfo.suites import SUITES

DIGESTS = {
    0: {
        "wy-curvature": "ffb97d2f16d5f98166ea41e525e91b675b0f393d13033040191604a897f654f9",
        "pullback": "7edfe38b0f665edc441093d2d1fa80f8a84460d41202fba49ca1edfc4d00eebc",
        "hessian": "53bdf1583c7bc82923065c5cbd35fddb00ae6dcdc9dc2ca0020c1e3708f9dbcf",
        "monotonicity": "318d4041830db34c99a129655697c7b3cbbaf96ede31d310f90a5b8e0e81908d",
        "geodesic-length": "e053004ef5f7cdee88dd1933227832141906d8b51a531369715ef0faec11b3b5",
        "dual-pairs": "205b9dd12e49d138e36ff441b37caa3d80c6ea4d1db582cd380bdd761e99e223",
        "classical": "cae72d0a9581b6fcc94a1002a8faee3f1e8724d3c7bb226c6c685cdb3a443e94",
        "skew-identity": "71990705e09d6df093a2f3f1a86bf3bbfc86eb32b5a165deb3a5030d48a77d47",
        "alpha": "5ff8ee1422cc0364c612a85b723e637092f4fcac91811fe4ac9c2a654a4c12b9",
        "distance-bound": "89fd97c6b8cf23e82b8796e1ab50f4acc4d24daef2bc9df80813bbcfc6d9273d",
    },
    1: {
        "wy-curvature": "9be5d604851ac7d36ccccb35202d04a68da0c43da5b8d06af396b1044d6c5495",
        "pullback": "2d08ee2b778d3e3beee872e7acffa8f3373e6d7939fb63a0980782fad812599b",
        "hessian": "c171c79204de9883c9a3a7ea9ad03f290b515c14c67a79e8742b15f0e03776e5",
        "monotonicity": "c8069d8891929edf4de700f7cd65dc97b5736669f88349f5cd1636b769086bb1",
        "geodesic-length": "3835d57f0b06479f798e9fdbe83269d520c30ab064be12e18f600af37b8d60a6",
        "dual-pairs": "205b9dd12e49d138e36ff441b37caa3d80c6ea4d1db582cd380bdd761e99e223",
        "classical": "a3a7df5c851feedff3458db8a39a36baa61d5e823f5ae7d5bc75b043cf942cda",
        "skew-identity": "740dc1ae06d6b9888cf769ef03e0921694f1de648e19b2a7836c68baefc3aed7",
        "alpha": "5ff8ee1422cc0364c612a85b723e637092f4fcac91811fe4ac9c2a654a4c12b9",
        "distance-bound": "3d5bb9d03ee6f7d133bf6abfda33116258edaf150e63ba75c95308f0513a0cbf",
    },
    2: {
        "wy-curvature": "663551dfbea6009d52a3b67dafb80f256f4c98130d379906c39466ba4ef50f93",
        "pullback": "e84ed273fa5732c808dbda0aeaafbd6e07c2a3d3fc15e6a819af01799093d569",
        "hessian": "eac12021bc98f62e3d74077ad5249328c2e36cb0befa5b5266656e30522e90dc",
        "monotonicity": "a6cd0db5ed20bc83ef443b9f662bf923982b86d13236fe623bce72f18030f7a6",
        "geodesic-length": "8f3ee961057b99a2054151094dcd7c246a2aa1a0943291be6c798ec5f6d686ab",
        "dual-pairs": "205b9dd12e49d138e36ff441b37caa3d80c6ea4d1db582cd380bdd761e99e223",
        "classical": "abe5071ce982ebba589745a8bf90daf72df6a0f72ee8c206efd9bbfa4f7b1c20",
        "skew-identity": "ccd8e11f98d7d4ad269c6a02d6f73015d7b90b0e934cc03bfb6283b4d56dc6f3",
        "alpha": "5ff8ee1422cc0364c612a85b723e637092f4fcac91811fe4ac9c2a654a4c12b9",
        "distance-bound": "05691fad863cfc575880f316f64c09c3717fe48d5c4795a7fcb6aebda65b2a04",
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


# `scalar_curvature(entry, np.diag(w)).as_dict()` as JSON over CURVATURE_SPECTRA.
CURVATURE_DIGESTS = {
    "wy": "5e971538fcb0e1b9e081ef5bff2b2922cbf72a182650d3ea8449c45dcef97934",
    "sld": "a96b98d59141fed635be071a59a2c7dfb9f594ea598d5a08b54e5df5f976697b",
    "bkm": "a59d80dee3f27997603018b9980e2ac85fc2e377fc7e8229ebd85edee6eaf292",
    "rld": "cc4e8d59ce96568064b68fb754ce6213172feb0d03c0d6eee2c5c9bf9d8bf738",
}


def _curvature_spectra():
    """Spread, clustered, boundary, an exact repeat, a pair at relative gap 1e-6
    and one at 3e-5 (between the t2/t3 and the t1 thresholds), at n = 3 and 8."""
    for n in (3, 8):
        rng = np.random.default_rng(n)
        spread = 0.999 * rng.dirichlet(np.ones(n)) + 0.001 / n
        steps = (np.arange(n) - 0.5 * (n - 1)) * (1.0 + 0.2 * rng.random(n))
        yield spread
        yield (1.0 + 1e-6 * steps) / n
        yield np.r_[1e-4, (1.0 - 1e-4) * rng.dirichlet(np.ones(n - 1))]
        for gap in (0.0, 1e-6, 3e-5):
            w = spread.copy()
            w[1] = w[0] * (1.0 + gap)
            yield w / w.sum()


CURVATURE_SPECTRA = list(_curvature_spectra())


@pytest.mark.parametrize("entry", catalog(), ids=lambda e: e.id)
def test_curvature_digest(entry):
    reports = [scalar_curvature(entry, np.diag(w)).as_dict() for w in CURVATURE_SPECTRA]
    digest = hashlib.sha256(json.dumps(reports).encode()).hexdigest()
    assert digest == CURVATURE_DIGESTS[entry.id]
