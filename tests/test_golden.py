"""Golden digests: SHA-256 of every artifact of one fixed-seed run.

A refactor that claims to leave behaviour unchanged must leave every digest
below unchanged.  Regenerate one only for an intended change of output, and
say in CHANGES.md why it moved.  The run goes through the CLI the way a user
does: ``emulate`` columns, ``calibrate`` (CSV input), ``compress`` with
calibrated selection and with each forced transform (binary input), the dense
tensors of the written descriptors, and ``metrics``.  The decision log is
pinned without its ``encode_ms`` column, which is timing.  The float results
pinned here are those of numpy on x86-64.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np
import pytest

from evcompress import EmulatorConfig, SensorGeometry, emulate, read_descriptor, to_dense_tensor, write_events
from evcompress.cli import main

GEOMETRY = SensorGeometry(height=24, width=32)
CONFIG = EmulatorConfig(geometry=GEOMETRY, duration=0.4, rate=60.0, pattern="moving-dot", speed=40.0, seed=2026)
RUN_ARGS = ["--window-ms", "25", "--geometry", "32x24"]
RUNS = ("calibrated", "dct", "dtft", "dwt")

GOLDEN = {
    "emulate.columns": "d8c23cf1380e5a5cd7fcf07cc88fc3e58cecf91c7b1ccac7faf9e2d0ca208df5",
    "events.csv": "3e8cc98cc50135d7bab5390f366d65fc3029f319626d6525d61318df1d50e8e0",
    "events.bin": "3bd358217a2ebedd5be6bae023b37a6fc4aaf53687963c632aa66b162b0106d4",
    "thresholds": "be3995cea5ff8cc8a423eee89e42eac4b1bd932cd51542abb2f6ce89d3e639c3",
    "calibrated.eecv": "db36210af3f52b3c6c6e665e09ca8c998d6c426b1ebd7a0dd1575e2790294e7a",
    "calibrated.dense": "e75fedb69d28d0ef4053d9c012270836a526ac96edb6e62532a2b30fdf77ca85",
    "calibrated.log": "aa288b07afe1c7eb269302b684f3f9b8dab6616afb5f142d66756d2f1b2dde33",
    "calibrated.metrics": "bebc3191b57a273176d1c1d40aad4447699df572c1c5744827bc6c0453cf799f",
    "dct.eecv": "4af1043045cb78ff91fbb33c9a7df82e5432c3f2fdecb451e9430303cae5cf14",
    "dct.dense": "bfeb2e5024c22bf45f00983995316c775b632dcfc81ca4224945e4b7ab4a6310",
    "dct.metrics": "c0ae1664bb2085086122ce653fc74a0872797200c7d7fbecdcaa02b510bd5eba",
    "dtft.eecv": "2c78314944422633a3eb9fd270b1b23a2e66bfe9a6004d1cd9cabf1b40effb37",
    "dtft.dense": "b27f23d56586aa1683da26306b98f47523e8f2156eadddd932e0b566976284a5",
    "dtft.metrics": "f143a10cedc05fe5c550760fe8954d07a5c0c4d36d1110b0955484b70dc7802d",
    "dwt.eecv": "9ee9821590817e28dbd571d1855e7e563e75a51b38f909299a107fc9620ccf16",
    "dwt.dense": "d3a3381e60595c36ccf8a3684376049d24c488888c342ee68259986c21e8c367",
    "dwt.metrics": "4b30d97ff0c12dd318df8803cad51c4a4e08fa41223cebf185d94412c497169a",
}


def _sha(*blobs: bytes) -> str:
    h = hashlib.sha256()
    for blob in blobs:
        h.update(blob)
    return h.hexdigest()


def _run(*args) -> None:
    assert main([str(a) for a in args]) == 0


def compute_digests(work: Path) -> dict[str, str]:
    events = emulate(CONFIG)
    columns = [
        np.fromiter((getattr(ev, field) for ev in events), dtype, len(events))
        for field, dtype in (("t", "<f8"), ("x", "<i8"), ("y", "<i8"), ("p", "<i1"))
    ]
    digests = {"emulate.columns": _sha(*(c.tobytes() for c in columns))}
    csv, binary = work / "events.csv", work / "events.bin"
    write_events(csv, events, "csv")
    write_events(binary, events, "binary")
    digests["events.csv"] = _sha(csv.read_bytes())
    digests["events.bin"] = _sha(binary.read_bytes())

    thresholds = work / "thresholds.txt"
    _run("calibrate", "--input", csv, *RUN_ARGS, "--out", thresholds)
    digests["thresholds"] = _sha(thresholds.read_bytes())

    for run in RUNS:
        out = work / run
        selection = ["--thresholds", thresholds] if run == "calibrated" else ["--force-transform", run]
        _run("compress", "--input", binary, "--format", "binary", *RUN_ARGS, *selection,
             "--out", out, "--log", work / f"{run}.log")
        paths = sorted(out.glob("window_*.eecv"))
        assert paths
        digests[f"{run}.eecv"] = _sha(*(p.read_bytes() for p in paths))
        digests[f"{run}.dense"] = _sha(*(to_dense_tensor(read_descriptor(p)).values.tobytes() for p in paths))
        if run == "calibrated":
            rows = (work / f"{run}.log").read_text(encoding="utf-8").splitlines()
            untimed = "\n".join(row.rsplit(",", 1)[0] for row in rows)  # encode_ms is the last column
            digests[f"{run}.log"] = _sha(untimed.encode())
        _run("metrics", "--events", binary, "--format", "binary", "--descriptors", out,
             "--out", work / f"{run}.csv")
        digests[f"{run}.metrics"] = _sha((work / f"{run}.csv").read_bytes())
    return digests


@pytest.fixture(scope="module")
def digests(tmp_path_factory) -> dict[str, str]:
    return compute_digests(tmp_path_factory.mktemp("golden"))


def test_every_artifact_is_pinned(digests):
    assert set(digests) == set(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_digest_unchanged(digests, name):
    assert digests[name] == GOLDEN[name], f"{name} changed"


if __name__ == "__main__":  # print the current digests, for a deliberate regeneration
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for key, value in compute_digests(Path(tmp)).items():
            print(f'    "{key}": "{value}",')
