"""Golden digests of the files ``runner.run`` writes.

The sha256 of ``rows.csv``, ``aggregates.csv`` and ``results.json`` for every
campaign test at a reduced ``k``, and of test 2.4's 802.11k/v frame traces,
pinned from the engine before its results became columnar.  Any change to
the kernel, the row layout or the exports that moves a single byte fails
here.
"""
import hashlib
import os

import pytest

from wlansteer.runner import RunConfig, run

BUNDLE_FILES = ("rows.csv", "aggregates.csv", "results.json")

# test id -> (rows.csv, aggregates.csv, results.json) at k=2, one worker
AT_K2 = {
    "1.1": (
        "cb2f29567d722899e7107f5934b232c6af2366949121e4663f65374157b43b34",
        "7176114e36d50a0002a93f4a9ee2f07ae9fbfcacd3a4cb7dd1052f277efe71c3",
        "a1a1d87f05c581a3813f6527ffb4deacf106eedf04ff24b93d7cc63549cc77c3",
    ),
    "1.2": (
        "89ff52db22137cb846aa627a0db7f568258eadeb32ffec39e927d8fde0527186",
        "dc8d62719bd38dc71fba93b62bc6721eafd82604411e5dd15e4172d1846930c0",
        "d37d100d7749e9b78b55f9c007493df71a955daad607ab55518796ad12132262",
    ),
    "1.3": (
        "16f56f3e0ab01371ff32bfbe9a5f99e2d46f00ce7cd02e65fcda22781e1540f1",
        "9361879e1a7d057429d4fdb8bdc73c8a0384b5aaf906c446dead0bfbc21d2321",
        "0b49535e87442df114edd65b8f96500d0c1cbfdbce284a2c2916e7f48c4f8626",
    ),
    "2.1": (
        "bfbf3a83ded503e08f1df7444f2e10c92acf0537aeff75be05c30d348bc941a8",
        "7430a48051e6022809b4923bffe57dbc70c5d42bfc98698d62621641b68dcda7",
        "7ae0a1f21a3b0fbe641fb3815bb2182bc08ba0ac219336477de8d48890ff14f7",
    ),
    "2.2": (
        "c6c57318dafb983d5297f06ad00dab9c6bbc6579751354c30c4fbf2c83d99537",
        "e90321507fbb0d35b495a3080dfd78a914f316080b05de9b4df016f7010e44a5",
        "75f7fbfd08891070bb059a56d4fffa48804f40a3f0f07422883915d6b71ec8c0",
    ),
    "2.3": (
        "9d50edf63016ff441417bb65a42f97dcb6f355fad2ae31743d789335ad6e38e7",
        "cd7c46b554681231f2b0089ef257c859a389b99d7ef5dab3de70cb9e9b081fec",
        "86dd3786cd8c66e4e15a59102cf11fad1670a3ad292af487a30ca0eab43a650e",
    ),
}

# test 1.2 at k=40, pinned from a one-worker run
REACH_K40 = (
    "78532bc2fee8b234772722b2cd1d3ebbfb4c22d195de399df3450407e8b78507",
    "5643632865d4bcfa3df1de7573a6a780d41e9dcdf11d3f27ea7516cf3a0bfa16",
    "f289c3573d65f61c6327d3546113301d9a44cd41bdf96355f23d74a21f805603",
)

# all of test 2.4 with frame traces: its bundle, then one digest over the
# sorted ndjson file names and their bytes
INTERFERENCE = (
    "e92798efdd867cbff9073b64d6d4d44a3208ff1cfd4d1b3639afd27eff0a1fa6",
    "209c0084c089c019d80a1a916a00ad86887bfa78593af46cde6ed5b50910a630",
    "c516bf5ba0719b6020bca6d34a96bb321de897ddd43e99ee25f0ac64def4dde3",
)
INTERFERENCE_EVENTS = (125, "30af2363e5a787464c5ad6a8b8b7b0a47fae1fa99d52423ed74fafe5a885b207")


def _bundle(out) -> tuple[str, ...]:
    digests = []
    for name in BUNDLE_FILES:
        with open(os.path.join(out, name), "rb") as fh:
            digests.append(hashlib.sha256(fh.read()).hexdigest())
    return tuple(digests)


def _events(out) -> tuple[int, str]:
    events = os.path.join(out, "events")
    names = sorted(os.listdir(events))
    h = hashlib.sha256()
    for name in names:
        h.update(name.encode() + b"\n")
        with open(os.path.join(events, name), "rb") as fh:
            h.update(fh.read())
    return len(names), h.hexdigest()


@pytest.mark.parametrize("test_id", sorted(AT_K2))
def test_campaign_bundles_are_pinned(test_id, tmp_path):
    run(RunConfig(test_id=test_id, k=2, out_dir=str(tmp_path)))
    assert _bundle(tmp_path) == AT_K2[test_id]


def test_two_workers_write_the_serial_bytes(tmp_path):
    # and three, whose deployment ranges differ in length
    for workers in (2, 3):
        run(RunConfig(test_id="1.2", k=40, workers=workers, out_dir=str(tmp_path)))
        assert _bundle(tmp_path) == REACH_K40


def test_frame_traces_are_pinned(tmp_path):
    run(RunConfig(test_id="2.4", emit_events=True, out_dir=str(tmp_path)))
    assert _bundle(tmp_path) == INTERFERENCE
    assert _events(tmp_path) == INTERFERENCE_EVENTS
