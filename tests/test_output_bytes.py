"""Pinned bytes of the public JSON outputs.

Each digest is the SHA-256 of a command's output, recorded before the code
that produces it was rewritten (the JSON encoder; the Local Lemma checkers
and the deletion search's failure path; the Moser-Tardos event scan; the
cycle listing behind deletion and ``solve --what cycles``; the base cycle
count behind the default resample budget; the base-graph edge build and
the cycle kernel's neighbour lists), so
any later change to encoding or to the numbers has to show byte identity
here, not just claim it.
"""

import hashlib
import json

import pytest

from highgirth.cli import main

DIGESTS = {
    "events --n 1 --l 3 --k 4 --p 0.05":
        "faeefdec84758b947443aa44d8e5d4c29d67e55b82806e10378b5bfca30110c1",
    "events --n 2 --k 3 --p 0.05":
        "93bb4f8d4793c2b31bc9c0cfefd33653b0dd631c2c6c2bc53119ea87b8c82079",
    "lll-check --recipe-multipliers --f 0.01":
        "18b0814f2347bada38749fcc2236d48ff9bb7bdec1ea96176d2a6ca074d8b589",
    "gen --n 1 (vertex JSON)":
        "422eaf6d9bf8a913c26120438b6d3253b88cac01f8147676f01ffb52d9f51233",
    "search --n 2 --k 4 --p 0.5 --seed 0 --method delete":
        "a78c6fe75f03967fa1919a0db65d694201865037c6e1a247efed0b0c249c1678",
    "certify (the deletion certificate)":
        "0a7371ac9ccb4c2d04fe56fad1e01ed14f1b38c22d79e8e75c70da18730af656",
    "params --k 4 --delta 0.5":
        "a1e4d9e1386bf622b29a300ad09ec625ff3675dc49ab70cf075a04e7d1a14f66",
    "scan --delta 0.5":
        "6c2e6bdbf3feef7a1bb52f99eb8cd7001a086055634b6bc557ea94311717f5f6",
    "lll-check --assignment (general)":
        "a5eaf5359dddd1bbbb75c57bf7328a399a837717d7daa8fc76003b9884cfb8d1",
    "lll-check --assignment (bollobas)":
        "5eccd53e5f2df289154899691815b6bb4c09f7bedc1b5539fdff4226ccc43d2e",
    "lll-check --recipe-multipliers (mixed G_4)":
        "898b2b54ab20107e49e65fdbf29e9b3b95b5121d481c47737b0b39593d3a39ac",
    "search --n 3 --k 4 --p 0.01 --seed 1 --method delete --node-limit 1000":
        "e449180102104a7f60fad2de1e73980a5ba59606a778b8e52567b458c24b636c",
}

MT_DIGESTS = {
    "search --n 2 --k 4 --l 50 --p 0.06 --seed 1 --method mt":
        "a4ded46c5518198d483fdd7ef8f9db0925d33e3d7a8566029232b0276c6b3a73",
    "certify (the mt certificate)":
        "4aba0ca9857a1803745483b9e4f39ddf5a35d107026d03b38d46329bedadf653",
    "search --n 2 --k 4 --l 50 --p 0.15 --seed 5 --method mt --max-resamples 12":
        "eea4ddd83d7b6ce3dd306eef1b8e389b39ac500f5512ee97b093c15965061678",
    "search --n 1 --k 3 --l 4 --p 0.5 --subset-events on --max-resamples 500":
        "6d52fc0dbd91413f36f60edb7c0abc7ed47d66648c90ecd7b48adbe3c1288d80",
    "search --n 1 --k 3 --l 2 --p 0.5 --seed 0 --subset-events on":
        "b2107e4423438f1b3b51346e0e60d8289d2df113cca06f5c96874846a0df03df",
    "search --n 2 --k 3 --l 10 --p 0.1 --seed 0 --subset-events on":
        "613f2a7163b32d14498bc0eb16243a9edb7b8cc63292a7136a8b2e291b1f775a",
    "search --n 1 --k 6 --l 6 --p 0.999 --seed 0 --method mt --subset-events off":
        "ec038feb5de5a525df658ed5cd3ed4792717675f88a39d19627f53cdc876b23f",
    "search --n 1 --k 4 --l 6 --p 0.9999 --seed 0 --method mt --subset-events off":
        "f5b6fff35d8c5a7682a92ad5c747ff39458e38366c610832c64b7b4e87cbb7c3",
}

CYCLE_DIGESTS = {
    "solve --what cycles --s 3 (G_8)":
        "bb433bb445bfcc0a17beba2f2f827b38f038d209e0bb4021e1566ea5fabe9166",
    "solve --what cycles --s 4 (G_8)":
        "da9e3d41af2845943721a596e1491db25373e0e58d82e716e175c11abdf021a4",
    "search --n 2 --k 6 --p 0.4 --seed 0 --method delete":
        "3acdf8a74ab507bd62a0085ff022bf3bda3c01453895209f9e262ce850d1249f",
    "certify (the k = 6 deletion certificate)":
        "ac4ebe8363e6323086f622f1f89968355b244a939e140c4fdeb13fd14ed90cf1",
}

BUILD_DIGESTS = {
    "gen --n 2 (DIMACS)":
        "a385ffbe0a091ba460f1f39e7388127b1ffe05687acdd7542628edebe14ba9fa",
    "gen --n 3 (DIMACS)":
        "62f700b7a0a3966b0efd345a8bf90b4c1969caa009096e7264442bb268bac64e",
    "search --n 3 --k 4 --p 0.006 --seed 1 --method delete --node-limit 1000":
        "d771294e57f9fe6176199b474ea01feedef6b094baa891669853f7ae562c3792",
    "certify (the G_12 deletion certificate)":
        "593277cffe5d975803c137a79b6529d2d7bdc14c483b00c625e765b23b74e00c",
}


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture()
def run(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)

    def run(*argv, code=0):
        assert main(list(argv)) == code
        return capsys.readouterr().out

    return run


def test_public_outputs_are_byte_identical(run, tmp_path):
    got = {}
    mixed = run("events", "--n", "1", "--l", "3", "--k", "4", "--p", "0.05", "--out", "mixed.json")
    got["events --n 1 --l 3 --k 4 --p 0.05"] = mixed
    got["lll-check --recipe-multipliers (mixed G_4)"] = run(
        "lll-check", "--events", "mixed.json", "--recipe-multipliers", code=2
    )
    events = run("events", "--n", "2", "--k", "3", "--p", "0.05", "--out", "ev.json")
    assert (tmp_path / "ev.json").read_text() == events
    got["events --n 2 --k 3 --p 0.05"] = events
    got["lll-check --recipe-multipliers --f 0.01"] = run(
        "lll-check", "--events", "ev.json", "--recipe-multipliers", "--f", "0.01"
    )
    size = len(json.loads(events)["events"])
    assignments = {
        "general": [0.001 + (i % 5) * 0.0002 for i in range(size)],
        "bollobas": [1.5 + (i % 7) * 0.1 for i in range(size)],
    }
    for style, multipliers in assignments.items():
        path = tmp_path / f"{style}.json"
        path.write_text(json.dumps({"style": style, "multipliers": multipliers}))
        got[f"lll-check --assignment ({style})"] = run(
            "lll-check", "--events", "ev.json", "--assignment", str(path)
        )
    run("gen", "--n", "1")
    got["gen --n 1 (vertex JSON)"] = (tmp_path / "g4.vertices.json").read_text()
    cert = run("search", "--n", "2", "--k", "4", "--p", "0.5", "--seed", "0", "--method", "delete")
    got["search --n 2 --k 4 --p 0.5 --seed 0 --method delete"] = cert
    doc = json.loads(cert)
    got["certify (the deletion certificate)"] = run(
        "certify", "--n", "2", "--mask-hex", doc["edge_mask_hex"], "--k", "4", "--l", str(doc["l"])
    )
    got["params --k 4 --delta 0.5"] = run("params", "--k", "4", "--delta", "0.5")
    got["scan --delta 0.5"] = run("scan", "--delta", "0.5")
    got["search --n 3 --k 4 --p 0.01 --seed 1 --method delete --node-limit 1000"] = run(
        "search", "--n", "3", "--k", "4", "--p", "0.01", "--seed", "1",
        "--method", "delete", "--node-limit", "1000", code=2,
    )
    assert {name: digest(text) for name, text in got.items()} == DIGESTS


def test_moser_tardos_outputs_are_byte_identical(run):
    got = {}
    cert = run("search", "--n", "2", "--k", "4", "--l", "50", "--p", "0.06",
               "--seed", "1", "--method", "mt")
    got["search --n 2 --k 4 --l 50 --p 0.06 --seed 1 --method mt"] = cert
    got["certify (the mt certificate)"] = run(
        "certify", "--n", "2", "--mask-hex", json.loads(cert)["edge_mask_hex"],
        "--k", "4", "--l", "50",
    )
    got["search --n 2 --k 4 --l 50 --p 0.15 --seed 5 --method mt --max-resamples 12"] = run(
        "search", "--n", "2", "--k", "4", "--l", "50", "--p", "0.15", "--seed", "5",
        "--method", "mt", "--max-resamples", "12", code=2,
    )
    got["search --n 1 --k 3 --l 4 --p 0.5 --subset-events on --max-resamples 500"] = run(
        "search", "--n", "1", "--k", "3", "--l", "4", "--p", "0.5",
        "--subset-events", "on", "--max-resamples", "500",
    )
    # unavoidable subsets, and subsets past the enumeration guard
    got["search --n 1 --k 3 --l 2 --p 0.5 --seed 0 --subset-events on"] = run(
        "search", "--n", "1", "--k", "3", "--l", "2", "--p", "0.5", "--seed", "0",
        "--subset-events", "on", code=2,
    )
    got["search --n 2 --k 3 --l 10 --p 0.1 --seed 0 --subset-events on"] = run(
        "search", "--n", "2", "--k", "3", "--l", "10", "--p", "0.1", "--seed", "0",
        "--subset-events", "on", code=2,
    )
    # the default budget, 10 resamples per base cycle: 630 and 230
    for k, p in (("6", "0.999"), ("4", "0.9999")):
        got[f"search --n 1 --k {k} --l 6 --p {p} --seed 0 --method mt --subset-events off"] = run(
            "search", "--n", "1", "--k", k, "--l", "6", "--p", p, "--seed", "0",
            "--method", "mt", "--subset-events", "off", code=2,
        )
    assert {name: digest(text) for name, text in got.items()} == MT_DIGESTS


def test_cycle_listing_outputs_are_byte_identical(run):
    got = {}
    run("gen", "--n", "2")
    for s in ("3", "4"):
        got[f"solve --what cycles --s {s} (G_8)"] = run(
            "solve", "--graph", "g8.dimacs", "--what", "cycles", "--s", s
        )
    cert = run("search", "--n", "2", "--k", "6", "--p", "0.4", "--seed", "0", "--method", "delete")
    got["search --n 2 --k 6 --p 0.4 --seed 0 --method delete"] = cert
    doc = json.loads(cert)
    got["certify (the k = 6 deletion certificate)"] = run(
        "certify", "--n", "2", "--mask-hex", doc["edge_mask_hex"], "--k", "6", "--l", str(doc["l"])
    )
    assert {name: digest(text) for name, text in got.items()} == CYCLE_DIGESTS


def test_base_graph_outputs_are_byte_identical(run, tmp_path):
    got = {}
    for n, name in (("2", "g8"), ("3", "g12")):
        run("gen", "--n", n)
        got[f"gen --n {n} (DIMACS)"] = (tmp_path / f"{name}.dimacs").read_text()
    cert = run("search", "--n", "3", "--k", "4", "--p", "0.006", "--seed", "1",
               "--method", "delete", "--node-limit", "1000")
    got["search --n 3 --k 4 --p 0.006 --seed 1 --method delete --node-limit 1000"] = cert
    doc = json.loads(cert)
    got["certify (the G_12 deletion certificate)"] = run(
        "certify", "--n", "3", "--mask-hex", doc["edge_mask_hex"], "--k", "4", "--l", str(doc["l"])
    )
    assert {name: digest(text) for name, text in got.items()} == BUILD_DIGESTS
