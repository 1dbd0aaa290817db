"""Golden CLI artifacts: refactors must leave every output byte-identical.

The plan documents were recorded from the CLI before the belief filter and
the duration tables were rewritten; the simulate rows and the compare
outputs were recorded under the stream contract described in volnotify.sim:
one PCG64DXSM stream per run seed, each episode's five slot groups at fixed
offsets of it. Plan documents and the compare outputs are pinned by sha256;
a simulate artifact is one header plus one data row, so its data row is
pinned as literal text.
"""

import hashlib
import json

import pytest

from volnotify.cli import SIMULATE_COLUMNS, main

PLANS = {
    ("bench", "I2:n=4"): "a1cc441f88375de56e6793aca0debe4827333a9ae3a82d247aef561c2c566d08",
    ("exante", "I2:n=4"): "c94626a6b896a991861b0cbfebb3ac9e2c9b9126e8f2540465e3aab8a838063a",
    ("bench", "I3:n=3"): "6763777587810f7c564566f6bc941c4038861273f4c3909e008f72af00ddac3e",
    ("exante", "I3:n=3"): "7eb7de88e81e30cea58554d88e22fd0c385825a9a1d823bcc6b3bc5fe2538fd2",
    ("bench", "I6"): "754ff3875d63507e5259f0e7598ef30c215666cf99c85998cca3cd8c07f56ad9",
    ("exante", "I6"): "97b180bbde02c11e9d4119a17aa9e1c31fbe5bbbaae7c58fc6c90325973283b3",
}

# (instance, policy, theta) -> data row of `simulate --episodes 300 --seed 3`
SIMULATE = {
    ("I3:n=3", "sn", "1"): "sn,I3:n=3,300,3,1.33,0.04819252545,3,0.4433333333",
    ("I3:n=3", "sdn", "1"): "sdn,I3:n=3,300,3,1.173333333,0.04985896124,3,0.3911111111",
    ("I3:n=3", "best:1", "1"): "best:1,I3:n=3,300,3,0.95,0.05132035916,3,0.3166666667",
    ("I3:n=3", "best:1", "0.5"): "best:1,I3:n=3,300,3,0.95,0.05132035916,3,0.3166666667",
    ("I3:n=3", "random:2", "1"): "random:2,I3:n=3,300,3,1.273333333,0.05253725828,3,0.4244444444",
    ("I3:n=3", "upto:0.5", "1"): "upto:0.5,I3:n=3,300,3,1.326666667,0.05685815897,3,0.4422222222",
    ("I3:n=3", "rolling:2", "1"): "rolling:2,I3:n=3,300,3,1.33,0.04819252545,3,0.4433333333",
    ("I4:q=0.2,eps=1e-3", "sn", "1"):
        'sn,"I4:q=0.2,eps=1e-3",300,3,0.1666666667,0.021552525,0.201,0.8291873964',
    ("I4:q=0.2,eps=1e-3", "sdn", "1"):
        'sdn,"I4:q=0.2,eps=1e-3",300,3,0.08,0.01568929081,0.201,0.3980099502',
    ("I4:q=0.2,eps=1e-3", "best:1", "1"): 'best:1,"I4:q=0.2,eps=1e-3",300,3,0,0,0.201,0',
    ("I4:q=0.2,eps=1e-3", "best:1", "0.5"): 'best:1,"I4:q=0.2,eps=1e-3",300,3,0,0,0.201,0',
    ("I4:q=0.2,eps=1e-3", "random:2", "1"): 'random:2,"I4:q=0.2,eps=1e-3",300,3,0,0,0.201,0',
    ("I4:q=0.2,eps=1e-3", "upto:0.5", "1"):
        'upto:0.5,"I4:q=0.2,eps=1e-3",300,3,0.02333333333,0.008730235947,0.201,0.1160862355',
    ("I4:q=0.2,eps=1e-3", "rolling:2", "1"): 'rolling:2,"I4:q=0.2,eps=1e-3",300,3,0,0,0.201,0',
}

COMPARE_CONFIG = {
    "instance": "I2:n=4",
    "policies": ["sn", "sdn", "exante", "all", "best:2", "random:2", "upto:0.7",
                 "rolling", "rolling:2"],
    "episodes": 200,
    "seed": 7,
    "m": 20,
    "theta": 0.5,
}
COMPARE_CSV = "2da9600bf265a483f8ac7ef4206d509d0393b8f5a8b32425e4b44a6ef6d5b4f4"
COMPARE_JSON = "01526811de0d9a24110acc3b9089bc1c04e120834d2d1862fb6f79f1c7a197c2"


def _artifact(tmp_path, argv) -> bytes:
    out = tmp_path / "artifact"
    assert main(argv + ["--out", str(out)]) == 0
    return out.read_bytes()


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("command, spec", sorted(PLANS))
def test_plan_documents(tmp_path, command, spec):
    argv = [command, spec] + (["--m", "20"] if command == "exante" else [])
    assert _sha256(_artifact(tmp_path, argv)) == PLANS[command, spec]


@pytest.mark.parametrize("spec, policy, theta", sorted(SIMULATE))
def test_simulate_rows(tmp_path, spec, policy, theta):
    text = _artifact(tmp_path, ["simulate", spec, "--policy", policy, "--episodes", "300",
                                "--seed", "3", "--theta", theta]).decode()
    assert text == ",".join(SIMULATE_COLUMNS) + "\n" + SIMULATE[spec, policy, theta] + "\n"


def test_compare_outputs(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(COMPARE_CONFIG))
    out = tmp_path / "compare.csv"
    assert main(["compare", str(config), "--out", str(out)]) == 0
    assert _sha256(out.read_bytes()) == COMPARE_CSV
    assert _sha256((tmp_path / "compare.json").read_bytes()) == COMPARE_JSON
