"""Golden CLI artifacts: refactors must leave every output byte-identical.

The plan documents were recorded from the CLI before the belief filter and
the duration tables were rewritten; the simulate rows and the compare
outputs were recorded under the Philox stream contract described in
volnotify.sim. Plan documents and the compare outputs are pinned by sha256;
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
    ("I3:n=3", "sn", "1"): "sn,I3:n=3,300,3,1.343333333,0.04925721024,3,0.4477777778",
    ("I3:n=3", "sdn", "1"): "sdn,I3:n=3,300,3,1.163333333,0.05161782494,3,0.3877777778",
    ("I3:n=3", "best:1", "1"): "best:1,I3:n=3,300,3,0.9733333333,0.05989461822,3,0.3244444444",
    ("I3:n=3", "best:1", "0.5"): "best:1,I3:n=3,300,3,0.9733333333,0.05989461822,3,0.3244444444",
    ("I3:n=3", "random:2", "1"): "random:2,I3:n=3,300,3,1.373333333,0.06122009808,3,0.4577777778",
    ("I3:n=3", "upto:0.5", "1"): "upto:0.5,I3:n=3,300,3,1.353333333,0.05807643703,3,0.4511111111",
    ("I3:n=3", "rolling:2", "1"): "rolling:2,I3:n=3,300,3,1.343333333,0.04925721024,3,0.4477777778",
    ("I4:q=0.2,eps=1e-3", "sn", "1"):
        'sn,"I4:q=0.2,eps=1e-3",300,3,0.1966666667,0.02298675559,0.201,0.9784411277',
    ("I4:q=0.2,eps=1e-3", "sdn", "1"):
        'sdn,"I4:q=0.2,eps=1e-3",300,3,0.1066666667,0.01785194488,0.201,0.5306799337',
    ("I4:q=0.2,eps=1e-3", "best:1", "1"): 'best:1,"I4:q=0.2,eps=1e-3",300,3,0,0,0.201,0',
    ("I4:q=0.2,eps=1e-3", "best:1", "0.5"): 'best:1,"I4:q=0.2,eps=1e-3",300,3,0,0,0.201,0',
    ("I4:q=0.2,eps=1e-3", "random:2", "1"): 'random:2,"I4:q=0.2,eps=1e-3",300,3,0,0,0.201,0',
    ("I4:q=0.2,eps=1e-3", "upto:0.5", "1"):
        'upto:0.5,"I4:q=0.2,eps=1e-3",300,3,0.03666666667,0.01086897063,0.201,0.1824212272',
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
COMPARE_CSV = "569c66ef136606130059cd8eac0a37104e517f9bf60526ac7f6c95d70ac6f036"
COMPARE_JSON = "795e9a53f171d997ac4e9b41bf43845d6c0dce0940d95f5d7f999f63e2d18dff"


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
