"""Frozen stdout: the default per-trial streams stay bit-identical.

Acceptance criterion 8 only checks that a run repeats within one version.
This test pins the sha256 of the stdout of seeded ``mc``, ``scan``,
``couple``, ``generate`` and ``oracle`` runs, recorded before the sampled
multigraphs moved to array storage. It covers the dense path on every driver
model, the thinned path on the three built-in models, every property, and an
``oracle`` run on a ``binomial-hk`` driver drawn within budget. ``generate``
appears only below ``experiments.DENSE_LIMIT``: above it, ``generate`` takes
the thinned path, which has the same law but different seeded output.
"""

import contextlib
import hashlib
import io

import pytest

from mglab import cli

# A 7-vertex driver with mixed edge sizes, for --model file.
DRIVER = "n=7\n1 2 3\n1 2 3\n2 4 5 6\n3 7\n1 5 6 7\n4 6\n2 3 5\n"

MC = ["mc", "--trials", "150"]
THINNED_SCAN = ["scan", "--scale", "logn2", "--c-list", "0.5,3", "--k", "3", "--trials", "40"]

# case id -> (argv, sha256 of stdout); "{driver}" stands for the driver file.
CASES = {
    "mc-dense-complete-no-isolated": (
        [*MC, "--model", "complete-k", "--n", "12", "--k", "3", "--p", "0.05,0.3",
         "--property", "no-isolated", "--seed", "11"],
        "052bba3cd0aa8bcc9b1f3d5b05e01c9a9aabd4216a191ea25e969a5579603424"),
    "mc-dense-complete-connected": (
        [*MC, "--model", "complete-k", "--n", "30", "--k", "3", "--scale", "logn2",
         "--c-list", "0.5,2,4", "--property", "connected", "--seed", "2"],
        "b45cf25f44dffd0fc1513b786f98c915fc975659c42ab34d38722fbb9a206182"),
    "mc-dense-file-triangles": (
        [*MC, "--model", "file", "--hypergraph-file", "{driver}", "--n", "7", "--p", "0.7",
         "--property", "triangle-count", "--seed", "5"],
        "02abe4d3006aebefee442d7d94c12b28686a6302fb8cfedad4c17a720e509530"),
    "mc-dense-file-pair": (
        [*MC, "--model", "file", "--hypergraph-file", "{driver}", "--n", "7", "--p", "0.4",
         "--property", "pair-adjacent", "--i", "2", "--j", "3", "--seed", "6"],
        "54ccb26f463191ee35d197524e6a7a63aaa780da76b764f32d2b696c13fe20a8"),
    "mc-dense-uniform-has-edge": (
        [*MC, "--model", "uniform-hk", "--n", "12", "--k", "3", "--m", "100", "--p", "0.01,0.1",
         "--property", "has-edge", "--seed", "12"],
        "7071c83e103357c56b51454cd71fe1058cc19ac0bf850a2094f7e80e50499cdb"),
    "mc-dense-binomial-simple": (
        [*MC, "--model", "binomial-hk", "--n", "10", "--k", "4", "--q", "0.5", "--p", "0.2",
         "--property", "simple", "--seed", "13"],
        "f05d13c603d8c53d8f44feaa3427a12f54eb349ed83bf898670edd4a3f134ff3"),
    "mc-thinned-complete-connected": (
        [*MC, "--model", "complete-k", "--n", "60", "--k", "3", "--scale", "logn2",
         "--c-list", "1,4", "--property", "connected", "--seed", "14"],
        "f317d4b5bca681f7920e9f21d2b501dbc26e8ce305f7c856ee0a80ad72c0a090"),
    "mc-thinned-complete-k190": (
        ["mc", "--trials", "20", "--model", "complete-k", "--n", "200", "--k", "190",
         "--p", "1e-14", "--property", "simple", "--seed", "15"],
        "a3235ae0c19312d519b0e35b49b8ab48d598c2aee7fa3157c5aa95da2b5ef6be"),
    "mc-thinned-binomial-pair": (
        [*MC, "--model", "binomial-hk", "--n", "60", "--k", "4", "--q", "0.3", "--p", "0.01",
         "--property", "pair-adjacent", "--i", "1", "--j", "60", "--seed", "16"],
        "087bc43ba35e17adf7208551fd4c8a7f9a32d4735bcb2e1656e5023f99fe647c"),
    "mc-thinned-uniform-no-isolated": (
        [*MC, "--model", "uniform-hk", "--n", "60", "--k", "3", "--m", "30000", "--p", "0.003",
         "--property", "no-isolated", "--seed", "17"],
        "e4c908a64d3c8bd646d0c2a83b49f647f07a3ef00bad2f181534005c5df5564c"),
    "mc-thinned-uniform-triangles": (
        [*MC, "--model", "uniform-hk", "--n", "80", "--k", "3", "--m", "60000", "--p", "0.02",
         "--property", "triangle-count", "--seed", "18"],
        "8e51fa0e10aa4c65f1c54985217def79479eb9b229ea8b7089883cb0f0766b02"),
    "scan-complete-connected": (
        [*THINNED_SCAN, "--property", "connected", "--n-list", "30,100,400", "--seed", "19"],
        "06e6b79128eec18aa85798d9219d91917b356089649ae06f7867838adc9d3f77"),
    "scan-binomial-no-isolated": (
        ["scan", "--scale", "logn2", "--c-list", "1,8", "--k", "3", "--trials", "40",
         "--property", "no-isolated", "--n-list", "20,90", "--model", "binomial-hk", "--q", "0.6",
         "--seed", "20"],
        "34774e6a9f71ab8f4cdc4d1bbb185f5b6a639d312540fbc79ba9b81b72159b3b"),
    "scan-uniform-simple": (
        ["scan", "--scale", "invnk1", "--c-list", "1,10", "--k", "3", "--trials", "40",
         "--property", "simple", "--n-list", "20,70", "--model", "uniform-hk", "--m", "1000",
         "--seed", "21"],
        "7758aaabb7f0c23a114bd7754ea7df0d5a47be86f12fe4d25dfd59aad63450c0"),
    # in budget only with the drawn edge count (6), not with all C(6, 3) = 20
    "oracle-binomial-in-budget": (
        ["oracle", "--quantity", "prob", "--predicate", "connected", "--model", "binomial-hk",
         "--n", "6", "--k", "3", "--q", "0.25", "--p", "0.5", "--budget", "100000", "--seed", "27"],
        "6bf5880cdf7b5b3868ce675985e2fbab8ca681a166421f053b41735f4aacccc5"),
    "couple": (
        ["couple", "--p1", "0.1", "--p2", "0.3", "--n", "9", "--k", "3", "--trials", "300",
         "--seed", "22"],
        "ae18dc907e9cc8b3b0630efe2c97b0e351f25223628cd58e9ef1c8d16f5effda"),
    "generate-complete": (
        ["generate", "--model", "complete-k", "--n", "20", "--k", "3", "--p", "0.05",
         "--seed", "23"],
        "3753c4d1904d189ef8842d5531d6974acbb7a46b8c6b6848c9c2efa0f842febd"),
    "generate-file": (
        ["generate", "--model", "file", "--hypergraph-file", "{driver}", "--p", "0.6",
         "--seed", "24"],
        "285c74b18a1be4ea7453b68ff8b7beebe8de49442b64c686825e442d4117ee48"),
    "generate-uniform": (
        ["generate", "--model", "uniform-hk", "--n", "20", "--k", "3", "--m", "50", "--p", "0.5",
         "--seed", "25"],
        "f389555491393f951ba6c27a42a55e043d66886d4bb82a411d8b45930d015f07"),
    "generate-binomial": (
        ["generate", "--model", "binomial-hk", "--n", "15", "--k", "4", "--q", "0.2", "--p", "0.5",
         "--seed", "26"],
        "b833f698902f63f04b3fb15478798ea38c4bad8d62e3842a942511b41eac1ea1"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_seeded_stdout_is_frozen(case, tmp_path):
    argv, want = CASES[case]
    driver = tmp_path / "driver.txt"
    driver.write_text(DRIVER)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main([arg.replace("{driver}", str(driver)) for arg in argv])
    assert code == 0
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == want
