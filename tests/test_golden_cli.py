"""Golden CLI outputs: the sha256 of stdout for small invocations in every format.

The digests were recorded before the Weyl-group representation was changed
from action matrices to table indices; the first ``xq-models``, ``flags`` and
``gl3-example`` digests were recorded before field subtraction and
multiplication became table lookups, and the last three (``flags`` on GL_4
over F_2 and GL_2 over F_5, ``gl3-example`` over F_3) before the flag oracles
were made to build the double-cell census once.  The next two cases, an empty
``decompose`` table and the partial report of a ``verify`` run that exceeds
its budget (exit 3), were recorded before the CLI got a single output
emitter.  The last case, an ``xq-models`` run that exceeds its budget at
F_256, was recorded once the rows made before a budget error reached the
report (it used to report 0 checks).  The ``flags`` case over F_4, the
first flag run pinned on a field that is not prime, was recorded before the
double-cell census went one column at a time over flat per-row lists.  The
six cases after it (a ``predict`` with an explicit ``--psi``, a
``decompose`` at ``--v e``, ``flags`` over F_25 and F_343, ``xq-models`` up
to F_512 and the B3 triangle, 0.9 MB as a table and 0.57 MB as csv) were
recorded before the csv form of ``verify`` declared its columns per suite
and stopped reading its rows back from a temporary file.  That change moved
one digest, and on purpose: the csv of the budget-cut ``flags --n 4 --q 16``
run, which makes no row, now heads ``test,n,q,v,w,lhs,rhs,match`` (the
suite's columns) where it printed ``test,lhs,rhs,match``, so a suite's csv
header no longer depends on how far the run got.  The last case, ``predict``
on the longest word of D4 (``stsutsvtsutv``, 12 letters, where the longest
word pinned before it had 6), was recorded before ``Subexpression`` was
built in one pass over the word and the subexpression walk ran on an
explicit stack.  Each case carries its expected exit code, and every
subcommand and every ``verify`` suite must be pinned in every output format.
Any refactor of the library must keep every one of these outputs
byte-identical.

``BENCHMARK_JSON`` pins the json stdout of the benchmark's instances, read
with their check counts from ``perfbench/workloads.json``.  These outputs are
the largest the CLI writes (2.4 MB for the B3 and C3 triangles), so a drift
of the json encoder fails here before the benchmark's digest gate sees it.
"""

import argparse
import hashlib
import json
from pathlib import Path

import pytest

from deodhar.cli import FORMATS, SUITES, _build_parser, main

ROOT = Path(__file__).resolve().parent.parent

GOLDEN = {
    ("decompose", "A", "3", "--word", "stust", "--v", "s"): {
        "exit": 0,
        "table": "412c298039226d69ada509f22017eba56f4cda0b293cfe1769b0afb8aa41d7b2",
        "csv": "21106268fcbb7d8171b68ce621e2add25fbccddd33e60510a080c52675aa333c",
        "json": "434cd03a207162fe186f9c2b1fd0587c127ce44a977eaeb950a614bde384f6d9",
    },
    ("decompose", "B", "2", "--word", "stst", "--all-v"): {
        "exit": 0,
        "table": "2776e4888ec2d4fb2591c87474fdf058a618afea5e7b3f7813cda265b27ccdb0",
        "csv": "f69adcde535430a05807ad2e91698a130a2253aee4f3152eab25813cc5685b62",
        "json": "9bbd94f9230fc40ecf30c5e5df237c969b846b26864cd2971182d9d7a1a8c6dc",
    },
    ("decompose", "D", "4", "--word", "tsuvts", "--all-v"): {
        "exit": 0,
        "table": "a9e0abb5300a0577f4666b75de2782bb0fa33fd0b5fd5e44514e835629d1df20",
        "csv": "0f4bcc1b6cc5572b19e8f9565b44f4b481f79005967800c6c8ad490055460d2d",
        "json": "9fd5609bb6832b400722bf75bd8b23f08f39e6a0810200d060076b0aa4c448da",
    },
    ("predict", "A", "2", "--word", "sts", "--q", "2"): {
        "exit": 0,
        "table": "8d8b7735e5e46fd9a6ad960f07e4fddd5d8d60125380a48f3ac7814e09628d30",
        "csv": "8a360da9638f92f9f8dc051adad887e84fcd96f3db1ac89a0dac7478b9a92e4a",
        "json": "56be703d4bad2813253ac708d8d500b21e22f4c7bc3ecb9618a53200a929b7f5",
    },
    ("predict", "B", "2", "--word", "stst", "--q", "3"): {
        "exit": 0,
        "table": "5c6098476df5ac844b33b785be506c4abc3490b0b946c3ddd3f3b763dacca9e3",
        "csv": "92e1c5e9ae20dc79db4b8234520f92834905a9ad5c4d09ba965e0d6b0f83dcba",
        "json": "484ecf255c627f1b0be1a4bceb5b9fa5841b9ee27e21d9cab0371b789a77bacc",
    },
    ("predict", "A", "2", "--word", "sts", "--q", "2", "--twist", "ts"): {
        "exit": 0,
        "table": "d133815c53df715f16927b062ebdf7b6cf1f74f3a71fe3b29ed4ecd5213e7724",
        "csv": "8a360da9638f92f9f8dc051adad887e84fcd96f3db1ac89a0dac7478b9a92e4a",
        "json": "ea7cadfe1df113569cc7601040abd84a8d22c68984a1a45f9b63b415fe045616",
    },
    ("predict", "A", "3", "--word", "stu", "--q", "2", "--twist", "uts"): {
        "exit": 0,
        "table": "92f6c17dd6631c99b9479989ada407a3c14ae36784c40ec1b7847ba0487f2fca",
        "csv": "c3356970d5e5f90a6b9073dff3c0fe12e225ba34efe6c2f9caab2b2fe06e0d8d",
        "json": "958d400df26d5ba9dba95a9c96b125afb976ff7dbf08e192af9f0e7e016df74d",
    },
    ("verify", "deodhar-vs-rpoly", "--type", "G", "--rank", "2"): {
        "exit": 0,
        "table": "23cf0581342762e5348e1c958fc14f38b468c87c612bb62eccd3b5b46cf7ece5",
        "csv": "5556d5810b3741aa7bbc8d91a6f7cff2289a8fe0ec2250a3ce07033e475324d0",
        "json": "6ac56b3b029605093ee2391ddc5af853c635e717568a9a721adf270e1e6c1bce",
    },
    ("verify", "vanishing", "--max-rank", "2"): {
        "exit": 0,
        "table": "742ebe56df1718702e3b57f1dd3c561702110101bbbb4552f5c87a021ea04464",
        "csv": "4f294a3eb53b139c8225f690516a4027ff8522700fcc23c0d369cf16b0d053fd",
        "json": "0f0ff3da3bf75a677e24daa4302fd75aef108570582c0a8bd5fd41565b658cd0",
    },
    ("verify", "xq-models", "--max-qk", "27", "--max-nm", "2"): {
        "exit": 0,
        "table": "d2f39ab777c626a93e38004898d5be8aebacfcc40e81f22c5d17beed1e1920a6",
        "csv": "e2d35bf8cef63f42550e5757acc7177af7d5ec3ca03a64183209a76930a5dc76",
        "json": "87e1b4adc67c57b1a588a6f86e56ea848d927eef87e74ffcf82e14b4259d0452",
    },
    ("verify", "flags", "--n", "3", "--q", "3"): {
        "exit": 0,
        "table": "a94552b865c21d17a107786dc62ccffb71e561ee492b9c4d52955e713812440b",
        "csv": "a7f64e6e07d59b99254f1ecb5b8ca74508b28f78463c569fe9b3a91d0dcc13e4",
        "json": "a18ae750d5363c285961c332dcb6480392f3e96ce1bbd7f4747a8eb764f1b95b",
    },
    ("verify", "gl3-example", "--q", "2", "--k", "2"): {
        "exit": 0,
        "table": "8f592f2a13594e6bb13e958750af38ecdfc057d91d30ab61bf2875fc06a90c8b",
        "csv": "beec0a83212b47e995f28a4360cd400fb44f2dc5677bdb183af5cf3eb6bd69f5",
        "json": "488c9b4979a36b20bf39665c0123355dddf8cef48d66f34e432f406ee84e4240",
    },
    ("verify", "flags", "--n", "4", "--q", "2"): {
        "exit": 0,
        "table": "a49560f44afa7d1967b9c4e1d6bfd8a952cce697ff67a6021526c89c024ef35a",
        "csv": "9c3e00681283bb48f7beaed6b181157c981b3bc3949b110b142f47ce21f8d5ed",
        "json": "4b5eb8c899084a9995c91a2108db129ca87c1e6817e5ee9f9f18703cb1b9c0c9",
    },
    ("verify", "flags", "--n", "2", "--q", "5"): {
        "exit": 0,
        "table": "ca62d1b776c13549ed3708ac4e14545bba47e8bd2e39f36a42adc86f03771545",
        "csv": "6e08ac5d2200ab303e2d38365bb6dbce4a5010dca133ef89edb328b96110abd6",
        "json": "ba9860eb8a3959b7d518c717041069936eccfb1038f91a09b7ceb6c0c9a460f5",
    },
    ("verify", "gl3-example", "--q", "3", "--k", "1"): {
        "exit": 0,
        "table": "eb28539806db2996eb41e53d6e94e24adc0450804a998895ab412d367571b30e",
        "csv": "9dbbe558b3ae4a95c01b3b40c44f13e7f8c258710a7d3f518db388c63792228b",
        "json": "ef0bd032c5d9786e8faa902dd6ff5e3cebb8884dbfb657a2e5f7c3d60c90d9a8",
    },
    ("decompose", "A", "2", "--word", "s", "--v", "t"): {
        "exit": 0,
        "table": "f4b9021a1a60191ec2f7572f4fc548b2a90b0c36a7270878aaa7f48711672804",
        "csv": "563e53481c130573d70b7d60eda3fb073f5ded990c42267923a26eb147377ba3",
        "json": "3bc719bfeb4d6743e4c81c1c48d4e7a7834060cba7e9c5b99e6fbdb306dff3d0",
    },
    ("verify", "flags", "--n", "4", "--q", "16"): {
        "exit": 3,
        "table": "639f1623086cc270c6c3350c89882ca304c2d69f7861d4fb177f14ff88b1ddbf",
        "csv": "7648b47885e14cd125229eb9b80942c1dbf0aacc7361830c592a254111ca5268",
        "json": "8019a197620014d44c050827839f4892b6760c053e0975a5f7b8bca0fed137b8",
    },
    ("verify", "flags", "--n", "3", "--q", "4"): {
        "exit": 0,
        "table": "dcbd49e648b70b2270e3a969a4cfad98a566fe9026b08475e000f0e6c7e28da9",
        "csv": "01dfe09d2b7ee303791b89856bcf64ed7bd913424f588b1a39752baa5c9eb0b6",
        "json": "11fc10a73be319150089072d968686f31e39ed868cb50b67295113c866e0b07f",
    },
    ("verify", "xq-models", "--max-qk", "256", "--max-nm", "3"): {
        "exit": 3,
        "table": "d4d08fa4e512ceed85a612e7f5649cdc165a8043bcfea6fa72545eb5abfa8da6",
        "csv": "2430a5caa6f4e61b1b54800a23eb61e734180528923dbbfb234b46c71efc75dd",
        "json": "1e0c72392c0a9ef47a48e024bdd27bc2276dbe5ba608f5db56bde7f5d12c8811",
    },
    ("predict", "A", "2", "--word", "sts", "--q", "3", "--psi", "s=1,t=2"): {
        "exit": 0,
        "table": "7ee749cb0c7d6c939cfc222d75ed08ea2238cfc4d2e082294c0366a33f021bf0",
        "csv": "8a360da9638f92f9f8dc051adad887e84fcd96f3db1ac89a0dac7478b9a92e4a",
        "json": "649aaf058911cec6183f8cf7b51dbc4a0036ca95d8455b423470ea03b0eb95c9",
    },
    ("decompose", "A", "3", "--word", "stu", "--v", "e"): {
        "exit": 0,
        "table": "0d556edafeb4f9b57ac1c36ad49797fa0eb553d9d738e4843c35d6b3321f7698",
        "csv": "ef06ce05aa31d9c57333489943d752314085f65ca37f369bedcc1ce185b5f967",
        "json": "e070ea261eeaa8c53ddfaf501e4da8cd91bc1fb19214e7b73e7c8497ee0075fb",
    },
    ("verify", "flags", "--n", "3", "--q", "25"): {
        "exit": 0,
        "table": "3dab62ec3728e1eb4a30420ade357559c2f8aa805a9d654eced13d594db567b0",
        "csv": "cba61e8b8034ca3d15bbb714ccdb2b03c0f651a27da787309c4d48f1fbef8ad2",
        "json": "95c001769fbf688e8b25244762b67b75d5210d084abc37e1d2ea72582f4cf642",
    },
    ("verify", "flags", "--n", "2", "--q", "343"): {
        "exit": 0,
        "table": "2243d28f01c134ec8c64229a48aa96d45399fbee8eceace8295b714417a6439b",
        "csv": "04bf27929ed3dc54ceaccb155b5ddf322aa7326ae22fa26762bb7e28dbbdf9ff",
        "json": "d958f3b29b31ff797779a1e3edfff5de383192e44f54792a80768130da0800ad",
    },
    ("verify", "xq-models", "--max-qk", "512", "--max-nm", "1"): {
        "exit": 0,
        "table": "d41a5e367a82a781a65e4f13055f9f97ffc7b86d8ae6d33a85c3804c4f193cca",
        "csv": "dcc23671c16cf4c13b6863c7be3c0749fae928aee6aeca444521a871785879ac",
        "json": "077143b01d65e4c57dff04d3ac60095e7b3b6984abbd3f118bd79660c0bc645d",
    },
    ("verify", "deodhar-vs-rpoly", "--type", "B", "--rank", "3"): {
        "exit": 0,
        "table": "82280cb748257151637aa7256402d50aed69f1b575ef1b69c2d45674b5897a80",
        "csv": "1284dadbecc3ce29fea1ec6ccd157cd9bc80b60fbd08195636d6145d2b5bbd30",
        "json": "b359f7af66fd285eb5d58c0271474672483e1922741c96470d1a095c6420b374",
    },
    ("predict", "D", "4", "--word", "stsutsvtsutv", "--q", "2"): {
        "exit": 0,
        "table": "f641d6c30ba8d80c2586da6451214e076e758f104fb1d18d916f4295969990c4",
        "csv": "9367ecbc15de4b60f9647359b137bfab2edca93ef5269771b75c1fe91d205460",
        "json": "36227f411a0f5063883844e3622ee11ceac8f99e689d5dff729cf231e8649117",
    },
}

CASES = [
    (argv, fmt, golden["exit"], digest)
    for argv, golden in GOLDEN.items()
    for fmt, digest in golden.items()
    if fmt != "exit"
]


@pytest.mark.parametrize(
    "argv,fmt,exit_code,digest",
    CASES,
    ids=[f"{' '.join(a)} {f}" for a, f, _, _ in CASES],
)
def test_golden_stdout(capsys, argv, fmt, exit_code, digest):
    code = main(list(argv) + ["--format", fmt])
    out = capsys.readouterr().out
    assert code == exit_code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _benchmark_instances():
    """(argv without its ``--format json``, checks, sha256) of each instance
    of ``perfbench/workloads.json``."""
    path = ROOT / "perfbench" / "workloads.json"
    workloads = json.loads(path.read_text(encoding="utf-8"))
    for workload in workloads["workloads"].values():
        for instance in workload["instances"]:
            *argv, option, fmt = instance["argv"]
            assert (option, fmt) == ("--format", "json"), instance["argv"]
            yield tuple(argv), instance["checks"], instance["sha256"]


BENCHMARK_JSON = list(_benchmark_instances())


@pytest.mark.parametrize(
    "argv,checks,digest",
    BENCHMARK_JSON,
    ids=[" ".join(argv) for argv, _, _ in BENCHMARK_JSON],
)
def test_benchmark_json_stdout(capsys, argv, checks, digest):
    code = main(list(argv) + ["--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out)["checks"] == checks
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_xq_models_budget_report_keeps_rows_made_before_it(capsys):
    # the tuple budget stops F_256 at m = 3; every q = 2, k <= 7 row and the
    # first k = 8 rows come before it
    code = main(
        ["verify", "xq-models", "--max-qk", "256", "--max-nm", "3", "--format", "json"]
    )
    report = json.loads(capsys.readouterr().out)
    assert code == 3
    assert report["status"] == "BUDGET-EXCEEDED"
    assert report["checks"] == len(report["rows"]) > 0
    ks = {(r["parameters"]["q"], r["parameters"]["k"]) for r in report["rows"]}
    assert ks == {(2, k) for k in range(1, 9)}


def test_every_command_and_suite_is_pinned_in_every_format():
    commands = next(
        action.choices
        for action in _build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    for argv, golden in GOLDEN.items():
        assert set(golden) == {"exit", *FORMATS}, argv
    pinned = {argv[0] for argv in GOLDEN}
    pinned |= {argv[1] for argv in GOLDEN if argv[0] == "verify"}
    assert {*commands, *SUITES} <= pinned
