"""Golden CLI outputs: the sha256 of stdout for small invocations in every format.

The digests were recorded before the Weyl-group representation was changed
from action matrices to table indices; the first ``xq-models``, ``flags`` and
``gl3-example`` digests were recorded before field subtraction and
multiplication became table lookups, and the last three (``flags`` on GL_4
over F_2 and GL_2 over F_5, ``gl3-example`` over F_3) before the flag oracles
were made to build the double-cell census once.  Any refactor of the library
must keep every one of these outputs byte-identical.
"""

import hashlib

import pytest

from deodhar.cli import main

GOLDEN = {
    ("decompose", "A", "3", "--word", "stust", "--v", "s"): {
        "table": "412c298039226d69ada509f22017eba56f4cda0b293cfe1769b0afb8aa41d7b2",
        "csv": "21106268fcbb7d8171b68ce621e2add25fbccddd33e60510a080c52675aa333c",
        "json": "434cd03a207162fe186f9c2b1fd0587c127ce44a977eaeb950a614bde384f6d9",
    },
    ("decompose", "B", "2", "--word", "stst", "--all-v"): {
        "table": "2776e4888ec2d4fb2591c87474fdf058a618afea5e7b3f7813cda265b27ccdb0",
        "csv": "f69adcde535430a05807ad2e91698a130a2253aee4f3152eab25813cc5685b62",
        "json": "9bbd94f9230fc40ecf30c5e5df237c969b846b26864cd2971182d9d7a1a8c6dc",
    },
    ("decompose", "D", "4", "--word", "tsuvts", "--all-v"): {
        "table": "a9e0abb5300a0577f4666b75de2782bb0fa33fd0b5fd5e44514e835629d1df20",
        "csv": "0f4bcc1b6cc5572b19e8f9565b44f4b481f79005967800c6c8ad490055460d2d",
        "json": "9fd5609bb6832b400722bf75bd8b23f08f39e6a0810200d060076b0aa4c448da",
    },
    ("predict", "A", "2", "--word", "sts", "--q", "2"): {
        "table": "8d8b7735e5e46fd9a6ad960f07e4fddd5d8d60125380a48f3ac7814e09628d30",
        "csv": "8a360da9638f92f9f8dc051adad887e84fcd96f3db1ac89a0dac7478b9a92e4a",
        "json": "56be703d4bad2813253ac708d8d500b21e22f4c7bc3ecb9618a53200a929b7f5",
    },
    ("predict", "B", "2", "--word", "stst", "--q", "3"): {
        "table": "5c6098476df5ac844b33b785be506c4abc3490b0b946c3ddd3f3b763dacca9e3",
        "csv": "92e1c5e9ae20dc79db4b8234520f92834905a9ad5c4d09ba965e0d6b0f83dcba",
        "json": "484ecf255c627f1b0be1a4bceb5b9fa5841b9ee27e21d9cab0371b789a77bacc",
    },
    ("predict", "A", "2", "--word", "sts", "--q", "2", "--twist", "ts"): {
        "table": "d133815c53df715f16927b062ebdf7b6cf1f74f3a71fe3b29ed4ecd5213e7724",
        "csv": "8a360da9638f92f9f8dc051adad887e84fcd96f3db1ac89a0dac7478b9a92e4a",
        "json": "ea7cadfe1df113569cc7601040abd84a8d22c68984a1a45f9b63b415fe045616",
    },
    ("predict", "A", "3", "--word", "stu", "--q", "2", "--twist", "uts"): {
        "table": "92f6c17dd6631c99b9479989ada407a3c14ae36784c40ec1b7847ba0487f2fca",
        "csv": "c3356970d5e5f90a6b9073dff3c0fe12e225ba34efe6c2f9caab2b2fe06e0d8d",
        "json": "958d400df26d5ba9dba95a9c96b125afb976ff7dbf08e192af9f0e7e016df74d",
    },
    ("verify", "deodhar-vs-rpoly", "--type", "G", "--rank", "2"): {
        "table": "23cf0581342762e5348e1c958fc14f38b468c87c612bb62eccd3b5b46cf7ece5",
        "csv": "5556d5810b3741aa7bbc8d91a6f7cff2289a8fe0ec2250a3ce07033e475324d0",
        "json": "6ac56b3b029605093ee2391ddc5af853c635e717568a9a721adf270e1e6c1bce",
    },
    ("verify", "vanishing", "--max-rank", "2"): {
        "table": "742ebe56df1718702e3b57f1dd3c561702110101bbbb4552f5c87a021ea04464",
        "csv": "4f294a3eb53b139c8225f690516a4027ff8522700fcc23c0d369cf16b0d053fd",
        "json": "0f0ff3da3bf75a677e24daa4302fd75aef108570582c0a8bd5fd41565b658cd0",
    },
    ("verify", "xq-models", "--max-qk", "27", "--max-nm", "2"): {
        "table": "d2f39ab777c626a93e38004898d5be8aebacfcc40e81f22c5d17beed1e1920a6",
        "csv": "e2d35bf8cef63f42550e5757acc7177af7d5ec3ca03a64183209a76930a5dc76",
        "json": "87e1b4adc67c57b1a588a6f86e56ea848d927eef87e74ffcf82e14b4259d0452",
    },
    ("verify", "flags", "--n", "3", "--q", "3"): {
        "table": "a94552b865c21d17a107786dc62ccffb71e561ee492b9c4d52955e713812440b",
        "csv": "a7f64e6e07d59b99254f1ecb5b8ca74508b28f78463c569fe9b3a91d0dcc13e4",
        "json": "a18ae750d5363c285961c332dcb6480392f3e96ce1bbd7f4747a8eb764f1b95b",
    },
    ("verify", "gl3-example", "--q", "2", "--k", "2"): {
        "table": "8f592f2a13594e6bb13e958750af38ecdfc057d91d30ab61bf2875fc06a90c8b",
        "csv": "beec0a83212b47e995f28a4360cd400fb44f2dc5677bdb183af5cf3eb6bd69f5",
        "json": "488c9b4979a36b20bf39665c0123355dddf8cef48d66f34e432f406ee84e4240",
    },
    ("verify", "flags", "--n", "4", "--q", "2"): {
        "table": "a49560f44afa7d1967b9c4e1d6bfd8a952cce697ff67a6021526c89c024ef35a",
        "csv": "9c3e00681283bb48f7beaed6b181157c981b3bc3949b110b142f47ce21f8d5ed",
        "json": "4b5eb8c899084a9995c91a2108db129ca87c1e6817e5ee9f9f18703cb1b9c0c9",
    },
    ("verify", "flags", "--n", "2", "--q", "5"): {
        "table": "ca62d1b776c13549ed3708ac4e14545bba47e8bd2e39f36a42adc86f03771545",
        "csv": "6e08ac5d2200ab303e2d38365bb6dbce4a5010dca133ef89edb328b96110abd6",
        "json": "ba9860eb8a3959b7d518c717041069936eccfb1038f91a09b7ceb6c0c9a460f5",
    },
    ("verify", "gl3-example", "--q", "3", "--k", "1"): {
        "table": "eb28539806db2996eb41e53d6e94e24adc0450804a998895ab412d367571b30e",
        "csv": "9dbbe558b3ae4a95c01b3b40c44f13e7f8c258710a7d3f518db388c63792228b",
        "json": "ef0bd032c5d9786e8faa902dd6ff5e3cebb8884dbfb657a2e5f7c3d60c90d9a8",
    },
}

CASES = [
    (argv, fmt, digest)
    for argv, by_format in GOLDEN.items()
    for fmt, digest in by_format.items()
]


@pytest.mark.parametrize(
    "argv,fmt,digest", CASES, ids=[f"{' '.join(a)} {f}" for a, f, _ in CASES]
)
def test_golden_stdout(capsys, argv, fmt, digest):
    code = main(list(argv) + ["--format", fmt])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
