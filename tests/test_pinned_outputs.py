"""Exact cold-run outputs pinned across versions.

``profile`` and ``solve --eps-grid`` trace the full profile from zero flow
(a cold run).  Exact arithmetic takes the same augmenting paths on every
platform, so their stdout is pinned byte for byte by SHA-256 digests over
30 seeded ``random_instance``s: sides 2-14, 0-60% forbidden cells, uniform
and random marginals.  A change to the engine's search that moves a path,
a breakpoint or a certificate shows here as a changed digest.
"""

import hashlib
import json
import random

import pytest

from kantgap import problem_io
from kantgap.cli import main
from kantgap.scenarios import random_instance


def _instances():
    """(nx, ny, inf_density, marginal kind, seed) of the 30 instances."""
    rng = random.Random(14)
    return [
        (rng.randint(2, 14), rng.randint(2, 14), k % 7 / 10, ("uniform", "random")[k % 2], k)
        for k in range(30)
    ]


def _commands(path):
    """The argv of the two cold commands on a problem file."""
    return (
        ["profile", path],
        ["solve", path, "--eps-grid", "0,1/10,1/3", "--format", "json"],
    )

# SHA-256 of the exact-mode stdout, per instance: (profile, solve)
DIGESTS = [
    # 0: 3x11, 0.0, uniform
    ("42805e198de9d275e30ee62565159b398c396815b635f9678863c631666af390",
     "b3693706ea14c7d36dc12b87adb17f45d2adab197f61d4ebd276d4b12c498f25"),
    # 1: 13x14, 0.1, random
    ("eb6c36eeb55cf9b5255a642a7042660179355cf88f9e06db19597cc070c77ed5",
     "e17b9e4cbe5033656183964cab20a75f749fb14bf0b87389e173d3e608b27a6e"),
    # 2: 12x10, 0.2, uniform
    ("f9c0593d41ca3eb0dfb2c48082b2c2d43fed1e307ea9aa254f59f6423cfa7419",
     "14e266474ecaf223b3cf7b4714060481e4af57c35fff373f7f2677a2bd3ebb60"),
    # 3: 5x6, 0.3, random
    ("d0caf7808fceea3377dc9134a0d51afb50dc07df78606dec58fb7695e13be39c",
     "1bb5e2b1801fc9a416915ac750be3811829d4220257b2c2ae483f5410308ed9e"),
    # 4: 13x6, 0.4, uniform
    ("d5ee8ef4b7d45871e8f22d42035ffcad75c98873c1741462be3a59042f0074a8",
     "641a9e3b1ac6538b92fb9eb27ff3c70733276e0e7e769511147df8eb49fade27"),
    # 5: 6x13, 0.5, random
    ("2461ba9e7205915c2dc086650aef4fd31f5a9550e46a584127a7c1acafbf7bfe",
     "a424902c42ead9d2ee4872b42e4ff4bec9a769a425ddd609cf8ec436ab81e0ac"),
    # 6: 3x12, 0.6, uniform
    ("249f019049fce0508488f2319c2e887bfe16349b8607dfcba1211959893fa059",
     "90ba86328814585704c115bf70505ba184958c1420e6b469e8c97a394593bc17"),
    # 7: 9x6, 0.0, random
    ("a7f9e0d58637b60179e895e9c1785cd9d6b9d8c7b9989d46401dd24d42e26d23",
     "f39172d9952d17efabfbbd69f9be87d9edd1968a1babf42efcc3214d68e5913d"),
    # 8: 9x12, 0.1, uniform
    ("f8d0f7a4eb661810cc9a34a298cb8ebc162887f429fa8cd45f3f40ed1c20362e",
     "fa692e75be2610c78471d084442d043b88f02e1dd38f343fb2a38ba583e8b29d"),
    # 9: 8x8, 0.2, random
    ("b70a3f204bad8001a43aa4c18a2574107b5786498856767ab5bb4fa4a103747a",
     "77df0676e4a9d3a01035c5e61aaa5120a1c10469a1ffe541c3181cbcb871d082"),
    # 10: 14x3, 0.3, uniform
    ("5a536026405f7af863abd8f49da1271a4cb74e4bd3f6c012506c97d86a881f3e",
     "e808049e2622c4c302804c53da26062c5fc1b218fb12c27d23d02057a8e97c7b"),
    # 11: 6x5, 0.4, random
    ("a031864f34c7fb19d09bcd795d224493017cbcb28cf441572aa2120bd6df7d8e",
     "e69343900feaa55dc9da099294c4cf73880dfffebfaef3e691571d607ef81611"),
    # 12: 7x7, 0.5, uniform
    ("c4d223c78e2b5b3374a064b8ffbcf26e64a33502133674467cc245f03fe4719e",
     "6859e255f9d5174f4b84042be2414431fb0d06681d7bac5741cda6f8b082aa59"),
    # 13: 14x6, 0.6, random
    ("b682ac7c6f999f34a6eb6635329aac22da3e8aa4674d56ee475b9729d4ca87e2",
     "012038d7672920bd4bfa2556fdbde5c64e2ebc58362d811be42384a1b3f8bf7d"),
    # 14: 7x14, 0.0, uniform
    ("8d006a2d06376b3af9220041ba77927659776720a989e71524957aa8c79f5300",
     "361fd055b777dc680c35e5f8bd7931ba900e7e20859225efb89ebf0edc55a960"),
    # 15: 12x12, 0.1, random
    ("4d04134c1f6d6c80ee2442990fd75e21c5977563a1c9fcfd2e1dd0cba7e77934",
     "b68fa964ab85700c965577c20dc70039c49bd6eab2c000f7c7b3f660222d1fed"),
    # 16: 10x4, 0.2, uniform
    ("ac2cef9512659acb852aa23a379e1591b48a8e15e313acf005daf104fb622a24",
     "bce1bd79a9504d9cea3b9e796b9f1f764d3be75fce0653432b502df0150fdcb1"),
    # 17: 4x10, 0.3, random
    ("e40cb51dfb4ee634c4b9770d3dd83c8d07e6caa02341edac0d13ba3653497201",
     "ca364f7dfb0c860ed53f7b7dda0847d642dc331e15ef22bf77c80226557dfe6e"),
    # 18: 12x12, 0.4, uniform
    ("213ea34a25e47576982be76c9db76cfa216d25143e636b59cefddf72c7f156a5",
     "ffc9acf64a385be314826f0d00508fb5850c015b7f7aa57f93db3be8d2ce3b4d"),
    # 19: 6x4, 0.5, random
    ("4c0460b1f16120c1a40f7e881661eda362dd8efb3729ce49f0d5c2d95f5f8586",
     "d3b45e95c78a9e0f42b702a2e42e4d3eb3aa6d07e395ce3f9d68e7845bdfb90f"),
    # 20: 2x12, 0.6, uniform
    ("1c4551d9a3d1df3c62901d68dab6e8442a9f5188ba1b80460d01327f3e0f8b34",
     "96b9bbb3f810167b0e367451dba2dd5082e73d7cdb9cef491a5a23a07cd2df71"),
    # 21: 3x3, 0.0, random
    ("7dde606f003f99f6e821939a658352a29fe8ca85d75a40f3f9b0834a5f99ef4b",
     "0a614d77c6f27cca108c193befae22bf2770137af633984c1b8a93192e843bbd"),
    # 22: 11x7, 0.1, uniform
    ("e4eb83d28eae601e49a004bb7c0e28e21411124d109363dee5a8813b2101de07",
     "114667c8e99a2198326680bb7320e39ad0f92fca9a1c4300fb381664129c2bf1"),
    # 23: 2x3, 0.2, random
    ("137755ec63f41f67aaa454c83cf9014af79727c58e829fd6ce8a54e6f46c3367",
     "b58c2181e3e9a804dde015c5a89389657cfa81c4062ca4c31ff3eebbc8497568"),
    # 24: 6x5, 0.3, uniform
    ("f11564ea5bf732bebe3fa760ff71461b101c44e4e94e74f637c988b0a15d2bac",
     "55d8a305fa728414458d909bdaa7e3b2fe9529c0286f33ba9d9a6447bbcf7203"),
    # 25: 8x8, 0.4, random
    ("a7f7b0eeb95d24ff2604dbcc2a6970293af21dbfcaaf2d46b34fdff7d0d9ac37",
     "07df4bd4e831983a442ae9aff5ce0726bf5acde1b80181b2efd8885fcd890bb9"),
    # 26: 11x9, 0.5, uniform
    ("ee376d9a2e7f4b0bf9ae19cc22be6bc31f71326902283e07fe1f7f2b6bb959f3",
     "6de3d4376ab194d19ece67e51cf3fbaf9bbbd67b4e66b9d2395cdb8753a0152d"),
    # 27: 11x3, 0.6, random
    ("a4a44f5ef9649e664bf534fff2291ddf14db970fdd8947c803fc9292349fb414",
     "9c20396852b46c3f5e7e7fa0ef5df1aaf1a649caf95366d99a1da7fd6947898a"),
    # 28: 12x12, 0.0, uniform
    ("b318fc9807c95bd896689e0404660c8e4a1ea5aff97b96feac914fa232d8e4ce",
     "64d43968afba08ca655fa2dcf56947361423a4e253894d8401aa09174d035b5f"),
    # 29: 3x11, 0.1, random
    ("75e7a1abfec2dbe0a517f8303b091fe15332e448f976b466f3f77db446ce3363",
     "fa9c2f1474bd2aaf158fa0fe759bdd968631eab4a4341f3753dce950418e500e"),
]


def _digest(capsys, argv):
    assert main(argv) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


@pytest.mark.parametrize("k", range(30))
def test_cold_outputs_keep_their_bytes(k, tmp_path, capsys):
    nx, ny, density, kind, seed = _instances()[k]
    path = tmp_path / "problem.json"
    doc = problem_io.dump_problem(*random_instance(nx, ny, density, kind, seed))
    path.write_text(json.dumps(doc))
    got = tuple(_digest(capsys, argv) for argv in _commands(str(path)))
    assert got == DIGESTS[k]
