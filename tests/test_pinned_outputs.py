"""Exact CLI outputs pinned across versions.

``profile`` and ``solve --eps-grid`` trace the full profile from zero flow
(a cold run).  ``solve``, ``dual`` and ``dual --relaxed`` read one warm run,
``sweep`` climbs a truncation ladder and ``covers`` reads warm matching
runs.  Exact arithmetic takes the same augmenting paths on every platform,
so their stdout is pinned byte for byte by SHA-256 digests, with the exit
codes of the warm commands, over 30 seeded ``random_instance``s: sides
2-14, 0-60% forbidden cells, uniform and random marginals.  A change to the
engine's search that moves a path, a breakpoint, a certificate or a scaled
ladder level shows here as a changed digest.
"""

import hashlib
import json
import random
from fractions import Fraction as F

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

def _warm_commands(path, cells_path, k):
    """The argv of the warm and ladder commands on a problem file; the
    ``sweep`` levels are seeded per instance, with denominators 1, 3, 7
    and 11."""
    rng = random.Random(1000 + k)
    levels = sorted(F(rng.randint(0, 30), rng.choice((1, 3, 7, 11))) for _ in range(4))
    return (
        ["solve", path, "--format", "json"],
        ["dual", path],
        ["dual", path, "--relaxed"],
        ["sweep", path, "--m-grid", ",".join(str(m) for m in levels)],
        ["covers", path, "--cells", cells_path],
    )


def _cell_pairs(nx, ny, k):
    """A seeded cell set of the instance's grid, about a third of it."""
    rng = random.Random(2000 + k)
    return [[i, j] for i in range(nx) for j in range(ny) if rng.random() < 0.3]


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


def _run(capsys, argv):
    """The exit code and the SHA-256 of the stdout of one command."""
    code = main(argv)
    return code, hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


def _digest(capsys, argv):
    code, digest = _run(capsys, argv)
    assert code == 0
    return digest


def _write_instance(tmp_path, k):
    """The problem file of instance k, and its grid's sides."""
    nx, ny, density, kind, seed = _instances()[k]
    path = tmp_path / "problem.json"
    doc = problem_io.dump_problem(*random_instance(nx, ny, density, kind, seed))
    path.write_text(json.dumps(doc))
    return str(path), nx, ny


@pytest.mark.parametrize("k", range(30))
def test_cold_outputs_keep_their_bytes(k, tmp_path, capsys):
    path, _nx, _ny = _write_instance(tmp_path, k)
    got = tuple(_digest(capsys, argv) for argv in _commands(path))
    assert got == DIGESTS[k]


@pytest.mark.parametrize("k", range(30))
def test_warm_and_ladder_outputs_keep_their_bytes(k, tmp_path, capsys):
    path, nx, ny = _write_instance(tmp_path, k)
    cells = tmp_path / "cells.json"
    cells.write_text(json.dumps({"pairs": _cell_pairs(nx, ny, k)}))
    got = tuple(_run(capsys, argv) for argv in _warm_commands(path, str(cells), k))
    assert got == WARM_DIGESTS[k]

# (exit code, SHA-256 of the exact-mode stdout) per instance: (solve,
# dual, dual --relaxed, sweep, covers)
WARM_DIGESTS = [
    # 0: 3x11, 0.0, uniform
    ((0, "3c533a7daba3d6604301b098503b1e0a44f8a20c1271aae72c48d824311db2d2"),
     (0, "64098d852a247ede677fd5d92df5adb991bfce92c575dcb938ae182ec9fd6cf9"),
     (0, "3897e75d3abcae4a11980095a2a28b5e4b3f3a0bc6004a99382157c26f1ebe00"),
     (0, "b3e931634c693fd655703c4359606ec19a2ab5f6cea2746ef04d4b36c38832bb"),
     (0, "d4e0eaaba6a092e90b4f90f4631572dfb9bcb9867931b0807973092b1cac0150")),
    # 1: 13x14, 0.1, random
    ((0, "3c1d17780af1486e03e554e874ef38ab546aa0ce182b91fe7317f86c8f9c34d7"),
     (0, "b6c6f9269b0081a44726ddfc6c57d07b66b7561862bb2b17c8c28376f9f2c61c"),
     (0, "8119d2c1b4440a843f96ff7b26ff9106d754032173d578dcfedbb56111ff1937"),
     (0, "6c1d5da365072038aa85d2a3a19c3f053e564ed851dd8fc2ab2aeefff3642614"),
     (0, "9d9ab2e6a583b4e42917826c181ecc1193d479cdfda7da0b1e7dfbd87c7e9d73")),
    # 2: 12x10, 0.2, uniform
    ((0, "fee5c93a44f18e91d5063b3d5829ef627a40ffefcf606ed80c4cac6f1f164b29"),
     (0, "e47eafc01689faa67503bd1d3e5cc568e2bf69e2a0e07ed022eb7ec50ef05a3a"),
     (0, "6d7e5d45ff0b5d7bff379070acc887e8eaaa6b9095f9dbf522c26008edfdde50"),
     (0, "faf6207be60e830ea1e8c2734d653556e603c217c9eb873f4d84e9152e621697"),
     (0, "35b8323ccf9ee33c528eb73facc31169dd0452dfb6c610654c82a5d12f21a828")),
    # 3: 5x6, 0.3, random
    ((0, "9cdb5a1c4ab68cda9834e00d7cc1ccd5ed85fe548075f07ffa9896911f853058"),
     (0, "ae4b85e6930c7fef6293536e37a02b661fcafb9670b9cb05c63c23c229d5e1e5"),
     (0, "23b2b2d15f8c593123acdb0e03c4a0c6420ea255b52c8c13eb685920f44904d4"),
     (0, "e1190e8e3a37de3265902d440b507c3d29b019e796397d2aafcc6e9fa4955782"),
     (0, "e01f36dd31bfcb2146f03d62cf904b3b0af98f20c56a514ba542b68b29e8ad1b")),
    # 4: 13x6, 0.4, uniform
    ((0, "247716242159e92eb72ea17f8828802abd506fe6659adde7f5fe21bc2ef9c8eb"),
     (0, "6fcec950663acf1f68923d1b82c1ffcba6584c33640dafa594a1ef00bace189c"),
     (0, "46eb9d54d2deaca37e24fd0a2f28dfc3d7539baf8c21fc40328221fcbcfc2566"),
     (0, "1cd312171004f4c752487faf835b5e87ac4072c8c5ee88f2f4ff7f66010e5445"),
     (0, "431e2f7aa8b1954b1683251aeb1d489a76fb5c8217aa49d98c9b8acc33b4ad14")),
    # 5: 6x13, 0.5, random
    ((0, "d412abc683383d178e99e9b10c100c5f6f1f7e6da5ffa7a1c84a998e75464fec"),
     (0, "6fa5c3e6046a90c70aae94e31753de410f2dec20a263123d76a69bfc095d4084"),
     (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
     (0, "bcc42f276effed92bb7d3fa31f50564fbd1a9e9301484202f812f6ee81cd8bf3"),
     (0, "5da2f38002b576adfd66da1cf48ed7ce9a24d1ed30a57acd12f80e11c9bcc8c3")),
    # 6: 3x12, 0.6, uniform
    ((0, "c254c4a2291a77e4cecd95fb22f1db51a36e00b199c9e36d7685557e8be0ee8c"),
     (0, "1618ef50671f6a2975be706c90ceabe35c6bea21e980cb45800e2c9588ee9dcf"),
     (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
     (0, "f5fbb7b12643fe3d3753c1dca3b20a9ac4d5f6e244f53472379a3d657c0e5329"),
     (0, "270b0f0ad56eada6124b8f14154738550bbe706c5f67f042839869b864a7d3b1")),
    # 7: 9x6, 0.0, random
    ((0, "73ba35547986f7f8efd84296f1b82e63cc4fbe968c716a126d722be77ade4308"),
     (0, "5e90a6b04df034af08346164b7677b8ee523ad8309547ef1c895735cbab58a00"),
     (0, "8fa79382fcb3cea4bf9e9e0c3e1687f522e8ffe5ce49a47d676a75e462d603c6"),
     (0, "6521772cc622684e9893dd554b52d7e1795439138450f11b0e49257fa66be3e9"),
     (0, "55cf53de027fff78c51bfd6c17505074d69e27831db132c48443fca84604c2f4")),
    # 8: 9x12, 0.1, uniform
    ((0, "0da97c178bea7e132f7f5a42242dc0ab9154d7be21c9135541fe9415e4f4c2b7"),
     (0, "c9216e6b4aee62b18a89fccf572063c393ced8834a1c1e492f8d70a37038c59b"),
     (0, "5cba787c683db4465f4f26f0987f8ef0dee6dcf0b9fccf1999f5ea7ea73f5af1"),
     (0, "39618123077356362a60d4e9108809fb802547120aab07c6583628cb1cfb0a2e"),
     (0, "024d7ebcac3e2ec7c060c441ba6e1b5fb616d762fd1e708ff9b3820a7f40abdd")),
    # 9: 8x8, 0.2, random
    ((0, "0ad44816f6efe2b9818d87db98f9fcd0cb2c0303e734931a6bb38e117444f758"),
     (0, "8fe6d0b1ca0fc2a05c1f5a0fb7f635ce347105fba0f627897bca4e696423ef9f"),
     (0, "f38d4e5482ae3e7d77adfe739343080225cde0cc89ecd22f62f3cb1f438b2ad9"),
     (0, "0527188adf1a5ab9edc5adcaaa963543533aeb773b10d1624275273b22b64721"),
     (0, "d17bcb1610b6e0b56bba9a247c3aff7234e2c9b9787e5979f98cc23489513d8a")),
    # 10: 14x3, 0.3, uniform
    ((0, "81807b7cf49cd2ca4df8bd523d9d4551ac545a32eb5828ba1fac0a838474643e"),
     (0, "416b3be53d4a8fd7202d4ea8922add41ef597cc71607f3f8e88b63cb52fdd51b"),
     (0, "9b46a293ade758bbeefcfaa030d66c5457102c8f7874bf475053a72a1b70c99c"),
     (0, "1f4af1c8c552409a030e6dfb5790f92f1623a8ac4ee3e6500eb4c682a6c66e65"),
     (0, "3a0e95e79d8d63aaff640161c3af778658fa4688351f34265e42951c1384029c")),
    # 11: 6x5, 0.4, random
    ((0, "84232305e024077f992da92fcc4bff209b9bcc52b65a2941d26050c6b5b5dbba"),
     (0, "866e60cce542ff35cbc9f7aecd804c24ecfaa46db3da25d6f46df472b14e2806"),
     (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
     (0, "934d79384d64fa1fbbf7c8a77f50fc7b241bb9e72fcd5efe8857a22ab84bf1c4"),
     (0, "e86eb642706664475d3228997099b35bda165005a3d0b1cfb3d229c06f12f4e2")),
    # 12: 7x7, 0.5, uniform
    ((0, "73fde90e933d41d7d2a3aefadbaf639508d9de2af014badc0bd9640cd1702ba8"),
     (0, "5d36a14342833f692da3c2bad2c76658304a2fbb3b33a71d57982243713270bb"),
     (0, "09a6a0b99212a7a4aa3db65e581a048cea3a78162ffba1d450ee163c88e7ffa1"),
     (0, "090e2434cfdaa4784d95d175af803c60aaf233099de6073b33e13a2ba25f4f95"),
     (0, "a81048d0fec0d09cecd184f997139160fc7fc79d037d0671ccea2b85f7f5103d")),
    # 13: 14x6, 0.6, random
    ((0, "ef4309c3cc9b82523e4160847ddf0f027cde62fddfee12cb1bd2997c424cd630"),
     (0, "431271039813d4d4f47ba5531ae180acc7137083f1ec929ea2a5ce48d599281e"),
     (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
     (0, "660508e2af61426ee4f7877df1f6cade4079915e3f0282b1025adee9dc57d132"),
     (0, "1a83dfea226c8475286f41a67807f6c3de37b54744308030823b307d667af694")),
    # 14: 7x14, 0.0, uniform
    ((0, "368e7a13df6c6bc5ab62eadae970851a79a445c3529a50e3de7c9726c6a489c5"),
     (0, "4de6c3fffab3e68570a396c22c2c6057113585b2549b2cc600f94b2ed8a3893d"),
     (0, "8012642545361707c7feff6df34bbdedf9de754cc7783b78b194ef33f866f264"),
     (0, "129e5d6814eafc3e6a23054fea4a3f424d5ad23ed985bbaf7ed3f2229f9c8ab5"),
     (0, "762bb8a3e43f651643c89df8392ed1e18bf4cad3c877bcd16501eeb9d80f4597")),
    # 15: 12x12, 0.1, random
    ((0, "dcae1cc9f52008e19849b0543c941ff3753d550259725931f2ed1fd325bf0f20"),
     (0, "0fb41c9bc54fb1de38f2bc6baeaa75d6316f5dee2f092e034845d86918db3557"),
     (0, "e797ace3d0e22f031096f6b99168d2be367e28d382d1d4e64a16e9db1debef47"),
     (0, "9dc32374ec7a3a69fceb239c77f7d398d949817b12652b68d936ff94874c8230"),
     (0, "9498dcf3101ec969c78fa683057bd42c2c550457d343aeee226d5023228b92c9")),
    # 16: 10x4, 0.2, uniform
    ((0, "0aa754db6533946fbcaaf658c135bfc3e1246984364383404053917b70781a46"),
     (0, "cb2eafe485a108e08f94805d477a093d1d772733b9f3611673976191ad5b5b62"),
     (0, "b61321d8356327faa81bbf67912d13ebf64c4b4e0f0239c96d305aa47bd3a9d1"),
     (0, "6dbaff08777c6493a5f20b14953bffa408945fe949d5256f1b6c995aeb89b6ee"),
     (0, "394830212f55914471616f1b2d805dd427899930ad8ca96665950357feecc89c")),
    # 17: 4x10, 0.3, random
    ((0, "48aa90a617892b7df4d93bea42d556d5fa3af15143e75c6cc84b369b3c5b9197"),
     (0, "c64c5908668710da7402326164cdf86a7cbc42bb35c0ad13c954ba7cbd5dc718"),
     (0, "197586306e418f8c3377dc51f34c6cf8bdf0ea07ebc4b2e4bc63a87e7d52a902"),
     (0, "9054cca4416a7314605e1ae801f0b57d63e00af0b2795298054bb5ae4394cdcd"),
     (0, "98c500afd2ef20d53bbc6bbe22080358fa49fd0b9c73e0a86c5d8ea9564cebb6")),
    # 18: 12x12, 0.4, uniform
    ((0, "8f8c625f70b807b4fe8a02a1ea9b060f5c48dd974b56ef421225ef80b2a85f97"),
     (0, "e3bc62bbb89bf31da82f6a2a3c38360e4a19400ffaff07f55070bf1498540a7b"),
     (0, "cec27f497e8a50bd0a3f201c90b23fb9828fb77d2fd61c4066980257cb9b2292"),
     (0, "bd274494910c80f668141f62a218f530f6a5f2cd39c6b830f34fa9ae6e7e937a"),
     (0, "d140eef79a59742c4f7dbb270ca9924b487019b428633898e10caec4088529d6")),
    # 19: 6x4, 0.5, random
    ((0, "914efadfb1a7d023693530d42cbefc00bea9bb46f448ee79edffafbae6e01239"),
     (0, "f8d7eb4b02baaac2ece76f5ec6009eace41f8b85e58d42c6ef7698372771acba"),
     (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
     (0, "724e3fcc535897e6e8cf5c54e42261d38077538ed88aea20c7c3fb77449b45f1"),
     (0, "772a5762a50cab2e10753ccb4a62b28ad5bc499dcd2355bdd18ffbf3e03cdc17")),
    # 20: 2x12, 0.6, uniform
    ((0, "528d7687237ebbb2124a08acf1e4efbb4e158f48395517d516abda6224a623bc"),
     (0, "f1a9c940cf4d44f6c79e29ac322c940b4f6012585f29d300f0e98a1776db47f2"),
     (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
     (0, "421823f459091a7a7e127b48d9299598a08e75c51762f0578674898bf33f9624"),
     (0, "415de13bb1c4a4a42c4af5fe6f98e9e7602ba362eaa1e6bd365b877e8a73f86f")),
    # 21: 3x3, 0.0, random
    ((0, "b07c3f66bbd20f1d9c480658771845180eecc036de265e7a135021e9ff5aaed8"),
     (0, "4b857f4fcc6b92f0017b33a0a8ac0e4b4db6ecac82fd57c03e787b0d9350499e"),
     (0, "5ad64aa542f21922ec17fdbb7a199a921f321bf53e4386bbe748d33e70569f04"),
     (0, "d65386e93099a8a9812e24e59e1992a82a13c49abbc027176009c5e11c0cbe9d"),
     (0, "0ded3e5e96c45caa3b1054213acca932e9c1bc465fcf72b4852760e9b114f2ce")),
    # 22: 11x7, 0.1, uniform
    ((0, "924bf1ec16672d7066b2cf4d87a70bb90707ade1573a33489e091f9670a80375"),
     (0, "631b13b30014fba6961e9e0bc014da833fb758d66fc527d68ee5dd7088fee839"),
     (0, "1f59be658c3ae0ac9ee7942fb07e9da03c99987d6bd8605ced988cd12cd8b822"),
     (0, "d56e10fab4b18d4e3c2e18b54be8f8815a935fd985dd7e40ba7f5bf5563f31ef"),
     (0, "bab00787fd71a2dc50828224705551156d928dd0a07c91001617b13ee53a6082")),
    # 23: 2x3, 0.2, random
    ((0, "6065be9014f720125844fc447439399fc87e2784fa61bc5da9beb803291d66e4"),
     (0, "8879f9a0060cc7ecd9269443bf0add266337cda08d8b2f7c3ca5f46b06522f3b"),
     (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
     (0, "decca015d6453702b3d156e2b54ba9ae607cd4a21813b998f3ce6c01bd48755f"),
     (0, "efe9cdf4031b2004ae4f1bc969a28b26a6d4e97e3d4db7dceda1e6cd333bd541")),
    # 24: 6x5, 0.3, uniform
    ((0, "b328fa013b8f87f25519aac4505c223fdbb0015eb54238d8668deea74da8c636"),
     (0, "4751e9b872a7eab666d3035506cb6ec5e3a8c99d407f21b4e1ce0519dce6b719"),
     (0, "f5be97aea0aa7cb9c47d090acae7f102743980f9d4d05b3fb5f6bdc144b1766e"),
     (0, "797fe7a0968df317a78d609d363f73a8ad094b055a569d3b6400e588e6e27f1d"),
     (0, "793701173bc6ad1b79f80f3f0d9fcf0ec55e06d1d177f4dc2e1e80787309f1a2")),
    # 25: 8x8, 0.4, random
    ((0, "f11fa83278eaa9261964b1ad1fb13e22f230e84ebc85d3cc335fbcb6cbc95f10"),
     (0, "120250adc49299ec6ca6cb3ab2634604fd9086d3cc3c43c40e827d4c8e57e2f8"),
     (0, "bfcd5d986f177aba0593102d6a5d1ab1c996ed23d1bcf7ccc2117e182bb1da40"),
     (0, "ff34afeca88778bfbf1afb50459add01d9efe8418cf3657bddd6023889c70065"),
     (0, "829ec086f0021db9f9adf4d153f5c9724c84ff154ad104d3dd4e6ca0bcf716e5")),
    # 26: 11x9, 0.5, uniform
    ((0, "eb976c43998b066ec77971f855a12736164c1ce4ca164242b73a43b298787f7c"),
     (0, "99abb537e32a02572fcb4c0469470253005b6ac42b8f3a69d5f47c2ee463dde9"),
     (0, "6fa15ecbd93a3fb1feea69c1d510f13f69927f08eaeeb22e167d4423fb2f25a6"),
     (0, "58458769dcd1743f2cdf2da18c666ba6a4e02895f3ff702f211d9591e7f5f3df"),
     (0, "e35ebc0a483642444834a6d59d3d420b8ff133a60f5b0d3bbf7493953a412908")),
    # 27: 11x3, 0.6, random
    ((0, "3ac878ae03c7b78a1c169f36bbf334caa8b891f399ccf5ce9a83d00e8f65ec7c"),
     (0, "61289a3b0b28914f6f8a95cadae13c5151bccbed0f0f5ef836c7a818c6bef79f"),
     (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
     (0, "178d3f3de767064d4581ce14b09c84b0f67b944e13145a43468a20de4ebc994a"),
     (0, "cdb9b15768a5a7d664ade494ef865c373f4cb3526addf2f380eff1396d1494b3")),
    # 28: 12x12, 0.0, uniform
    ((0, "7d5e6a0f4e6d8fb00fd96801ad3a659cb39daa6f9165551d5ce5cf925004c6b7"),
     (0, "dbdedc1a322eebfe5b168f4a60f5aa2d7b7e1011a71ddcf120e5670e989b3fb2"),
     (0, "27457f838d68fa948d1511f64f579e21dd760e44fdede1aba74192ce4e5e389d"),
     (0, "c174e7ac2ec1c5fd611a74856a1617dd9142d76589facde7e9a733f5fe1264d5"),
     (0, "d140eef79a59742c4f7dbb270ca9924b487019b428633898e10caec4088529d6")),
    # 29: 3x11, 0.1, random
    ((0, "0d5ec4b184e1f392061d154496d8b168a233c782e1714b3939c63f7f19effa30"),
     (0, "3fee96dac969c4bf035ec7f4732f65500bb34d939bbd9572740e5ee883686a75"),
     (0, "75ebcdc3209a5c382b77456019e3d1b4683e6adfb60422138b3c81f85da22928"),
     (0, "dd41a957e8527089ada31f9db7c1ed639a4695c0f3f59a9d9ae3072240173282"),
     (0, "d750d782ab12a12a84300ef38b156b4fbb143be38cad01148c32bb302e0baab1")),
]
