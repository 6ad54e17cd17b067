"""Golden artifacts: the SHA-256 of every file a fixed set of CLI runs
writes.

Any change to an artifact's bytes, including the sampled ones that
pin the seeded random stream, fails here.  When a change to the
output is intended, re-record with

    PYTHONPATH=src python3 tests/test_cli_golden.py

and paste the printed table over GOLDEN.
"""

import hashlib
import json

import pytest

from bandwalk import cli

SPECS = {
    "free_lrb(3)": {"type": "free_lrb", "n": 3},
    "free_lrb_bar(3)": {"type": "free_lrb_bar", "n": 3},
    "ordered_partitions(3)": {"type": "ordered_partitions", "n": 3},
    "K4_bases": {"type": "matroid",
                 "matroid": {"kind": "graph",
                             "edges": [[1, 2], [1, 3], [1, 4], [2, 3],
                                       [2, 4], [3, 4]]}},
}

# distributive chain bands: a grid, and the order ideals of the poset
# a < c > b < d given by its covers
CHAIN_SPECS = {
    "dist_chain(grid2x2)": {"type": "dist_chain", "grid": [2, 2]},
    "dist_chain(ideals-N)": {
        "type": "dist_chain",
        "elements": ["0", "a", "b", "ab", "bd", "abc", "abd", "abcd"],
        "covers": [["0", "a"], ["0", "b"], ["a", "ab"], ["b", "ab"],
                   ["b", "bd"], ["ab", "abc"], ["ab", "abd"],
                   ["bd", "abd"], ["abc", "abcd"], ["abd", "abcd"]]},
}

START = {"free_lrb(3)": "1,2,3", "free_lrb_bar(3)": "1|2|3",
         "ordered_partitions(3)": "1|2|3", "K4_bases": "1-2,1-3,1-4"}

# generic weights on the free band: every flat gets its own eigenvalue
GENERIC_F3 = {"1": "1/2", "2": "1/3", "3": "1/6"}


def _move_to_front(n):
    """Uniform weights on the faces of type (1,) of S_n: i | the rest."""
    return {f"{i}|" + ",".join(str(x) for x in range(1, n + 1) if x != i):
            f"1/{n}" for i in range(1, n + 1)}


def _band_cases():
    for band in SPECS:
        spec = ["--spec", f"{{tmp}}/{band}.json"]
        uniform = spec + ["--uniform-on", "generators"]
        nu = ["--check-nu"] if band == "free_lrb(3)" else []
        yield f"{band}/build", ["build"] + spec
        yield f"{band}/spectrum-json", ["spectrum"] + uniform + ["--certify"]
        yield f"{band}/spectrum-csv", (["spectrum"] + uniform
                                       + ["--certify", "--format", "csv"])
        yield f"{band}/idempotents", (["idempotents"] + uniform
                                      + ["--grouped"] + nu)
        yield f"{band}/simulate", (["simulate"] + uniform
                                   + ["--start", START[band], "--steps",
                                      "40", "--seed", "5"])
        for method in ("exact", "sample", "idempotent"):
            yield f"{band}/stationary-{method}", (
                ["stationary"] + uniform
                + ["--method", method, "--samples", "3000", "--seed", "2"])
        yield f"{band}/converge", (["converge"] + uniform
                                   + ["--mmax", "12", "--samples", "3000",
                                      "--seed", "4"])
    generic = ["--spec", "{tmp}/free_lrb(3).json",
               "--weights", "{tmp}/generic.json"]
    yield "free_lrb(3)/generic/spectrum", ["spectrum"] + generic + [
        "--certify"]
    yield "free_lrb(3)/generic/idempotents", ["idempotents"] + generic + [
        "--grouped", "--check-nu"]
    yield "free_lrb(3)/generic/stationary-sample", ["stationary"] + generic + [
        "--method", "sample", "--samples", "3000", "--seed", "9"]
    yield "free_lrb(3)/generic/converge", ["converge"] + generic + [
        "--mmax", "12", "--samples", "3000", "--seed", "6"]


def _chain_cases():
    for band in CHAIN_SPECS:
        uniform = ["--spec", f"{{tmp}}/{band}.json",
                   "--uniform-on", "generators"]
        yield f"{band}/build", ["build", "--spec", f"{{tmp}}/{band}.json"]
        yield f"{band}/spectrum-json", ["spectrum"] + uniform + ["--certify"]
        yield f"{band}/stationary-exact", (["stationary"] + uniform
                                           + ["--method", "exact"])


def _other_cases():
    checks = ["--stanley", "--mahajan"]
    yield "derangement/boolean(4)", ["derangement", "--boolean", "4"] + checks
    yield "derangement/subspace(2,3)", (["derangement", "--subspace", "2",
                                         "3"] + checks)
    yield "derangement/subspace(3,2)", (["derangement", "--subspace", "3",
                                         "2"] + checks)
    for n in ("3", "4"):
        yield f"descent/S{n}", ["descent", "--n", n, "--beta",
                                "--phi-check", "--idempotents"]
        yield f"descent/S{n}-walk", ["descent", "--n", n, "--walk",
                                     f"{{tmp}}/move_to_front_{n}.json"]


CASES = dict(list(_band_cases()) + list(_chain_cases())
             + list(_other_cases()))


def _write_inputs(tmp):
    for band, spec in {**SPECS, **CHAIN_SPECS}.items():
        (tmp / f"{band}.json").write_text(json.dumps(spec), encoding="utf-8")
    (tmp / "generic.json").write_text(json.dumps(GENERIC_F3),
                                      encoding="utf-8")
    for n in (3, 4):
        (tmp / f"move_to_front_{n}.json").write_text(
            json.dumps(_move_to_front(n)), encoding="utf-8")


def _digests(tmp, case):
    out = tmp / "out" / case.replace("/", "_")
    argv = [a.replace("{tmp}", str(tmp)) for a in CASES[case]]
    assert cli.main(argv + ["--out", str(out)]) == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())}


GOLDEN = {
    'K4_bases/build': {
        'semigroup.json':
            '83f0bf221926d7c66acfd621a1af65d9744760f5cc2dfc51ab04a42d79944759',
        'support.json':
            'c95a9440e7cb16946d80af31761070d190fef988b4e68bfd698556881b56b976',
    },
    'K4_bases/converge': {
        'converge.json':
            '407be2cb05b9d5ab002c6d1677ea41e3689f112cbe0af9de0849403ead30e588',
    },
    'K4_bases/idempotents': {
        'idempotents.json':
            '5fa5ce8e4e08f36e3503c22f61270b7fe517cfe9d8667e9a9ee8761383aec205',
    },
    'K4_bases/simulate': {
        'trajectory.json':
            '910bc3c70854c59bde8f353a6893bd3468b9be1aac71bb3b5dc0c85e85658f83',
    },
    'K4_bases/spectrum-csv': {
        'matrix.csv':
            '4b71244e44fb0827cc878a78ec2f3d33188d2ee6b275ccccf56796e6f5bdf166',
        'spectrum.json':
            'e42002d83fd953f969236ec1cb33833a9864383aaa6ee7edab4ca02dff20b9e3',
    },
    'K4_bases/spectrum-json': {
        'matrix.json':
            '7fc80152f6b8b08d8e21c4191b164fa7cee46839b12b3f6481ab561a2177100b',
        'spectrum.json':
            'e42002d83fd953f969236ec1cb33833a9864383aaa6ee7edab4ca02dff20b9e3',
    },
    'K4_bases/stationary-exact': {
        'stationary.json':
            '4ad7146d19d843a6ad63fb854efa0115a13bab19974ab3859b07e7489bdf66e8',
    },
    'K4_bases/stationary-idempotent': {
        'stationary.json':
            '3dfe4ebfb63ae6f63c752e621310db480158300ff088e5819968dd8ed49736d3',
    },
    'K4_bases/stationary-sample': {
        'stationary.json':
            'bf2c29db62154d89ad522c8f07e4018710b74f18199d4dd886e27e467a3765b7',
    },
    'derangement/boolean(4)': {
        'derangement.json':
            'a77d3dba42e141d5e4b2f020cd345324b07c2b8674f5bbec968a1a413c5b00a3',
    },
    'derangement/subspace(2,3)': {
        'derangement.json':
            '083eb0f8bbff4f1d7f760cd029a2c39eea99d6d6d2640a3fd74f6c64e52ab44f',
    },
    'derangement/subspace(3,2)': {
        'derangement.json':
            '730755c007ca4efad03287f3f6aa7dd6fd734d0b3812cea6a8d78cb0594af7f1',
    },
    'descent/S3': {
        'descent.json':
            'd6da9c7cbf966bb2cab0e61dfab3e21cf21749b3f1a2f6fa4181d7907302cbc5',
    },
    'descent/S3-walk': {
        'descent.json':
            'de9f7cb5905041753583d2cd42b09d2ed7b50b21d87afe0f299eb72ac565b0e7',
    },
    'descent/S4': {
        'descent.json':
            '0fa74eab7a24a16790b4e0dfb577d212b596e3b37bfd6fcaeb8193a5e549e10e',
    },
    'descent/S4-walk': {
        'descent.json':
            '3359e20a958db19f8c7b6ebb80aca15d9ea06255e61d5c8e7240c9bf50c11142',
    },
    'dist_chain(grid2x2)/build': {
        'semigroup.json':
            '23a4b35eb371a5d86f6cffaa35b5e8c3f9e859931b7c8039a3e5812f51de46e6',
        'support.json':
            '69b6d6fe8f5966d9621a9402efae83ed27fb3313e7f53d60f16a1315664998ac',
    },
    'dist_chain(grid2x2)/spectrum-json': {
        'matrix.json':
            '2e4733f8998f15b1d09499599b5d48f54c00d826d980570c72bfc9bc29f69bca',
        'spectrum.json':
            '0f06f9e58afb219124384728f9d15330a96e8f6c585e01a09bc5dde300b4a9c4',
    },
    'dist_chain(grid2x2)/stationary-exact': {
        'stationary.json':
            '3662a7a670079611a319be2f29b5da1d75ad01c4051d17055b159ca6581a1881',
    },
    'dist_chain(ideals-N)/build': {
        'semigroup.json':
            'c5cc8dc33016fc157f61196006aa0c34ddb50dcbe11368fedf0bc24c8d7f0c27',
        'support.json':
            'db3b0c62e786eb3218407cca82782b4c7b1bd61dc19640f4f0c3d4411a71a69d',
    },
    'dist_chain(ideals-N)/spectrum-json': {
        'matrix.json':
            'a04ae076608592f471e1732f6032e6e85cb1e6fb116bcef38d22628d633185f6',
        'spectrum.json':
            'b1d911e76f5271a7151d8b7ca18ca4fb559ceaf16e4c6df0d602be03c7cd96da',
    },
    'dist_chain(ideals-N)/stationary-exact': {
        'stationary.json':
            '398a1754fb85c8c7255a4d5acc2f69670cee4470243a153c565b7561ba453535',
    },
    'free_lrb(3)/build': {
        'semigroup.json':
            '74445e96a9f449505dfcbec2b2826ea3dcecd50a9bff598497a5378008437f01',
        'support.json':
            '324625a8a739270b026b9cc9a097c45570986f7d23b6c845b316feee6df5cdbb',
    },
    'free_lrb(3)/converge': {
        'converge.json':
            'd65198ad56c7d4919056f74cc852e0211dd9354a8a18ae4d31bb561b069a7e63',
    },
    'free_lrb(3)/generic/converge': {
        'converge.json':
            'fabf367585a240face83aabf96bb1d2874c51c402f76525abae8920682fb9792',
    },
    'free_lrb(3)/generic/idempotents': {
        'idempotents.json':
            '95c64f56b638d5783762d306f53e63fba8b5392995fd9300a313960b0f27fa7e',
    },
    'free_lrb(3)/generic/spectrum': {
        'matrix.json':
            'a3754beab3187ceb05ae4fa6862e092e1c4d0f0e4b526cd4680a29382b15b2c5',
        'spectrum.json':
            '3eae53afdaa923ccd8ee56db6915de9eaf20ff8450a49e7e88e8601b07c0f673',
    },
    'free_lrb(3)/generic/stationary-sample': {
        'stationary.json':
            'f8c365312d63ed1298bd86e231d3b0c998254885581b3d6ba6e5a3614307574c',
    },
    'free_lrb(3)/idempotents': {
        'idempotents.json':
            '11496ab3727aaa5ac919f005255ac0e1e25bf681c03d5dbdd76c94acfe11ad56',
    },
    'free_lrb(3)/simulate': {
        'trajectory.json':
            'b793ce98124bde31640979f792eb4ffdb0f5375512ec28af20fabbe5bb451a80',
    },
    'free_lrb(3)/spectrum-csv': {
        'matrix.csv':
            '89d202e64cd84dabb8ca07bc2f82fe7ecc84ff0029846024148e84bccd0e7389',
        'spectrum.json':
            '9e0a7385a4b59e5b154c580d997111e7fac9c7f0e8daf1385f41b83686f663b8',
    },
    'free_lrb(3)/spectrum-json': {
        'matrix.json':
            '8c1ec72a22e13d0f21fac26c40b142589cb777da1ebeec7ca48402218ab5d83e',
        'spectrum.json':
            '9e0a7385a4b59e5b154c580d997111e7fac9c7f0e8daf1385f41b83686f663b8',
    },
    'free_lrb(3)/stationary-exact': {
        'stationary.json':
            '1fcf65138b153497b886333912f0a6e1b4df479b09eaa3000a99ecb20c498356',
    },
    'free_lrb(3)/stationary-idempotent': {
        'stationary.json':
            '6a85b8952b8dd1ffee55515c94bc4425185b26b0e1b98231549caa3b782cb70d',
    },
    'free_lrb(3)/stationary-sample': {
        'stationary.json':
            '2d187a088cabb4e13fc90c64bce682fd2ef7779143ccaddb3b3ba897bbd4826b',
    },
    'free_lrb_bar(3)/build': {
        'semigroup.json':
            '382d006ad734f2f4d6df16bed884e1d5c3795a3a1eec230a5c8bbebb91a7fb8f',
        'support.json':
            '7942e4ae0a543bac4528be1f1dc17d088ebf9de8e88b5a7f5a2161582b5b1b5f',
    },
    'free_lrb_bar(3)/converge': {
        'converge.json':
            'a12a081148355ec7c2324fefa678c92682f8020cdec6818291ad81f0a5ff8738',
    },
    'free_lrb_bar(3)/idempotents': {
        'idempotents.json':
            '098766f5af48022141ea91afd028c5797e4febdacf1b165da2bb12d461bf6a88',
    },
    'free_lrb_bar(3)/simulate': {
        'trajectory.json':
            '222c97a266fa22cc380c0e63fad087a8eea31fa56c65218e229ef8dc59487884',
    },
    'free_lrb_bar(3)/spectrum-csv': {
        'matrix.csv':
            '14d54e3f56567162f5a7e56c393002a82ba6de20625680896b64574f38c49e4d',
        'spectrum.json':
            '1b752a9517b37b0795d29dcad764a7bbe3a8e7e4e375e5d86587bcfd0c8d295e',
    },
    'free_lrb_bar(3)/spectrum-json': {
        'matrix.json':
            'f710c542b65153233fee0fdb3f8af288660b1783baee8130462fe3dc5fd45f07',
        'spectrum.json':
            '1b752a9517b37b0795d29dcad764a7bbe3a8e7e4e375e5d86587bcfd0c8d295e',
    },
    'free_lrb_bar(3)/stationary-exact': {
        'stationary.json':
            '0caacb1649b3f3d817bc95f00f480df17497050e927d56a47d1f02089a810c83',
    },
    'free_lrb_bar(3)/stationary-idempotent': {
        'stationary.json':
            '64f56b6c367fac838e9e88ef2a5b05d7326eaf6eaef9f65566a99b65a9db3228',
    },
    'free_lrb_bar(3)/stationary-sample': {
        'stationary.json':
            'd2852c057e6c498bd246d825b1ebb4f813d18edefc251721cb85d635c9993f97',
    },
    'ordered_partitions(3)/build': {
        'semigroup.json':
            '42ac7007abe5f0e05391e0312154525c1aaf742731ca9e1119842cae8eb2c020',
        'support.json':
            '101887b29641af92d9a443409e32606c5012bff2ab093c461fd55eee847865a7',
    },
    'ordered_partitions(3)/converge': {
        'converge.json':
            '035e4bc64c7c58b3fa11cbfbdfac4d8796489c741677e3bfdf0a0b6bf53a38af',
    },
    'ordered_partitions(3)/idempotents': {
        'idempotents.json':
            '85d97f9816e2116f84098f07db7995106c0e2622fc1bdf8f7f0df20089f51094',
    },
    'ordered_partitions(3)/simulate': {
        'trajectory.json':
            '7ac0ec632f8fcc17cf5c142283d7c4b1e70d43b1787f06be5a37ca21d75e7482',
    },
    'ordered_partitions(3)/spectrum-csv': {
        'matrix.csv':
            '2a29b7b031c83a0d2b990c7240ccaf9a8f32858f99139f6b70a20276327c92ae',
        'spectrum.json':
            '36a1b57f474e52176d84bb43812ca4742a7027d32e460340520d5f0abff76891',
    },
    'ordered_partitions(3)/spectrum-json': {
        'matrix.json':
            '701740c38baddfb8d5a241f4006eda97f15e604e98aa4d7fc49b4e5263f95a22',
        'spectrum.json':
            '36a1b57f474e52176d84bb43812ca4742a7027d32e460340520d5f0abff76891',
    },
    'ordered_partitions(3)/stationary-exact': {
        'stationary.json':
            '0caacb1649b3f3d817bc95f00f480df17497050e927d56a47d1f02089a810c83',
    },
    'ordered_partitions(3)/stationary-idempotent': {
        'stationary.json':
            '64f56b6c367fac838e9e88ef2a5b05d7326eaf6eaef9f65566a99b65a9db3228',
    },
    'ordered_partitions(3)/stationary-sample': {
        'stationary.json':
            '8272b552b7913876d86982c842688a0ed6215ae112284867b37efeddf6725515',
    },
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("golden")
    _write_inputs(tmp)
    return tmp


@pytest.mark.parametrize("case", sorted(CASES))
def test_artifact_bytes_match_the_recorded_digests(inputs, case):
    assert _digests(inputs, case) == GOLDEN[case]


if __name__ == "__main__":
    import contextlib
    import io
    import pathlib
    import tempfile

    with tempfile.TemporaryDirectory() as d, \
            contextlib.redirect_stdout(io.StringIO()):
        tmp = pathlib.Path(d)
        _write_inputs(tmp)
        table = {case: _digests(tmp, case) for case in sorted(CASES)}
    print("GOLDEN = {")
    for case, files in table.items():
        print(f"    {case!r}: {{")
        for name, digest in files.items():
            print(f"        {name!r}:\n            {digest!r},")
        print("    },")
    print("}")
