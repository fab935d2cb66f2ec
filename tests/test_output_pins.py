"""Byte-identity pins for the CLI's pattern outputs.

Each case runs one ``spcube`` command in process and compares the sha256
of its stdout (and of its ``--out`` file, where it writes one) with a
digest recorded before patterns were stored as masks.  The cases cover the
places where string order matters: lines in 0 < 1 < * order, which is not
the numeric order of the masks, and the lexicographically least witnesses
of the extremal searches.
"""

from __future__ import annotations

import hashlib

import pytest

from spcube import catalog, graph_to_json
from spcube.cli import main

GRAPHS = {
    "k1": catalog.k1(),
    "single_edge": catalog.single_edge(),
    "c2": catalog.c2(),
    "c2_marked": catalog.c2_marked(),
    "triangle": catalog.triangle(),
    "parallel_edges_3": catalog.parallel_edges(3),
    "k4_minus_edge": catalog.k4_minus_edge(),
    "k4_x16": catalog.k4_x16(),
    "k4_y18": catalog.k4_y18(),
    "alon_graph_2_1_2": catalog.alon_graph((2, 1, 2)),
    "partite_graph_1_2_2": catalog.partite_graph((1, 2, 2)),
    "fib_chain_7": catalog.fib_chain(7),
}

FILES = {
    "vertex.pat": "vertex 2 2\n0011\n0101\n1010\n1100\n0110\n",
    "edge.pat": "edge 1 2\n01*1\n*011\n1*10\n110*\n10*1\n",
    "xc2.pat": "vertex 1 1\n01\n10\n",
    "star2.pat": "edge 0 1\n1*\n*1\n",
}


def _graph_cases():
    for name, g in GRAPHS.items():
        for kind in ("x", "y", "h"):
            argv = ["pattern", kind, "--graph", f"{name}.json"]
            if kind != "x" and g.distinguished is None and g.e:
                argv += ["--edge", str(g.e - 1)]
            if kind == "h":
                argv += ["--out", "out.json"]
            yield f"pattern-{kind}-{name}", argv


def _named_cases():
    params = {"alon": "2,3,1", "partite": "1,2,2"}
    for name in ("alon", "partite", "x16", "y18", "x_k4", "y_k4"):
        argv = ["pattern", "named", "--name", name]
        if name in params:
            argv += ["--params", params[name]]
        yield f"named-{name}", argv


def _op_cases():
    for fixture in ("vertex.pat", "edge.pat"):
        kind = fixture.split(".")[0]
        for op in ("dup", "codup"):
            for coord in range(4):
                yield f"op-{op}-{kind}-{coord}", ["op", op, "--pattern", fixture, "--coord", str(coord)]
        yield f"op-dual-{kind}", ["op", "dual", "--pattern", fixture]
    yield "op-phi-edge", ["op", "phi", "--pattern", "edge.pat"]
    yield "op-phi-star2", ["op", "phi", "--pattern", "star2.pat"]
    for coord in range(4):
        yield f"op-psi-vertex-{coord}", ["op", "psi", "--pattern", "vertex.pat", "--coord", str(coord)]
    yield "op-product-join", [
        "op", "product-join", "--h1", "h_k4me.json", "--h2", "h_c2.json", "--out", "out.json",
    ]


def _ex_cases():
    yield "ex-layer-xc2-3-3", ["ex-layer", "--a", "3", "--b", "3", "--pattern", "xc2.pat"]
    yield "ex-layer-xc2-2-2-brute", ["ex-layer", "--a", "2", "--b", "2", "--pattern", "xc2.pat", "--brute-force"]
    yield "ex-layer-star2-1-2", ["ex-layer", "--a", "1", "--b", "2", "--pattern", "star2.pat"]
    yield "ex-cube-xc2-4", ["ex-cube", "--n", "4", "--pattern", "xc2.pat"]
    yield "ex-cube-star2-3", ["ex-cube", "--n", "3", "--pattern", "star2.pat"]


CASES = dict([*_graph_cases(), *_named_cases(), *_op_cases(), *_ex_cases()])

# sha256 of "<exit code>\n<stdout>" followed, when the case writes one, by
# "\n--out\n<file>"
DIGESTS = {
    "ex-cube-star2-3": "09e88622e907436f341259fcb259c0e9336493186557503b29b9fda89729f1cd",  # exit 0
    "ex-cube-xc2-4": "68b29f481ba9f4f0a5c7b1d808d6357b74f8f52c105c15ebfb5046dabb9307d5",  # exit 0
    "ex-layer-star2-1-2": "20447693a03e39679e3424c1e0a15826573d5f6245c5f5573dbfc041668a3264",  # exit 0
    "ex-layer-xc2-2-2-brute": "bfe73e7f60962208c529bde235b190a495f4edc25ae9f699500f64f6759d1eba",  # exit 0
    "ex-layer-xc2-3-3": "c80b8d136384b50d020a587e247f37ccf6b64193b39ce949389159814d05c73e",  # exit 0
    "named-alon": "2d57032f90bd008a9bd75e60a721be11a403e495b6c49fec3f81a7ddf37f2580",  # exit 0
    "named-partite": "12f12545b0d7dba2952307bc5696836569f29a35876498b32a4bc2a04d063990",  # exit 0
    "named-x16": "5b80b12f489d9d530906104c040e89c795b06689f02296c1d23b6e4f787d2dfb",  # exit 0
    "named-x_k4": "5b80b12f489d9d530906104c040e89c795b06689f02296c1d23b6e4f787d2dfb",  # exit 0
    "named-y18": "dfc81651eb0c1cf952587184e897e7e446f80c74d838487dad343c77724825ae",  # exit 0
    "named-y_k4": "dfc81651eb0c1cf952587184e897e7e446f80c74d838487dad343c77724825ae",  # exit 0
    "op-codup-edge-0": "ab9db40de59a4bc720a7d3c11b40e774070cab92bcb39c1e891fac3bf1031a35",  # exit 0
    "op-codup-edge-1": "0b42ffb8971171091606afa816c9db8a0849af6df908e3a2bad95fab577d50e2",  # exit 0
    "op-codup-edge-2": "ee8155cebc82af5ca9865a408cffb6b058e8eeb32c826c2c119ebaccd2da69e0",  # exit 0
    "op-codup-edge-3": "6eb587c641a5379903f4c5f967315877a26c5a724bf94864602a961e13c56e30",  # exit 0
    "op-codup-vertex-0": "a75297d40786c488c54c442d8ea1596cb1dfca2451617d780d5bb928335edd35",  # exit 0
    "op-codup-vertex-1": "8133501aa83ef1236713f9861ecfec9f1d28b9dda164d3c816ce192057e3bb2f",  # exit 0
    "op-codup-vertex-2": "8133501aa83ef1236713f9861ecfec9f1d28b9dda164d3c816ce192057e3bb2f",  # exit 0
    "op-codup-vertex-3": "a12243b1d4ac14f65cdf58d648de5b0670a5c9e0c5e33ac405aa7ce20f4d4a93",  # exit 0
    "op-dual-edge": "b0978c97b0cf8a45102ad5645ffa141c1853a526707997460ad3f4146f3866e4",  # exit 0
    "op-dual-vertex": "2f2537b188a91990bcf3363dc47b1903495661e7b34c0d52998547da7d8b6977",  # exit 0
    "op-dup-edge-0": "8a8828e8b14cbb1035eb7d6a4ced315322cd98739cc2c67943b6a9a194d186dc",  # exit 0
    "op-dup-edge-1": "b924ec5addf3ed9744eb428ae133c6c3d0be0662ffaef1aaad83e61868443226",  # exit 0
    "op-dup-edge-2": "8ec905ad877e3f34be40b85dc8fd9ba5c5783d3f3b343e8d8c5e2310a4dda4cf",  # exit 0
    "op-dup-edge-3": "8bc0e5a7651f107d2ec2b7cebe0f014fa93d6974c4b2980f4156de886b4c8aac",  # exit 0
    "op-dup-vertex-0": "7ee144696579bef19f6e65df2307da7f714d9b4e07d39a73381c0fc9c315cc87",  # exit 0
    "op-dup-vertex-1": "5268883c63f527fa0dbf997ad0a69fd58fb02917d16cc04f3b3debbe4e9d2d8c",  # exit 0
    "op-dup-vertex-2": "4dc98223c3a289ac542cb41f318eba100f3f57f2d69b98cba169dc6b721427e1",  # exit 0
    "op-dup-vertex-3": "b0bc046dc6a5d0788035db4d1a14e5a0f530af00b710ee1b39b3d0258e5e200f",  # exit 0
    "op-phi-edge": "945c4ddfd6e917233cb021f07d0ea49c5eacad450527628f89575ac54835fa7a",  # exit 0
    "op-phi-star2": "0d167882310553d673667b19030e6bdb7a4058df9c3d4e2fb7df433c592ae88b",  # exit 0
    "op-product-join": "42b7f76883e67f7d9ceb02c944e20b960a1be2423ea4092a4ab4e236ad2bdd33",  # exit 0
    "op-psi-vertex-0": "76b375a8ecc6e06ac64535bd46f46d8b9bca2eae4d1e21a1d1a92e58bd856dea",  # exit 0
    "op-psi-vertex-1": "b49d2aeefffcede7477028546702b96a5a38e625b5576d4de8678773c9842627",  # exit 0
    "op-psi-vertex-2": "b49d2aeefffcede7477028546702b96a5a38e625b5576d4de8678773c9842627",  # exit 0
    "op-psi-vertex-3": "9376b0ba6db5abcbb172a784fc1c1d7258200a8b7c2e96321612ab9d122525f2",  # exit 0
    "pattern-h-alon_graph_2_1_2": "7915e21c5de7511e67a5041d195da895cee77997c597ebbdf39b20a1554cf139",  # exit 0
    "pattern-h-c2": "1cc8b1fcb1241eaf89ad71185780811f516e435ed22e572cc9d1a777f11e9f97",  # exit 0
    "pattern-h-c2_marked": "1cc8b1fcb1241eaf89ad71185780811f516e435ed22e572cc9d1a777f11e9f97",  # exit 0
    "pattern-h-fib_chain_7": "915a1d31dea66928ad6a4d2d035a73f8ff09781f8cf260ee0f37e31989835781",  # exit 0
    "pattern-h-k1": "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",  # exit 1
    "pattern-h-k4_minus_edge": "126f9eb8b3685e3dea74f24855571d85582f61eb53091b1972ab32470d8231d8",  # exit 0
    "pattern-h-k4_x16": "19fcc3638f9f226d8642b4323a00344ee81641be3743af15be6cb6d7c35c8903",  # exit 0
    "pattern-h-k4_y18": "606ca96977a5508ea23eeb28be9f4ffbde945274464030e07a09cc5b6fdda958",  # exit 0
    "pattern-h-parallel_edges_3": "aa35ed185ba9519b6bd972523c23cf8356b5efa458fe1bf365ca1901d123375b",  # exit 0
    "pattern-h-partite_graph_1_2_2": "7f3c9eb77dad69dab4f75153501322901b7382a20722c94899ff1492d9726e3e",  # exit 0
    "pattern-h-single_edge": "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",  # exit 1
    "pattern-h-triangle": "0ef01d78688fd2fb25ff841e7367ddf1342e524eb87470d465bd22460be24ed6",  # exit 0
    "pattern-x-alon_graph_2_1_2": "16463ee013c8ebbd715cd74ff7affb5561135ef85b9d5db1a3c391fda469e6e2",  # exit 0
    "pattern-x-c2": "239110d35b67c0ce16156a4c076361691d230e187ec32c20ed55edaad84715d7",  # exit 0
    "pattern-x-c2_marked": "239110d35b67c0ce16156a4c076361691d230e187ec32c20ed55edaad84715d7",  # exit 0
    "pattern-x-fib_chain_7": "9e83d27eef61ada01d3550f2f91f8f357f408bae2511613c41b2b3fa537015b8",  # exit 0
    "pattern-x-k1": "40815723e7bec7e47d12176eb8f04e453882e239b158aa4bcea1489a0bb5dec6",  # exit 0
    "pattern-x-k4_minus_edge": "a75297d40786c488c54c442d8ea1596cb1dfca2451617d780d5bb928335edd35",  # exit 0
    "pattern-x-k4_x16": "5b80b12f489d9d530906104c040e89c795b06689f02296c1d23b6e4f787d2dfb",  # exit 0
    "pattern-x-k4_y18": "31506708ea84645ba310856bb8a03fb25d897e6c9144ad3c6a024b0407d8b1dd",  # exit 0
    "pattern-x-parallel_edges_3": "8827a1b5ce60ac9c541d5715b15edb8ccdced0eac613b26fae8480ca7bc179e9",  # exit 0
    "pattern-x-partite_graph_1_2_2": "44f6b4d2b847ef200725e98036e6ce5735a925186dcf8b2c47fa3fb348999765",  # exit 0
    "pattern-x-single_edge": "f0c7f64025b88eb8f820cd9f66adf98d73f68cadfc7f2963cb6544cba5dd4dd0",  # exit 0
    "pattern-x-triangle": "0d167882310553d673667b19030e6bdb7a4058df9c3d4e2fb7df433c592ae88b",  # exit 0
    "pattern-y-alon_graph_2_1_2": "425cdd4cd30165fb07657ca0bf79f1ca8d3e6a3f1ad05300c6f757babf8e8126",  # exit 0
    "pattern-y-c2": "b5a58867d8cfb944380753880ef74e3e9ca55371ab984df36cf240a8675a769e",  # exit 0
    "pattern-y-c2_marked": "b5a58867d8cfb944380753880ef74e3e9ca55371ab984df36cf240a8675a769e",  # exit 0
    "pattern-y-fib_chain_7": "fde3762ee1336af344a6e297522dfc2357880b700a6730f89036d95cb26daf0f",  # exit 0
    "pattern-y-k1": "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",  # exit 1
    "pattern-y-k4_minus_edge": "543955094239939fbf6062cc1c8e10832492737a8e90104ad1c8f1de544b46bd",  # exit 0
    "pattern-y-k4_x16": "6155628b34c7fa6ca5f7bc8e5eb84dd05adc29268170847821528318a3679868",  # exit 0
    "pattern-y-k4_y18": "dfc81651eb0c1cf952587184e897e7e446f80c74d838487dad343c77724825ae",  # exit 0
    "pattern-y-parallel_edges_3": "540c0da41293b5529f2cd251b18f44d0b2ad6b1de9f3401ed514190d0a68d1b6",  # exit 0
    "pattern-y-partite_graph_1_2_2": "12f12545b0d7dba2952307bc5696836569f29a35876498b32a4bc2a04d063990",  # exit 0
    "pattern-y-single_edge": "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",  # exit 1
    "pattern-y-triangle": "2ed92f245141ca2dae6856f02649b39dc3d928709dbed2a9c9a22cff2992909a",  # exit 0
}


def prepare(directory) -> None:
    """Write the graph, pattern and pattern-graph files the cases read."""
    for name, g in GRAPHS.items():
        (directory / f"{name}.json").write_text(graph_to_json(g) + "\n")
    for name, text in FILES.items():
        (directory / name).write_text(text)
    for graph, edge, out in (("k4_minus_edge", "4", "h_k4me.json"), ("c2_marked", "0", "h_c2.json")):
        assert main(["pattern", "h", "--graph", str(directory / f"{graph}.json"), "--edge", edge,
                     "--out", str(directory / out)]) == 0


def digest(code: int, stdout: str, directory) -> str:
    text = f"{code}\n{stdout}"
    out = directory / "out.json"
    if out.exists():
        text += "\n--out\n" + out.read_text()
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_pinned(case, tmp_path, capsys, monkeypatch):
    prepare(tmp_path)
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    code = main(CASES[case])
    assert digest(code, capsys.readouterr().out, tmp_path) == DIGESTS[case]
