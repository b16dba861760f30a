"""Golden outputs: sha256 of the CLI's stdout for fixed commands.

The digests were recorded before the cusp-width closed form, the module
re-layering, the integer genus core, the dense eta kernel, the direct
X_1 atlas with orbits read off X_0(N) and the congruence form of Delta;
any change to what these commands print is a regression, not a reason to
re-record.
"""

import hashlib
import io
import json

import pytest

from cuspforge.cli import run

F_SPEC = {"level": 20, "exponents": {"2": 1, "4": 2, "6": 2, "1": -2, "8": -1, "9": -2}}
G_SPEC = {
    "level": 20,
    "exponents": {"3": 1, "4": 2, "5": 1, "6": 1, "7": 1, "1": -2, "8": -2, "9": -1, "10": -1},
}

GOLDEN = {
    # the README's CLI examples
    "genus --level 20 --gamma1":
        "36f4c9287965bf8b837382abe289e73bdd62a7e88d444b72f85aef7f0401c607",
    "genus --level 20 --delta 9":
        "e73235576c10a80d8f97a92c0eda8a91aca10f928556d66f9da7b679eb868a62",
    "cusps --level 20 --gamma1":
        "cdd69a597369ba959febd55d7f23441d650c596555fce4f5cbef9cec846a0902",
    "orbits --level 20":
        "cd843a079ce9aacbf241aac3efb4a505249e8488c4b020a3be0cf4756be6e3b8",
    "verdict x1 --level 18 --d 3":
        "4282377a63617bb98fec063b044fd9c2f6d7ef2e639fa259cea0d89d9ca220fd",
    "verdict x0 --p 2 --m 16":
        "540bd63f4f48fdc19b7930143da5e421bb3f8b51c0cef78bab9fc96b6717ee3c",
    "survey x1 --max 300 --format tsv --jobs 4":
        "8983ad3c639ac387dda61c952eaac73d2dc4ba29146014d6886c3070755cebb7",
    "eta series --level 20 --r 1 --terms 12":
        "7d9d65603057dce752988cc9951f648fbe171a9150e8488366d722b7c2f9ff35",
    "eta div --spec f.json":
        "1d90b086679cadac259d12f8278fd415600abddb8e57e332f3853faf49472219",
    "certify x1-20":
        "457fb6611ae81399389bb3b5c7bbcd64dcf0cd11ea7f871906f148de69e44297",
    # the eta certificate inside the verdict pipeline
    "verdict x1 --level 20 --d 2":
        "290791c96bcaa39ae2312c0371378ff64843a46aad88a25071c5418772b904be",
    # the irregular cusp (1 : 2) of X_1(4), whose width is 1
    "cusps --level 4 --gamma1":
        "e25fc4066796b5762ec9f4eae6844e5997ece7964add90ff346bd1c651ea1b25",
    # large atlases with widths
    "cusps --level 720 --gamma1":
        "276e983839054eeb90284f99a07865df08d9efdb9c56b0642178e2faba3af38c",
    "cusps --level 5040 --gamma0":
        "ba637970e66ee18763cfdd71f711cea40367655cdf201cf4ada67d605f33a699",
    # the mu/nu2/nu3/nu_inf encoding for a large Delta and a generated one
    "genus --level 2003 --gamma0":
        "d9ab33253318bc90fed293603ece454e8a8aa61b62659c408a5cb09d77ffb9c8",
    "genus --level 720 --delta 7":
        "a7414922a65a16a4992f0f5c74c00937ae67459aa0d7cc7d72db7dde3524d557",
    # serial survey rows
    "survey x1 --max 2000 --format tsv --jobs 1":
        "2ecbca3793f88877c15bc9689940b7ebe6042bd78e818f96f63ea1694db17f54",
    # a long eta block, a block with a negative leading exponent, and G
    # past the default truncation
    "eta series --level 60 --r 7 --terms 10000":
        "ec3ad24dc82fe90eead27f924a86fc049b720136eee80a162405f0a3db81c2f6",
    "eta series --level 20 --r 10 --terms 30":
        "52ee70ca9b5f66ecaa85def91836eb68ed1d53ac6f8bc115929c9e46b326caf1",
    "eta div --spec g.json --terms 400":
        "d826cecdb55c0fadf74fd31fda3ef974161661e26d8e5c44a065b3137535dd99",
    # orbits at a large level and at the flagged level 4, the largest
    # Gamma_1 atlas, and a Delta atlas of diamond orbits
    "orbits --level 1440":
        "31691f55c4b721eea1f1ddd0109f97714d30811039bc4f7e18a1573c4b95c6e3",
    "orbits --level 4":
        "d54cd3f30d4c5702b02e1994536a5178ceef13980697d46b3c20919571486d7a",
    "cusps --level 2520 --gamma1":
        "30a36b55aefed1ce7395eb6ae02e940b5000c8ad28cebdfd0a4a56e2342a485b",
    "cusps --level 720 --delta 7":
        "7660771cf63e74d9048351fc2a85acb2059de1e9f9868aa1aa1197d9e5897755",
    # orbit tables: large Delta atlases, one with two generators, and the
    # orbits under all diamonds and W_Q at large levels
    "cusps --level 10080 --delta 11":
        "da5c5c17a1262ac0f35443ea3dde97db621b09be85824041c161b877686042d0",
    "cusps --level 1440 --delta 7,11":
        "6537ddb284c97f006f5d8a1398493470f6115948d83a6aa446baf048f9c1bc79",
    "orbits --level 10080":
        "2b5aeb2e897125495d570ed79bbe685e37a17c83b3e3d66d5127708c6f5a5668",
    "orbits --level 49999":
        "0b055f3a2416c81c72ea85f0656f8385f1ca83b55d4b2c1388c844a61da62b87",
    # a genus whose kernel counts reach e = 997920, at N = 997920^2
    "genus --level 995844326400 --gamma1":
        "1aee2576e3810104b43f1a2415a9e1e25a874528ecf4708fd0040e499f5fee45",
    # the X_0(p^2 M) -> X_0(pM) cover at N = 9973^3, whose phi(N) is far
    # past the unit-listing bound, and the largest level that lists its
    # units (247 KB of output)
    "verdict x0 --p 9973 --m 9973":
        "8eae0ae348ca9e3a31402afc31b8eb884052d116b583d501fd61fe6ee8b4083a",
    "genus --level 94710 --gamma0":
        "fad5e3cf22bb7ac0d56a6506a7c853f2274528492af64102bed307b324eaa027",
}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_golden_output(command, tmp_path, monkeypatch):
    (tmp_path / "f.json").write_text(json.dumps(F_SPEC))
    (tmp_path / "g.json").write_text(json.dumps(G_SPEC))
    monkeypatch.chdir(tmp_path)
    buf = io.StringIO()
    code = run(command.split(), stdout=buf)
    assert code == 0, buf.getvalue()
    digest = hashlib.sha256(buf.getvalue().encode()).hexdigest()
    assert digest == GOLDEN[command]
