"""Byte-identity of the JSON reports: every command against recorded digests.

The |X| = 2 digests were recorded from the reports of the code before the
entry-matrix kernels, closure, commutant and homomorphism check were each
folded into one implementation; the |X| = 3 digest (the full 440-algebra
poset of boolean2) from the code before the tables were built by row lookup
and the von Neumann walk was seeded at maximal cliques; the topology digests
of godel4 and lukasiewicz3 from the code before the Zariski spaces were
stored as specialization preorders, as were the check-quantale digests of
the built-in quantales; the lukasiewicz4 and powerset2 digests (the one a
larger chain with 34 scalar sections, the other a quantale with zero
divisors and 16) from the code before the restriction maps became index
tables and the sections were searched over the maximal algebras.  A
refactor that
changes any report byte fails here.  To re-record after an intended report
change, run this file as a script:

    PYTHONPATH=src python3 tests/test_golden.py
"""

import hashlib

import pytest

from qspec.cli import main

INVOCATIONS = [
    (command, quantale)
    for quantale in ("boolean2", "godel3")
    for command in ("check-quantale", "algebras", "spectrum", "sections",
                    "verdict", "topology")
] + [("sections", "lukasiewicz3"), ("verdict", "lukasiewicz3"),
      ("topology", "godel4"), ("topology", "lukasiewicz3")]

GOLDEN = {
    ("check-quantale", "boolean2"): "77f789ab1d9574021195bacfdc26034895a82f3023710c43317e7df7f5743a82",
    ("algebras", "boolean2"): "9f8521220b421a314686e4fab483f5d0c82bde708491a1c3dfccff8b57adfd80",
    ("spectrum", "boolean2"): "0181850aaddeade8217924ed425178f7c54f6f1d66245a263920afb7d1289e8c",
    ("sections", "boolean2"): "af0b84dc6b8dbf662e7c6c1ff9cb7ac9a8993311307eaddb34685c9c52c0435f",
    ("verdict", "boolean2"): "bbf74666d0ca5e16e9f79bb9a6f51493a264271ddb1448100ca970646c1ebce1",
    ("topology", "boolean2"): "681434b2f8655bd2bb719579d9e0420d88fe6a9f866fde53ebf01b462ed41b51",
    ("check-quantale", "godel3"): "de2f3b766471b40ad0d45af7858591f68c2224c5e81471f525c6b73ea9097b7e",
    ("algebras", "godel3"): "dbe09016fe49eb8686d993bd511a42dbdf98857388e8903c503c7c26c2bdb975",
    ("spectrum", "godel3"): "2d81ae29840487b5cb1ed578de95aa19ce9f6bdc6207f3bd0e6cc3fec16f1a5e",
    ("sections", "godel3"): "290749e5c9927ef8fa6d068ac6c9f4f121e343f393152ce41b4722e4ea9c8e58",
    ("verdict", "godel3"): "c89ab9cb074a1df30ad5766a650a91b791817b05aa7939a0f554f5c2c443cb9d",
    ("topology", "godel3"): "016179be2dab82014374f7dbc4dbc2cd2194c09816d1b026ef85b684873475da",
    ("sections", "lukasiewicz3"): "45178ad569050160bd5dfea24ce3f685344aafe32ed1e6efdb7ce1915a507aa0",
    ("verdict", "lukasiewicz3"): "cd7f04a88cdcedde7388372e2cce3a9d331d556058cc687e4eda49a541d12654",
    ("topology", "godel4"): "5431d5129c076c843479d1b408ce7f1a6003003d2ccef2a0babd60392d8f9d4c",
    ("topology", "lukasiewicz3"): "bfc1b106aaf54619285bd852a49e8fc80ab8a9a39855c36bc18e74249ecbdb5f",
}

# check-quantale on the built-in quantales, recorded from the code that
# rescanned the multiplication table for zero divisors on every call.
GOLDEN_CHECK_QUANTALE = {
    "boolean2": "77f789ab1d9574021195bacfdc26034895a82f3023710c43317e7df7f5743a82",
    "godel2": "4f1c52c72b462551ae84ed6490d04d07ebabd6d80afd55954211173baa634658",
    "godel3": "de2f3b766471b40ad0d45af7858591f68c2224c5e81471f525c6b73ea9097b7e",
    "godel4": "ff0906849cd6cfd9145d2153c4e9df5cae1619a8839f9afbb566e604857f9ba1",
    "godel5": "8535fccca3d5d8196c0c49a5997a74fcc2d20e70cc1f5382837a76feee6f8238",
    "lukasiewicz2": "dd91bdc7b25aae4c058b5f2423ec0560ec41c13e8939824294b6f216a809d385",
    "lukasiewicz3": "d70b2d3052b2aefd0c09fe5a1d428a5fbe003619f556725456f6cfcaf16a6659",
    "lukasiewicz4": "e94f6b3a0619ce3df8aca07b9fb1fb94640b5077dfc0f33e22ed5a8eaffae92b",
    "lukasiewicz5": "01b2b2dd66bb5944814f5b76119a564079e8ad8aecb1a24e2661123dbf230e1c",
    "powerset1": "0f6306fa8af7be33bd77b92f369fd72a27bcaa05a4ff9a124324894d2b9acbda",
    "powerset2": "6cdc8bf7577dacb6bf269d4812d9abf0a067ed1a61a01331ea38961cee25e0c9",
    "powerset3": "e1a40c612fb70a126e1bd6f57ebfe209714780d7618490df9fcfb60c630d73cd",
}

# spectrum, sections and verdict at |X| = 2 on two quantales past the ladder.
GOLDEN_LARGER = {
    ("spectrum", "lukasiewicz4"): "075cd8fcb566b821a4779e2f510a18246048219c1dd85bc378f9c037337d7cfc",
    ("sections", "lukasiewicz4"): "46d72c83eb0df46013f2c5e5268c82b1e3254c1802fd15574d09ed1a782db474",
    ("verdict", "lukasiewicz4"): "7162670e2499c85cee94794a6f0d4e0a500f0b92547cb957ad7fa7c3372832f9",
    ("spectrum", "powerset2"): "942eb150fbdf534772f896090acbd80c7cf1f7752c9f280b39b35262945873d2",
    ("sections", "powerset2"): "81436c0fbf467753b2e1d31d1555f91a0f8cc598821dba9fb0c50dffa711fef3",
    ("verdict", "powerset2"): "2f9df906f8480d68981c050e6b42d9ed9ff559dfa9cd59151575f5b2672432ca",
}

GOLDEN_THREE_POINTS = {
    ("algebras", "boolean2"): "bb97c6977bcec513bb0259ba978c24ade2c75823ba2351edd388ff8b2a80556e",
}


def report_digest(command, quantale, out_path, size=2):
    argv = [command, "--quantale", quantale, "--format", "json", "--out", str(out_path)]
    if command != "check-quantale":
        argv += ["--size", str(size)]
    assert main(argv) == 0
    return hashlib.sha256(out_path.read_bytes()).hexdigest()


@pytest.mark.parametrize("command,quantale", INVOCATIONS)
def test_report_bytes_match_the_recorded_digest(command, quantale, tmp_path):
    assert report_digest(command, quantale, tmp_path / "report.json") == \
        GOLDEN[(command, quantale)]


@pytest.mark.parametrize("command,quantale", GOLDEN_THREE_POINTS)
def test_three_point_report_bytes_match_the_recorded_digest(command, quantale, tmp_path):
    assert report_digest(command, quantale, tmp_path / "report.json", size=3) == \
        GOLDEN_THREE_POINTS[(command, quantale)]


@pytest.mark.parametrize("command,quantale", GOLDEN_LARGER)
def test_larger_report_bytes_match_the_recorded_digest(command, quantale, tmp_path):
    assert report_digest(command, quantale, tmp_path / "report.json") == \
        GOLDEN_LARGER[(command, quantale)]


@pytest.mark.parametrize("quantale", GOLDEN_CHECK_QUANTALE)
def test_check_quantale_report_of_every_builtin_matches_the_recorded_digest(quantale, tmp_path):
    assert report_digest("check-quantale", quantale, tmp_path / "report.json") == \
        GOLDEN_CHECK_QUANTALE[quantale]


if __name__ == "__main__":
    import pathlib
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for command, quantale in INVOCATIONS:
            digest = report_digest(command, quantale, pathlib.Path(tmp) / "report.json")
            print(f'    ("{command}", "{quantale}"): "{digest}",')
        print("check-quantale:")
        for quantale in GOLDEN_CHECK_QUANTALE:
            digest = report_digest("check-quantale", quantale, pathlib.Path(tmp) / "report.json")
            print(f'    "{quantale}": "{digest}",')
        print("larger:")
        for command, quantale in GOLDEN_LARGER:
            digest = report_digest(command, quantale, pathlib.Path(tmp) / "report.json")
            print(f'    ("{command}", "{quantale}"): "{digest}",')
        print("three points:")
        for command, quantale in GOLDEN_THREE_POINTS:
            digest = report_digest(command, quantale, pathlib.Path(tmp) / "report.json", 3)
            print(f'    ("{command}", "{quantale}"): "{digest}",')
