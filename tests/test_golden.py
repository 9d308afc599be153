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
tables and the sections were searched over the maximal algebras; the
generated-mode digests from the code that still kept two Hom(X, X) paths,
eager tables for small spaces and memoized operations for large ones; the
godel4 algebras, spectrum, sections and verdict digests from the code that
searched every algebra's characters from scratch, before they were extended
along the Hasse diagram.  The spectrum digests of lukasiewicz3,
lukasiewicz4 and powerset2, whose scalars have zero divisors, were recorded
again when kernel-bijection began to run over every quantale: each of those
reports gained that one check entry and changed in no other byte.  The
text reports of the |X| = 2 ladder and the dot graph of the boolean2 poset
were recorded from the code in which each command handler still framed and
wrote its own report.  A refactor that changes any report byte fails here.  To re-record after an
intended report change, run this file as a script:

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
      ("topology", "godel4"), ("topology", "lukasiewicz3")] + [
    (command, "godel4") for command in ("algebras", "spectrum", "sections", "verdict")]

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
    ("algebras", "godel4"): "e4ac1f9544f10f3534e344ac79c67f9008cb112177465e4ce47dc66f8b354d7e",
    ("spectrum", "godel4"): "54a10f9e3ab9cd9e26b4ebfd4b77293d9a862fadfadf9348506e58848e8dcb6e",
    ("sections", "godel4"): "3ced519245e35cc111b668184f8d0e53975c488b55714a10ff8985ceb878c409",
    ("verdict", "godel4"): "09cde16e526153e65befa8c538cf25fbb23d21021b75704bfdd8cef084d0c6ce",
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
    ("spectrum", "lukasiewicz4"): "9e2501767c3770a6ad632919db2431f990a2a6cb0fa32bf0c634f8074ec09176",
    ("sections", "lukasiewicz4"): "46d72c83eb0df46013f2c5e5268c82b1e3254c1802fd15574d09ed1a782db474",
    ("verdict", "lukasiewicz4"): "7162670e2499c85cee94794a6f0d4e0a500f0b92547cb957ad7fa7c3372832f9",
    ("spectrum", "powerset2"): "9e0d2d6f6f72cbb5e65b88ffb9b9fd3797f11f70424effe3898fd044ea321737",
    ("sections", "powerset2"): "81436c0fbf467753b2e1d31d1555f91a0f8cc598821dba9fb0c50dffa711fef3",
    ("verdict", "powerset2"): "2f9df906f8480d68981c050e6b42d9ed9ff559dfa9cd59151575f5b2672432ca",
}


def generated(k):
    return ("--mode", "generated", "--max-generators", str(k))


# algebras and verdict at |X| = 2 in generated mode, one generator per seed.
GOLDEN_GENERATED = {
    ("algebras", "boolean2"): "43865c9b4cc25e256a40f17abcb28f5c52d009eb84c6662c42333054f991197e",
    ("verdict", "boolean2"): "3565d82b6b9f13667f328f6b90c2e33bdecd56ae9f83070f62768e15e6477af3",
    ("algebras", "godel3"): "1754680d98ec703a72ccd796f0a19fd3e7df50a9a7f3a463d17d4ccd3b71df6a",
    ("verdict", "godel3"): "af496afd3c09f0fea0289fe65b6cad0a5f389f4a5e554f3d15e1c17b9f9872aa",
}
GENERATED = generated(1)

# The same with more generators per seed, recorded from the code that closed
# every generator set from scratch, before generated mode walked the distinct
# closures: k = 2 on four quantales, and k = 3 on godel3.
GOLDEN_GENERATED_K = {
    ("algebras", "boolean2", 2): "8d0da46ea22a8f92a99a6a6bcc3e13c822c02e8e9c550374c594e8bedc07d4a1",
    ("verdict", "boolean2", 2): "f189144446df46ea95656318bb07f312516b8c3d456b97feb4511b5fa3f80cf9",
    ("algebras", "godel3", 2): "63d270b09606689b18710a798704cb42143672e3a3bf88b0f40625f6f213c83b",
    ("verdict", "godel3", 2): "e11f3d573e6c276c4e5b72fdfb3b4dbab0f07f0ec8af4bb085c2535d404583b5",
    ("algebras", "lukasiewicz3", 2): "8a12c4a1a5a666748edd0f8ba80a4e501151a42a7af30b7ca991277d68e4fc5c",
    ("verdict", "lukasiewicz3", 2): "7249ee559ec6b7e07e7adb3d24434b075d8c0302911255780994a4ca7118b8d7",
    ("algebras", "powerset2", 2): "d552e4091fc1877d00b040cc88e317f03583c4ada6a6fd35cec35e66cbc34d2d",
    ("verdict", "powerset2", 2): "13b149f6bc3626c4ff5b26221e61c32357616ddaa5758b5a76a016a902d4fa80",
    ("algebras", "godel3", 3): "1b2aa49644ba2fc00bb0ec694a5780382a6c30ba274532479ed4ccceb4fae362",
    ("verdict", "godel3", 3): "1ce9b12273178c5c658e794309cec14338e98a34a21370172ba4d308eedafdb8",
}

# Reports that print prime points over quantales with zero divisors,
# recorded from the code that stored each prime ideal as its member set,
# before every prime point became a character into the two-element quantale.
GOLDEN_PRIME_POINTS = {
    ("spectrum", "lukasiewicz3"): "d8a2a42c5f98dee801b4cd2cb9d915c0c3ce164e9c8e19747112a0cce436502d",
    ("topology", "powerset2"): "0a633e04de42fa625fff48943a5bd37a1017248bda3a943e5224b2c1e7c6b3f0",
}

GOLDEN_THREE_POINTS = {
    ("algebras", "boolean2"): "bb97c6977bcec513bb0259ba978c24ade2c75823ba2351edd388ff8b2a80556e",
}

# A 20,923,554-byte report, most of it long lists of flat lists, recorded from
# the code that wrote every item of a list with a call of its own.
GOLDEN_LARGE = {
    ("topology", "godel5"): "1d394eb56571e3459f13d9634beb049a6f5806f81084cdcdb02b051de043dc92",
}

# The text report of every command at |X| = 2, and the dot graph of one poset.
GOLDEN_TEXT = {
    ("check-quantale", "boolean2"): "120fe9f5cf63fdbf2d88ec11e4fed711526ed6e632ad0e4ffb2f12133521a522",
    ("algebras", "boolean2"): "9b8729bda4c4683aa820e09584ad1dde1b39425cb17d133061fc38b0dbb87caa",
    ("spectrum", "boolean2"): "eaf1df55f741485b6839bb8266fcc79178eb40f61f7dac1dd221c358c9bbb5f0",
    ("sections", "boolean2"): "74dfef04f718479c297402dc978991f53bc416b09e6d6749e8fecb464078d611",
    ("verdict", "boolean2"): "6c9765e369cb869b2124e14bde8e18709dbda5b0aaff026de60d17d8f6470cf0",
    ("topology", "boolean2"): "ae8a90aacd567cdbdcadd831669fb92339e3879c094c46f8826702b109cc1d04",
    ("check-quantale", "godel3"): "71f347b508467a866c6fff7f7a8d4d60e3015a8c015d1c95fd2405b512618346",
    ("algebras", "godel3"): "4f25f95f56dac10516cbac6418283b80da49c09c42fdd25ba88191f983e441ac",
    ("spectrum", "godel3"): "6c469c2cf232ee273fc2b289e58441b55cc74b2d32674ac2d35d9b449901a6f0",
    ("sections", "godel3"): "3daa8ecf1cfbf6f7ce45fcfd96628b0b30998e2e9a7e830a817e26d163be405f",
    ("verdict", "godel3"): "834aea207f1b6e2f7cffb19d3b6994cbeccb8f0fd5e2c2f26518c56fdf0a6665",
    ("topology", "godel3"): "f96ae3d43a0034d9c10edda4dd6fd2878ddcb5c937fd0884728d7453cf9ba3ab",
}
GOLDEN_DOT = {
    ("algebras", "boolean2"): "f6324514acce08bc3728d682dfc164701ffc1d2dc8efaf70844f8d40347e82e8",
}


def report_digest(command, quantale, out_path, size=2, extra=(), fmt="json"):
    argv = [command, "--quantale", quantale, "--format", fmt, "--out", str(out_path)]
    if command != "check-quantale":
        argv += ["--size", str(size), *extra]
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


@pytest.mark.parametrize("command,quantale", GOLDEN_LARGE)
def test_large_report_bytes_match_the_recorded_digest(command, quantale, tmp_path):
    assert report_digest(command, quantale, tmp_path / "report.json") == \
        GOLDEN_LARGE[(command, quantale)]


@pytest.mark.parametrize("command,quantale", GOLDEN_LARGER)
def test_larger_report_bytes_match_the_recorded_digest(command, quantale, tmp_path):
    assert report_digest(command, quantale, tmp_path / "report.json") == \
        GOLDEN_LARGER[(command, quantale)]


@pytest.mark.parametrize("command,quantale", GOLDEN_PRIME_POINTS)
def test_prime_point_report_bytes_match_the_recorded_digest(command, quantale, tmp_path):
    assert report_digest(command, quantale, tmp_path / "report.json") == \
        GOLDEN_PRIME_POINTS[(command, quantale)]


@pytest.mark.parametrize("command,quantale", GOLDEN_GENERATED)
def test_generated_mode_report_bytes_match_the_recorded_digest(command, quantale, tmp_path):
    assert report_digest(command, quantale, tmp_path / "report.json", extra=GENERATED) == \
        GOLDEN_GENERATED[(command, quantale)]


@pytest.mark.parametrize("command,quantale,k", GOLDEN_GENERATED_K)
def test_generated_mode_with_more_generators_matches_the_recorded_digest(
        command, quantale, k, tmp_path):
    assert report_digest(command, quantale, tmp_path / "report.json", extra=generated(k)) == \
        GOLDEN_GENERATED_K[(command, quantale, k)]


@pytest.mark.parametrize("quantale", GOLDEN_CHECK_QUANTALE)
def test_check_quantale_report_of_every_builtin_matches_the_recorded_digest(quantale, tmp_path):
    assert report_digest("check-quantale", quantale, tmp_path / "report.json") == \
        GOLDEN_CHECK_QUANTALE[quantale]


@pytest.mark.parametrize("fmt,command,quantale",
                         [("text", *key) for key in GOLDEN_TEXT]
                         + [("dot", *key) for key in GOLDEN_DOT])
def test_text_and_dot_report_bytes_match_the_recorded_digest(fmt, command, quantale,
                                                             tmp_path):
    golden = GOLDEN_TEXT if fmt == "text" else GOLDEN_DOT
    assert report_digest(command, quantale, tmp_path / "report", fmt=fmt) == \
        golden[(command, quantale)]


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
        print("large:")
        for command, quantale in GOLDEN_LARGE:
            digest = report_digest(command, quantale, pathlib.Path(tmp) / "report.json")
            print(f'    ("{command}", "{quantale}"): "{digest}",')
        print("prime points:")
        for command, quantale in GOLDEN_PRIME_POINTS:
            digest = report_digest(command, quantale, pathlib.Path(tmp) / "report.json")
            print(f'    ("{command}", "{quantale}"): "{digest}",')
        print("three points:")
        for command, quantale in GOLDEN_THREE_POINTS:
            digest = report_digest(command, quantale, pathlib.Path(tmp) / "report.json", 3)
            print(f'    ("{command}", "{quantale}"): "{digest}",')
        print("generated:")
        for command, quantale in GOLDEN_GENERATED:
            digest = report_digest(command, quantale, pathlib.Path(tmp) / "report.json",
                                   extra=GENERATED)
            print(f'    ("{command}", "{quantale}"): "{digest}",')
        print("generated, more generators:")
        for command, quantale, k in GOLDEN_GENERATED_K:
            digest = report_digest(command, quantale, pathlib.Path(tmp) / "report.json",
                                   extra=generated(k))
            print(f'    ("{command}", "{quantale}", {k}): "{digest}",')
        for fmt, golden in (("text", GOLDEN_TEXT), ("dot", GOLDEN_DOT)):
            print(f"{fmt}:")
            for command, quantale in golden:
                digest = report_digest(command, quantale, pathlib.Path(tmp) / "report",
                                       fmt=fmt)
                print(f'    ("{command}", "{quantale}"): "{digest}",')
