"""The from-scratch algorithms must match the standard library bit-for-bit
(and the LZ77 container must round-trip), and the simulation's digest
table must match the from-scratch references."""

import binascii
import hashlib
import pathlib
import re
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algos import (DIGESTS, aes256_ctr, crc32, crc32_digest,
                         expand_key_256,
                         lz77_compress, lz77_decompress, md5_digest,
                         md5_hexdigest, sha1_digest, sha1_hexdigest,
                         sha256_digest, sha256_hexdigest)
from repro.errors import ProtocolError

VECTORS = [
    b"",
    b"a",
    b"abc",
    b"message digest",
    b"abcdefghijklmnopqrstuvwxyz",
    b"The quick brown fox jumps over the lazy dog",
    bytes(range(256)),
    b"x" * 55,    # exactly one padding byte
    b"x" * 56,    # length spills into next block
    b"x" * 64,    # exact block
    b"x" * 1000,
]


class TestMd5:
    @pytest.mark.parametrize("data", VECTORS, ids=range(len(VECTORS)))
    def test_matches_hashlib(self, data):
        assert md5_digest(data) == hashlib.md5(data).digest()

    def test_rfc1321_vectors(self):
        assert md5_hexdigest(b"") == "d41d8cd98f00b204e9800998ecf8427e"
        assert md5_hexdigest(b"abc") == "900150983cd24fb0d6963f7d28e17f72"

    @settings(max_examples=50, deadline=None)
    @given(data=st.binary(max_size=2000))
    def test_matches_hashlib_property(self, data):
        assert md5_digest(data) == hashlib.md5(data).digest()


class TestSha1:
    @pytest.mark.parametrize("data", VECTORS, ids=range(len(VECTORS)))
    def test_matches_hashlib(self, data):
        assert sha1_digest(data) == hashlib.sha1(data).digest()

    def test_fips_vector(self):
        assert (sha1_hexdigest(b"abc")
                == "a9993e364706816aba3e25717850c26c9cd0d89d")

    @settings(max_examples=50, deadline=None)
    @given(data=st.binary(max_size=2000))
    def test_matches_hashlib_property(self, data):
        assert sha1_digest(data) == hashlib.sha1(data).digest()


class TestSha256:
    @pytest.mark.parametrize("data", VECTORS, ids=range(len(VECTORS)))
    def test_matches_hashlib(self, data):
        assert sha256_digest(data) == hashlib.sha256(data).digest()

    def test_fips_vector(self):
        assert (sha256_hexdigest(b"abc")
                == "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad")

    @settings(max_examples=50, deadline=None)
    @given(data=st.binary(max_size=2000))
    def test_matches_hashlib_property(self, data):
        assert sha256_digest(data) == hashlib.sha256(data).digest()


class TestCrc32:
    @pytest.mark.parametrize("data", VECTORS, ids=range(len(VECTORS)))
    def test_matches_zlib(self, data):
        assert crc32(data) == zlib.crc32(data)

    def test_chaining_matches_zlib(self):
        a, b = b"hello ", b"world"
        assert crc32(b, crc32(a)) == zlib.crc32(b, zlib.crc32(a))

    def test_matches_binascii(self):
        data = b"123456789"
        assert crc32(data) == binascii.crc32(data)
        assert crc32(data) == 0xCBF43926  # the canonical check value

    def test_digest_is_big_endian(self):
        assert crc32_digest(b"123456789") == bytes.fromhex("cbf43926")

    @settings(max_examples=50, deadline=None)
    @given(data=st.binary(max_size=4000))
    def test_matches_zlib_property(self, data):
        assert crc32(data) == zlib.crc32(data)


REFERENCE_DIGESTS = {
    "md5": md5_digest,
    "sha1": sha1_digest,
    "sha256": sha256_digest,
    "crc32": crc32_digest,
}

# Empty, one byte, both sides of the 55/56-byte padding split and the
# 64-byte block edge, then multi-block inputs.
BOUNDARY_LENGTHS = [0, 1, 55, 56, 63, 64, 65, 119, 120, 127, 128, 129,
                    1000, 4096, 4096 + 7]

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"


class TestDigestTable:
    """``DIGESTS`` is what the simulation runs; the from-scratch code is
    its oracle."""

    def test_covers_every_reference(self):
        assert set(DIGESTS) == set(REFERENCE_DIGESTS)

    @pytest.mark.parametrize("length", BOUNDARY_LENGTHS)
    @pytest.mark.parametrize("name", sorted(REFERENCE_DIGESTS))
    def test_matches_reference_at_boundaries(self, name, length):
        data = bytes((i * 31 + 7) % 256 for i in range(length))
        assert DIGESTS[name](data) == REFERENCE_DIGESTS[name](data)

    @pytest.mark.parametrize("name", sorted(REFERENCE_DIGESTS))
    @settings(max_examples=50, deadline=None)
    @given(data=st.binary(max_size=2000))
    def test_matches_reference_property(self, name, data):
        assert DIGESTS[name](data) == REFERENCE_DIGESTS[name](data)

    def test_crc32_keeps_big_endian_packing(self):
        assert DIGESTS["crc32"](b"123456789") == bytes.fromhex("cbf43926")

    def test_simulation_imports_no_reference_digest(self):
        names = re.compile(r"\b(md5|sha1|sha256|crc32)_digest\b")
        offenders = [str(path.relative_to(SRC))
                     for package in ("devices", "core", "host")
                     for path in sorted((SRC / package).rglob("*.py"))
                     if names.search(path.read_text())]
        assert offenders == []


class TestAes256:
    KEY = bytes(range(32))
    NONCE = b"\x00" * 8

    def test_fips197_c3_key_expansion_first_round(self):
        # FIPS-197 Appendix A.3 key; first round key equals the key's
        # first 16 bytes.
        key = bytes.fromhex(
            "603deb1015ca71be2b73aef0857d7781"
            "1f352c073b6108d72d9810a30914dff4")
        round_keys = expand_key_256(key)
        assert round_keys[0] == key[:16]
        assert round_keys[1] == key[16:]
        # The final round key from the FIPS-197 expansion listing.
        assert round_keys[14].hex() == "fe4890d1e6188d0b046df344706c631e"

    def test_fips197_c3_block_vector(self):
        # FIPS-197 Appendix C.3: AES-256 ECB known-answer test, driven
        # through CTR with the counter block equal to the plaintext is
        # not possible, so test the core via the keystream: encrypting
        # zeros yields the raw block cipher output of the counter.
        from repro.algos.aes import _encrypt_block
        key = bytes.fromhex(
            "000102030405060708090a0b0c0d0e0f"
            "101112131415161718191a1b1c1d1e1f")
        plain = bytes.fromhex("00112233445566778899aabbccddeeff")
        expected = bytes.fromhex("8ea2b7ca516745bfeafc49904b496089")
        assert _encrypt_block(plain, expand_key_256(key)) == expected

    def test_ctr_roundtrip(self):
        data = b"secret payload" * 10
        encrypted = aes256_ctr(data, self.KEY, self.NONCE)
        assert encrypted != data
        assert aes256_ctr(encrypted, self.KEY, self.NONCE) == data

    def test_ctr_length_preserving(self):
        for n in (0, 1, 15, 16, 17, 100):
            assert len(aes256_ctr(b"z" * n, self.KEY, self.NONCE)) == n

    def test_different_nonce_different_ciphertext(self):
        data = b"q" * 64
        c1 = aes256_ctr(data, self.KEY, b"\x00" * 8)
        c2 = aes256_ctr(data, self.KEY, b"\x01" * 8)
        assert c1 != c2

    def test_bad_key_rejected(self):
        with pytest.raises(ProtocolError):
            aes256_ctr(b"data", b"short", self.NONCE)

    def test_bad_nonce_rejected(self):
        with pytest.raises(ProtocolError):
            aes256_ctr(b"data", self.KEY, b"short")

    @settings(max_examples=25, deadline=None)
    @given(data=st.binary(max_size=500))
    def test_roundtrip_property(self, data):
        encrypted = aes256_ctr(data, self.KEY, self.NONCE)
        assert aes256_ctr(encrypted, self.KEY, self.NONCE) == data


class TestLz77:
    def test_roundtrip_simple(self):
        data = b"hello hello hello hello"
        assert lz77_decompress(lz77_compress(data)) == data

    def test_roundtrip_empty(self):
        assert lz77_decompress(lz77_compress(b"")) == b""

    def test_compresses_redundancy(self):
        data = b"abcdefgh" * 1000
        blob = lz77_compress(data)
        assert len(blob) < len(data) // 4

    def test_incompressible_grows_bounded(self):
        import random
        rng = random.Random(1)
        data = bytes(rng.randrange(256) for _ in range(10000))
        blob = lz77_compress(data)
        assert len(blob) < len(data) * 1.05 + 64

    def test_bad_magic_rejected(self):
        with pytest.raises(ProtocolError):
            lz77_decompress(b"NOPE" + bytes(20))

    def test_truncated_rejected(self):
        blob = lz77_compress(b"some data worth compressing, repeated twice. "
                             b"some data worth compressing, repeated twice.")
        with pytest.raises(ProtocolError):
            lz77_decompress(blob[:len(blob) - 3])

    def test_long_match_and_long_literal_runs(self):
        data = bytes(range(256)) * 300 + b"\x00" * 70000
        assert lz77_decompress(lz77_compress(data)) == data

    @settings(max_examples=50, deadline=None)
    @given(data=st.binary(max_size=5000))
    def test_roundtrip_property(self, data):
        assert lz77_decompress(lz77_compress(data)) == data

    @settings(max_examples=20, deadline=None)
    @given(data=st.text(alphabet="abcab ", min_size=0,
                        max_size=5000).map(str.encode))
    def test_roundtrip_redundant_property(self, data):
        assert lz77_decompress(lz77_compress(data)) == data
