"""MD4 against the RFC 1320 appendix test vectors, on every backend."""

import ctypes
import hashlib

import pytest

from repro import perf
from repro.crypto import md4
from repro.crypto.md4 import md4_digest, md4_hexdigest
from tests.support import patched_cdll, raise_oserror

RFC1320_VECTORS = [
    (b"", "31d6cfe0d16ae931b73c59d7e0c089c0"),
    (b"a", "bde52cb31de33e46245e05fbdbd6fb24"),
    (b"abc", "a448017aaf21d8525fc10ae87aa6729d"),
    (b"message digest", "d9130a8164549fe818874806e1c7014b"),
    (b"abcdefghijklmnopqrstuvwxyz", "d79e1c308aa5bbcdeea8ed63df412da9"),
    (
        b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
        "043f8582f241db351ce627e153e7f0e4",
    ),
    (
        b"1234567890123456789012345678901234567890"
        b"1234567890123456789012345678901234567890",
        "e33b4ddc9c38f2199c3e7b164fcc0536",
    ),
]


@pytest.mark.parametrize("message,expected", RFC1320_VECTORS)
def test_rfc1320_vectors(message, expected):
    assert md4_hexdigest(message) == expected


def test_digest_is_16_bytes():
    assert len(md4_digest(b"whatever")) == 16


def test_digest_rejects_str():
    with pytest.raises(TypeError):
        md4_digest("not bytes")


def test_block_boundary_lengths():
    # Lengths straddling the 64-byte block and 56-byte padding boundary
    # exercise every padding branch.
    digests = {md4_digest(b"x" * n) for n in (55, 56, 57, 63, 64, 65, 127, 128)}
    assert len(digests) == 8


def test_bytearray_accepted():
    assert md4_digest(bytearray(b"abc")) == md4_digest(b"abc")


def test_single_bit_change_changes_digest():
    base = md4_digest(b"\x00" * 64)
    flipped = md4_digest(b"\x01" + b"\x00" * 63)
    assert base != flipped


# --- Backends: OpenSSL and the reference block ----------------------------


@pytest.fixture(scope="module")
def openssl_md4():
    fn = md4._load_openssl_md4()
    if fn is None:
        pytest.skip("OpenSSL MD4 (OpenSSL 3 legacy provider) is unavailable")
    return fn


@pytest.fixture
def fresh_backend(monkeypatch):
    """Unresolve the optimised backend and empty the digest memo.

    monkeypatch restores the process's resolved backend afterwards.
    """
    monkeypatch.setattr(md4, "_optimized_md4", md4._first_digest)
    md4._md4_digest_cached.cache_clear()
    yield
    md4._md4_digest_cached.cache_clear()


def _reference(message):
    return md4._python_md4(message)


@pytest.mark.parametrize("message,expected", RFC1320_VECTORS)
@pytest.mark.parametrize("name", ["openssl", "reference"])
def test_rfc1320_vectors_per_backend(request, name, message, expected):
    if name == "openssl":
        fn = request.getfixturevalue("openssl_md4")
    else:
        fn = _reference
    assert fn(message).hex() == expected


def test_openssl_matches_reference_on_every_length(openssl_md4):
    for n in range(301):
        message = bytes((i * 13 + n) & 0xFF for i in range(n))
        assert openssl_md4(message) == _reference(message), n
    big = bytes(range(256)) * 16
    assert len(big) == 4096
    assert openssl_md4(big) == _reference(big)


def test_md4_digest_bytes_and_bytearray_match_reference(fresh_backend):
    for n in list(range(301)) + [4096]:
        message = bytes((i * 31 + 5) & 0xFF for i in range(n))
        expected = _reference(message)
        assert md4.md4_digest(message) == expected, n
        assert md4.md4_digest(bytearray(message)) == expected, n


# --- Loader failures fall back to the Python reference block -------------


LOADER_FAILURES = {
    "cdll-oserror": raise_oserror,
    "missing-symbol": patched_cdll(remove=["OSSL_LIB_CTX_new"]),
    "context-null": patched_cdll(replace={"OSSL_LIB_CTX_new": lambda: None}),
    "provider-null": patched_cdll(
        replace={"OSSL_PROVIDER_load": lambda ctx, name: None}
    ),
    "fetch-null": patched_cdll(
        replace={"EVP_MD_fetch": lambda ctx, alg, props: None}
    ),
    # Reports success without writing the digest: the self-check sees
    # sixteen zero bytes.
    "self-check-mismatch": patched_cdll(
        replace={"EVP_Digest": lambda *args: 1}
    ),
    "digest-error": patched_cdll(
        replace={"EVP_Digest": lambda *args: 0}
    ),
}


@pytest.mark.parametrize("failure", sorted(LOADER_FAILURES))
def test_loader_failure_falls_back_to_python(monkeypatch, fresh_backend, failure):
    monkeypatch.setattr(ctypes, "CDLL", LOADER_FAILURES[failure])
    assert md4._load_openssl_md4() is None
    for message, expected in RFC1320_VECTORS:
        assert md4.md4_hexdigest(message) == expected
    assert md4.backend() == "python"
    assert md4._optimized_md4 is md4._python_md4
    for n in (0, 55, 56, 64, 300, 4096):
        message = b"\xa5" * n
        assert md4.md4_digest(message) == _reference(message)


def test_backend_resolves_once_per_process(monkeypatch, fresh_backend):
    calls = []
    real_loader = md4._load_openssl_md4

    def counting_loader():
        calls.append(1)
        return real_loader()

    monkeypatch.setattr(md4, "_load_openssl_md4", counting_loader)
    md4.md4_digest(b"first")
    md4.md4_digest(b"second")
    md4.backend()
    assert len(calls) == 1


def test_baseline_mode_never_calls_openssl(monkeypatch, fresh_backend):
    def forbidden(*args):
        raise AssertionError("OpenSSL MD4 called in baseline mode")

    monkeypatch.setattr(md4, "_optimized_md4", forbidden)
    monkeypatch.setattr(md4, "_load_openssl_md4", forbidden)
    with perf.mode(False):
        assert md4.backend() == "python"
        for message, expected in RFC1320_VECTORS:
            assert md4.md4_hexdigest(message) == expected


def test_openssl_backend_is_active_when_available(openssl_md4):
    with perf.mode(True):
        assert md4.backend() == "openssl"


def test_legacy_provider_stays_in_private_context(openssl_md4):
    # Loading "legacy" into the default context would also switch off
    # OpenSSL's implicit default provider for the whole process.
    assert openssl_md4(b"abc").hex() == "a448017aaf21d8525fc10ae87aa6729d"
    with pytest.raises(ValueError):
        hashlib.new("md4")
    assert hashlib.new("sha256", b"abc").hexdigest() == (
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    )
    assert hashlib.sha256(b"").hexdigest().startswith("e3b0c442")
