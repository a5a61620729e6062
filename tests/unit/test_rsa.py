"""Unit tests for RSA signatures and key generation."""

import random

import pytest

from repro.crypto.md4 import md4_digest
from repro.crypto.primes import generate_prime, is_probable_prime
from repro.crypto.rsa import CryptoError, generate_keypair


@pytest.fixture(scope="module")
def keypair():
    return generate_keypair(random.Random(1234), modulus_bits=300)


def test_modulus_has_requested_size(keypair):
    assert keypair.public.modulus_bits == 300


def test_sign_verify_roundtrip(keypair):
    digest = md4_digest(b"token contents")
    signature = keypair.sign(digest)
    assert keypair.public.verify(digest, signature)


def test_signature_fails_on_different_digest(keypair):
    signature = keypair.sign(md4_digest(b"token contents"))
    assert not keypair.public.verify(md4_digest(b"mutant token"), signature)


def test_tampered_signature_fails(keypair):
    digest = md4_digest(b"token contents")
    signature = keypair.sign(digest)
    assert not keypair.public.verify(digest, signature ^ 1)


def test_out_of_range_signature_fails(keypair):
    digest = md4_digest(b"token contents")
    assert not keypair.public.verify(digest, keypair.public.n + 5)
    assert not keypair.public.verify(digest, -1)


def test_signature_requires_int(keypair):
    with pytest.raises(CryptoError):
        keypair.public.verify(md4_digest(b"x"), b"raw bytes")


def test_other_key_cannot_verify(keypair):
    other = generate_keypair(random.Random(99), modulus_bits=300)
    digest = md4_digest(b"token contents")
    assert not other.public.verify(digest, keypair.sign(digest))


def test_signing_is_deterministic(keypair):
    digest = md4_digest(b"abc")
    assert keypair.sign(digest) == keypair.sign(digest)


def test_keypair_generation_is_seed_deterministic():
    a = generate_keypair(random.Random(7), modulus_bits=256)
    b = generate_keypair(random.Random(7), modulus_bits=256)
    assert a.public == b.public


@pytest.mark.parametrize("bits", [256, 300, 512])
def test_various_modulus_sizes(bits):
    pair = generate_keypair(random.Random(5), modulus_bits=bits)
    digest = md4_digest(b"hello")
    assert pair.public.modulus_bits == bits
    assert pair.public.verify(digest, pair.sign(digest))


def test_too_small_modulus_rejected():
    with pytest.raises(CryptoError):
        generate_keypair(random.Random(5), modulus_bits=128)


def test_generate_prime_is_prime_and_right_size():
    rng = random.Random(11)
    p = generate_prime(64, rng)
    assert p.bit_length() == 64
    assert is_probable_prime(p, rng)


def test_is_probable_prime_on_known_values():
    rng = random.Random(3)
    assert is_probable_prime(2, rng)
    assert is_probable_prime(97, rng)
    assert is_probable_prime(2**61 - 1, rng)  # Mersenne prime
    assert not is_probable_prime(1, rng)
    assert not is_probable_prime(0, rng)
    assert not is_probable_prime(561, rng)  # Carmichael number
    assert not is_probable_prime(2**61 + 1, rng)


def test_crt_signature_equals_plain_exponentiation(keypair):
    """CRT signing (optimized mode) produces the exact same signature as
    the plain ``pow(m, d, n)`` path (baseline mode)."""
    from repro import perf

    digest = md4_digest(b"crt equivalence check")
    with perf.mode(True):
        fast = keypair.sign(digest)
    with perf.mode(False):
        plain = keypair.sign(digest)
    assert fast == plain
    assert keypair.public.verify(digest, fast)


def test_crt_signatures_verify_across_many_digests(keypair):
    from repro import perf

    with perf.mode(True):
        for i in range(10):
            digest = md4_digest(b"msg %d" % i)
            assert keypair.public.verify(digest, keypair.sign(digest))


# --- CRT halves in OpenSSL ---------------------------------------------

import ctypes  # noqa: E402  (grouped with the tests that use it)

from repro import perf  # noqa: E402
from repro.crypto import libcrypto, md4, rsa  # noqa: E402
from tests.support import patched_cdll, raise_oserror  # noqa: E402


@pytest.fixture
def fresh_rsa_backend(monkeypatch):
    """Unresolve the process-wide BIGNUM binding (restored afterwards)."""
    monkeypatch.setattr(rsa, "_bn_api", rsa._UNRESOLVED)


@pytest.fixture(scope="module")
def bn_api():
    api = rsa._load_bn_api()
    if api is None:
        pytest.skip("OpenSSL BIGNUM functions are unavailable")
    return api


def _plain_signature(pair, digest):
    block = rsa._pad_digest(digest, pair.public.modulus_bytes)
    return pow(int.from_bytes(block, "big"), pair._d, pair.public.n)


@pytest.mark.parametrize("bits", [256, 300, 512, 1024])
def test_openssl_crt_equals_plain_rsa(bn_api, bits):
    pair = generate_keypair(random.Random(bits), modulus_bits=bits)
    rng = random.Random(bits + 1)
    with perf.mode(True):
        for _ in range(500):
            digest = bytes(rng.getrandbits(8) for _ in range(16))
            assert pair.sign(digest) == _plain_signature(pair, digest)
        assert isinstance(pair._openssl, rsa._OpenSslHalves)


def test_openssl_backend_is_active_when_available(bn_api):
    with perf.mode(True):
        assert rsa.backend() == "openssl"


LOADER_FAILURES = {
    "cdll-oserror": raise_oserror,
    "missing-symbol": patched_cdll(remove=["BN_mod_exp_mont"]),
    "exp-returns-0": patched_cdll(replace={"BN_mod_exp_mont": lambda *args: 0}),
    "ctx-null": patched_cdll(replace={"BN_CTX_new": lambda: None}),
    # Reports success without writing the result: the check against
    # pow sees zero.
    "check-mismatch": patched_cdll(replace={"BN_mod_exp_mont": lambda *args: 1}),
}


@pytest.mark.parametrize("failure", sorted(LOADER_FAILURES))
def test_loader_failure_gives_identical_signatures(
    monkeypatch, fresh_rsa_backend, failure
):
    monkeypatch.setattr(ctypes, "CDLL", LOADER_FAILURES[failure])
    pair = generate_keypair(random.Random(3), modulus_bits=300)
    with perf.mode(True):
        for i in range(20):
            digest = md4_digest(b"fallback %d" % i)
            assert pair.sign(digest) == _plain_signature(pair, digest)
        assert pair._openssl is None
        assert rsa.backend() == "python"


def test_per_key_check_mismatch_falls_back(bn_api, monkeypatch):
    # The library passes the process self-check, but this key's halves
    # disagree with pow: the key signs with pow.
    real = rsa._OpenSslHalves.halves

    def off_by_one(self, m_p, m_q):
        mp, mq = real(self, m_p, m_q)
        return mp ^ 1, mq

    monkeypatch.setattr(rsa._OpenSslHalves, "halves", off_by_one)
    pair = generate_keypair(random.Random(4), modulus_bits=300)
    with perf.mode(True):
        digest = md4_digest(b"mismatch")
        assert pair.sign(digest) == _plain_signature(pair, digest)
        assert pair._openssl is None


def test_failure_after_setup_falls_back_per_signature(bn_api):
    pair = generate_keypair(random.Random(6), modulus_bits=300)
    with perf.mode(True):
        pair.sign(md4_digest(b"build"))
        halves = pair._openssl
        assert isinstance(halves, rsa._OpenSslHalves)

        class FailingApi:
            def __getattr__(self, name):
                if name == "BN_mod_exp_mont":
                    return lambda *args: 0
                return getattr(bn_api, name)

        halves._api = FailingApi()
        digest = md4_digest(b"late failure")
        assert halves.halves(5, 7) is None
        assert pair.sign(digest) == _plain_signature(pair, digest)


def test_baseline_mode_never_calls_openssl(monkeypatch, fresh_rsa_backend):
    def forbidden(*args):
        raise AssertionError("OpenSSL called in baseline mode")

    monkeypatch.setattr(rsa, "_load_bn_api", forbidden)
    monkeypatch.setattr(rsa, "_build_halves", forbidden)
    pair = generate_keypair(random.Random(8), modulus_bits=300)
    with perf.mode(False):
        assert rsa.backend() == "python"
        digest = md4_digest(b"baseline")
        assert pair.sign(digest) == _plain_signature(pair, digest)
    assert pair._openssl is rsa._UNRESOLVED


def test_openssl_state_is_freed_with_the_key_pair(bn_api):
    import gc

    pair = generate_keypair(random.Random(9), modulus_bits=256)
    with perf.mode(True):
        pair.sign(md4_digest(b"x"))
    finalizer = pair._openssl._finalizer
    assert finalizer.alive
    del pair
    gc.collect()
    assert not finalizer.alive


def test_md4_and_rsa_share_one_libcrypto_loader():
    assert md4.open_libcrypto is libcrypto.open_libcrypto
    assert rsa.open_libcrypto is libcrypto.open_libcrypto
