"""Unit tests for multicast frame codecs."""

import pytest

from repro.multicast.messages import (
    FRAME_CERTIFICATE,
    FRAME_PROPOSAL,
    FRAME_TOKEN,
    MembershipCommit,
    MembershipProposal,
    MulticastCodecError,
    RegularMessage,
    decode_frame,
)
from repro.multicast.token import Token, TokenCertificate
from repro.orb.cdr import CdrEncoder


def test_regular_message_roundtrip():
    msg = RegularMessage(3, 7, 1234, "server-group", b"\x01\x02payload")
    decoded = decode_frame(msg.encode())
    assert isinstance(decoded, RegularMessage)
    assert decoded.sender_id == 3
    assert decoded.ring_id == 7
    assert decoded.seq == 1234
    assert decoded.dest_group == "server-group"
    assert decoded.payload == b"\x01\x02payload"


def test_regular_message_empty_payload():
    decoded = decode_frame(RegularMessage(0, 1, 1, "g", b"").encode())
    assert decoded.payload == b""


def test_proposal_roundtrip():
    proposal = MembershipProposal(
        proposer=2,
        old_ring_id=5,
        round_number=3,
        candidate_set=[0, 2, 4],
        have_contiguous=99,
        suspects=[1, 3],
        signature=123456789,
    )
    decoded = decode_frame(proposal.encode())
    assert isinstance(decoded, MembershipProposal)
    assert decoded.proposer == 2
    assert decoded.old_ring_id == 5
    assert decoded.round_number == 3
    assert decoded.candidate_set == (0, 2, 4)
    assert decoded.have_contiguous == 99
    assert decoded.suspects == (1, 3)
    assert decoded.signature == 123456789


def test_proposal_sets_are_canonicalised():
    proposal = MembershipProposal(1, 1, 1, [4, 0, 2], 0, [3, 1])
    assert proposal.candidate_set == (0, 2, 4)
    assert proposal.suspects == (1, 3)


def test_proposal_signable_excludes_signature():
    a = MembershipProposal(1, 1, 1, [0, 1], 5, [], signature=111)
    b = MembershipProposal(1, 1, 1, [0, 1], 5, [], signature=222)
    assert a.signable_bytes() == b.signable_bytes()
    assert a.encode() != b.encode()


def test_commit_roundtrip_and_unbundle():
    proposals = [
        MembershipProposal(p, 5, 2, [0, 1, 2], 10 + p, [3]).encode() for p in range(3)
    ]
    commit = MembershipCommit(0, 5, 2, proposals)
    decoded = decode_frame(commit.encode())
    assert isinstance(decoded, MembershipCommit)
    assert decoded.sender_id == 0
    assert decoded.old_ring_id == 5
    assert decoded.round_number == 2
    inner = decoded.proposals()
    assert [p.proposer for p, _ in inner] == [0, 1, 2]
    assert [raw for _, raw in inner] == proposals


def test_commit_rejects_non_proposal_content():
    bogus = MembershipCommit(0, 1, 1, [RegularMessage(0, 1, 1, "g", b"x").encode()])
    decoded = decode_frame(bogus.encode())
    with pytest.raises(MulticastCodecError):
        decoded.proposals()


def test_garbage_frame_rejected():
    with pytest.raises(MulticastCodecError):
        decode_frame(b"\xff\x00\x01")
    with pytest.raises(MulticastCodecError):
        decode_frame(b"\x01trunc")


def test_corrupted_frame_usually_fails_or_differs():
    raw = bytearray(RegularMessage(1, 1, 7, "group", b"hello").encode())
    raw[-1] ^= 0xFF  # flip a payload byte
    decoded = decode_frame(bytes(raw))
    assert decoded.payload != b"hello"


def test_regular_message_template_encode_matches_generic():
    from repro import perf

    with perf.mode(True):
        for seq in (0, 1, 1000, 2**64 - 1):
            for payload in (b"", b"\xab" * 64, b"odd\x00len\x01"):
                msg = RegularMessage(2, 4, seq, "server", payload)
                assert msg.encode() == msg._encode()


def test_regular_message_encode_identical_across_modes():
    from repro import perf

    msg = RegularMessage(1, 9, 55, "group", b"\xab" * 16)
    with perf.mode(True):
        fast = msg.encode()
    with perf.mode(False):
        baseline = msg.encode()
    assert fast == baseline


# --- canonical decoding: one byte string per frame ------------------------


def _token_frame():
    return Token(
        sender_id=1, ring_id=2, visit=3, seq=4, aru=4, successor=2,
        message_digest_list=[(4, b"d" * 16)], prev_token_digest=b"p" * 16,
        signature=0xABCDEF,
    ).encode()


def test_trailing_bytes_after_a_frame_are_rejected():
    frames = [
        RegularMessage(1, 1, 7, "group", b"hello").encode(),
        _token_frame(),
        MembershipProposal(1, 5, 2, [0, 1], 9, []).encode(),
        MembershipCommit(0, 5, 2, [MembershipProposal(0, 5, 2, [0], 9, []).encode()]).encode(),
    ]
    for raw in frames:
        decode_frame(raw)
        with pytest.raises(MulticastCodecError, match="trailing"):
            decode_frame(raw + b"\x00")


def _rewrap(frame_type, signable, signature=b"\x05"):
    """A signed frame around a hand-built signable body."""
    encoder = CdrEncoder()
    encoder.write_octet(frame_type)
    encoder.write_octets(signable)
    encoder.write_octets(signature)
    return encoder.getvalue()


def test_trailing_bytes_inside_signed_bodies_are_rejected():
    token = decode_frame(_token_frame())
    cert = TokenCertificate(1, 2, 3, [b"x" * 16])
    proposal = MembershipProposal(1, 5, 2, [0, 1], 9, [])
    for frame_type, body in (
        (FRAME_TOKEN, token.signable_bytes()),
        (FRAME_CERTIFICATE, cert.signable_bytes()),
        (FRAME_PROPOSAL, proposal.signable_bytes()),
    ):
        decode_frame(_rewrap(frame_type, body))
        with pytest.raises(MulticastCodecError, match="trailing"):
            decode_frame(_rewrap(frame_type, body + b"\x00" * 4))


@pytest.mark.parametrize("signature", [b"", b"\x00\x05", b"\x00\x00"])
def test_non_minimal_signature_octets_are_rejected(signature):
    body = MembershipProposal(1, 5, 2, [0, 1], 9, []).signable_bytes()
    assert decode_frame(_rewrap(FRAME_PROPOSAL, body, b"\x00")).signature == 0
    with pytest.raises(MulticastCodecError, match="non-minimal"):
        decode_frame(_rewrap(FRAME_PROPOSAL, body, signature))


def test_unsorted_proposal_sets_are_rejected():
    # The constructor sorts both sets, so an unsorted wire list would
    # decode to a proposal that re-encodes to different bytes.
    def body(candidates, suspects):
        encoder = CdrEncoder()
        for value in (1, 5, 2):
            encoder.write_ulong(value)
        encoder.write(("sequence", "ulong"), candidates)
        encoder.write_ulonglong(9)
        encoder.write(("sequence", "ulong"), suspects)
        encoder.write_boolean(False)
        return encoder.getvalue()

    decode_frame(_rewrap(FRAME_PROPOSAL, body([0, 1], [3, 4])))
    for candidates, suspects in (([1, 0], [3, 4]), ([0, 1], [4, 3])):
        with pytest.raises(MulticastCodecError, match="order"):
            decode_frame(_rewrap(FRAME_PROPOSAL, body(candidates, suspects)))


def test_malformed_proposal_in_commit_raises_codec_error():
    # A corrupted bundle must surface as MulticastCodecError (which the
    # membership engine handles), never as a bare MarshalError.
    good = MembershipProposal(0, 5, 2, [0, 1], 9, []).encode()
    truncated = good[:-3]
    padded = good + b"\x00"
    for bad in (truncated, padded, b""):
        commit = decode_frame(MembershipCommit(0, 5, 2, [good, bad]).encode())
        with pytest.raises(MulticastCodecError):
            commit.proposals()
