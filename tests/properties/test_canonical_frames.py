"""Property: multicast decoding is canonical, even on corrupted frames.

A receiver compares raw token frames to detect mutants, and verifies a
decoded token over the body slice it arrived in.  Both are sound only
if every accepted byte string is the encoding of its decoded fields:
then two frames differ exactly when their fields do.  Bytes flipped in
transit must therefore either fail to decode or yield a frame that
re-encodes to exactly the corrupted input.
"""

from hypothesis import given, settings, strategies as st

from repro.multicast.messages import (
    JoinRequest,
    MembershipCommit,
    MembershipProposal,
    MessageFragment,
    MulticastCodecError,
    RegularMessage,
    decode_frame,
)
from repro.multicast.token import Token, TokenCertificate

ULONG = st.integers(0, 2**32 - 1)
ULONGLONG = st.integers(0, 2**64 - 1)
SIGNATURE = st.integers(0, 2**300)
DIGEST = st.binary(min_size=16, max_size=16)
GROUP = st.text(max_size=12)

regular = st.builds(RegularMessage, ULONG, ULONG, ULONGLONG, GROUP, st.binary(max_size=40))
fragment = st.builds(
    MessageFragment, ULONG, ULONG, ULONGLONG, GROUP, ULONG, ULONG, ULONG,
    st.binary(max_size=40),
)
token = st.builds(
    Token,
    sender_id=ULONG,
    ring_id=ULONG,
    visit=ULONGLONG,
    seq=ULONGLONG,
    aru=ULONGLONG,
    successor=ULONG,
    aru_id=ULONG,
    rtr_list=st.lists(ULONGLONG, max_size=4),
    rtg_list=st.lists(ULONGLONG, max_size=4),
    message_digest_list=st.lists(st.tuples(ULONGLONG, DIGEST), max_size=3),
    prev_token_digest=st.one_of(st.just(b""), DIGEST),
    signature=SIGNATURE,
)
certificate = st.builds(
    TokenCertificate, ULONG, ULONG, ULONGLONG, st.lists(DIGEST, max_size=4), SIGNATURE
)
proposal = st.builds(
    MembershipProposal,
    ULONG,
    ULONG,
    ULONG,
    st.lists(ULONG, max_size=5),
    ULONGLONG,
    st.lists(ULONG, max_size=3),
    joining=st.booleans(),
    signature=SIGNATURE,
)
join_request = st.builds(JoinRequest, ULONG, st.floats(width=64), SIGNATURE)
commit = st.builds(
    MembershipCommit,
    ULONG,
    ULONG,
    ULONG,
    st.lists(proposal.map(lambda p: p.encode()), max_size=3),
)

FRAMES = st.one_of(regular, fragment, token, certificate, proposal, join_request, commit)


def _reencode(frame):
    """Encode ``frame`` from its fields alone."""
    if isinstance(frame, (Token, TokenCertificate)):
        frame._received_signable = None  # re-encode the body too
    return frame.encode()


@given(FRAMES)
@settings(max_examples=200)
def test_valid_frames_decode_canonically(frame):
    raw = frame.encode()
    assert _reencode(decode_frame(raw)) == raw


@given(FRAMES, st.lists(st.tuples(st.integers(0), st.integers(1, 255)), min_size=1, max_size=4))
@settings(max_examples=600)
def test_flipped_frames_fail_or_reencode_exactly(frame, flips):
    data = bytearray(frame.encode())
    for position, mask in flips:
        data[position % len(data)] ^= mask
    data = bytes(data)
    try:
        decoded = decode_frame(data)
    except MulticastCodecError:
        return
    assert _reencode(decoded) == data
    if isinstance(decoded, MembershipCommit):
        try:
            bundled = decoded.proposals()
        except MulticastCodecError:
            return
        for inner, inner_raw in bundled:
            assert inner.encode() == inner_raw
