"""Unit tests for authentication and session tokens."""

import hashlib
import hmac

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.clarens.auth import (
    ANONYMOUS, AuthService, Principal, UserDatabase, _hash_password,
)
from repro.clarens.errors import AuthenticationError
from repro.clarens.server import ClarensHost
from repro.clarens.transport import LoopbackTransport


@pytest.fixture
def users():
    db = UserDatabase()
    db.add_user("alice", "secret", groups=("physicists", "gae-users"))
    db.add_user("bob", "hunter2")
    return db


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def auth(users, clock):
    return AuthService(users, time_source=clock, session_lifetime_s=100.0)


class TestUserDatabase:
    def test_verify_good_credentials(self, users):
        p = users.verify("alice", "secret")
        assert p.user == "alice"
        assert p.in_group("physicists")

    def test_verify_bad_password(self, users):
        with pytest.raises(AuthenticationError):
            users.verify("alice", "wrong")

    def test_verify_unknown_user(self, users):
        with pytest.raises(AuthenticationError):
            users.verify("mallory", "x")

    def test_duplicate_user_rejected(self, users):
        with pytest.raises(ValueError):
            users.add_user("alice", "again")

    def test_empty_name_rejected(self, users):
        with pytest.raises(ValueError):
            users.add_user("", "pw")

    def test_name_with_the_token_separator_rejected(self, users):
        # Its token would split into five fields and never validate.
        with pytest.raises(ValueError, match="contains '\\|'"):
            users.add_user("carol|x", "pw")
        assert users.users() == ("alice", "bob")

    def test_users_listed_sorted(self, users):
        assert users.users() == ("alice", "bob")

    def test_password_not_stored_in_clear(self, users):
        record = users._users["alice"]
        assert "secret" not in record.password_hash
        assert record.password_hash != "secret"


class TestPrincipal:
    def test_anonymous(self):
        assert ANONYMOUS.is_anonymous
        assert not Principal(user="x").is_anonymous

    def test_group_membership(self):
        p = Principal(user="x", groups=frozenset({"g"}))
        assert p.in_group("g")
        assert not p.in_group("other")


class TestTokens:
    def test_login_then_validate(self, auth):
        token = auth.login("alice", "secret")
        p = auth.validate(token)
        assert p.user == "alice"
        assert p.in_group("gae-users")

    def test_login_bad_credentials(self, auth):
        with pytest.raises(AuthenticationError):
            auth.login("alice", "nope")

    def test_empty_token_is_anonymous(self, auth):
        assert auth.validate("") is ANONYMOUS

    def test_malformed_token_rejected(self, auth):
        with pytest.raises(AuthenticationError):
            auth.validate("garbage")
        with pytest.raises(AuthenticationError):
            auth.validate("a|b|c|d|e")

    def test_tampered_user_rejected(self, auth):
        token = auth.login("alice", "secret")
        parts = token.split("|")
        forged = "|".join(["bob"] + parts[1:])
        with pytest.raises(AuthenticationError):
            auth.validate(forged)

    def test_tampered_expiry_rejected(self, auth):
        token = auth.login("alice", "secret")
        parts = token.split("|")
        parts[1] = "99999999.000"
        with pytest.raises(AuthenticationError):
            auth.validate("|".join(parts))

    def test_expired_token_rejected(self, auth, clock):
        token = auth.login("alice", "secret")
        clock.now = 101.0
        with pytest.raises(AuthenticationError):
            auth.validate(token)

    def test_token_valid_until_expiry(self, auth, clock):
        token = auth.login("alice", "secret")
        clock.now = 99.0
        assert auth.validate(token).user == "alice"

    def test_logout_revokes(self, auth):
        token = auth.login("alice", "secret")
        auth.logout(token)
        with pytest.raises(AuthenticationError):
            auth.validate(token)

    def test_tokens_unique_per_login(self, auth):
        assert auth.login("alice", "secret") != auth.login("alice", "secret")

    def test_cross_host_token_rejected(self, users, clock):
        a = AuthService(users, clock)
        b = AuthService(users, clock)
        token = a.login("alice", "secret")
        with pytest.raises(AuthenticationError):
            b.validate(token)

    def test_invalid_lifetime_rejected(self, users, clock):
        with pytest.raises(ValueError):
            AuthService(users, clock, session_lifetime_s=0.0)

    def test_garbage_logout_revokes_nothing(self, auth):
        token = auth.login("alice", "secret")
        forged = token[:-1] + ("0" if token[-1] != "0" else "1")
        for garbage in ("garbage", "a|b|c|d", forged, "alice|3600.000|1|\u00e9"):
            with pytest.raises(AuthenticationError):
                auth.logout(garbage)
        auth.logout("")  # anonymous: nothing to revoke
        assert auth._revoked == {}
        assert auth.validate(token).user == "alice"

    def test_revocation_dropped_once_its_token_expires(self, auth, clock):
        first = auth.login("alice", "secret")
        auth.logout(first)
        with pytest.raises(AuthenticationError, match="revoked"):
            auth.logout(first)
        clock.now = 101.0
        second = auth.login("alice", "secret")
        auth.logout(second)
        assert list(auth._revoked) == [second]
        with pytest.raises(AuthenticationError, match="expired"):
            auth.validate(first)

    @pytest.mark.parametrize("token", [
        "alice|3600.000|1|\u00e9",
        "alice|3600.000|1|" + "\u00e9" * 64,
        "\ud800|3600.000|1|" + "0" * 64,  # a lone surrogate has no UTF-8
        5,                                 # any JSON value can arrive as a token
        ["alice", "3600.000", "1", "0" * 64],
    ], ids=["non-ascii-signature", "non-ascii-64-chars", "lone-surrogate-user",
            "int", "list"])
    def test_unsignable_token_is_an_authentication_error(self, auth, token):
        with pytest.raises(AuthenticationError):
            auth.validate(token)

    def test_non_ascii_signature_reaches_the_client_typed(self):
        host = ClarensHost("h")
        host.users.add_user("alice", "pw")
        with pytest.raises(AuthenticationError, match="signature invalid"):
            LoopbackTransport(host).call("system.ping", [], token="alice|3600.000|1|\u00e9")


def reference_sign(secret: bytes, payload: str) -> str:
    """The MAC a token carries, from the standard library's own HMAC."""
    return hmac.new(secret, payload.encode("utf-8"), hashlib.sha256).hexdigest()


class TestSignature:
    """The builtin-SHA-256 HMAC signs what ``hmac`` + ``hashlib`` sign."""

    @settings(max_examples=300, deadline=None)
    @given(secret=st.binary(max_size=200), payload=st.text(max_size=100))
    @example(secret=b"", payload="")
    @example(secret=b"k" * 64, payload="alice|1.000|1")
    @example(secret=b"k" * 65, payload="\u00e9l\u00e8ve|1.000|1")
    def test_sign_is_hmac_sha256(self, secret, payload):
        auth = AuthService(UserDatabase(), time_source=lambda: 0.0, secret=secret)
        assert auth._sign(payload) == reference_sign(secret, payload)
        assert auth._sign(payload) == reference_sign(secret, payload)  # states reused

    @pytest.mark.parametrize("secret, tokens", [
        (b"\0" * 32, [
            "alice|4834.500|1|1ed46c639a2b3aa211465a3757520ce56f70249df6bde52d393714ad80559a42",
            "alice|4834.500|2|320079c33833258ae290f823a35538bb49b3ff541d1f4d010b55a080ea33ede9",
        ]),
        (bytes(range(100)), [  # longer than the block: hashed first
            "alice|4834.500|1|1b2111b377da70584437023c41906d87f3ac5fcd04ba9adb6cfc362a6ab5231c",
            "alice|4834.500|2|86648a31d79b3383879ad1d810a5663718120014b51a4aa4eab494a253859174",
        ]),
    ])
    def test_tokens_are_byte_identical_to_the_hmac_module_s(self, users, secret, tokens):
        # Written by the hmac/hashlib implementation for this secret and clock.
        auth = AuthService(users, time_source=lambda: 1234.5, secret=secret)
        assert [auth.login("alice", "secret") for _ in tokens] == tokens
        assert [auth.validate(t).user for t in tokens] == ["alice", "alice"]

    def test_password_hashes_are_byte_identical(self):
        assert _hash_password("secret", "0123456789abcdef") == (
            "c5310e3d1e5823ef77ce3a5804988a72fc60c307a0c8959f3461e202e4a8d814"
        )
        db = UserDatabase()
        db.add_user("alice", "secret")
        [[name, password_hash, salt, groups]] = db.export_state()
        assert len(salt) == 16  # 8 random bytes, hex
        assert password_hash == hashlib.sha256((salt + "secret").encode()).hexdigest()
