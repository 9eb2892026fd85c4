"""Authentication: users, login, and HMAC-signed session tokens.

The real Clarens authenticated clients with X.509 grid certificates.  We
substitute password login producing *signed session tokens* with the same
observable semantics: a client logs in once, presents the token on every
call, the server validates it statelessly (signature + expiry) and derives
the caller's identity and groups for ACL checks.

Tokens are ``user|expiry|nonce|hmac_sha256(secret, user|expiry|nonce)``.
Forging one requires the host secret; tampering with any field breaks the
signature.  Time is injected (``time_source``) so the simulator's clock can
drive expiry deterministically in tests.

SHA-256 comes from the interpreter's builtin module (``_sha2`` on 3.12+,
``_sha256`` before), as :mod:`random` takes ``_sha512``: ``hashlib``,
``hmac`` and ``secrets`` would load OpenSSL's libcrypto, ~3.4 MB resident,
for one HMAC per call and one salted hash per login.  The HMAC is RFC 2104
over two SHA-256 states keyed once per host, so every token is the one
``hmac.new(secret, payload, hashlib.sha256)`` would sign; digests are
compared in constant time by ``_operator._compare_digest`` (what
``hmac.compare_digest`` is), and the secret and salts come from
``os.urandom`` (what ``secrets`` draws from).
"""

from __future__ import annotations

import itertools
from _operator import _compare_digest
from dataclasses import dataclass, field
from os import urandom
from typing import Callable, Dict, FrozenSet, Optional, Tuple

from repro.clarens.errors import AuthenticationError

try:
    from _sha2 import sha256  # 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # 3.10, 3.11
    except ImportError:  # an interpreter built without its own SHA-256
        from hashlib import sha256

#: SHA-256's block size, and the RFC 2104 inner / outer pad translations.
_BLOCK = 64
_IPAD = bytes(x ^ 0x36 for x in range(256))
_OPAD = bytes(x ^ 0x5C for x in range(256))


@dataclass(frozen=True)
class Principal:
    """An authenticated identity."""

    user: str
    groups: FrozenSet[str] = frozenset()

    @property
    def is_anonymous(self) -> bool:
        return self.user == ""

    def in_group(self, group: str) -> bool:
        """Whether the principal belongs to *group*."""
        return group in self.groups


ANONYMOUS = Principal(user="", groups=frozenset())


@dataclass
class _UserRecord:
    name: str
    password_hash: str
    salt: str
    groups: FrozenSet[str]
    #: The user's one Principal, shared by every call made as them.
    principal: Principal = field(init=False)

    def __post_init__(self) -> None:
        self.principal = Principal(user=self.name, groups=self.groups)


def _hash_password(password: str, salt: str) -> str:
    return sha256((salt + password).encode("utf-8")).hexdigest()


class UserDatabase:
    """In-memory user store with salted password hashes."""

    def __init__(self) -> None:
        self._users: Dict[str, _UserRecord] = {}

    def add_user(self, name: str, password: str, groups: Tuple[str, ...] = ()) -> None:
        """Create a user; raises ValueError on duplicates, empty names or a
        ``|`` (the session token's field separator) in the name."""
        if not name:
            raise ValueError("user name must be non-empty")
        if "|" in name:
            raise ValueError(f"user name {name!r} contains '|'")
        if name in self._users:
            raise ValueError(f"user {name!r} already exists")
        salt = urandom(8).hex()
        self._users[name] = _UserRecord(
            name=name,
            password_hash=_hash_password(password, salt),
            salt=salt,
            groups=frozenset(groups),
        )

    def verify(self, name: str, password: str) -> Principal:
        """Check credentials; returns the Principal or raises."""
        record = self._users.get(name)
        if record is None or not _compare_digest(
            record.password_hash, _hash_password(password, record.salt)
        ):
            raise AuthenticationError(f"bad credentials for user {name!r}")
        return record.principal

    def principal(self, name: str) -> Principal:
        """The Principal for a known user (AuthenticationError if unknown)."""
        record = self._users.get(name)
        if record is None:
            raise AuthenticationError(f"unknown user {name!r}")
        return record.principal

    def users(self) -> Tuple[str, ...]:
        """All user names, sorted."""
        return tuple(sorted(self._users))

    # ------------------------------------------------------------------
    # checkpoint/restore
    # ------------------------------------------------------------------
    def export_state(self) -> list:
        """Salted password hashes and groups, JSON-safe.

        Only hashes travel (never plaintext); session tokens are not
        exported — they are stateless and signed with a per-host secret,
        so clients simply log in again after a restore.
        """
        return [
            [r.name, r.password_hash, r.salt, sorted(r.groups)]
            for r in self._users.values()
        ]

    def import_state(self, state: list) -> None:
        """Replace the user table from :meth:`export_state` output."""
        self._users = {
            name: _UserRecord(
                name=name,
                password_hash=password_hash,
                salt=salt,
                groups=frozenset(groups),
            )
            for name, password_hash, salt, groups in state
        }


class AuthService:
    """Issues and validates session tokens for one Clarens host.

    Parameters
    ----------
    users:
        The user database to authenticate against.
    time_source:
        Zero-argument callable returning the current time in seconds; the
        GAE wiring passes the simulator clock so token expiry is
        deterministic.
    session_lifetime_s:
        How long an issued token stays valid.
    secret:
        Host signing secret; generated when omitted.
    """

    def __init__(
        self,
        users: UserDatabase,
        time_source: Callable[[], float],
        session_lifetime_s: float = 3600.0,
        secret: Optional[bytes] = None,
    ) -> None:
        if session_lifetime_s <= 0:
            raise ValueError("session lifetime must be positive")
        self.users = users
        self.time_source = time_source
        self.session_lifetime_s = session_lifetime_s
        key = secret if secret is not None else urandom(32)
        if len(key) > _BLOCK:
            key = sha256(key).digest()
        key = key.ljust(_BLOCK, b"\0")
        # The keyed halves of the HMAC, copied for every signature.
        self._inner = sha256(key.translate(_IPAD))
        self._outer = sha256(key.translate(_OPAD))
        self._nonce = itertools.count(1)
        #: Revoked token -> its expiry; dropped once the token has expired.
        self._revoked: Dict[str, float] = {}

    # ------------------------------------------------------------------
    def _sign(self, payload: str) -> str:
        inner = self._inner.copy()
        inner.update(payload.encode("utf-8"))
        outer = self._outer.copy()
        outer.update(inner.digest())
        return outer.hexdigest()

    def login(self, user: str, password: str) -> str:
        """Authenticate and return a session token."""
        principal = self.users.verify(user, password)
        expiry = self.time_source() + self.session_lifetime_s
        payload = f"{principal.user}|{expiry:.3f}|{next(self._nonce)}"
        return f"{payload}|{self._sign(payload)}"

    def validate(self, token: str) -> Principal:
        """Validate a token and return the Principal it names.

        Raises :class:`AuthenticationError` for malformed, forged, expired
        or revoked tokens.  The empty token maps to :data:`ANONYMOUS`.
        """
        if token == "":
            return ANONYMOUS
        parts = token.split("|") if isinstance(token, str) else ()  # any wire value
        if len(parts) != 4:
            raise AuthenticationError("malformed session token")
        user, expiry_s, nonce, signature = parts
        try:
            expected = self._sign(f"{user}|{expiry_s}|{nonce}")
        except UnicodeEncodeError:  # a lone surrogate: nothing was signed over it
            raise AuthenticationError("malformed session token") from None
        # _compare_digest refuses a non-ASCII str with TypeError.
        if not (signature.isascii() and _compare_digest(signature, expected)):
            raise AuthenticationError("session token signature invalid")
        try:
            expiry = float(expiry_s)
        except ValueError:
            raise AuthenticationError("malformed session expiry") from None
        if self.time_source() > expiry:
            raise AuthenticationError("session token expired")
        if token in self._revoked:
            raise AuthenticationError("session token revoked")
        return self.users.principal(user)

    def logout(self, token: str) -> None:
        """Revoke a token immediately, until it expires.

        Only a token that validates is kept (anything else raises
        :class:`AuthenticationError`, the empty token is a no-op), and each
        logout drops the revocations whose tokens have expired, so at most
        the tokens issued within one session lifetime are held.
        """
        if self.validate(token) is ANONYMOUS:
            return
        now = self.time_source()
        self._revoked = {t: e for t, e in self._revoked.items() if e >= now}
        self._revoked[token] = float(token.split("|")[1])
