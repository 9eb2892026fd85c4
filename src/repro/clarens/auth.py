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
"""

from __future__ import annotations

import hashlib
import hmac
import itertools
import secrets as _secrets
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Optional, Tuple

from repro.clarens.errors import AuthenticationError


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
    return hashlib.sha256((salt + password).encode("utf-8")).hexdigest()


class UserDatabase:
    """In-memory user store with salted password hashes."""

    def __init__(self) -> None:
        self._users: Dict[str, _UserRecord] = {}

    def add_user(self, name: str, password: str, groups: Tuple[str, ...] = ()) -> None:
        """Create a user; raises ValueError on duplicates or empty names."""
        if not name:
            raise ValueError("user name must be non-empty")
        if name in self._users:
            raise ValueError(f"user {name!r} already exists")
        salt = _secrets.token_hex(8)
        self._users[name] = _UserRecord(
            name=name,
            password_hash=_hash_password(password, salt),
            salt=salt,
            groups=frozenset(groups),
        )

    def verify(self, name: str, password: str) -> Principal:
        """Check credentials; returns the Principal or raises."""
        record = self._users.get(name)
        if record is None or not hmac.compare_digest(
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
        self._secret = secret if secret is not None else _secrets.token_bytes(32)
        self._nonce = itertools.count(1)
        self._revoked: set = set()

    # ------------------------------------------------------------------
    def _sign(self, payload: str) -> str:
        return hmac.new(self._secret, payload.encode("utf-8"), hashlib.sha256).hexdigest()

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
        parts = token.split("|")
        if len(parts) != 4:
            raise AuthenticationError("malformed session token")
        user, expiry_s, nonce, signature = parts
        payload = f"{user}|{expiry_s}|{nonce}"
        if not hmac.compare_digest(signature, self._sign(payload)):
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
        """Revoke a token immediately."""
        self._revoked.add(token)
