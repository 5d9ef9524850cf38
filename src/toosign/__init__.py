"""toosign: harden any existentially unforgeable signature scheme into a
strongly unforgeable one with a chameleon hash and a hash oracle.

The public surface: `g_prime`/`s_prime`/`v_prime` (the transformed scheme),
the chameleon-hash family in `chameleon`, the oracle layer in `oracle`, the
executable unforgeability games in `games`, and the sample base schemes
(a stateful Merkle one-time-signature tree and a deliberately malleable
wrapper used as a negative control).

Importing the package registers the Merkle scheme.  The names from `games`
load it on first use, so the malleable wrapper is registered only in a
process that plays games.
"""

from .chameleon import (
    ChameleonKind,
    CollisionVerdict,
    ch_hash,
    ch_invert,
    check_collision,
    dl_recover_trapdoor,
    hg,
    sample_message,
    sample_randomness,
    sample_range,
    sis_collision_to_short_vector,
)
from .errors import (
    CapacityError,
    DomainError,
    ExtractionError,
    FormatError,
    GameError,
    SamplerError,
    ToosignError,
)
from .merkle import merkle_descriptor
from .oracle import (
    DEFAULT_DOMAIN_TAG,
    OracleContext,
    frame,
    production_oracle,
    programmable_oracle,
)
from .registry import (
    KeyPair,
    SchemeDescriptor,
    Signature,
    register_scheme,
    scheme_keygen,
    scheme_sign,
    scheme_verify,
)
from .rng import Rng, rng_from_int
from .transform import (
    TransformedKeyPair,
    TransformedPublicKey,
    TransformedSignature,
    deserialize_signature,
    g_prime,
    keypair_from_secret,
    public_key_of,
    s_prime,
    v_prime,
)

__version__ = "0.1.0"

_GAMES_NAMES = frozenset({
    "ChallengerVariant",
    "GameKind",
    "case1_extract",
    "case2_extract",
    "classify_forgery",
    "game_report",
    "hybrid_transcript_compare",
    "run_game",
    "wrap_malleable",
})


def __getattr__(name: str):
    if name in _GAMES_NAMES:
        from . import games

        return getattr(games, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
