"""Pinned survival masks and stream positions for every failure-model kind.

Each registry kind is sampled through ``engine._sample_cell`` — the one
place a sweep draws a cell's mask and pairs — on fixed cells of a d=8 xor
overlay.  The test asserts the SHA-256 of each cell's mask and of the next
``rng.random(4)`` draw on the cell's stream, so a refactor of the failure
models cannot move a mask, or the stream the pair sampler continues on,
without failing here.  Degenerate cells (fewer than two survivors) return no
mask; their digest is ``None`` and only the stream position is pinned.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.dht.failures import FAILURE_MODEL_KINDS
from repro.sim import engine

BASE_SEED = 2006
PAIRS = 16
SEVERITIES = (0.0, 0.1, 0.5, 0.9, 1.0)

#: (kind, severity) -> (mask SHA-256 or None when degenerate, next-draw SHA-256)
PINS = {
    ('uniform', 0.0): (
        '2661920f2409dd6c8adeb0c44972959f232b6429afa913845d0fd95e7e768234',
        '8a21696c0b44c0604f03c0d950256b10442c8ad41265b702b4815dba82bdaceb',
    ),
    ('uniform', 0.1): (
        'bf166afff0817f57f55fb3b17f6820940c45620366d7b89dd773b4b808f5c4a6',
        '23f17eddf5ce94336a603f3e3d478a2edd854c516c0fd8bcdb9edd559304eb43',
    ),
    ('uniform', 0.5): (
        '103cf4008fd9c4ddc405edc5130438d1ad575a293c24abc159ee9e5db032ae0b',
        '66b65df2a7ba906521e3b4d44f3402452b7000b70598328181c2513ebf44f497',
    ),
    ('uniform', 0.9): (
        '132ef1625415188a92f18618a69e60e27eb7e4775d9e7b7cd8ba3f7d89dbd838',
        '99328dc1f4d838cd2bcab19795a4aa352ec2a463d57adca13d685f746283b6a6',
    ),
    ('uniform', 1.0): (
        None,
        'e477e2b72f3e7d12c332510cb87d630ff5a6572bdbd52248b7371f6eb95a11c5',
    ),
    ('targeted', 0.0): (
        '2661920f2409dd6c8adeb0c44972959f232b6429afa913845d0fd95e7e768234',
        'dc95f0338d07d88ac099425853087e4ed860d69a9b62cbda9ffd7156a99fd03c',
    ),
    ('targeted', 0.1): (
        'da0380252629bc00539501560c350a425a6da8c9f2f1f48fa68e4851eb4ee506',
        '3fbaccd2f05afe032a4dc93cc9e69bd28bf2b85c417490174c821886514b439c',
    ),
    ('targeted', 0.5): (
        'bb659191f2e97ed8fbf801dabda2404c0b36b8f14047e9da074e953449405fd3',
        'd16b6afd9a8bbe58e8c02f2d01df2563e8a6f1ecd04f786dc03fa229f3c5f986',
    ),
    ('targeted', 0.9): (
        'a9d6f292d61e14312ec003dcae5fb7a825f4426c087778b75271ef9fa87255ae',
        '6fecd9c1bf988445a2c25eb86b8f2d1a8f17cd22d3b8155575c1168647d83733',
    ),
    ('targeted', 1.0): (
        None,
        'f04fb9c2fb5cd9073c511d4a01ef3a8f9bb35a0f4da42ec2057c7aad8c8e8832',
    ),
    ('regional', 0.0): (
        '2661920f2409dd6c8adeb0c44972959f232b6429afa913845d0fd95e7e768234',
        '3d18fb7313d1d100c806067b46465dc2a94b5fb3b92247007bdc1ef857ce171d',
    ),
    ('regional', 0.1): (
        'b71845c231df2f541dff7af783351b09dc297840e18a9ae1c4c08efe387e9125',
        '01ba087b75fc6b82b16a90aab1915f7078b75f492d8094aa8113d85e239b6879',
    ),
    ('regional', 0.5): (
        'fdd8dba3273c77748c4acd90fae2185e1ca5d0dba61c359b49f657209fc40b92',
        '36df42124a3db0ba54d53ff612c1be35e979231001b682de324320da88e9edb4',
    ),
    ('regional', 0.9): (
        'bc0cb016677fefb8012e487ba0c55a6f7ab3b698cb9a5a13191aa57810228c82',
        'cd264c6caf57e5823fde70311af628369b94c0167b3e9ac5c6def2684f5e3cd4',
    ),
    ('regional', 1.0): (
        None,
        '93b811c947e1afd03f6592b524170b7b030293faed9dfcf8399dc5651ae76381',
    ),
    ('subtree', 0.0): (
        '2661920f2409dd6c8adeb0c44972959f232b6429afa913845d0fd95e7e768234',
        'cb5bf0d46dcdc0737d16a50c3b0c1121d60428d8562dd7aeb002068106543d53',
    ),
    ('subtree', 0.1): (
        '90beeef9291974a1738aa57a7be2847e561b1ef2b7f96f082c965f4b1da17984',
        'd9f23e71f2e19b4dca52795a947ddbee6c78874338bd9a1738e0faa71296bc21',
    ),
    ('subtree', 0.5): (
        'b9f795d06187192ef99006b1ef4f07561aac2d6b9851404cfa856e5b1a389c39',
        'ac87f0e6c3c3a09acea220705aafb892d7a2cda26b7e2a523255f4ae57ce98e3',
    ),
    ('subtree', 0.9): (
        None,
        'fffa87b2427c678440840e70ac61c0064cd092cacc45dc6531ee43f3e412c7fd',
    ),
    ('subtree', 1.0): (
        None,
        'a793299f21a04a86bf3c26321d67d51dea17287e5ee513eab12be8e6e7222dab',
    ),
    ('uniform+regional', 0.0): (
        '2661920f2409dd6c8adeb0c44972959f232b6429afa913845d0fd95e7e768234',
        'f2b36369def3d6bc02da3bd0842b8a751a9a710593bc46dda2a0fab65c906c9c',
    ),
    ('uniform+regional', 0.1): (
        '74c2a1aad2b5ca82991d193f4e8e8f7bc40ed7880d81f6230fe2d0ef2fdf0cc4',
        '77e7701f2870f1a681ebcc89b7b52b1bcde05efd037461f43c2e690caa337ebc',
    ),
    ('uniform+regional', 0.5): (
        '42110d2a630b22265dd01088e693775af10ce5aed4fc508747220940cda0a9db',
        '2037b233dd4fdbdb9447805abd03d5ea930c1a6386eae9b649f0ff48905dd559',
    ),
    ('uniform+regional', 0.9): (
        '285cb342791738b62939431681c3b1fa9f32dec961ca24bab8be4dc559d17a1a',
        '527b9d27bc263b431091f222d38d9deb531ef542e74bf644576bc897ce517779',
    ),
    ('uniform+regional', 1.0): (
        '81ebac5889d7c9d127d38f3a47d302e30a555bfb55d56ae2800efe71313468c8',
        '8ecd49ed71f399e7485fde07db285200a5fcbb3ddbd425d74df99a97e2b51742',
    ),
}


def _sha256(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def _pin(kind: str, severity: float, monkeypatch) -> tuple:
    streams = []
    make_stream = engine._cell_routing_rng

    def recording(base_seed, cell):
        rng = make_stream(base_seed, cell)
        streams.append(rng)
        return rng

    monkeypatch.setattr(engine, "_cell_routing_rng", recording)
    overlay = engine._cached_overlay("xor", 8, 0, BASE_SEED, ())
    cell = engine.SweepCell(geometry="xor", d=8, q=severity, replicate=0, model=kind)
    sampled = engine._sample_cell(overlay, cell, PAIRS, BASE_SEED)
    (rng,) = streams
    mask_digest = None if sampled is None else _sha256(sampled[0])
    return mask_digest, _sha256(rng.random(4))


@pytest.mark.parametrize("severity", SEVERITIES)
@pytest.mark.parametrize("kind", FAILURE_MODEL_KINDS)
def test_mask_and_stream_position_are_pinned(kind, severity, monkeypatch):
    assert _pin(kind, severity, monkeypatch) == PINS[(kind, severity)]
