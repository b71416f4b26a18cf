import numpy as np
import pytest

from conftest import toy_model
from meant.errors import DatasetFormatError
from meant.graphs import decode_graph_blob, encode_graph_blob
from meant.sealed import seal
from meant.training import load_checkpoint, save_checkpoint

BINDING = {"normalization_crc32": 1234, "tokenizer_crc32": 5678}


def _chart(tmp_path):
    blob = encode_graph_blob(np.linspace(0.0, 1.0, 3 * 32 * 32).reshape(3, 32, 32))
    return blob, decode_graph_blob


def _checkpoint(tmp_path):
    model = toy_model(seed=5)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model.config,
                    {k: p.data for k, p in model.params().items()}, BINDING)

    def load(blob):
        path.write_bytes(blob)
        return load_checkpoint(path)

    return path.read_bytes(), load


def _flip(blob):
    damaged = bytearray(blob)
    damaged[len(blob) // 2] ^= 0x01
    return bytes(damaged)


# each damage takes a valid sealed file and returns the damaged bytes; the
# last two reseal their edit, so only the body is wrong
DAMAGE = {
    "flipped_byte": (_flip, "checksum"),
    "bad_magic": (lambda blob: b"XXXX" + blob[4:], "magic"),
    "cut_short": (lambda blob: blob[:len(blob) // 2], "checksum"),
    "trailing_byte": (lambda blob: seal(blob[:4], blob[4:-4] + b"\0"),
                      "1 bytes after its last record"),
    "length_past_end": (lambda blob: seal(blob[:4], blob[4:len(blob) // 2]),
                        "truncated"),
}


@pytest.mark.parametrize("damage", DAMAGE)
@pytest.mark.parametrize("make", [_chart, _checkpoint],
                         ids=["chart", "checkpoint"])
def test_damaged_envelope_rejected(tmp_path, make, damage):
    blob, load = make(tmp_path)
    load(blob)                              # the undamaged file reads
    edit, message = DAMAGE[damage]
    with pytest.raises(DatasetFormatError, match=message):
        load(edit(blob))
