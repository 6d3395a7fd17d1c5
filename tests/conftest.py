import pytest

from treesweep.forest import enumerate_trees


@pytest.fixture(scope="session")
def trees_up_to_8():
    return [t for n in range(1, 9) for t in enumerate_trees(n)]


@pytest.fixture
def cold_memos():
    """Empties the memos of `hd.merge_detailed`, `codec.encode` and
    `codec.decode_bits` before the test; returns a function that empties
    them again."""
    import treesweep.codec as codec
    import treesweep.hd as hd

    def clear():
        for memo in (hd._merge_memo, codec._encode_memo, codec._decode_memo):
            memo.cache_clear()
    clear()
    return clear


@pytest.fixture
def record_frames(monkeypatch):
    """Call to start recording the frames a DynamicForest builds into a
    fresh dict: (hd, wire) per replace-entry encode under "replace", one
    wire per change-root notification walk under "notify"."""
    import treesweep.codec as codec
    import treesweep.dynamic as dynamic

    def start():
        frames = {"replace": [], "notify": []}

        def encode(hd, *args, **kwargs):
            wire = codec.encode(hd, *args, **kwargs)
            frames["replace"].append((hd, wire))
            return wire

        def notification(scheme):
            wire = codec.notification(scheme)
            frames["notify"].append(wire)
            return wire
        monkeypatch.setattr(dynamic, "encode", encode)
        monkeypatch.setattr(dynamic, "notification", notification)
        return frames
    return start
