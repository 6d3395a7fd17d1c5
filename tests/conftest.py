import pytest

from treesweep.forest import enumerate_trees


@pytest.fixture(scope="session")
def trees_up_to_8():
    return [t for n in range(1, 9) for t in enumerate_trees(n)]


@pytest.fixture
def cold_memos():
    """Empties the memos of `hd.merge_detailed`, `codec.encode`,
    `codec.decode` and `protocol.hop` (one per flag value) before the
    test; returns a function that empties them again."""
    import treesweep.codec as codec
    import treesweep.hd as hd
    import treesweep.protocol as protocol

    def clear():
        for memo in (hd._merge_memo, codec._encode_memo, codec.decode,
                     protocol._static_hop, protocol._replace_hop):
            memo.cache_clear()
    clear()
    return clear


@pytest.fixture
def record_frames(monkeypatch):
    """Call to start recording the frames a DynamicForest builds into a
    fresh dict: (entry, frame) per replace hop computed under "replace",
    the entry being the receiver's decode, equal to the merged descriptor;
    one frame per change-root notification walk under "notify"; a frame is
    its bit string.  A push that stops early computes its last hop without
    sending it."""
    import treesweep.codec as codec
    import treesweep.dynamic as dynamic
    real_hop = dynamic._hop

    def start():
        frames = {"replace": [], "notify": []}

        def hop(*args):
            wire, entry = real_hop(*args)
            frames["replace"].append((entry, wire))
            return wire, entry

        def notification(scheme):
            wire = codec.notification(scheme)
            frames["notify"].append(wire)
            return wire
        monkeypatch.setattr(dynamic, "_hop", hop)
        monkeypatch.setattr(dynamic, "notification", notification)
        return frames
    return start
