import pytest

from treesweep.forest import enumerate_trees


@pytest.fixture(scope="session")
def trees_up_to_8():
    return [t for n in range(1, 9) for t in enumerate_trees(n)]


@pytest.fixture
def cold_memos():
    """Empties the memos of `hd.merge_detailed`, `codec.encode`,
    `codec.decode` and `protocol.hop` before the test; returns a function
    that empties them again."""
    import treesweep.codec as codec
    import treesweep.hd as hd
    import treesweep.protocol as protocol

    def clear():
        for memo in (hd._merge_memo, codec._encode_memo, codec.decode,
                     protocol._hop_memo):
            memo.cache_clear()
    clear()
    return clear


@pytest.fixture
def record_frames(monkeypatch):
    """Call to start recording the messages a DynamicForest builds into a
    fresh dict: (entry, message) per replace hop computed under "replace",
    the entry being the receiver's decode, equal to the merged descriptor;
    one message per change-root notification walk under "notify".  A
    message is its bit string: the flag bit, 0 to replace an entry and 1
    to notify, then the codec frame, which a notification fills with the
    empty descriptor's.  A push that stops early computes its last hop
    without sending it."""
    import treesweep.codec as codec
    import treesweep.dynamic as dynamic
    real_hop = dynamic.hop

    def start():
        frames = {"replace": [], "notify": []}

        def hop(*args):
            wire, entry = real_hop(*args)
            frames["replace"].append((entry, "0" + wire))
            return wire, entry

        def empty_frame(scheme):
            wire = codec.empty_frame(scheme)
            frames["notify"].append("1" + wire)
            return wire
        monkeypatch.setattr(dynamic, "hop", hop)
        monkeypatch.setattr(dynamic, "empty_frame", empty_frame)
        return frames
    return start
