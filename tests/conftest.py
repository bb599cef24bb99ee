from collections import Counter

import pytest

from padichyper.hyper import GProfile


@pytest.fixture
def qg_tables(monkeypatch):
    """(reads, builds): Counters of the reads of ``GProfile.qg_table`` and of
    the tables built, per (params, model).  A data descriptor in front of the
    cached property sees every read, also of a table its profile holds."""
    cached = GProfile.__dict__["qg_table"]
    reads, builds = Counter(), Counter()

    def read(prof):
        key = prof.params, prof.model
        reads[key] += 1
        builds[key] += "qg_table" not in vars(prof)
        return cached.__get__(prof, GProfile)

    monkeypatch.setattr(GProfile, "qg_table", property(read))
    return reads, builds
