"""Every argv of tests/cli_corpus.json prints what it printed when the
corpus was written (tests/make_cli_corpus.py): the same stdout, stderr,
exit code and --json file, byte for byte, first on a cache miss and then
on a hit."""

import json

import pytest

import make_cli_corpus

with open(make_cli_corpus.CORPUS, encoding="utf-8") as handle:
    ENTRIES = json.load(handle)


def test_the_corpus_lists_the_generator_argv():
    assert [entry["argv"] for entry in ENTRIES] == list(
        make_cli_corpus.corpus_argv())


@pytest.mark.parametrize("entry", ENTRIES,
                         ids=[" ".join(entry["argv"]) for entry in ENTRIES])
def test_argv_prints_its_corpus_entry(entry, tmp_path):
    miss, hit = make_cli_corpus.miss_and_hit(entry["argv"], tmp_path)
    assert miss == entry
    assert hit == entry
