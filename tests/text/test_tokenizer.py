"""Tests for text normalisation and tokenisation."""

from repro.text.tokenizer import normalize, tokenize, tokenize_identifier


class TestNormalize:
    def test_lowercases_and_strips(self):
        assert normalize("  Sunita ") == "sunita"

    def test_idempotent(self):
        assert normalize(normalize("MoHaN")) == "mohan"


class TestTokenize:
    def test_simple_words(self):
        assert tokenize("Mining Surprising Patterns") == [
            "mining", "surprising", "patterns",
        ]

    def test_punctuation_splits(self):
        assert tokenize("query-optimization, 2nd ed.") == [
            "query", "optimization", "2nd", "ed",
        ]

    def test_camel_case_splits(self):
        assert "soumen" in tokenize("SoumenC")
        assert "chakrabarti" in tokenize("ChakrabartiSD98")

    def test_all_caps_kept_together(self):
        assert tokenize("DBLP") == ["dblp"]

    def test_capitalised_words_split_only_at_inner_boundaries(self):
        assert tokenize("Alice A1 McDonald iPhone AbC") == [
            "alice", "a1", "mc", "donald", "i", "phone", "ab", "c",
        ]

    def test_numbers_survive(self):
        assert "1988" in tokenize("published in 1988")

    def test_empty_string(self):
        assert tokenize("") == []

    def test_unicode_punctuation_dropped(self):
        assert tokenize("a—b") == ["a", "b"]


class TestTokenizeIdentifier:
    def test_underscores_split(self):
        assert tokenize_identifier("author_name") == ["author", "name"]

    def test_camel_case_identifiers(self):
        assert tokenize_identifier("PaperName") == ["paper", "name"]

    def test_table_name_matches_keyword(self):
        # The paper's example: keyword 'author' matches relation AUTHOR.
        assert "author" in tokenize_identifier("AUTHOR")
