"""Tests for the diagnosis-phrase consolidation table."""

import io

import pytest
from hypothesis import given
from hypothesis import strategies as st

from glsmooth.errors import DataError
from glsmooth.fileio import table_lines
from glsmooth.taxonomy import (
    DiseaseCategory,
    TaxonomyMap,
    default_taxonomy,
    load_taxonomy,
    normalize_phrase,
)


@pytest.fixture(scope="module")
def taxonomy():
    return default_taxonomy()


class TestNormalizePhrase:
    def test_case_and_padding(self):
        assert normalize_phrase("  Pleural  Effusion ") == "pleural effusion"

    def test_upper(self):
        assert normalize_phrase("GRANULOMA") == "granuloma"

    def test_empty(self):
        assert normalize_phrase("") == ""

    # Tabs, line breaks, '#', other whitespace, a byte-order mark, and a
    # character whose lowercase form is two characters.
    @given(st.text(st.sampled_from("a# \t\r\n\v\f\x1c\x85\u2028\u3000\ufeff\u0130")
                   | st.characters(exclude_categories=("Cs",))))
    def test_every_table_row_has_a_phrase(self, text):
        # So a phrase table needs no check for an empty first field.
        for _, line in table_lines(io.StringIO(text), "table"):
            assert normalize_phrase(line.split("\t")[0])


class TestMapDiagnosis:
    def test_consolidated_phrases(self, taxonomy):
        assert (
            taxonomy.map_diagnosis("enlargement of the cardiac silhouette")
            == DiseaseCategory.CARDIOMEGALY
        )
        assert taxonomy.map_diagnosis("granuloma") == DiseaseCategory.NODULE
        assert taxonomy.map_diagnosis("pneumomediastinum") == DiseaseCategory.PNEUMOTHORAX
        assert taxonomy.map_diagnosis("hypoxemia") == DiseaseCategory.EDEMA

    def test_unknown_phrase_maps_to_none(self, taxonomy):
        assert taxonomy.map_diagnosis("common cold") is None

    def test_normalization_applied(self, taxonomy):
        assert taxonomy.map_diagnosis("  Pleural   EFFUSION ") == DiseaseCategory.EFFUSION


class TestVocabulary:
    def test_longest_first(self, taxonomy):
        vocab = taxonomy.vocabulary()
        lengths = [len(p) for p in vocab]
        assert lengths == sorted(lengths, reverse=True)

    def test_contains_multiword_phrases(self, taxonomy):
        vocab = taxonomy.vocabulary()
        assert "blunting of the costophrenic angle" in vocab
        assert "hypoxemia" in vocab

    def test_stored_keys_are_normalized(self, taxonomy):
        for phrase, _ in taxonomy.items():
            assert normalize_phrase(phrase) == phrase
            assert taxonomy.map_diagnosis(phrase) is not None

    @pytest.mark.parametrize("phrase", [" pneumonia", "Pneumonia", "pleural  effusion", ""])
    def test_unnormalized_keys_rejected(self, phrase):
        # A key the parser can find but map_diagnosis would not map back.
        with pytest.raises(ValueError, match="normalized"):
            TaxonomyMap({phrase: DiseaseCategory.PNEUMONIA})

    def test_all_categories_reachable(self, taxonomy):
        reached = {category for _, category in taxonomy.items()}
        assert reached == set(DiseaseCategory)


class TestLoadTaxonomy:
    def test_unknown_category_rejected(self):
        with pytest.raises(DataError, match="line 1"):
            load_taxonomy("sniffles\tCommonCold\n")

    def test_duplicate_phrase_rejected(self):
        text = "pneumonia\tPneumonia\npneumonia\tEdema\n"
        with pytest.raises(DataError, match="duplicate"):
            load_taxonomy(text)

    @pytest.mark.parametrize("repeat", ["pleural effusion", "Pleural  Effusion"])
    def test_duplicate_phrase_names_both_lines(self, repeat):
        text = f"# header\npleural effusion\tEffusion\n\n{repeat}\tEdema\n"
        with pytest.raises(DataError) as info:
            load_taxonomy(text)
        assert str(info.value) == "taxonomy line 4: duplicate phrase 'pleural effusion' (line 2)"

    def test_wrong_column_count(self):
        with pytest.raises(DataError, match="2 tab-separated"):
            load_taxonomy("pneumonia\n")

    def test_byte_order_mark_is_not_part_of_the_first_phrase(self, tmp_path):
        path = tmp_path / "taxonomy.tsv"
        path.write_text("pneumonia\tPneumonia\nedema\tEdema\n", encoding="utf-8-sig")
        assert load_taxonomy(path).map_diagnosis("pneumonia") == DiseaseCategory.PNEUMONIA

    def test_user_extension(self):
        extended = load_taxonomy(
            "pneumonia\tPneumonia\nrib fracture\tFracture\n"
        )
        assert extended.map_diagnosis("rib fracture") == DiseaseCategory.FRACTURE
