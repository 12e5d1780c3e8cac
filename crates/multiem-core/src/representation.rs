//! Enhanced Entity Representation (Section III-B, Algorithm 1).
//!
//! Two pieces live here:
//!
//! * [`select_attributes`] — the automated attribute-selection algorithm:
//!   shuffle one attribute's values across a sample of entities, re-embed, and
//!   measure how much the embeddings move. Attributes whose shuffling barely
//!   moves the embeddings (mean cosine similarity above `γ`) carry little
//!   signal for the encoder — opaque ids, track numbers, low-cardinality flags
//!   — and are discarded.
//! * [`EmbeddingStore`] — serializes every entity of the dataset using the
//!   selected attributes and encodes it, keeping one embedding matrix per
//!   source table with `EntityId`-based lookup.

use crate::config::MultiEmConfig;
use crate::error::MultiEmError;
use crate::Result;
use multiem_embed::{cosine_similarity, EmbeddingModel, Matrix};
use multiem_table::{serialize_record_projected, AttrId, Dataset, EntityId, Record};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Significance measurement of one attribute.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AttributeSignificance {
    /// Attribute index in the schema.
    pub attr: AttrId,
    /// Attribute name.
    pub name: String,
    /// Mean cosine similarity between original and shuffled embeddings
    /// (lower = the attribute matters more).
    pub mean_similarity: f64,
    /// Whether the attribute was selected.
    pub selected: bool,
}

/// The outcome of Algorithm 1.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AttributeSelection {
    /// Per-attribute measurements, in schema order.
    pub scores: Vec<AttributeSignificance>,
    /// Indices of the selected attributes, in schema order.
    pub selected: Vec<AttrId>,
}

impl AttributeSelection {
    /// Names of the selected attributes.
    pub fn selected_names(&self) -> Vec<&str> {
        self.scores
            .iter()
            .filter(|s| s.selected)
            .map(|s| s.name.as_str())
            .collect()
    }

    /// A selection that keeps every attribute (used by the `w/o EER` ablation).
    pub fn all_attributes(dataset: &Dataset) -> Self {
        let scores = dataset
            .schema()
            .names()
            .enumerate()
            .map(|(i, name)| AttributeSignificance {
                attr: i,
                name: name.to_string(),
                mean_similarity: 0.0,
                selected: true,
            })
            .collect::<Vec<_>>();
        let selected = (0..dataset.schema().len()).collect();
        Self { scores, selected }
    }
}

/// Run the automated attribute selection (Algorithm 1).
///
/// * `sample_ratio` is the paper's `r`: the fraction of (concatenated) entities
///   used to estimate significance scores.
/// * `gamma` is the paper's `γ`: an attribute is **selected** when the mean
///   cosine similarity between the original and attribute-shuffled embeddings
///   is `≤ γ` — i.e. shuffling the attribute visibly changes the embedding, as
///   in Example 1 of the paper (replacing `album` moved similarity to 0.79
///   while replacing `id` only moved it to 0.91).
///
/// If every attribute would be rejected, the single most significant attribute
/// is kept so the pipeline always has something to embed.
pub fn select_attributes(
    dataset: &Dataset,
    encoder: &dyn EmbeddingModel,
    config: &MultiEmConfig,
) -> Result<AttributeSelection> {
    let schema = dataset.schema();
    if schema.is_empty() {
        return Err(MultiEmError::InvalidConfig(
            "dataset schema has no attributes".into(),
        ));
    }
    let all: Vec<(EntityId, &Record)> = dataset.concat();
    if all.is_empty() {
        return Err(MultiEmError::EmptyDataset);
    }

    // Sample `r * |E|` entities (at least 2, at most all).
    let mut rng = ChaCha8Rng::seed_from_u64(config.merge_seed ^ 0x5EED_A771);
    let mut indices: Vec<usize> = (0..all.len()).collect();
    indices.shuffle(&mut rng);
    let sample_size = ((all.len() as f64 * config.sample_ratio).ceil() as usize)
        .clamp(2.min(all.len()), all.len());
    indices.truncate(sample_size);
    let sample: Vec<&Record> = indices.iter().map(|&i| all[i].1).collect();

    let all_attrs: Vec<AttrId> = (0..schema.len()).collect();
    // Original embeddings of the sample (all attributes).
    let original_texts: Vec<String> = sample
        .iter()
        .map(|r| serialize_record_projected(r, &all_attrs, &config.serialize))
        .collect();
    let original = encoder.encode_batch(&original_texts);

    let mut scores = Vec::with_capacity(schema.len());
    for attr in 0..schema.len() {
        // Shuffle this attribute's values across the sample.
        let mut values: Vec<&multiem_table::Value> = sample
            .iter()
            .map(|r| r.value(attr).expect("attr within schema"))
            .collect();
        values.shuffle(&mut rng);

        let shuffled_texts: Vec<String> = sample
            .iter()
            .zip(&values)
            .map(|(r, v)| {
                let mut clone = (*r).clone();
                clone.set_value(attr, (*v).clone());
                serialize_record_projected(&clone, &all_attrs, &config.serialize)
            })
            .collect();
        let shuffled = encoder.encode_batch(&shuffled_texts);

        let mut total = 0.0f64;
        for i in 0..original.len() {
            total += f64::from(cosine_similarity(original.row(i), shuffled.row(i)));
        }
        let mean_similarity = if original.is_empty() {
            1.0
        } else {
            total / original.len() as f64
        };
        scores.push(AttributeSignificance {
            attr,
            name: schema.name(attr).unwrap_or("").to_string(),
            mean_similarity,
            selected: mean_similarity <= config.gamma,
        });
    }

    // Guarantee at least one selected attribute.
    if scores.iter().all(|s| !s.selected) {
        if let Some(best) = scores
            .iter_mut()
            .min_by(|a, b| a.mean_similarity.total_cmp(&b.mean_similarity))
        {
            best.selected = true;
        }
    }

    let selected = scores
        .iter()
        .filter(|s| s.selected)
        .map(|s| s.attr)
        .collect();
    Ok(AttributeSelection { scores, selected })
}

/// Embeddings of every entity in the dataset, organised per source table.
///
/// Besides the batch [`EmbeddingStore::build`] constructor, the store can be
/// grown incrementally ([`EmbeddingStore::add_source`] /
/// [`EmbeddingStore::push`]), which is how the streaming entity store of
/// `multiem-online` keeps `EntityId`-based lookups working for records that
/// arrive after bootstrap.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EmbeddingStore {
    dim: usize,
    per_source: Vec<Matrix>,
}

impl EmbeddingStore {
    /// Create an empty store for embeddings of the given dimensionality.
    pub fn empty(dim: usize) -> Self {
        Self {
            dim,
            per_source: Vec::new(),
        }
    }

    /// Append a new (initially empty) source table, returning its source id.
    pub fn add_source(&mut self) -> u32 {
        self.per_source.push(Matrix::new(self.dim));
        (self.per_source.len() - 1) as u32
    }

    /// Append one entity embedding to a source, returning the [`EntityId`]
    /// under which it is retrievable.
    ///
    /// # Panics
    /// Panics if the source does not exist or the embedding has the wrong
    /// dimensionality.
    pub fn push(&mut self, source: u32, embedding: &[f32]) -> EntityId {
        let matrix = &mut self.per_source[source as usize];
        matrix.push_row(embedding);
        EntityId::new(source, (matrix.len() - 1) as u32)
    }
    /// Serialize (using `selected` attributes) and encode every entity of the
    /// dataset. Encoding is parallel across source tables.
    pub fn build(
        dataset: &Dataset,
        encoder: &dyn EmbeddingModel,
        selected: &[AttrId],
        config: &MultiEmConfig,
    ) -> Self {
        let per_source: Vec<Matrix> = dataset
            .tables()
            .par_iter()
            .map(|table| {
                let texts: Vec<String> = table
                    .records()
                    .iter()
                    .map(|r| serialize_record_projected(r, selected, &config.serialize))
                    .collect();
                encoder.encode_batch(&texts)
            })
            .collect();
        Self {
            dim: encoder.dim(),
            per_source,
        }
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of source tables covered.
    pub fn num_sources(&self) -> usize {
        self.per_source.len()
    }

    /// Number of embeddings stored for one source.
    pub fn source_len(&self, source: u32) -> usize {
        self.per_source
            .get(source as usize)
            .map(Matrix::len)
            .unwrap_or(0)
    }

    /// Borrow the embedding of an entity.
    ///
    /// # Panics
    /// Panics if the entity id is out of range for the store.
    pub fn embedding(&self, id: EntityId) -> &[f32] {
        self.per_source[id.source as usize].row(id.row as usize)
    }

    /// The embedding matrix of one source table.
    pub fn source_matrix(&self, source: u32) -> &Matrix {
        &self.per_source[source as usize]
    }

    /// Total accounted bytes across all matrices.
    pub fn approx_bytes(&self) -> usize {
        self.per_source.iter().map(Matrix::approx_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use multiem_datagen::{
        benchmark_dataset, CorruptionConfig, Corruptor, Domain, GeneratorConfig,
        MultiSourceGenerator,
    };
    use multiem_embed::HashedLexicalEncoder;

    fn music_dataset() -> Dataset {
        let factory = Domain::Music.factory();
        let corruptor = Corruptor::new(CorruptionConfig::light());
        let cfg = GeneratorConfig {
            name: "music-eer".into(),
            num_sources: 4,
            num_tuples: 80,
            num_singletons: 20,
            min_tuple_size: 2,
            max_tuple_size: 4,
            seed: 5,
        };
        MultiSourceGenerator::new(cfg).generate(factory.as_ref(), &corruptor)
    }

    #[test]
    fn selects_informative_music_attributes_and_drops_id() {
        let ds = music_dataset();
        let encoder = HashedLexicalEncoder::default();
        let config = MultiEmConfig {
            sample_ratio: 0.5,
            gamma: 0.9,
            ..MultiEmConfig::default()
        };
        let selection = select_attributes(&ds, &encoder, &config).unwrap();
        let names = selection.selected_names();
        // Table VII: title, artist, album are the expert-chosen attributes.
        assert!(names.contains(&"title"), "selected: {names:?}");
        assert!(names.contains(&"artist"), "selected: {names:?}");
        // The opaque per-source id and the track number must be rejected.
        assert!(!names.contains(&"id"), "selected: {names:?}");
        assert!(!names.contains(&"number"), "selected: {names:?}");
        // Scores are reported for every attribute.
        assert_eq!(selection.scores.len(), ds.schema().len());
    }

    #[test]
    fn significant_attributes_have_lower_similarity() {
        let ds = music_dataset();
        let encoder = HashedLexicalEncoder::default();
        let config = MultiEmConfig {
            sample_ratio: 0.5,
            ..MultiEmConfig::default()
        };
        let selection = select_attributes(&ds, &encoder, &config).unwrap();
        let sim_of = |name: &str| {
            selection
                .scores
                .iter()
                .find(|s| s.name == name)
                .map(|s| s.mean_similarity)
                .unwrap()
        };
        assert!(sim_of("title") < sim_of("id"));
        assert!(sim_of("artist") < sim_of("number"));
    }

    #[test]
    fn at_least_one_attribute_is_always_selected() {
        let ds = music_dataset();
        let encoder = HashedLexicalEncoder::default();
        // gamma = 0 would normally reject everything.
        let config = MultiEmConfig {
            gamma: 0.0,
            sample_ratio: 0.3,
            ..MultiEmConfig::default()
        };
        let selection = select_attributes(&ds, &encoder, &config).unwrap();
        assert_eq!(selection.selected.len(), 1);
    }

    #[test]
    fn single_attribute_dataset_keeps_it() {
        let bd = benchmark_dataset("shopee", 0.01).unwrap();
        let encoder = HashedLexicalEncoder::default();
        let config = MultiEmConfig {
            sample_ratio: 0.5,
            ..MultiEmConfig::default()
        };
        let selection = select_attributes(&bd.dataset, &encoder, &config).unwrap();
        assert_eq!(selection.selected_names(), vec!["title"]);
    }

    #[test]
    fn all_attributes_helper_selects_everything() {
        let ds = music_dataset();
        let sel = AttributeSelection::all_attributes(&ds);
        assert_eq!(sel.selected.len(), ds.schema().len());
        assert!(sel.scores.iter().all(|s| s.selected));
    }

    #[test]
    fn embedding_store_lookup_matches_direct_encoding() {
        let ds = music_dataset();
        let encoder = HashedLexicalEncoder::default();
        let config = MultiEmConfig::default();
        let selected: Vec<AttrId> = vec![2, 4, 5]; // title, artist, album
        let store = EmbeddingStore::build(&ds, &encoder, &selected, &config);
        assert_eq!(store.num_sources(), ds.num_sources());
        assert_eq!(store.dim(), encoder.dim());

        let id = ds.entity_ids().nth(7).unwrap();
        let record = ds.record(id).unwrap();
        let text = serialize_record_projected(record, &selected, &config.serialize);
        let direct = encoder.encode(&text);
        assert_eq!(store.embedding(id), direct.as_slice());
        assert!(store.approx_bytes() > 0);
        assert_eq!(store.source_len(0), ds.table(0).unwrap().len());
    }

    #[test]
    fn empty_dataset_is_rejected() {
        let schema = multiem_table::Schema::new(["a"]).shared();
        let ds = Dataset::new("empty", schema);
        let encoder = HashedLexicalEncoder::default();
        let err = select_attributes(&ds, &encoder, &MultiEmConfig::default());
        assert!(err.is_err());
    }
}
