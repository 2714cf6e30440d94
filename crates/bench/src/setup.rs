//! Shared experiment setup: one world, one knowledge graph, and the datasets
//! at configurable scale.

use datagen::{build_kg, Dataset, KgConfig, World, WorldConfig};
use kg::KnowledgeGraph;
use tabular::DataFrame;

/// Experiment scale. `Quick` keeps every run in seconds (the default for the
/// binaries and Criterion benches); `Paper` uses row counts close to Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Small sizes for fast iteration and CI.
    Quick,
    /// Sizes close to the paper's Table 1.
    Paper,
}

impl Scale {
    /// Reads the scale from the `MESA_SCALE` environment variable
    /// (`quick` / `paper`), defaulting to `Quick`.
    pub fn from_env() -> Scale {
        match std::env::var("MESA_SCALE").as_deref() {
            Ok("paper") | Ok("PAPER") => Scale::Paper,
            _ => Scale::Quick,
        }
    }
}

/// Number of rows to generate for a dataset at a given scale.
pub fn scaled_rows(dataset: Dataset, scale: Scale) -> usize {
    match (dataset, scale) {
        (Dataset::Covid, _) => dataset.default_rows(),
        (_, Scale::Paper) => dataset.default_rows().min(1_000_000),
        (Dataset::StackOverflow, Scale::Quick) => 8_000,
        (Dataset::Flights, Scale::Quick) => 20_000,
        (Dataset::Forbes, Scale::Quick) => 1_647,
    }
}

/// The shared experiment fixture: world, knowledge graph, and one frame per
/// dataset.
pub struct ExperimentData {
    /// The ground-truth world.
    pub world: World,
    /// The synthetic DBpedia-like knowledge graph.
    pub graph: KnowledgeGraph,
    /// `(dataset, generated frame)` for all four datasets.
    pub frames: Vec<(Dataset, DataFrame)>,
    /// The scale the fixture was generated at.
    pub scale: Scale,
}

impl ExperimentData {
    /// Returns the frame for a dataset.
    pub fn frame(&self, dataset: Dataset) -> &DataFrame {
        &self
            .frames
            .iter()
            .find(|(d, _)| *d == dataset)
            .expect("all datasets generated")
            .1
    }
}

/// The world configuration every experiment uses.
pub fn experiment_world() -> WorldConfig {
    WorldConfig::default()
}

impl ExperimentData {
    /// Generates the full fixture at the given scale.
    pub fn generate(scale: Scale) -> ExperimentData {
        let world = World::generate(experiment_world());
        let graph = build_kg(&world, KgConfig::default());
        let frames = Dataset::all()
            .into_iter()
            .map(|d| {
                let rows = scaled_rows(d, scale);
                (
                    d,
                    d.generate(&world, rows, 1234).expect("generation succeeds"),
                )
            })
            .collect();
        ExperimentData {
            world,
            graph,
            frames,
            scale,
        }
    }
}

/// Prepares a workload query against the fixture (context + KG extraction +
/// binning) with MESA's default preparation settings.
///
/// This is the *cold* path: every call pays the full pipeline. Experiment
/// binaries that iterate a whole workload should go through
/// [`DatasetSessions`] instead, which shares the KG extraction across the
/// queries of each dataset.
pub fn prepare_workload(
    data: &ExperimentData,
    wq: &datagen::WorkloadQuery,
) -> mesa::Result<mesa::PreparedQuery> {
    let mesa = mesa::Mesa::new();
    mesa.prepare(
        data.frame(wq.dataset),
        &wq.query,
        Some(&data.graph),
        wq.dataset.extraction_columns(),
    )
}

/// One long-lived [`mesa::Session`] per dataset of the fixture — the shape a
/// traffic-serving deployment would hold, and what the experiment binaries
/// use to run a whole query workload without re-extracting the same
/// universal relation per query.
pub struct DatasetSessions<'a> {
    sessions: Vec<(Dataset, mesa::Session<'a>)>,
}

impl<'a> DatasetSessions<'a> {
    /// Sessions over every dataset of the fixture, under one configuration.
    pub fn with_config(data: &'a ExperimentData, config: mesa::MesaConfig) -> Self {
        let sessions = data
            .frames
            .iter()
            .map(|(dataset, frame)| {
                (
                    *dataset,
                    mesa::Session::new(
                        frame,
                        Some(&data.graph),
                        dataset.extraction_columns(),
                        config,
                    ),
                )
            })
            .collect();
        DatasetSessions { sessions }
    }

    /// Sessions with MESA's default configuration.
    pub fn new(data: &'a ExperimentData) -> Self {
        DatasetSessions::with_config(data, mesa::MesaConfig::default())
    }

    /// The session serving a dataset.
    pub fn session(&self, dataset: Dataset) -> &mesa::Session<'a> {
        &self
            .sessions
            .iter()
            .find(|(d, _)| *d == dataset)
            .expect("all datasets have sessions")
            .1
    }

    /// Prepares a workload query through its dataset's session, which
    /// serves the extraction from its cache and keeps no preparation.
    pub fn prepare(&self, wq: &datagen::WorkloadQuery) -> mesa::Result<mesa::PreparedQuery> {
        self.session(wq.dataset).prepare(&wq.query)
    }

    /// Explains a workload query through its dataset's session.
    pub fn explain(
        &self,
        wq: &datagen::WorkloadQuery,
    ) -> mesa::Result<std::sync::Arc<mesa::MesaReport>> {
        self.session(wq.dataset).explain(&wq.query)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_fixture_generates_all_datasets() {
        let data = ExperimentData::generate(Scale::Quick);
        assert_eq!(data.frames.len(), 4);
        assert_eq!(data.frame(Dataset::StackOverflow).n_rows(), 8_000);
        assert_eq!(
            data.frame(Dataset::Covid).n_rows(),
            data.world.countries.len()
        );
        assert!(data.graph.n_triples() > 1000);
        assert_eq!(data.scale, Scale::Quick);
    }

    #[test]
    fn scaled_rows_respects_dataset_and_scale() {
        assert_eq!(scaled_rows(Dataset::Covid, Scale::Paper), 188);
        assert_eq!(scaled_rows(Dataset::Forbes, Scale::Quick), 1_647);
        assert!(
            scaled_rows(Dataset::Flights, Scale::Paper)
                > scaled_rows(Dataset::Flights, Scale::Quick)
        );
    }

    #[test]
    fn scale_from_env_defaults_to_quick() {
        // The env var is not set in tests.
        assert_eq!(Scale::from_env(), Scale::Quick);
    }
}
