//! Seeded inputs: the synthetic world, its knowledge graph, the four
//! datasets, and each workload's request list.

use std::collections::HashSet;

use datagen::{build_kg, representative_queries, Dataset, KgConfig, World, WorldConfig};
use kg::KnowledgeGraph;
use mesa::{MesaConfig, Session};
use tabular::{AggregateQuery, DataFrame};

/// The benchmark seed that reproduces the repository's experiment fixture
/// (world seed 42, KG seed 7, dataset seed 1234).
pub const DEFAULT_SEED: u64 = 42;

/// Worlds a run cycles through. One generated world's queries can cost a
/// quarter more or less than another's; a run over several worlds averages
/// that out.
pub const WORLDS_PER_RUN: usize = 12;

/// The workloads. Both send Table 2's 14 representative queries, so the
/// difference between them is the session layer alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Each query once, in a transient session of its own, as one-shot
    /// `Mesa::explain` runs it.
    Cold14,
    /// One fresh `Session` per dataset per pass; each query issued three
    /// times in a seeded shuffled order.
    Stream,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::Cold14, Workload::Stream];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Cold14 => "cold14",
            Workload::Stream => "stream",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload is in the benchmark.
    pub fn why(self) -> &'static str {
        match self {
            Workload::Cold14 => {
                "Table 2's 14 queries, each in a one-shot session as Mesa::explain runs it: every request pays the full cold pipeline, where IPW and pruning dominate"
            }
            Workload::Stream => {
                "the same 14 queries, each sent 3 times in shuffled order to fresh per-dataset sessions: memo fills mix with memo hits, and queries share extractions"
            }
        }
    }
}

/// Dataset and world sizes. [`Sizes::QUICK`] is the repository's quick
/// experiment scale.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub countries: usize,
    pub cities: usize,
    pub airlines: usize,
    pub celebrities: usize,
    pub so_rows: usize,
    pub flights_rows: usize,
    pub forbes_rows: usize,
}

impl Sizes {
    pub const QUICK: Sizes = Sizes {
        countries: 188,
        cities: 120,
        airlines: 14,
        celebrities: 400,
        so_rows: 8_000,
        flights_rows: 20_000,
        forbes_rows: 1_647,
    };

    fn rows(&self, dataset: Dataset) -> usize {
        match dataset {
            Dataset::StackOverflow => self.so_rows,
            Dataset::Flights => self.flights_rows,
            Dataset::Forbes => self.forbes_rows,
            // One row per country; the generator ignores the count.
            Dataset::Covid => self.countries,
        }
    }
}

/// Every generator seed of one world, derived from the benchmark seed:
/// seed `n` shifts each default seed by `n - 42`, so the default reproduces
/// the fixture the experiment binaries use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Seeds {
    pub world: u64,
    pub kg: u64,
    pub datasets: u64,
}

impl Seeds {
    pub fn from_bench_seed(seed: u64) -> Seeds {
        let shift = seed.wrapping_sub(DEFAULT_SEED);
        Seeds {
            world: seed,
            kg: KgConfig::default().seed.wrapping_add(shift),
            datasets: 1234u64.wrapping_add(shift),
        }
    }
}

/// The worlds of a run with benchmark seed `seed`: the first is
/// [`Seeds::from_bench_seed`]`(seed)`, the others are spaced `2^32` seeds
/// apart so runs with nearby seeds share no world.
pub fn run_worlds(seed: u64) -> Vec<Seeds> {
    (0..WORLDS_PER_RUN as u64)
        .map(|i| Seeds::from_bench_seed(seed.wrapping_add(i << 32)))
        .collect()
}

/// One step of SplitMix64.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fisher–Yates shuffle driven by SplitMix64.
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed;
    for i in (1..items.len()).rev() {
        let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// The generated data every request runs against.
pub struct Fixture {
    pub graph: KnowledgeGraph,
    /// One frame per dataset, in [`Dataset::all`] order.
    pub frames: Vec<(Dataset, DataFrame)>,
}

impl Fixture {
    pub fn generate(seeds: Seeds, sizes: &Sizes) -> Fixture {
        let world = World::generate(WorldConfig {
            n_countries: sizes.countries,
            n_cities: sizes.cities,
            n_airlines: sizes.airlines,
            n_celebrities: sizes.celebrities,
            seed: seeds.world,
        });
        let graph = build_kg(
            &world,
            KgConfig {
                seed: seeds.kg,
                ..KgConfig::default()
            },
        );
        let frames = Dataset::all()
            .into_iter()
            .map(|d| {
                let frame = d
                    .generate(&world, sizes.rows(d), seeds.datasets)
                    .expect("generated datasets are well-formed");
                (d, frame)
            })
            .collect();
        Fixture { graph, frames }
    }

    /// Index of a dataset in [`Fixture::frames`].
    pub fn slot(&self, dataset: Dataset) -> usize {
        self.frames
            .iter()
            .position(|(d, _)| *d == dataset)
            .expect("every dataset is generated")
    }
}

/// One request: a query against one dataset's session.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    pub id: String,
    /// Index into [`Fixture::frames`].
    pub slot: usize,
    pub query: AggregateQuery,
}

/// Table 2's 14 representative queries against the fixture.
pub fn distinct_queries(fixture: &Fixture) -> Vec<Request> {
    representative_queries()
        .into_iter()
        .map(|wq| Request {
            slot: fixture.slot(wq.dataset),
            id: wq.id,
            query: wq.query,
        })
        .collect()
}

/// The request list of one pass.
pub fn requests(workload: Workload, distinct: &[Request], seeds: Seeds) -> Vec<Request> {
    match workload {
        Workload::Cold14 => distinct.to_vec(),
        Workload::Stream => {
            let mut out: Vec<Request> = distinct
                .iter()
                .flat_map(|r| std::iter::repeat_n(r.clone(), 3))
                .collect();
            shuffle(&mut out, seeds.world);
            out
        }
    }
}

/// One world's inputs: its fixture and the workload's requests over it.
pub struct Inputs {
    pub fixture: Fixture,
    /// Distinct queries, in first-issue order.
    pub distinct: Vec<Request>,
    /// The request list of one pass.
    pub requests: Vec<Request>,
    /// First contact (`true`) or repeat, per request of a pass.
    pub first: Vec<bool>,
}

impl Inputs {
    pub fn generate(workload: Workload, seeds: Seeds, sizes: &Sizes) -> Inputs {
        let fixture = Fixture::generate(seeds, sizes);
        let distinct = distinct_queries(&fixture);
        let requests = requests(workload, &distinct, seeds);
        let first = first_contact(&requests);
        Inputs {
            fixture,
            distinct,
            requests,
            first,
        }
    }

    pub fn frame(&self, slot: usize) -> &DataFrame {
        &self.fixture.frames[slot].1
    }

    pub fn columns(&self, slot: usize) -> &'static [&'static str] {
        self.fixture.frames[slot].0.extraction_columns()
    }

    /// A fresh session over one dataset.
    pub fn session(&self, slot: usize, config: MesaConfig) -> Session<'_> {
        Session::new(
            self.frame(slot),
            Some(&self.fixture.graph),
            self.columns(slot),
            config,
        )
    }
}

/// Marks each request as first contact (`true`) or repeat (`false`) for a
/// pass that starts from empty sessions: a request repeats when an earlier
/// request of the pass had the same dataset and query fingerprint.
pub fn first_contact(requests: &[Request]) -> Vec<bool> {
    let mut seen = HashSet::new();
    requests
        .iter()
        .map(|r| seen.insert((r.slot, r.query.fingerprint())))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tabular::Predicate;

    fn request(slot: usize, query: AggregateQuery) -> Request {
        Request {
            id: String::new(),
            slot,
            query,
        }
    }

    #[test]
    fn repeats_are_classified_by_dataset_and_fingerprint() {
        let base = AggregateQuery::avg("Country", "Salary");
        // Same fingerprint, built separately: a repeat.
        let same = AggregateQuery::avg("Country", "Salary");
        let europe = AggregateQuery::avg("Country", "Salary")
            .with_context(Predicate::eq("Continent", "Europe"));
        let reqs = [
            request(0, base.clone()),
            request(0, same),
            request(1, base.clone()),
            request(0, europe.clone()),
            request(0, europe),
            request(1, base),
        ];
        assert_eq!(
            first_contact(&reqs),
            [true, false, true, true, false, false]
        );
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..120).collect();
        let mut b = a.clone();
        shuffle(&mut a, 9);
        shuffle(&mut b, 9);
        assert_eq!(a, b);
        assert_ne!(a, (0..120).collect::<Vec<_>>());
        a.sort_unstable();
        assert_eq!(a, (0..120).collect::<Vec<_>>());
    }

    #[test]
    fn default_seed_reproduces_the_experiment_fixture() {
        let seeds = Seeds::from_bench_seed(DEFAULT_SEED);
        assert_eq!(seeds.world, WorldConfig::default().seed);
        assert_eq!(seeds.kg, KgConfig::default().seed);
        assert_eq!(seeds.datasets, 1234);
        assert_eq!(run_worlds(DEFAULT_SEED)[0], seeds);
    }

    #[test]
    fn the_same_seed_gives_the_same_requests() {
        let a = Inputs::generate(Workload::Stream, Seeds::from_bench_seed(3), &crate::TINY);
        let b = Inputs::generate(Workload::Stream, Seeds::from_bench_seed(3), &crate::TINY);
        assert_eq!(a.requests, b.requests);
        let c = Inputs::generate(Workload::Stream, Seeds::from_bench_seed(4), &crate::TINY);
        assert_ne!(a.requests, c.requests);
    }

    #[test]
    fn stream_issues_each_distinct_query_three_times() {
        let inputs = Inputs::generate(Workload::Stream, Seeds::from_bench_seed(5), &crate::TINY);
        assert_eq!(inputs.requests.len(), 3 * inputs.distinct.len());
        let firsts = inputs.first.iter().filter(|f| **f).count();
        let unique: HashSet<_> = inputs
            .distinct
            .iter()
            .map(|r| (r.slot, r.query.fingerprint()))
            .collect();
        assert_eq!(firsts, unique.len());
    }
}
