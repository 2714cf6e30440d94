//! End-to-end and stage-by-stage benchmark of the MESA explanation pipeline.
//!
//! ```text
//! cargo run --release --manifest-path mesabench/Cargo.toml -- \
//!     --workload cold14|stream --seed N --seconds S --trace 0|1
//! ```
//!
//! One client drives the public `mesa` API in a closed loop on the default
//! pool (one thread per core). Inputs are generated from `--seed`: a run
//! cycles through several generated worlds, setting each up anew on every
//! visit. On a world's first visit it checks that the batched and
//! warm-repeat reports of every distinct query are byte-identical; every
//! pass then checks its own reports against those. A run makes whole rounds
//! over the worlds, at least one: another round starts only if, taking as
//! long as the last, it would end within `--seconds` of the start.
//!
//! With `--trace 0` it reports the end-to-end metrics. With `--trace 1` it
//! alternates untraced passes with traced ones, which send every
//! first-contact request through the pipeline's public stage functions
//! under spans, and reports per-layer metrics; the spans are written to
//! `<target dir>/mesabench/`. The last line of standard output is a JSON
//! object with `correct`, `attempted`, `failed` and `metrics`.

mod fixture;
mod summary;
mod sys;
mod trace;

use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mesa::{report_summary, ExtractionCache, MesaConfig, MesaReport, Session, SessionLimits};

use fixture::{Inputs, Request, Seeds, Sizes, Workload};
use summary::{median, percentile, Fnv};
use trace::{Counts, Tracer};

#[cfg(test)]
const TINY: Sizes = Sizes {
    countries: 40,
    cities: 12,
    airlines: 4,
    celebrities: 60,
    so_rows: 600,
    flights_rows: 800,
    forbes_rows: 200,
};

/// Warm repeats of each distinct query in the output check. `cold14` has no
/// repeats of its own, so its `repeat_us_*` come from these.
const CHECK_REPEATS: usize = 4;
const CHECKED: &str = "a world is checked on its first visit";
const PEAK: &str = "the peak resident set is checked at start-up";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = fixture::DEFAULT_SEED;
    let mut seconds = 10;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?}; expected one of {names:?}")
                })?)
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?,
            "--trace" => {
                trace = match number()? {
                    0 => false,
                    1 => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Pins the pool to one thread per core, refusing to run when
/// `MESA_THREADS` would override that size.
fn configure_pool() -> Result<usize, String> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if let Ok(raw) = std::env::var("MESA_THREADS") {
        if raw.trim().parse::<usize>() != Ok(cores) {
            return Err(format!(
                "MESA_THREADS={raw:?} would override the pool size of {cores} (one thread \
                 per core) that results are comparable at; unset it"
            ));
        }
    }
    mesa::parallel::set_threads(cores);
    Ok(mesa::parallel::effective_threads())
}

/// Full-precision observable content of a report. Selection-bias entries
/// are sorted and their weights hashed, so equal reports render equally.
fn render(report: &MesaReport) -> String {
    let mut out = format!(
        "{}{:?}\n{:?}\n{:?}\n",
        report_summary(report),
        report.explanation,
        report.pruning,
        report.trace
    );
    let mut bias: Vec<_> = report.selection_bias.values().collect();
    bias.sort_by(|a, b| a.attribute.cmp(&b.attribute));
    for info in bias {
        let weights = info.weights.as_ref().map(|w| {
            let mut h = Fnv::default();
            for x in w {
                h.write(&x.to_bits().to_le_bytes());
            }
            h.finish()
        });
        out.push_str(&format!(
            "bias {} missing={:?} biased={} weights={weights:?}\n",
            info.attribute, info.missing_fraction, info.biased
        ));
    }
    out
}

type Key = (usize, String);

fn key(r: &Request) -> Key {
    (r.slot, r.query.fingerprint())
}

/// Per-pass totals of the sessions' cache counters.
#[derive(Debug, Clone, Copy, Default)]
struct CacheTotals {
    // [prepared, reports, extraction] × [hits, misses, evictions, resident_bytes]
    tiers: [[usize; 4]; 3],
}

impl CacheTotals {
    const TIERS: [&'static str; 3] = ["prepared", "reports", "extraction"];
    const FIELDS: [&'static str; 4] = ["hits", "misses", "evictions", "resident_bytes"];

    fn add(&mut self, session: &Session<'_>) {
        let stats = session.cache_stats();
        for (tier, s) in
            self.tiers
                .iter_mut()
                .zip([Some(stats.prepared), Some(stats.reports), stats.extraction])
        {
            if let Some(s) = s {
                for (slot, v) in
                    tier.iter_mut()
                        .zip([s.hits, s.misses, s.evictions, s.resident_bytes])
                {
                    *slot += v;
                }
            }
        }
    }
}

/// Requests and checks attempted, and how many failed.
#[derive(Debug, Default)]
struct Tally {
    attempted: usize,
    failed: usize,
}

impl Tally {
    /// Counts one request's outcome: an error, or a report whose rendering
    /// differs from the reference, fails it.
    fn check(
        &mut self,
        reference: &BTreeMap<Key, String>,
        key: &Key,
        what: &str,
        result: Result<&MesaReport, &mesa::MesaError>,
    ) {
        self.attempted += 1;
        let problem = match result {
            Err(e) => Some(format!("error: {e}")),
            Ok(report) => match reference.get(key) {
                Some(expected) if *expected == render(report) => None,
                Some(_) => Some("report differs from the batched report".to_string()),
                None => Some("no batched reference report".to_string()),
            },
        };
        if let Some(problem) = problem {
            self.failed += 1;
            eprintln!("check failed ({what}) for {key:?}: {problem}");
        }
    }
}

/// What one untraced pass measured.
struct Pass {
    wall: Duration,
    cpu: Duration,
    /// `(first contact?, latency)` per request, in request order.
    latencies: Vec<(bool, Duration)>,
    caches: CacheTotals,
    /// Peak resident set while the requests ran.
    peak_rss_mb: f64,
}

/// State kept across the world visits of a run.
struct Bench {
    workload: Workload,
    config: MesaConfig,
    sizes: Sizes,
    worlds: Vec<Seeds>,
    /// Rendered report per distinct query of each world, from the world's
    /// batched check.
    reference: Vec<Option<BTreeMap<Key, String>>>,
    /// Set-up time of every world visit, in seconds.
    setup_s: Vec<f64>,
    /// Warm-repeat latencies of the output checks, in microseconds.
    check_repeat_us: Vec<f64>,
    tally: Tally,
}

impl Bench {
    fn new(workload: Workload, seed: u64, sizes: Sizes) -> Bench {
        let worlds = fixture::run_worlds(seed);
        Bench {
            workload,
            config: MesaConfig::default(),
            sizes,
            reference: vec![None; worlds.len()],
            worlds,
            setup_s: Vec::new(),
            check_repeat_us: Vec::new(),
            tally: Tally::default(),
        }
    }

    /// Sets up world `w` — world, KG, datasets, request lists and sessions —
    /// timing it, and checks the world's outputs on its first visit.
    fn visit(&mut self, w: usize) -> Inputs {
        let t = Instant::now();
        let inputs = Inputs::generate(self.workload, self.worlds[w], &self.sizes);
        let sessions: Vec<Session<'_>> = (0..inputs.fixture.frames.len())
            .map(|slot| inputs.session(slot, self.config))
            .collect();
        std::hint::black_box(&sessions);
        drop(sessions);
        self.setup_s.push(t.elapsed().as_secs_f64());
        if self.reference[w].is_none() {
            self.batch_and_repeat_check(w, &inputs);
        }
        inputs
    }

    /// The output check: a fresh session per dataset explains the distinct
    /// queries with `explain_many`, which sets the reference reports; then
    /// every query is repeated [`CHECK_REPEATS`] times from the primed memo.
    fn batch_and_repeat_check(&mut self, w: usize, inputs: &Inputs) {
        let mut reference = BTreeMap::new();
        for slot in 0..inputs.fixture.frames.len() {
            let queries: Vec<&Request> =
                inputs.distinct.iter().filter(|r| r.slot == slot).collect();
            if queries.is_empty() {
                continue;
            }
            let session = inputs.session(slot, self.config);
            let batch: Vec<_> = queries.iter().map(|r| r.query.clone()).collect();
            for (r, result) in queries.iter().zip(session.explain_many(&batch)) {
                self.tally.attempted += 1;
                match result {
                    Ok(report) => {
                        reference.insert(key(r), render(&report));
                    }
                    Err(e) => {
                        self.tally.failed += 1;
                        eprintln!("check failed (explain_many) for {}: {e}", r.id);
                    }
                }
            }
            for _ in 0..CHECK_REPEATS {
                for r in &queries {
                    let t = Instant::now();
                    let result = session.explain(&r.query);
                    self.check_repeat_us.push(t.elapsed().as_secs_f64() * 1e6);
                    self.tally
                        .check(&reference, &key(r), "warm repeat", result.as_deref());
                }
            }
        }
        self.reference[w] = Some(reference);
    }

    /// One untraced pass over world `w`'s request list. `cold14` gives each
    /// request a transient session of its own, which is what one-shot
    /// `Mesa::explain` does, so that its cache counters can be read; `stream`
    /// keeps one session per dataset for the whole pass.
    fn untraced_pass(&mut self, w: usize, inputs: &Inputs) -> Pass {
        let mut latencies = Vec::with_capacity(inputs.requests.len());
        let mut totals = CacheTotals::default();
        let mut reports: Vec<mesa::Result<Arc<MesaReport>>> = Vec::new();
        sys::reset_peak_rss().expect(PEAK);
        let cpu0 = sys::cpu_time();
        let t0 = Instant::now();
        let sessions: Vec<Session<'_>> = match self.workload {
            Workload::Cold14 => Vec::new(),
            Workload::Stream => (0..inputs.fixture.frames.len())
                .map(|slot| inputs.session(slot, self.config))
                .collect(),
        };
        for (r, &first) in inputs.requests.iter().zip(&inputs.first) {
            let t = Instant::now();
            let result = match self.workload {
                Workload::Cold14 => {
                    let session = inputs.session(r.slot, self.config);
                    let result = session.explain(&r.query);
                    totals.add(&session);
                    result
                }
                Workload::Stream => sessions[r.slot].explain(&r.query),
            };
            latencies.push((first, t.elapsed()));
            reports.push(result);
        }
        sessions.iter().for_each(|s| totals.add(s));
        drop(sessions);
        let wall = t0.elapsed();
        let cpu = sys::cpu_time() - cpu0;
        let peak_rss_mb = sys::peak_rss_mb().expect(PEAK);
        let reference = self.reference[w].as_ref().expect(CHECKED);
        for ((r, &first), result) in inputs.requests.iter().zip(&inputs.first).zip(&reports) {
            let what = if first { "first contact" } else { "repeat" };
            self.tally
                .check(reference, &key(r), what, result.as_deref());
        }
        Pass {
            wall,
            cpu,
            latencies,
            caches: totals,
            peak_rss_mb,
        }
    }

    /// One traced pass over world `w`: first-contact requests run
    /// [`trace::traced_explain`] against per-pass extraction caches (a fresh
    /// one per request for `cold14`, as one-shot explains have); repeats are
    /// served from a map of the pass's traced reports. Returns the pass's
    /// wall time.
    fn traced_pass(
        &mut self,
        w: usize,
        inputs: &Inputs,
        tracer: &Tracer,
        next_request: &mut u64,
        counts: &mut Counts,
    ) -> Duration {
        let graph = &inputs.fixture.graph;
        let budget = SessionLimits::default().extraction;
        let mut caches: Vec<ExtractionCache<'_>> = (0..inputs.fixture.frames.len())
            .map(|_| ExtractionCache::with_budget(graph, budget))
            .collect();
        let mut memo: HashMap<Key, Arc<MesaReport>> = HashMap::new();
        let mut results: Vec<mesa::Result<Arc<MesaReport>>> = Vec::new();
        let t0 = Instant::now();
        for (r, &first) in inputs.requests.iter().zip(&inputs.first) {
            let k = key(r);
            if let Some(report) = memo.get(&k).filter(|_| !first) {
                results.push(Ok(report.clone()));
                continue;
            }
            if self.workload == Workload::Cold14 {
                caches[r.slot] = ExtractionCache::with_budget(graph, budget);
            }
            let result = trace::traced_explain(
                tracer,
                *next_request,
                inputs.frame(r.slot),
                &caches[r.slot],
                inputs.columns(r.slot),
                &r.query,
                &self.config,
                counts,
            )
            .map(Arc::new);
            *next_request += 1;
            if let Ok(report) = &result {
                memo.insert(k, report.clone());
            }
            results.push(result);
        }
        let wall = t0.elapsed();
        let reference = self.reference[w].as_ref().expect(CHECKED);
        for ((r, &first), result) in inputs.requests.iter().zip(&inputs.first).zip(&results) {
            let what = if first {
                "traced first contact"
            } else {
                "traced repeat"
            };
            self.tally
                .check(reference, &key(r), what, result.as_deref());
        }
        wall
    }

    /// Digest of every world's reference reports.
    fn digest(&self) -> u64 {
        let mut h = Fnv::default();
        for text in self.reference.iter().flatten().flat_map(|r| r.values()) {
            h.write(text.as_bytes());
        }
        h.finish()
    }
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    note: String,
}

fn metric(
    name: impl Into<String>,
    value: f64,
    unit: &'static str,
    note: impl Into<String>,
) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
        note: note.into(),
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Visits the worlds in turn, calling `pass` on each visit, in whole rounds:
/// at least one, and another only if, taking as long as the last, it would
/// end within `seconds` of the start. Every run of a seed thus covers the
/// same worlds equally often, whatever the host's speed.
fn rounds(bench: &mut Bench, seconds: u64, mut pass: impl FnMut(&mut Bench, usize, &Inputs)) {
    let limit = Duration::from_secs(seconds);
    let t0 = Instant::now();
    loop {
        let round = Instant::now();
        for w in 0..bench.worlds.len() {
            let inputs = bench.visit(w);
            pass(bench, w, &inputs);
        }
        if t0.elapsed() + round.elapsed() > limit {
            break;
        }
    }
}

/// The end-to-end run: one untraced pass per world visit. A round holds
/// [`fixture::WORLDS_PER_RUN`] × 14 first contacts, enough for a 90th
/// percentile.
fn run_end_to_end(bench: &mut Bench, seconds: u64) -> Vec<Metric> {
    let mut first_ms = Vec::new();
    let mut repeat_us = Vec::new();
    let mut passes = 0;
    let mut wall = Duration::ZERO;
    let mut cpu = Duration::ZERO;
    let mut requests = 0;
    let mut peak_rss_mb: f64 = 0.0;
    rounds(bench, seconds, |bench, w, inputs| {
        let pass = bench.untraced_pass(w, inputs);
        for (first, d) in &pass.latencies {
            if *first {
                first_ms.push(ms(*d));
            } else {
                repeat_us.push(d.as_secs_f64() * 1e6);
            }
        }
        passes += 1;
        wall += pass.wall;
        cpu += pass.cpu;
        requests += pass.latencies.len();
        peak_rss_mb = peak_rss_mb.max(pass.peak_rss_mb);
    });
    if bench.workload == Workload::Cold14 {
        repeat_us = bench.check_repeat_us.clone();
    }
    let mut out = vec![
        metric(
            "setup_s",
            median(&bench.setup_s).unwrap_or(0.0),
            "s",
            format!("median of {} set-ups", bench.setup_s.len()),
        ),
        metric(
            "queries_per_s",
            requests as f64 / wall.as_secs_f64(),
            "1/s",
            format!("{requests} requests in {passes} passes"),
        ),
    ];
    for (name, samples, pct, unit) in [
        ("first_ms_p50", &first_ms, 50, "ms"),
        ("first_ms_p90", &first_ms, 90, "ms"),
        ("repeat_us_p50", &repeat_us, 50, "us"),
        ("repeat_us_p90", &repeat_us, 90, "us"),
    ] {
        match percentile(samples, pct) {
            Some(v) => out.push(metric(name, v, unit, format!("n={}", samples.len()))),
            None => eprintln!("{name}: only {} samples, not reported", samples.len()),
        }
    }
    out.push(metric(
        "cpu_ms_per_query",
        ms(cpu) / requests.max(1) as f64,
        "ms",
        format!("user+sys over {requests} requests"),
    ));
    out.push(metric(
        "peak_rss_mb",
        peak_rss_mb,
        "MB",
        "highest over passes, each measured from its start",
    ));
    out
}

/// The traced run: on each world visit an untraced pass is followed by a
/// traced one; per-layer figures are medians over passes.
fn run_traced(bench: &mut Bench, seconds: u64, tracer: &Tracer) -> Vec<Metric> {
    let mut untraced_qps = Vec::new();
    let mut traced_qps = Vec::new();
    let mut first_contact_ms = Vec::new();
    let mut stage_sum_ms = Vec::new();
    let mut layer_ms: HashMap<&'static str, Vec<f64>> = HashMap::new();
    let mut caches = Vec::new();
    let mut counts = Vec::new();
    let mut next_request = 0;
    rounds(bench, seconds, |bench, w, inputs| {
        let pass = bench.untraced_pass(w, inputs);
        let n = pass.latencies.len() as f64;
        untraced_qps.push(n / pass.wall.as_secs_f64());
        first_contact_ms.push(
            pass.latencies
                .iter()
                .filter(|(first, _)| *first)
                .map(|(_, d)| ms(*d))
                .sum::<f64>(),
        );
        caches.push(pass.caches);

        let from = tracer.len();
        let mut c = Counts::default();
        let wall = bench.traced_pass(w, inputs, tracer, &mut next_request, &mut c);
        traced_qps.push(n / wall.as_secs_f64());
        counts.push(c);
        let own = tracer.self_times(from);
        let mut stages = 0.0;
        for name in trace::STAGES {
            let v = own.get(name).map_or(0.0, |d| ms(*d));
            stages += v;
            layer_ms.entry(name).or_default().push(v);
        }
        stage_sum_ms.push(stages);
    });
    let med = |v: &[f64]| median(v).unwrap_or(0.0);
    let passes = format!("median of {} traced passes", traced_qps.len());
    let mut out = Vec::new();
    for name in trace::STAGES {
        out.push(metric(
            format!("{name}.ms"),
            med(&layer_ms[name]),
            "ms",
            passes.clone(),
        ));
    }
    for (i, (name, _)) in Counts::default().named().into_iter().enumerate() {
        let values: Vec<f64> = counts.iter().map(|c| c.named()[i].1 as f64).collect();
        let unit = if name.ends_with("bytes") {
            "bytes"
        } else {
            "count"
        };
        out.push(metric(name, med(&values), unit, "median per pass"));
    }
    for (t, tier) in CacheTotals::TIERS.iter().enumerate() {
        for (f, field) in CacheTotals::FIELDS.iter().enumerate() {
            let values: Vec<f64> = caches.iter().map(|c| c.tiers[t][f] as f64).collect();
            let unit = if *field == "resident_bytes" {
                "bytes"
            } else {
                "count"
            };
            let name = format!("mesa.session.{tier}.{field}");
            out.push(metric(name, med(&values), unit, "median per pass"));
        }
    }
    let first = med(&first_contact_ms);
    let staged = med(&stage_sum_ms);
    let (untraced, traced) = (med(&untraced_qps), med(&traced_qps));
    out.extend([
        metric(
            "mesa.session.self_ms",
            first - staged,
            "ms",
            "untraced first-contact time minus traced stage time, per pass",
        ),
        metric(
            "trace.first_contact_ms",
            first,
            "ms",
            "untraced, median per pass",
        ),
        metric(
            "trace.stage_sum_ms",
            staged,
            "ms",
            "traced stage spans, median per pass",
        ),
        metric(
            "trace.untraced_queries_per_s",
            untraced,
            "1/s",
            passes.clone(),
        ),
        metric("trace.traced_queries_per_s", traced, "1/s", passes),
        metric(
            "trace.overhead_pct",
            (untraced / traced - 1.0) * 100.0,
            "%",
            "untraced over traced queries_per_s",
        ),
        metric(
            "parallel.threads",
            mesa::parallel::effective_threads() as f64,
            "count",
            "pool size in effect",
        ),
    ]);
    out
}

fn spans_path(workload: Workload, seed: u64) -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    target
        .join("mesabench")
        .join(format!("spans-{}-seed{seed}.jsonl", workload.name()))
}

fn main() {
    let preflight = || {
        let args = parse_args()?;
        let threads = configure_pool()?;
        sys::reset_peak_rss().map_err(|e| format!("cannot reset the peak resident set: {e}"))?;
        Ok::<_, String>((args, threads))
    };
    let (args, threads) = match preflight() {
        Ok(ok) => ok,
        Err(e) => {
            eprintln!("mesabench: {e}");
            std::process::exit(2);
        }
    };
    let mut bench = Bench::new(args.workload, args.seed, Sizes::QUICK);
    let tracer = Tracer::new();
    let metrics = if args.trace {
        run_traced(&mut bench, args.seconds, &tracer)
    } else {
        run_end_to_end(&mut bench, args.seconds)
    };

    let first = bench.worlds[0];
    println!(
        "workload  {}: {}",
        args.workload.name(),
        args.workload.why()
    );
    println!(
        "seed      {} ({} worlds; the first has world seed {}, KG seed {}, dataset seed {}); \
         {threads} pool threads",
        args.seed,
        bench.worlds.len(),
        first.world,
        first.kg,
        first.datasets,
    );
    println!(
        "digest    {:016x} over the reference reports",
        bench.digest()
    );
    for m in &metrics {
        println!("{:<36} {:>16.6} {:<6} {}", m.name, m.value, m.unit, m.note);
    }
    let Tally { attempted, failed } = bench.tally;
    println!(
        "failed_frac {:.6} ({failed} of {attempted} requests and checks)",
        failed as f64 / attempted.max(1) as f64,
    );
    if args.trace {
        let path = spans_path(args.workload, args.seed);
        match tracer.write_jsonl(&path) {
            Ok(()) => println!("spans     {} written to {}", tracer.len(), path.display()),
            Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
        }
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn first_world_digest(workload: Workload, seed: u64) -> u64 {
        let mut bench = Bench::new(workload, seed, TINY);
        bench.visit(0);
        assert_eq!(bench.tally.failed, 0, "{} seed {seed}", workload.name());
        bench.digest()
    }

    #[test]
    fn the_same_seed_gives_the_same_report_digest() {
        let a = first_world_digest(Workload::Stream, 11);
        assert_eq!(a, first_world_digest(Workload::Stream, 11));
        assert_ne!(a, first_world_digest(Workload::Stream, 12));
    }

    #[test]
    fn traced_reports_match_the_session_reports() {
        let mut bench = Bench::new(Workload::Stream, 11, TINY);
        let inputs = bench.visit(0);
        let tracer = Tracer::new();
        let mut counts = Counts::default();
        bench.traced_pass(0, &inputs, &tracer, &mut 0, &mut counts);
        assert_eq!(bench.tally.failed, 0);
        let firsts = inputs.first.iter().filter(|f| **f).count();
        assert_eq!(tracer.self_times(0).len(), trace::STAGES.len() + 1);
        assert!(counts.extract_lookups >= firsts);
    }
}
