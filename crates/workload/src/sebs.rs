//! The SeBS function catalogue.
//!
//! The paper evaluates with the SeBS serverless benchmark suite (Copik et
//! al., Middleware 2021), using all functions except the Node.js variants and
//! the network micro-benchmarks — eleven functions in total. Table I of the
//! paper publishes the client-side response-time quantiles of each function
//! measured on an idle node, *including* about 10 ms of Kafka/controller
//! overhead.
//!
//! From those published numbers we derive each function's *processing-time*
//! distribution: subtract the constant network overhead from the quantiles
//! and fit a log-normal (see `faas_simcore::dist`). The 11 medians average
//! ~1.042 s, which is exactly the figure the paper uses to convert intensity
//! into CPU utilization (§V-B), so scenario arithmetic carries over.

use faas_simcore::dist::LogNormal;
use faas_simcore::time::SimDuration;
use serde::{Deserialize, Serialize};

/// Round-trip client-to-container network/queueing overhead baked into the
/// Table I measurements ("The measurements include ca. 10 ms Kafka
/// overhead").
pub const NETWORK_OVERHEAD_MS: f64 = 10.0;

/// Index of a function in the [`Catalogue`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct FuncId(pub u16);

impl FuncId {
    /// Usable as an array index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Whether a function mostly burns CPU or mostly waits on I/O.
///
/// §IV-A: "As in the SeBS benchmark we find both CPU- and I/O-intensive
/// functions, we will verify the impact of that experimentally." The class
/// determines how much of the processing time contends for CPU under the
/// baseline's shared-core regime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum IntensityClass {
    /// Dominated by computation; slows down proportionally under CPU sharing.
    Cpu,
    /// Dominated by I/O, network or sleep; nearly immune to CPU contention.
    Io,
    /// A significant mix of both.
    Mixed,
}

/// Static description of one benchmark function.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FunctionSpec {
    /// SeBS benchmark name.
    pub name: &'static str,
    /// 5th percentile of the idle-system client response time, milliseconds
    /// (Table I).
    pub client_p5_ms: f64,
    /// Median idle-system client response time, milliseconds (Table I).
    /// This is the denominator the paper uses for stretch.
    pub client_median_ms: f64,
    /// 95th percentile of the idle-system client response time, milliseconds
    /// (Table I).
    pub client_p95_ms: f64,
    /// Fraction of the processing time that is CPU work (the rest is I/O
    /// wall time that does not contend for cores).
    pub cpu_fraction: f64,
    /// Container memory limit, MiB (OpenWhisk default allocation).
    pub memory_mb: u32,
    /// Intensity class, for reporting.
    pub class: IntensityClass,
}

impl FunctionSpec {
    /// Median *processing* time (client median minus network overhead),
    /// floored at 1 ms — the graph functions complete in about 2 ms of real
    /// work.
    pub fn processing_median_ms(&self) -> f64 {
        (self.client_median_ms - NETWORK_OVERHEAD_MS).max(1.0)
    }

    /// Log-normal processing-time distribution, seconds, fitted to the
    /// Table I quantiles after removing the constant network overhead.
    pub fn service_dist(&self) -> LogNormal {
        let p5 = (self.client_p5_ms - NETWORK_OVERHEAD_MS).max(0.5) / 1000.0;
        let med = self.processing_median_ms() / 1000.0;
        let p95 = ((self.client_p95_ms - NETWORK_OVERHEAD_MS).max(1.0) / 1000.0).max(med);
        let p5 = p5.min(med);
        LogNormal::from_quantile_triple(p5, med, p95)
    }

    /// The stretch denominator the paper uses: the median idle-system
    /// *client* response time (§V-A; this is why stretch can be below 1).
    pub fn stretch_reference(&self) -> SimDuration {
        SimDuration::from_secs_f64(self.client_median_ms / 1000.0)
    }
}

/// The set of functions deployed on the node.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Catalogue {
    functions: Vec<FunctionSpec>,
}

impl Catalogue {
    /// The eleven SeBS functions of Table I.
    pub fn sebs() -> Catalogue {
        // Quantiles straight from Table I (ms). CPU fractions follow the
        // nature of each benchmark: dna-visualisation/compression/
        // video-processing/graph-* are computational; sleep is pure wait;
        // uploader and thumbnailer move bytes to/from object storage;
        // image-recognition mixes model I/O with inference.
        let functions = vec![
            FunctionSpec {
                name: "dna-visualisation",
                client_p5_ms: 8415.0,
                client_median_ms: 8552.0,
                client_p95_ms: 8847.0,
                cpu_fraction: 0.95,
                memory_mb: 256,
                class: IntensityClass::Cpu,
            },
            FunctionSpec {
                name: "sleep",
                client_p5_ms: 1020.0,
                client_median_ms: 1022.0,
                client_p95_ms: 1026.0,
                cpu_fraction: 0.02,
                memory_mb: 256,
                class: IntensityClass::Io,
            },
            FunctionSpec {
                name: "compression",
                client_p5_ms: 793.0,
                client_median_ms: 807.0,
                client_p95_ms: 832.0,
                cpu_fraction: 0.90,
                memory_mb: 256,
                class: IntensityClass::Cpu,
            },
            FunctionSpec {
                name: "video-processing",
                client_p5_ms: 586.0,
                client_median_ms: 593.0,
                client_p95_ms: 605.0,
                cpu_fraction: 0.90,
                memory_mb: 256,
                class: IntensityClass::Cpu,
            },
            FunctionSpec {
                name: "uploader",
                client_p5_ms: 184.0,
                client_median_ms: 192.0,
                client_p95_ms: 405.0,
                cpu_fraction: 0.25,
                memory_mb: 256,
                class: IntensityClass::Io,
            },
            FunctionSpec {
                name: "image-recognition",
                client_p5_ms: 117.0,
                client_median_ms: 121.0,
                client_p95_ms: 237.0,
                cpu_fraction: 0.70,
                memory_mb: 256,
                class: IntensityClass::Mixed,
            },
            FunctionSpec {
                name: "thumbnailer",
                client_p5_ms: 112.0,
                client_median_ms: 118.0,
                client_p95_ms: 124.0,
                cpu_fraction: 0.50,
                memory_mb: 256,
                class: IntensityClass::Mixed,
            },
            FunctionSpec {
                name: "dynamic-html",
                client_p5_ms: 18.0,
                client_median_ms: 19.0,
                client_p95_ms: 22.0,
                cpu_fraction: 0.80,
                memory_mb: 256,
                class: IntensityClass::Cpu,
            },
            FunctionSpec {
                name: "graph-pagerank",
                client_p5_ms: 11.0,
                client_median_ms: 12.0,
                client_p95_ms: 15.0,
                cpu_fraction: 0.85,
                memory_mb: 256,
                class: IntensityClass::Cpu,
            },
            FunctionSpec {
                name: "graph-bfs",
                client_p5_ms: 11.0,
                client_median_ms: 12.0,
                client_p95_ms: 13.0,
                cpu_fraction: 0.85,
                memory_mb: 256,
                class: IntensityClass::Cpu,
            },
            FunctionSpec {
                name: "graph-mst",
                client_p5_ms: 11.0,
                client_median_ms: 12.0,
                client_p95_ms: 13.0,
                cpu_fraction: 0.85,
                memory_mb: 256,
                class: IntensityClass::Cpu,
            },
        ];
        Catalogue { functions }
    }

    /// Build a catalogue from an explicit function list (used by tests and
    /// ablation experiments).
    pub fn from_functions(functions: Vec<FunctionSpec>) -> Catalogue {
        assert!(!functions.is_empty(), "catalogue must not be empty");
        Catalogue { functions }
    }

    /// Number of functions (the paper's `n_f`).
    pub fn len(&self) -> usize {
        self.functions.len()
    }

    /// True if the catalogue is empty (never for the built-in SeBS set).
    pub fn is_empty(&self) -> bool {
        self.functions.is_empty()
    }

    /// Look up a function by id.
    pub fn spec(&self, id: FuncId) -> &FunctionSpec {
        &self.functions[id.index()]
    }

    /// Iterate `(id, spec)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (FuncId, &FunctionSpec)> {
        self.functions
            .iter()
            .enumerate()
            .map(|(i, f)| (FuncId(i as u16), f))
    }

    /// All function ids.
    pub fn ids(&self) -> impl Iterator<Item = FuncId> + '_ {
        (0..self.functions.len()).map(|i| FuncId(i as u16))
    }

    /// Find a function by name.
    pub fn by_name(&self, name: &str) -> Option<FuncId> {
        self.functions
            .iter()
            .position(|f| f.name == name)
            .map(|i| FuncId(i as u16))
    }

    /// Mean of the client-side median response times across functions,
    /// seconds. The paper quotes ~1.042 s for the SeBS set and uses it to
    /// translate intensity into utilization (§V-B).
    #[cfg(test)]
    pub fn mean_of_client_medians_secs(&self) -> f64 {
        let sum: f64 = self.functions.iter().map(|f| f.client_median_ms).sum();
        sum / self.functions.len() as f64 / 1000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faas_simcore::rng::Xoshiro256;

    #[test]
    fn catalogue_has_eleven_functions() {
        let cat = Catalogue::sebs();
        assert_eq!(cat.len(), 11);
        assert!(!cat.is_empty());
    }

    #[test]
    fn mean_of_medians_matches_paper() {
        // §V-B: "The average response time for the function selected
        // uniformly from Table I is ~1.042s."
        let cat = Catalogue::sebs();
        let mean = cat.mean_of_client_medians_secs();
        assert!(
            (mean - 1.042).abs() < 0.002,
            "mean of medians {mean} should be ~1.042s"
        );
    }

    #[test]
    fn quantiles_are_ordered() {
        for (_, f) in Catalogue::sebs().iter() {
            assert!(
                f.client_p5_ms <= f.client_median_ms && f.client_median_ms <= f.client_p95_ms,
                "{} has disordered quantiles",
                f.name
            );
        }
    }

    #[test]
    fn lookup_by_name() {
        let cat = Catalogue::sebs();
        let dna = cat.by_name("dna-visualisation").unwrap();
        assert_eq!(cat.spec(dna).name, "dna-visualisation");
        assert_eq!(cat.by_name("graph-bfs").map(|f| f.index()), Some(9));
        assert!(cat.by_name("nonexistent").is_none());
    }

    #[test]
    fn processing_median_subtracts_overhead() {
        let cat = Catalogue::sebs();
        let sleep = cat.spec(cat.by_name("sleep").unwrap());
        assert!((sleep.processing_median_ms() - 1012.0).abs() < 1e-9);
        // Tiny functions floor at 1 ms rather than going to ~2ms-10ms=negative.
        let bfs = cat.spec(cat.by_name("graph-bfs").unwrap());
        assert!(bfs.processing_median_ms() >= 1.0);
    }

    #[test]
    fn service_dist_median_tracks_processing_median() {
        let cat = Catalogue::sebs();
        for (_, f) in cat.iter() {
            let dist = f.service_dist();
            let expected = f.processing_median_ms() / 1000.0;
            assert!(
                (dist.median() - expected).abs() / expected < 1e-9,
                "{}: dist median {} vs expected {}",
                f.name,
                dist.median(),
                expected
            );
        }
    }

    #[test]
    fn service_samples_are_positive_and_plausible() {
        let cat = Catalogue::sebs();
        let mut rng = Xoshiro256::seed_from_u64(1);
        for (_, f) in cat.iter() {
            let dist = f.service_dist();
            for _ in 0..200 {
                let s = dist.sample(&mut rng);
                assert!(s > 0.0, "{} sampled non-positive time", f.name);
                assert!(s < 60.0, "{} sampled implausibly long time {s}", f.name);
            }
        }
    }

    #[test]
    fn stretch_reference_is_client_median() {
        let cat = Catalogue::sebs();
        let dna = cat.spec(cat.by_name("dna-visualisation").unwrap());
        assert_eq!(dna.stretch_reference(), SimDuration::from_millis(8552));
    }

    #[test]
    fn cpu_fractions_in_unit_interval() {
        for (_, f) in Catalogue::sebs().iter() {
            assert!((0.0..=1.0).contains(&f.cpu_fraction), "{}", f.name);
        }
    }

    #[test]
    fn sleep_is_io_dna_is_cpu() {
        let cat = Catalogue::sebs();
        let sleep = cat.spec(cat.by_name("sleep").unwrap());
        assert_eq!(sleep.class, IntensityClass::Io);
        assert!(sleep.cpu_fraction < 0.1);
        let dna = cat.spec(cat.by_name("dna-visualisation").unwrap());
        assert_eq!(dna.class, IntensityClass::Cpu);
        assert!(dna.cpu_fraction > 0.9);
    }

    #[test]
    fn ids_and_iter_agree() {
        let cat = Catalogue::sebs();
        let ids: Vec<FuncId> = cat.ids().collect();
        let iter_ids: Vec<FuncId> = cat.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, iter_ids);
        assert_eq!(ids.len(), 11);
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn empty_catalogue_rejected() {
        Catalogue::from_functions(vec![]);
    }
}
