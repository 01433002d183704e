//! The benchmark's workloads: what each one generates from a seed, how
//! it configures [`System`], and why it exists.
//!
//! Each workload runs on one fixed deployment (servers, collections,
//! sub-collection references, GDS tree): the thing being measured. The
//! run seed draws the traffic on it through [`sub_seed`]: the profile
//! population, the rebuild schedule, the churn and the link jitter, so
//! the same seed always gives the same inputs.

use gsa_core::{AlertPolicyConfig, BatchConfig, ReliabilityConfig, System, WireConfig};
use gsa_store::SourceDocument;
use gsa_types::{CollectionId, SimDuration, SimTime};
use gsa_workload::{GsWorld, ProfileMix, ProfilePopulation, WorldParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One named workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's configuration on a large flood tree.
    PaperFlood,
    /// Every hardening feature on, with subscription churn and loss.
    HardenedChurn,
}

/// Input size: `Full` is what the benchmark measures, `Smoke` is what
/// its own tests run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The measured size.
    Full,
    /// A seconds-long size for the benchmark's tests.
    Smoke,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 2] = [Workload::PaperFlood, Workload::HardenedChurn];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperFlood => "paper_flood",
            Workload::HardenedChurn => "hardened_churn",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload is in the benchmark: the layers it loads and
    /// the changes it must (and must not) register.
    pub fn why(self) -> &'static str {
        match self {
            Workload::PaperFlood => {
                "the paper's v1 XML best-effort flood, 160 servers on a 40-node GDS tree: loads \
                 gsa-gds forwarding, gsa-wire XML and gsa-simnet while gsa-filter does almost nothing"
            }
            Workload::HardenedChurn => {
                "reliable, batched v2, attribute pruning, rendezvous, durable, observe-only policies \
                 at 0.6% loss with a re-subscribe per rebuild: also loads gsa-state and gsa-alerts"
            }
        }
    }

    /// The workload's sizes at `scale`.
    pub fn params(self, scale: Scale) -> Params {
        let smoke = scale == Scale::Smoke;
        match self {
            Workload::PaperFlood => Params {
                world_seed: 0x5EED_0001,
                servers: if smoke { 24 } else { 160 },
                fanout: 3,
                profiles: if smoke { 120 } else { 3_200 },
                cold_profiles: if smoke { 240 } else { 16_000 },
                mix: ProfileMix::equality_only(),
                docs_per_rebuild: 2,
                segment_rebuilds: if smoke { 12 } else { 40 },
                segment_horizon: SimDuration::from_secs(4),
                drain: SimDuration::from_secs(1),
                min_segments: if smoke { 2 } else { 25 },
                setup_reps: if smoke { 1 } else { 21 },
                drop: 0.0,
                churn: false,
            },
            Workload::HardenedChurn => Params {
                world_seed: 0x5EED_0003,
                servers: if smoke { 12 } else { 40 },
                fanout: 3,
                profiles: if smoke { 300 } else { 5_000 },
                cold_profiles: 0,
                mix: ProfileMix::attr_clustered(),
                docs_per_rebuild: 2,
                segment_rebuilds: if smoke { 12 } else { 50 },
                segment_horizon: SimDuration::from_secs(5),
                drain: SimDuration::from_secs(3),
                min_segments: if smoke { 2 } else { 60 },
                setup_reps: if smoke { 1 } else { 5 },
                drop: 0.006,
                churn: true,
            },
        }
    }

    /// Switches on the workload's features. Every `System` setter the
    /// benchmark uses is called here and nowhere else.
    pub fn configure(self, system: &mut System) {
        match self {
            Workload::PaperFlood => configure_paper_flood(system),
            Workload::HardenedChurn => configure_hardened_churn(system),
        }
    }
}

/// The paper's §6 deployment: v1 XML, no batching, no pruning, best
/// effort.
fn configure_paper_flood(system: &mut System) {
    system.set_wire(WireConfig::default());
}

/// Everything a hardened deployment switches on. Observe-only policies
/// keep the delivery set identical to an engine-less run, so the oracle
/// stays exact.
fn configure_hardened_churn(system: &mut System) {
    system.set_reliability(ReliabilityConfig::default());
    system.set_wire(WireConfig::v2_batched(BatchConfig::default()));
    system.set_pruning(true);
    system.set_attr_summaries(true);
    system.set_rendezvous(true);
    system.set_durability(true);
    system.set_alert_policies(Some(AlertPolicyConfig::observe_only()));
}

/// The sizes of one workload.
#[derive(Debug, Clone)]
pub struct Params {
    /// Seed of the fixed deployment.
    pub world_seed: u64,
    /// Greenstone servers (two collections each).
    pub servers: usize,
    /// Fanout of the GDS tree built over them.
    pub fanout: usize,
    /// Generated profiles, one client each.
    pub profiles: usize,
    /// Extra profiles on hosts that never publish: never matched, so
    /// they only add set-up work and index entries.
    pub cold_profiles: usize,
    /// Operator mix of the generated profiles.
    pub mix: ProfileMix,
    /// Documents per rebuild.
    pub docs_per_rebuild: usize,
    /// Rebuilds per segment of the timed phase.
    pub segment_rebuilds: usize,
    /// Simulated time the segment's rebuilds are spread over (open loop).
    pub segment_horizon: SimDuration,
    /// Simulated time after the horizon before the next segment starts.
    pub drain: SimDuration,
    /// Segments every run completes; the deterministic metrics are taken
    /// over exactly these.
    pub min_segments: usize,
    /// Set-ups per untraced run (`setup_s` is their median).
    pub setup_reps: usize,
    /// Per-link drop probability during the timed phase.
    pub drop: f64,
    /// Pair every rebuild with an unsubscribe + re-subscribe.
    pub churn: bool,
}

/// Derives an independent stream seed from the run seed (SplitMix64).
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The generated inputs of one run.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Servers, collections and sub-collection references.
    pub world: GsWorld,
    /// Every profile (generated first, cold ones last), indexed by the
    /// profile index the oracle uses.
    pub population: ProfilePopulation,
    /// The textual form of each profile, as a reader submits it.
    pub texts: Vec<String>,
}

impl Inputs {
    /// Generates the workload's world and the population for `seed`.
    pub fn generate(params: &Params, seed: u64) -> Inputs {
        let world = GsWorld::generate(&WorldParams {
            seed: params.world_seed,
            servers: params.servers,
            ..WorldParams::default()
        });
        let mut population =
            ProfilePopulation::generate(sub_seed(seed, 2), &world, params.profiles, &params.mix);
        let cold_topic = CollectionId::new("cold", "none");
        for i in 0..params.cold_profiles {
            let subscriber = world.hosts[i % world.hosts.len()].clone();
            let expr = gsa_profile::parse_profile(&format!(r#"host = "cold-{i}""#))
                .expect("cold profile parses");
            population
                .profiles
                .push((subscriber, cold_topic.clone(), expr));
        }
        let texts = population
            .profiles
            .iter()
            .map(|(_, _, expr)| expr.to_string())
            .collect();
        Inputs {
            world,
            population,
            texts,
        }
    }
}

/// One timed action of a segment.
#[derive(Debug)]
pub enum Action {
    /// Rebuild: global rebuild index, collection, documents.
    Rebuild(usize, CollectionId, Vec<SourceDocument>),
    /// Cancel the profile's current subscription and subscribe the same
    /// expression again under a fresh client.
    Churn(usize),
}

/// The collection rebuild `k` targets. Publishers take turns: each
/// cycle through the public collections is a fresh seeded shuffle, so
/// every collection is rebuilt equally often in random order. (Drawing
/// each rebuild independently would let the few collections with many
/// super-collections, whose rebuilds are announced several times, swing
/// the per-event figures from seed to seed.)
fn rebuilt_collection(publics: &[CollectionId], seed: u64, k: usize) -> CollectionId {
    let n = publics.len();
    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 3_000 + (k / n) as u64));
    for i in (1..n).rev() {
        order.swap(i, rng.random_range(0..=i));
    }
    publics[order[k % n]].clone()
}

/// The actions of segment `segment`, starting at `start`, whose rebuilds
/// are numbered from `first_rebuild`: rebuilds at uniformly random times
/// over the segment's horizon (an open loop), each followed by a churn
/// pair halfway to the next when the workload churns. Documents are
/// generated here, so the timed replay pays none of it.
pub fn plan_segment(
    params: &Params,
    inputs: &Inputs,
    seed: u64,
    segment: usize,
    start: SimTime,
    first_rebuild: usize,
) -> Vec<(SimTime, Action)> {
    let publics = inputs.world.public_collections();
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 1_000 + segment as u64));
    let horizon = params.segment_horizon.as_micros();
    let mut offsets: Vec<u64> = (0..params.segment_rebuilds)
        .map(|_| rng.random_range(0..horizon))
        .collect();
    offsets.sort_unstable();
    let mut actions = Vec::new();
    for (i, &offset) in offsets.iter().enumerate() {
        let k = first_rebuild + i;
        let collection = rebuilt_collection(&publics, seed, k);
        let docs = gsa_bench::runners::rebuild_docs(k, params.docs_per_rebuild);
        actions.push((
            start + SimDuration::from_micros(offset),
            Action::Rebuild(k, collection, docs),
        ));
        if params.churn {
            let next = offsets.get(i + 1).copied().unwrap_or(horizon);
            let profile = rng.random_range(0..params.profiles);
            actions.push((
                start + SimDuration::from_micros(offset + (next - offset) / 2),
                Action::Churn(profile),
            ));
        }
    }
    // Stable: a rebuild and a churn at the same instant keep plan order.
    actions.sort_by_key(|(at, _)| *at);
    actions
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_public_collection_is_rebuilt_once_per_cycle() {
        let params = Workload::PaperFlood.params(Scale::Smoke);
        let inputs = Inputs::generate(&params, 9);
        let publics = inputs.world.public_collections();
        let n = publics.len();
        for cycle in 0..3 {
            let mut seen: Vec<CollectionId> = (cycle * n..(cycle + 1) * n)
                .map(|k| rebuilt_collection(&publics, 9, k))
                .collect();
            seen.sort();
            let mut expected = publics.clone();
            expected.sort();
            assert_eq!(seen, expected, "cycle {cycle}");
        }
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn inputs_repeat_per_seed_and_differ_across_seeds() {
        let params = Workload::PaperFlood.params(Scale::Smoke);
        let a = Inputs::generate(&params, 5);
        let b = Inputs::generate(&params, 5);
        let c = Inputs::generate(&params, 6);
        assert_eq!(a.texts, b.texts);
        assert_ne!(a.texts, c.texts);
        assert_eq!(
            a.world.references, c.world.references,
            "the deployment is fixed"
        );
        assert_eq!(a.texts.len(), params.profiles + params.cold_profiles);
    }

    #[test]
    fn segments_number_rebuilds_globally_and_stay_in_their_window() {
        let params = Workload::HardenedChurn.params(Scale::Smoke);
        let inputs = Inputs::generate(&params, 3);
        let start = SimTime::from_secs(100);
        let plan = plan_segment(&params, &inputs, 3, 1, start, 40);
        let ks: Vec<usize> = plan
            .iter()
            .filter_map(|(_, a)| match a {
                Action::Rebuild(k, ..) => Some(*k),
                Action::Churn(_) => None,
            })
            .collect();
        let mut sorted = ks.clone();
        sorted.sort_unstable();
        assert_eq!(
            sorted,
            (40..40 + params.segment_rebuilds).collect::<Vec<_>>()
        );
        let churns = plan
            .iter()
            .filter(|(_, a)| matches!(a, Action::Churn(_)))
            .count();
        assert_eq!(churns, params.segment_rebuilds);
        let end = start + params.segment_horizon;
        assert!(plan.iter().all(|(at, _)| *at >= start && *at <= end));
        assert!(plan.windows(2).all(|w| w[0].0 <= w[1].0));
    }
}
