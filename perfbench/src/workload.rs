//! The three workloads and their deterministic request sequences.
//!
//! A workload's sequence is a series of passes, each shuffled from the
//! workload seed and the pass index; the load generator replays whole
//! passes, as many as the run length allows. The seed changes only the
//! order of the requests; the server only ever sees the generated request
//! bodies.

use serde::value::Value;

/// `top_k` of every `miss_sweep` and `hit_hot` request.
pub const SWEEP_TOP_K: usize = 30;
/// The `top_k` values `mixed_churn` draws from.
pub const CHURN_TOP_KS: [usize; 4] = [10, 20, 30, 40];
/// The two `mixed_churn` tenants, sharing one artifact build.
pub const CHURN_TENANTS: [&str; 2] = ["alpha", "beta"];
/// Operations in one `mixed_churn` pass: 1,000 generates, so one pass is
/// one block of the end-to-end statistics, and two refreshes.
pub const CHURN_PASS_LEN: usize = 1002;
/// Every this-many-th `mixed_churn` operation is a tenant refresh.
pub const CHURN_REFRESH_EVERY: usize = 500;
/// Zipf exponent of the `mixed_churn` key popularity.
pub const CHURN_ZIPF_S: f64 = 1.0;
/// Shared result-cache capacity under `mixed_churn`.
pub const CHURN_CACHE_CAPACITY: usize = 128;
/// `cache_share` of the `beta` tenant under `mixed_churn`.
pub const CHURN_BETA_SHARE: usize = 32;
/// Seed of the fixed `mixed_churn` popularity order.
const CHURN_RANK_SEED: u64 = 0x00C0_FFEE;
/// The tenant `miss_sweep` and `hit_hot` address (the server default).
pub const DEFAULT_TENANT: &str = "default";

/// A named traffic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Every request misses: cache capacity 0, the 48 survey queries in a
    /// seeded permutation.
    MissSweep,
    /// Every measured request hits: the same 48 bodies, cached by warm-up.
    HitHot,
    /// Two tenants, Zipf-weighted keys, a small cache and periodic refreshes.
    MixedChurn,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 3] = [Workload::MissSweep, Workload::HitHot, Workload::MixedChurn];

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name, as `BENCHMARK.json` lists it.
    pub fn name(self) -> &'static str {
        match self {
            Workload::MissSweep => "miss_sweep",
            Workload::HitHot => "hit_hot",
            Workload::MixedChurn => "mixed_churn",
        }
    }

    /// The registry's shared result-cache capacity.
    pub fn cache_capacity(self) -> usize {
        match self {
            Workload::MissSweep => 0,
            Workload::HitHot => rpg_service::DEFAULT_CACHE_CAPACITY,
            Workload::MixedChurn => CHURN_CACHE_CAPACITY,
        }
    }

    /// The tenants registered over the one artifact build.
    pub fn tenants(self) -> &'static [&'static str] {
        match self {
            Workload::MissSweep | Workload::HitHot => &[DEFAULT_TENANT],
            Workload::MixedChurn => &CHURN_TENANTS,
        }
    }

    /// `(tenant, cache_share)` settings applied after registration.
    pub fn cache_shares(self) -> &'static [(&'static str, usize)] {
        match self {
            Workload::MixedChurn => &[("beta", CHURN_BETA_SHARE)],
            _ => &[],
        }
    }

    /// What every measured generate response must say about `cached`;
    /// `None` when the workload promises neither.
    pub fn expected_cached(self) -> Option<bool> {
        match self {
            Workload::MissSweep => Some(false),
            Workload::HitHot => Some(true),
            Workload::MixedChurn => None,
        }
    }
}

/// One survey-bank query: the text and the survey's year.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SurveyQuery {
    /// Query text (the survey's key phrases).
    pub text: String,
    /// The survey's publication year, sent as `max_year`.
    pub year: u16,
}

/// One distinct generate request of a workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Key {
    /// The tenant addressed; the default tenant is left implicit.
    pub tenant: &'static str,
    /// Index into the survey queries.
    pub query: usize,
    /// Requested reading-list length.
    pub top_k: usize,
}

impl Key {
    /// The `POST /v1/generate` body for this key.
    pub fn body(&self, queries: &[SurveyQuery]) -> String {
        let q = &queries[self.query];
        let mut fields = vec![
            ("query".to_string(), Value::String(q.text.clone())),
            ("top_k".to_string(), Value::Number(self.top_k as f64)),
            ("max_year".to_string(), Value::Number(f64::from(q.year))),
        ];
        if self.tenant != DEFAULT_TENANT {
            fields.push(("corpus".to_string(), Value::String(self.tenant.to_string())));
        }
        serde_json::to_string(&Value::Object(fields)).expect("request body serialises")
    }
}

/// One operation of a pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `POST /v1/generate` with the body of `keys[index]`.
    Generate(usize),
    /// `POST /v1/corpora/<tenant>/refresh`.
    Refresh(&'static str),
}

/// A workload's distinct keys and its seeded sequence of passes.
///
/// Every pass sends the same multiset of generate requests; pass `i`
/// shuffles it with a generator seeded from the workload seed and `i`
/// alone, so a seed names one endless request sequence and a run replays
/// its first passes. Fixing each pass's composition keeps a run from
/// measuring the luck of a draw: under `mixed_churn` the costliest
/// queries' miss count, and so the p99, would otherwise move from pass to
/// pass.
#[derive(Debug, Clone)]
pub struct Plan {
    workload: Workload,
    seed: u64,
    /// The distinct generate requests.
    pub keys: Vec<Key>,
    /// Request body of each key.
    pub bodies: Vec<String>,
    /// The generate requests of one pass, before shuffling.
    generates: Vec<Op>,
}

impl Plan {
    /// The keys and pass generator of `workload` over `queries`.
    pub fn new(workload: Workload, queries: &[SurveyQuery], seed: u64) -> Plan {
        let mut keys = Vec::new();
        let generates = match workload {
            Workload::MissSweep | Workload::HitHot => {
                keys.extend((0..queries.len()).map(|query| Key {
                    tenant: DEFAULT_TENANT,
                    query,
                    top_k: SWEEP_TOP_K,
                }));
                (0..keys.len()).map(Op::Generate).collect()
            }
            Workload::MixedChurn => {
                for tenant in CHURN_TENANTS {
                    for query in 0..queries.len() {
                        for top_k in CHURN_TOP_KS {
                            keys.push(Key {
                                tenant,
                                query,
                                top_k,
                            });
                        }
                    }
                }
                let draws = CHURN_PASS_LEN - CHURN_PASS_LEN / CHURN_REFRESH_EVERY;
                let counts = zipf_counts(keys.len(), CHURN_ZIPF_S, draws);
                churn_ranks(queries.len())
                    .into_iter()
                    .zip(counts)
                    .flat_map(|(key, count)| std::iter::repeat_n(Op::Generate(key), count))
                    .collect()
            }
        };
        Plan {
            workload,
            seed,
            bodies: keys.iter().map(|key| key.body(queries)).collect(),
            keys,
            generates,
        }
    }

    /// Operations per pass.
    pub fn pass_len(&self) -> usize {
        match self.workload {
            Workload::MissSweep | Workload::HitHot => self.generates.len(),
            Workload::MixedChurn => CHURN_PASS_LEN,
        }
    }

    /// Generate operations per pass.
    pub fn generates_per_pass(&self) -> usize {
        self.generates.len()
    }

    /// Pass `index` of the sequence: the pass's generate requests in a
    /// seeded order; under `mixed_churn` every [`CHURN_REFRESH_EVERY`]-th
    /// operation is a refresh, alternating tenants.
    pub fn pass(&self, index: usize) -> Vec<Op> {
        let mut rng =
            SplitMix64::new(self.seed ^ (index as u64 + 1).wrapping_mul(0xa076_1d64_78bd_642f));
        let mut generates = self.generates.clone();
        rng.shuffle(&mut generates);
        if self.workload != Workload::MixedChurn {
            return generates;
        }
        let mut generates = generates.into_iter();
        (1..=CHURN_PASS_LEN)
            .map(|i| {
                if i % CHURN_REFRESH_EVERY == 0 {
                    let refresh = i / CHURN_REFRESH_EVERY - 1;
                    Op::Refresh(CHURN_TENANTS[refresh % CHURN_TENANTS.len()])
                } else {
                    generates.next().expect("a pass holds its generates")
                }
            })
            .collect()
    }

    /// FNV-1a digest of the first `passes` passes as the server receives
    /// them: each operation's path and body, in order.
    pub fn digest(&self, passes: usize) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut feed = |bytes: &[u8]| {
            for &b in bytes {
                hash ^= u64::from(b);
                hash = hash.wrapping_mul(0x0100_0000_01b3);
            }
        };
        for op in (0..passes).flat_map(|index| self.pass(index)) {
            let (path, body) = self.request(op);
            feed(path.as_bytes());
            feed(b"\n");
            feed(body.as_bytes());
            feed(b"\n");
        }
        hash
    }

    /// The `(path, body)` an operation sends.
    pub fn request(&self, op: Op) -> (String, &str) {
        match op {
            Op::Generate(key) => ("/v1/generate".to_string(), self.bodies[key].as_str()),
            Op::Refresh(tenant) => (format!("/v1/corpora/{tenant}/refresh"), ""),
        }
    }
}

/// Distinct keys `ops` sends, in first-use order.
pub fn distinct_keys(ops: &[Op]) -> Vec<usize> {
    let mut seen = std::collections::HashSet::new();
    ops.iter()
        .filter_map(|op| match *op {
            Op::Generate(key) => seen.insert(key).then_some(key),
            Op::Refresh(_) => None,
        })
        .collect()
}

/// The key (index into the tenant × query × `top_k` key list) holding each
/// `mixed_churn` popularity rank, 0 being the hottest.
///
/// Ranks come in strata of one rank per query: each stratum holds every
/// query exactly once, half of them under each tenant, and across the
/// strata each query takes every (tenant, `top_k`) pair once. The order
/// within the strata is shuffled from a fixed seed, not the workload seed:
/// queries differ tenfold in cost, so a popularity order drawn per seed
/// would move throughput by more than the benchmark's bounds. The workload
/// seed draws the request sequence.
fn churn_ranks(queries: usize) -> Vec<usize> {
    let rng = &mut SplitMix64::new(CHURN_RANK_SEED);
    let mut order: Vec<usize> = (0..queries).collect();
    rng.shuffle(&mut order);
    // top_ks[slot][tenant]: the order in which that slot's query takes the
    // `top_k` values under that tenant.
    let top_ks: Vec<[Vec<usize>; 2]> = (0..queries)
        .map(|_| {
            [0, 1].map(|_| {
                let mut order: Vec<usize> = (0..CHURN_TOP_KS.len()).collect();
                rng.shuffle(&mut order);
                order
            })
        })
        .collect();
    let strata = CHURN_TENANTS.len() * CHURN_TOP_KS.len();
    (0..queries * strata)
        .map(|rank| {
            let (stratum, slot) = (rank / queries, rank % queries);
            let tenant = (stratum + slot) % CHURN_TENANTS.len();
            let top_k = top_ks[slot][tenant][stratum / CHURN_TENANTS.len()];
            (tenant * queries + order[slot]) * CHURN_TOP_KS.len() + top_k
        })
        .collect()
}

/// The SplitMix64 generator: small, fast, and fixed forever, so a seed
/// names the same request sequence on every build.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform draw from `[0, n)`, for `n >= 1`.
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

/// How many of `total` requests each of `n` popularity ranks receives
/// under Zipf(s), `P(rank r) ∝ 1 / (r + 1)^s`: the expected counts, rounded
/// by largest remainder so that they sum to `total`.
pub fn zipf_counts(n: usize, s: f64, total: usize) -> Vec<usize> {
    let weights: Vec<f64> = (1..=n).map(|rank| 1.0 / (rank as f64).powf(s)).collect();
    let sum: f64 = weights.iter().sum();
    let expected: Vec<f64> = weights.iter().map(|w| w / sum * total as f64).collect();
    let mut counts: Vec<usize> = expected.iter().map(|e| e.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..n).collect();
    by_remainder.sort_by(|&a, &b| {
        let rem = |r: usize| expected[r] - expected[r].floor();
        rem(b).total_cmp(&rem(a)).then(a.cmp(&b))
    });
    let short = total - counts.iter().sum::<usize>();
    for &rank in &by_remainder[..short] {
        counts[rank] += 1;
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    fn queries() -> Vec<SurveyQuery> {
        (0..48)
            .map(|i| SurveyQuery {
                text: format!("topic {i} \"quoted\""),
                year: 2000 + i as u16 % 20,
            })
            .collect()
    }

    #[test]
    fn same_seed_same_sequence_and_digest() {
        for workload in Workload::ALL {
            let a = Plan::new(workload, &queries(), 7);
            let b = Plan::new(workload, &queries(), 7);
            for pass in 0..3 {
                assert_eq!(a.pass(pass), b.pass(pass), "{}", workload.name());
            }
            assert_eq!(a.digest(4), b.digest(4));
        }
    }

    #[test]
    fn another_seed_or_pass_another_sequence() {
        for workload in Workload::ALL {
            let a = Plan::new(workload, &queries(), 1);
            let b = Plan::new(workload, &queries(), 2);
            assert_ne!(a.pass(0), b.pass(0), "{}", workload.name());
            assert_ne!(a.pass(0), a.pass(1), "{}", workload.name());
            assert_ne!(a.digest(4), b.digest(4));
        }
    }

    #[test]
    fn sweeps_send_every_query_once_per_pass() {
        for workload in [Workload::MissSweep, Workload::HitHot] {
            let plan = Plan::new(workload, &queries(), 3);
            for pass in 0..3 {
                let ops = plan.pass(pass);
                assert_eq!(ops.len(), plan.pass_len());
                let mut sent = distinct_keys(&ops);
                sent.sort_unstable();
                assert_eq!(sent, (0..48).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn churn_refreshes_alternate_tenants_on_schedule() {
        let plan = Plan::new(Workload::MixedChurn, &queries(), 5);
        assert_eq!(plan.keys.len(), 2 * 48 * 4);
        let ops = plan.pass(0);
        assert_eq!(ops.len(), plan.pass_len());
        let refreshes: Vec<(usize, &str)> = ops
            .iter()
            .enumerate()
            .filter_map(|(i, op)| match op {
                Op::Refresh(tenant) => Some((i + 1, *tenant)),
                Op::Generate(_) => None,
            })
            .collect();
        assert_eq!(refreshes, vec![(500, "alpha"), (1000, "beta")]);
        assert_eq!(ops.len() - refreshes.len(), plan.generates_per_pass());
    }

    #[test]
    fn bodies_round_trip_as_generate_requests() {
        let plan = Plan::new(Workload::MixedChurn, &queries(), 9);
        for (key, body) in plan.keys.iter().zip(&plan.bodies) {
            let dto: rpg_server::GenerateRequest = serde_json::from_str(body).unwrap();
            assert_eq!(dto.query, queries()[key.query].text);
            assert_eq!(dto.top_k, Some(key.top_k));
            assert_eq!(dto.corpus.as_deref(), Some(key.tenant));
        }
        let sweep = Plan::new(Workload::HitHot, &queries(), 9);
        let dto: rpg_server::GenerateRequest = serde_json::from_str(&sweep.bodies[0]).unwrap();
        assert_eq!(dto.corpus, None);
        assert_eq!(dto.max_year, Some(queries()[0].year));
    }

    #[test]
    fn zipf_counts_sum_to_total_and_match_the_head_share() {
        let harmonic = |n: usize, s: f64| (1..=n).map(|r| 1.0 / (r as f64).powf(s)).sum::<f64>();
        for s in [0.8, 1.0] {
            let counts = zipf_counts(384, s, 1000);
            assert_eq!(counts.iter().sum::<usize>(), 1000);
            assert!(
                counts.windows(2).all(|w| w[0] >= w[1]),
                "hotter ranks get more"
            );
            for head in [1, 38, 192] {
                let share = counts[..head].iter().sum::<usize>() as f64 / 1000.0;
                let theory = harmonic(head, s) / harmonic(384, s);
                // Rounding moves each rank by less than one request.
                assert!(
                    (share - theory).abs() < head as f64 / 1000.0,
                    "s {s} head {head}"
                );
            }
        }
        let counts = zipf_counts(384, 1.0, 1000);
        assert_eq!(counts[0], (1000.0 / harmonic(384, 1.0)).round() as usize);
    }

    #[test]
    fn churn_ranks_are_stratified() {
        let by_rank = churn_ranks(48);
        let mut sorted = by_rank.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..384).collect::<Vec<_>>());
        let plan = Plan::new(Workload::MixedChurn, &queries(), 17);
        for stratum in by_rank.chunks(48) {
            let mut queries: Vec<usize> = stratum.iter().map(|&k| plan.keys[k].query).collect();
            queries.sort_unstable();
            assert_eq!(queries, (0..48).collect::<Vec<_>>());
            let alpha = stratum
                .iter()
                .filter(|&&k| plan.keys[k].tenant == "alpha")
                .count();
            assert_eq!(alpha, 24);
        }
    }

    #[test]
    fn churn_passes_share_one_composition_in_different_orders() {
        let plan = Plan::new(Workload::MixedChurn, &queries(), 13);
        let sorted = |ops: Vec<Op>| {
            let mut keys: Vec<usize> = ops
                .into_iter()
                .filter_map(|op| match op {
                    Op::Generate(key) => Some(key),
                    Op::Refresh(_) => None,
                })
                .collect();
            keys.sort_unstable();
            keys
        };
        assert_eq!(sorted(plan.pass(0)), sorted(plan.pass(1)));
        assert_ne!(plan.pass(0), plan.pass(1));
        let hottest = churn_ranks(48)[0];
        let sent = plan
            .pass(0)
            .iter()
            .filter(|&&op| op == Op::Generate(hottest))
            .count();
        assert_eq!(sent, zipf_counts(384, CHURN_ZIPF_S, 1000)[0]);
    }
}
