//! The seeded request mix of the `serve_mixed` workload.
//!
//! A round is a fixed sequence of small campaign specs, each 1–3 paper
//! policies over 2–4 rows drawn from a pool of SPEC stand-ins and Table 2
//! applications.  A template cache holds three quarters of the distinct
//! cells the round touches; the rest are simulated on first touch and
//! appended, then hit (or joined) by later requests.

use crate::rng::Rng;
use hc_core::campaign::{CampaignBuilder, CampaignSpec, TraceSelector};
use hc_core::PolicyKind;
use hc_trace::{SpecBenchmark, WorkloadCategory};
use std::collections::BTreeSet;

/// Submissions per round, shared by the two clients: each of the nine
/// request shapes (1–3 policies × 2–4 rows) twelve times, so every seed
/// asks for the same number of cells.
pub const REQUESTS: usize = 108;
/// µops per row: small, so a request costs milliseconds, not seconds.
pub const TRACE_LEN: usize = 2_000;
/// Table 2 applications per category in the row pool (the first ones, the
/// same for every seed, so that seeds differ in what they ask, not in what
/// the rows cost).
const APPS_PER_CATEGORY: usize = 2;
const SALT: u64 = 4;

/// One cache entry a request touches: `(row, column)`, where column 0 is
/// the row's monolithic baseline and column `c > 0` is paper policy `c - 1`.
pub type Cell = (usize, usize);

/// The paper's seven helper-cluster policies, in catalogue order.
pub fn paper_policies() -> Vec<PolicyKind> {
    PolicyKind::ALL
        .into_iter()
        .filter(|&k| k != PolicyKind::Baseline)
        .collect()
}

/// One round's inputs.
pub struct ServeMix {
    /// The row pool.
    pub rows: Vec<TraceSelector>,
    /// The submissions, in round order.
    pub specs: Vec<CampaignSpec>,
    /// Cells each submission touches, in the order the engine claims them.
    pub touches: Vec<Vec<Cell>>,
    /// Cells the template cache holds before the round.
    pub template: BTreeSet<Cell>,
}

impl ServeMix {
    pub fn generate(seed: u64) -> ServeMix {
        let mut rng = Rng::new(seed, SALT);
        let mut rows: Vec<TraceSelector> = SpecBenchmark::ALL
            .iter()
            .map(|&b| TraceSelector::Spec(b))
            .collect();
        for category in WorkloadCategory::ALL {
            for app in 0..APPS_PER_CATEGORY {
                rows.push(TraceSelector::CategoryApp { category, app });
            }
        }
        let policies = paper_policies();
        let mut shapes: Vec<(usize, usize)> =
            (0..REQUESTS).map(|i| (1 + i % 3, 2 + i / 3 % 3)).collect();
        rng.shuffle(&mut shapes);
        let mut specs = Vec::with_capacity(REQUESTS);
        let mut touches = Vec::with_capacity(REQUESTS);
        for (i, (policy_count, row_count)) in shapes.into_iter().enumerate() {
            let picked_policies = rng.distinct(policies.len(), policy_count);
            let picked_rows = rng.distinct(rows.len(), row_count);
            let spec = CampaignBuilder::new(format!("mix-{i:02}"))
                .policies(picked_policies.iter().map(|&p| policies[p]))
                .trace_len(TRACE_LEN);
            let spec = picked_rows
                .iter()
                .fold(spec, |b, &r| b.trace(rows[r].clone()))
                .build()
                .expect("generated specs are valid");
            touches.push(
                picked_rows
                    .iter()
                    .flat_map(|&r| {
                        std::iter::once((r, 0))
                            .chain(picked_policies.iter().map(move |&p| (r, p + 1)))
                    })
                    .collect(),
            );
            specs.push(spec);
        }
        let distinct: BTreeSet<Cell> = touches.iter().flatten().copied().collect();
        let mut cells: Vec<Cell> = distinct.into_iter().collect();
        let keep = cells.len() * 3 / 4;
        rng.shuffle(&mut cells);
        cells.truncate(keep);
        ServeMix {
            rows,
            specs,
            touches,
            template: cells.into_iter().collect(),
        }
    }

    /// Specs that fill the template cache: per pool row with any template
    /// cell, that row under exactly its template policies, with its
    /// baseline only when the template holds it.
    pub fn template_specs(&self) -> Vec<CampaignSpec> {
        let policies = paper_policies();
        (0..self.rows.len())
            .filter_map(|row| {
                let columns: Vec<usize> = self
                    .template
                    .range((row, 0)..(row + 1, 0))
                    .map(|&(_, c)| c)
                    .collect();
                let baseline = columns.first() == Some(&0);
                let kinds: Vec<PolicyKind> = columns
                    .iter()
                    .filter(|&&c| c > 0)
                    .map(|&c| policies[c - 1])
                    .collect();
                let builder = match (kinds.is_empty(), baseline) {
                    (true, false) => return None,
                    // A baseline alone: the `baseline` column clones it
                    // without a cache entry of its own.
                    (true, true) => CampaignBuilder::new("template").policy(PolicyKind::Baseline),
                    (false, true) => CampaignBuilder::new("template").policies(kinds),
                    (false, false) => CampaignBuilder::new("template")
                        .policies(kinds)
                        .without_baseline(),
                };
                Some(
                    builder
                        .trace(self.rows[row].clone())
                        .trace_len(TRACE_LEN)
                        .build()
                        .expect("template specs are valid"),
                )
            })
            .collect()
    }

    /// `(hits, appends)` over the round's touches if the requests ran one
    /// after another from the template: a touch of a cell already cached
    /// hits, the first touch of any other cell appends it.
    pub fn hits_and_appends(&self) -> (usize, usize) {
        let mut cached = self.template.clone();
        let mut hits = 0;
        let mut appends = 0;
        for &cell in self.touches.iter().flatten() {
            if cached.insert(cell) {
                appends += 1;
            } else {
                hits += 1;
            }
        }
        (hits, appends)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec_texts(mix: &ServeMix) -> Vec<String> {
        mix.specs.iter().map(CampaignSpec::to_json).collect()
    }

    #[test]
    fn the_same_seed_gives_the_same_sequence() {
        let (a, b) = (ServeMix::generate(11), ServeMix::generate(11));
        assert_eq!(spec_texts(&a), spec_texts(&b));
        assert_eq!(a.template, b.template);
        assert_ne!(spec_texts(&a), spec_texts(&ServeMix::generate(12)));
    }

    #[test]
    fn every_seed_asks_for_the_same_shapes() {
        let shapes = |seed| {
            let mut shapes: Vec<(usize, usize)> = ServeMix::generate(seed)
                .specs
                .iter()
                .map(|s| (s.policies.len(), s.traces.len()))
                .collect();
            shapes.sort_unstable();
            shapes
        };
        let shapes_of_3 = shapes(3);
        assert_eq!(shapes_of_3.len(), REQUESTS);
        for p in 1..=3 {
            for r in 2..=4 {
                assert_eq!(
                    shapes_of_3.iter().filter(|&&s| s == (p, r)).count(),
                    REQUESTS / 9
                );
            }
        }
        assert_eq!(shapes(4), shapes_of_3);
    }

    #[test]
    fn the_template_holds_three_quarters_and_pins_the_hit_share() {
        let mix = ServeMix::generate(1);
        let distinct: BTreeSet<Cell> = mix.touches.iter().flatten().copied().collect();
        assert_eq!(mix.template.len(), distinct.len() * 3 / 4);
        assert!(mix.template.is_subset(&distinct));
        let (hits, appends) = mix.hits_and_appends();
        assert_eq!(appends, distinct.len() - mix.template.len());
        assert_eq!((hits, appends), (921, 51), "pinned for seed 1");
    }
}
