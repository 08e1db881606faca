//! Physical operators with instrumented execution statistics and a
//! deterministic simulated-latency model.
//!
//! Substitution note (see DESIGN.md): the surveyed systems observe real
//! query latencies from PostgreSQL or production engines. Here every
//! operator counts the work it does (tuples, comparisons, hash builds and
//! probes, simulated page reads, sort operations) and latency is a fixed
//! weighted sum of those counters ([`TRUE_WEIGHTS`]). The weights are the
//! environment's ground truth: the formula cost model in `ml4db-plan` has
//! its *own* tunable parameters, and recovering the true weights from
//! observed latencies is exactly ParamTree's learning problem (E11).

use std::collections::HashMap;
use std::hash::BuildHasherDefault;

use serde::{Deserialize, Serialize};

use crate::table::{ColumnData, Table, Value};

/// Rows per simulated disk page.
pub const ROWS_PER_PAGE: u64 = 64;

/// Simulated B+Tree descent cost in random pages for an index over `n`
/// rows: one page per level of a fanout-16 tree, `ceil(log2(n)/4) + 1`.
///
/// This is the single source of truth shared by the executor
/// ([`index_scan`]) and the formula cost model in `ml4db-plan`; the
/// differential oracle asserts the two sides cannot drift apart.
pub fn index_descent_pages(n: u64) -> u64 {
    ((n.max(2) as f64).log2() / 4.0).ceil() as u64 + 1
}

/// Work counters accumulated by every operator.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExecStats {
    /// Rows produced.
    pub rows_out: u64,
    /// Tuples touched (CPU per-tuple work).
    pub tuples: u64,
    /// Predicate/key comparisons.
    pub comparisons: u64,
    /// Hash-table insertions.
    pub hash_builds: u64,
    /// Hash-table probes.
    pub hash_probes: u64,
    /// Simulated sequential page reads.
    pub pages_read: u64,
    /// Simulated random page reads (index traversals).
    pub random_pages: u64,
    /// Sort comparisons (n log n accounted).
    pub sort_ops: u64,
}

impl ExecStats {
    /// Accumulates another operator's counters into this one.
    pub fn merge(&mut self, other: &ExecStats) {
        self.rows_out = other.rows_out; // the last operator defines output
        self.tuples += other.tuples;
        self.comparisons += other.comparisons;
        self.hash_builds += other.hash_builds;
        self.hash_probes += other.hash_probes;
        self.pages_read += other.pages_read;
        self.random_pages += other.random_pages;
        self.sort_ops += other.sort_ops;
    }

    /// Simulated latency in microseconds under the given weights.
    pub fn latency_us(&self, w: &CostWeights) -> f64 {
        self.tuples as f64 * w.cpu_tuple
            + self.comparisons as f64 * w.cpu_compare
            + self.hash_builds as f64 * w.hash_build
            + self.hash_probes as f64 * w.hash_probe
            + self.pages_read as f64 * w.seq_page
            + self.random_pages as f64 * w.random_page
            + self.sort_ops as f64 * w.sort_op
    }
}

/// Per-unit work weights (microseconds per unit).
///
/// These are the **R-params** of the tutorial's ParamTree discussion \[50\]:
/// PostgreSQL exposes the same knobs as `seq_page_cost`,
/// `random_page_cost`, `cpu_tuple_cost`, ... The executor uses
/// [`TRUE_WEIGHTS`]; cost models start from [`CostWeights::postgres_defaults`]
/// (deliberately mis-calibrated, as in real deployments) and ParamTree
/// learns the truth from observed latencies.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct CostWeights {
    /// Cost per sequential page read.
    pub seq_page: f64,
    /// Cost per random page read.
    pub random_page: f64,
    /// Cost per tuple of CPU work.
    pub cpu_tuple: f64,
    /// Cost per comparison.
    pub cpu_compare: f64,
    /// Cost per hash-table insertion.
    pub hash_build: f64,
    /// Cost per hash-table probe.
    pub hash_probe: f64,
    /// Cost per sort comparison.
    pub sort_op: f64,
}

impl CostWeights {
    /// PostgreSQL-flavored default ratios (the mis-calibrated starting
    /// point a DBA ships with).
    pub fn postgres_defaults() -> Self {
        Self {
            seq_page: 1.0,
            random_page: 4.0,
            cpu_tuple: 0.01,
            cpu_compare: 0.005,
            hash_build: 0.02,
            hash_probe: 0.01,
            sort_op: 0.01,
        }
    }
}

/// The environment's ground-truth weights (µs per unit). Note the ratios
/// differ from the defaults: random pages are comparatively cheaper (fast
/// storage) and hashing comparatively more expensive, which is what a tuned
/// cost model must discover.
pub const TRUE_WEIGHTS: CostWeights = CostWeights {
    seq_page: 2.0,
    random_page: 3.0,
    cpu_tuple: 0.02,
    cpu_compare: 0.004,
    hash_build: 0.08,
    hash_probe: 0.03,
    sort_op: 0.02,
};

/// Comparison operator of a base-table predicate.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum CmpOp {
    /// Equality.
    Eq,
    /// Strictly less.
    Lt,
    /// Less or equal.
    Le,
    /// Strictly greater.
    Gt,
    /// Greater or equal.
    Ge,
}

/// A predicate `column <op> value` over a row layout.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Predicate {
    /// Column offset within the row.
    pub column: usize,
    /// Comparison operator.
    pub op: CmpOp,
    /// Comparison constant.
    pub value: f64,
}

impl Predicate {
    /// Evaluates the predicate against one column value.
    #[inline]
    fn holds(&self, v: f64) -> bool {
        match self.op {
            CmpOp::Eq => v == self.value,
            CmpOp::Lt => v < self.value,
            CmpOp::Le => v <= self.value,
            CmpOp::Gt => v > self.value,
            CmpOp::Ge => v >= self.value,
        }
    }
}

/// Keeps the row ids whose `col` value passes `keep`.
#[inline]
fn retain_by(col: &ColumnData, ids: &mut Vec<u32>, keep: impl Fn(f64) -> bool) {
    match col {
        ColumnData::Int(v) => ids.retain(|&i| keep(v[i as usize] as f64)),
        ColumnData::Float(v) => ids.retain(|&i| keep(v[i as usize])),
    }
}

/// Applies `predicates` in order, each to the ids the previous ones kept:
/// one comparison per id tested, exactly what a short-circuiting
/// row-at-a-time evaluation would count.
fn filter_ids(table: &Table, predicates: &[Predicate], ids: &mut Vec<u32>, stats: &mut ExecStats) {
    for p in predicates {
        stats.comparisons += ids.len() as u64;
        retain_by(&table.columns[p.column], ids, |v| p.holds(v));
    }
}

/// Reports one physical-operator invocation to the observability sink:
/// coarse call/row counters per operator, merged associatively across
/// worker shards.
fn observe_op(op: &'static str, rows_out: u64) {
    ml4db_obs::counter_add(op, 1);
    ml4db_obs::histogram_observe("exec.rows_out", rows_out as f64);
}

/// Sequential scan with pushed-down predicates; returns the ascending ids
/// of the matching rows.
pub fn seq_scan(table: &Table, predicates: &[Predicate]) -> (Vec<u32>, ExecStats) {
    let n = table.num_rows();
    let mut stats = ExecStats {
        tuples: n as u64,
        pages_read: (n as u64).div_ceil(ROWS_PER_PAGE),
        ..Default::default()
    };
    let mut ids: Vec<u32> = (0..n as u32).collect();
    filter_ids(table, predicates, &mut ids, &mut stats);
    stats.rows_out = ids.len() as u64;
    observe_op("exec.seq_scan.calls", stats.rows_out);
    (ids, stats)
}

/// Index scan: returns the ascending ids of rows whose `column` value lies
/// in `[lo, hi]`, assuming an ordered auxiliary index exists (the caller
/// guarantees it).
///
/// Cost model: one random page per index level plus one random page per
/// matching `ROWS_PER_PAGE` rows (unclustered access), plus per-tuple CPU
/// for the matches and residual predicate evaluation.
pub fn index_scan(
    table: &Table,
    column: usize,
    lo: f64,
    hi: f64,
    residual: &[Predicate],
) -> (Vec<u32>, ExecStats) {
    let mut ids: Vec<u32> = (0..table.num_rows() as u32).collect();
    retain_by(&table.columns[column], &mut ids, |v| v >= lo && v <= hi);
    finish_index_scan(table, ids, residual)
}

/// Index scan served by a learned [`SecondaryIndex`](crate::lindex::SecondaryIndex)
/// instead of the full-column sweep in [`index_scan`].
///
/// Produces identical `(ids, stats)` to [`index_scan`] on the same inputs —
/// the simulated cost model (descent pages, matching-tuple pages, residual
/// comparisons) describes the *physical plan*, which is unchanged; only
/// the in-process probe work differs. Equality probes copy the index's
/// borrowed, already-ascending row-id run; range probes sort the matching
/// run once to restore row-id order (the postings are grouped by key).
pub fn index_scan_learned(
    table: &Table,
    lo: f64,
    hi: f64,
    residual: &[Predicate],
    sidx: &crate::lindex::SecondaryIndex,
) -> (Vec<u32>, ExecStats) {
    let ids = if lo == hi {
        sidx.probe_eq(lo).to_vec()
    } else {
        let mut ids = sidx.range_rows(lo, hi).to_vec();
        ids.sort_unstable();
        ids
    };
    ml4db_obs::counter_add("exec.index_scan.learned", 1);
    finish_index_scan(table, ids, residual)
}

/// Charges the index descent and the matched tuples, then applies the
/// residual predicates.
fn finish_index_scan(
    table: &Table,
    mut ids: Vec<u32>,
    residual: &[Predicate],
) -> (Vec<u32>, ExecStats) {
    let matched = ids.len() as u64;
    let mut stats = ExecStats {
        tuples: matched,
        random_pages: index_descent_pages(table.num_rows() as u64)
            + matched.div_ceil(ROWS_PER_PAGE),
        ..Default::default()
    };
    filter_ids(table, residual, &mut ids, &mut stats);
    stats.rows_out = ids.len() as u64;
    observe_op("exec.index_scan.calls", stats.rows_out);
    (ids, stats)
}

/// One input of a join: a key column read through row ids. Entry `i` of
/// the input is `column[rows[i]]`.
#[derive(Clone, Copy, Debug)]
pub struct Keys<'a> {
    /// The base-table column holding the join key.
    pub column: &'a ColumnData,
    /// Row ids into `column`, one per input row.
    pub rows: &'a [u32],
}

impl Keys<'_> {
    fn len(&self) -> usize {
        self.rows.len()
    }

    /// Key of input row `i`.
    #[inline]
    pub fn get(&self, i: usize) -> Value {
        self.column.get(self.rows[i] as usize)
    }

    /// Join keys in input order. Two rows join iff their
    /// [`Value::hash_key`]s are equal, under every join algorithm.
    fn hash_keys(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.len()).map(|i| self.get(i).hash_key())
    }
}

/// Matching `(left, right)` input positions, in output order.
pub type Pairs = Vec<(u32, u32)>;

/// Nested-loop equi-join: compares every pair. Output is left-major.
pub fn nested_loop_join(left: Keys, right: Keys) -> (Pairs, ExecStats) {
    let rkeys: Vec<u64> = right.hash_keys().collect();
    let mut out = Vec::new();
    for (l, lk) in left.hash_keys().enumerate() {
        for (r, &rk) in rkeys.iter().enumerate() {
            if lk == rk {
                out.push((l as u32, r as u32));
            }
        }
    }
    let stats = ExecStats {
        comparisons: (left.len() * right.len()) as u64,
        tuples: (left.len() + right.len() + out.len()) as u64,
        rows_out: out.len() as u64,
        ..Default::default()
    };
    observe_op("exec.nested_loop_join.calls", stats.rows_out);
    (out, stats)
}

/// Multiply-fold hasher for `u64` join keys; SipHash's flooding
/// resistance buys nothing for keys read from the engine's own tables.
#[derive(Default)]
struct KeyHasher(u64);

impl std::hash::Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(u64::from(b)));
    }

    fn write_u64(&mut self, k: u64) {
        let m = u128::from(k ^ self.0) * 0x9E37_79B9_7F4A_7C15;
        self.0 = m as u64 ^ (m >> 64) as u64;
    }
}

/// Hash equi-join: builds on the right input, probes with the left.
/// Output is left-major with matches in right-input order, the same
/// order as [`nested_loop_join`].
pub fn hash_join(left: Keys, right: Keys) -> (Pairs, ExecStats) {
    let mut table: HashMap<u64, Vec<u32>, BuildHasherDefault<KeyHasher>> = HashMap::default();
    for (r, k) in right.hash_keys().enumerate() {
        table.entry(k).or_default().push(r as u32);
    }
    let mut out = Vec::new();
    for (l, k) in left.hash_keys().enumerate() {
        if let Some(matches) = table.get(&k) {
            out.extend(matches.iter().map(|&r| (l as u32, r)));
        }
    }
    let stats = ExecStats {
        hash_builds: right.len() as u64,
        hash_probes: left.len() as u64,
        tuples: (left.len() + right.len() + out.len()) as u64,
        rows_out: out.len() as u64,
        ..Default::default()
    };
    observe_op("exec.hash_join.calls", stats.rows_out);
    (out, stats)
}

/// Sort key of a join value for [`sort_merge_join`]: equal sort keys are
/// exactly equal [`Value::hash_key`]s, so the merge joins the same pairs
/// as the other two algorithms. Within one column type the order is
/// numeric; an Int column joined with a Float column has no numeric
/// order with that equality, so such a merge runs in `hash_key` order.
fn merge_key(v: Value, mixed_types: bool) -> u64 {
    match v {
        _ if mixed_types => v.hash_key(),
        Value::Int(i) => i as u64 ^ (1 << 63),
        Value::Float(f) => crate::lindex::encode_f64(f),
    }
}

/// Sort-merge equi-join. Each input is stably sorted by key; equal-key
/// runs emit their cross product, left-major.
pub fn sort_merge_join(left: Keys, right: Keys) -> (Pairs, ExecStats) {
    let nlogn = |n: usize| -> u64 {
        if n <= 1 {
            n as u64
        } else {
            (n as f64 * (n as f64).log2()).ceil() as u64
        }
    };
    let mixed = left.column.dtype() != right.column.dtype();
    // (key, position) pairs are distinct, so an unstable sort is stable.
    let sorted = |keys: Keys| -> Vec<(u64, u32)> {
        let mut v: Vec<(u64, u32)> =
            (0..keys.len()).map(|i| (merge_key(keys.get(i), mixed), i as u32)).collect();
        v.sort_unstable();
        v
    };
    let (ls, rs) = (sorted(left), sorted(right));
    let mut out = Vec::new();
    let mut comparisons = 0u64;
    let (mut i, mut j) = (0usize, 0usize);
    while i < ls.len() && j < rs.len() {
        comparisons += 1;
        let (lk, rk) = (ls[i].0, rs[j].0);
        if lk < rk {
            i += 1;
        } else if lk > rk {
            j += 1;
        } else {
            let i_end = i + ls[i..].partition_point(|e| e.0 == lk);
            let j_end = j + rs[j..].partition_point(|e| e.0 == lk);
            for &(_, l) in &ls[i..i_end] {
                out.extend(rs[j..j_end].iter().map(|&(_, r)| (l, r)));
            }
            i = i_end;
            j = j_end;
        }
    }
    let stats = ExecStats {
        sort_ops: nlogn(left.len()) + nlogn(right.len()),
        comparisons,
        tuples: (left.len() + right.len() + out.len()) as u64,
        rows_out: out.len() as u64,
        ..Default::default()
    };
    observe_op("exec.sort_merge_join.calls", stats.rows_out);
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::{DataType, Schema};
    use proptest::prelude::*;

    fn table_ab() -> Table {
        Table::new(
            "t",
            Schema::new(&[("a", DataType::Int), ("b", DataType::Int)]),
            vec![
                ColumnData::Int((0..100).collect()),
                ColumnData::Int((0..100).map(|i| i % 10).collect()),
            ],
        )
    }

    /// Every row of `col`, in order.
    fn all(col: &ColumnData) -> Vec<u32> {
        (0..col.len() as u32).collect()
    }

    #[test]
    fn seq_scan_filters() {
        let t = table_ab();
        let (ids, stats) = seq_scan(&t, &[Predicate { column: 1, op: CmpOp::Eq, value: 3.0 }]);
        assert_eq!(ids, (0..10).map(|i| i * 10 + 3).collect::<Vec<u32>>());
        assert_eq!(stats.rows_out, 10);
        assert_eq!(stats.tuples, 100);
        assert!(stats.pages_read >= 1);
    }

    #[test]
    fn seq_scan_counts_short_circuit_comparisons() {
        // 100 rows test `b <= 2`; only the 30 survivors test `a >= 50`.
        let (ids, stats) = seq_scan(
            &table_ab(),
            &[
                Predicate { column: 1, op: CmpOp::Le, value: 2.0 },
                Predicate { column: 0, op: CmpOp::Ge, value: 50.0 },
            ],
        );
        assert_eq!(stats.comparisons, 130);
        assert_eq!(ids.len(), 15);
    }

    #[test]
    fn index_scan_matches_seq_scan() {
        // Large table, selective range: the regime where an index scan wins.
        let t = Table::new(
            "big",
            Schema::new(&[("a", DataType::Int)]),
            vec![ColumnData::Int((0..20_000).collect())],
        );
        let (idx_rows, idx_stats) = index_scan(&t, 0, 20.0, 30.0, &[]);
        let (seq_rows, seq_stats) = seq_scan(
            &t,
            &[
                Predicate { column: 0, op: CmpOp::Ge, value: 20.0 },
                Predicate { column: 0, op: CmpOp::Le, value: 30.0 },
            ],
        );
        assert_eq!(idx_rows, seq_rows);
        // Selective index scan should cost less than the full scan under
        // the true weights.
        assert!(
            idx_stats.latency_us(&TRUE_WEIGHTS) < seq_stats.latency_us(&TRUE_WEIGHTS),
            "index {} !< seq {}",
            idx_stats.latency_us(&TRUE_WEIGHTS),
            seq_stats.latency_us(&TRUE_WEIGHTS)
        );
    }

    #[test]
    fn learned_index_scan_is_byte_identical_to_sweep() {
        // Duplicated, non-monotone column so equality runs and residual
        // short-circuits are exercised.
        let t = Table::new(
            "t",
            Schema::new(&[("a", DataType::Int), ("b", DataType::Int)]),
            vec![
                ColumnData::Int((0..10_000).map(|i| (i * 37) % 997).collect()),
                ColumnData::Int((0..10_000).map(|i| i % 10).collect()),
            ],
        );
        let sidx = crate::lindex::SecondaryIndex::build(&t.columns[0]);
        let residuals: [&[Predicate]; 2] = [
            &[],
            &[
                Predicate { column: 1, op: CmpOp::Ge, value: 3.0 },
                Predicate { column: 1, op: CmpOp::Lt, value: 7.0 },
            ],
        ];
        let ranges = [
            (100.0, 300.0),   // range
            (42.0, 42.0),     // equality (multi-row run)
            (996.5, 996.5),   // equality, absent key
            (2000.0, 3000.0), // above all keys
            (300.0, 100.0),   // empty range
        ];
        for residual in residuals {
            for (lo, hi) in ranges {
                let (sweep_rows, sweep_stats) = index_scan(&t, 0, lo, hi, residual);
                let (learn_rows, learn_stats) = index_scan_learned(&t, lo, hi, residual, &sidx);
                assert_eq!(learn_rows, sweep_rows, "rows differ for [{lo}, {hi}]");
                assert_eq!(learn_stats, sweep_stats, "stats differ for [{lo}, {hi}]");
            }
        }
    }

    /// The three joins' pair lists: nested loop and hash in their shared
    /// output order, sort-merge sorted into that order.
    fn all_joins(lcol: &ColumnData, lrows: &[u32], rcol: &ColumnData, rrows: &[u32]) -> [Pairs; 3] {
        let (left, right) =
            (Keys { column: lcol, rows: lrows }, Keys { column: rcol, rows: rrows });
        let (nl, _) = nested_loop_join(left, right);
        let (hj, _) = hash_join(left, right);
        let (mut smj, _) = sort_merge_join(left, right);
        smj.sort_unstable();
        [nl, hj, smj]
    }

    #[test]
    fn joins_agree() {
        let lcol = ColumnData::Int((0..50).map(|i| i % 7).collect());
        let rcol = ColumnData::Int((0..30).map(|i| i % 5).collect());
        let [nl, hj, smj] = all_joins(&lcol, &all(&lcol), &rcol, &all(&rcol));
        assert!(!nl.is_empty());
        assert_eq!(nl, hj, "hash join disagrees with nested loop");
        assert_eq!(nl, smj, "merge join disagrees with nested loop");
    }

    #[test]
    fn joins_read_keys_through_row_ids() {
        // Rows 1 and 3 of the left column hold key 7; only row 3 is in
        // the input, at position 0.
        let lcol = ColumnData::Int(vec![1, 7, 2, 7]);
        let rcol = ColumnData::Int(vec![7, 9, 7]);
        for pairs in all_joins(&lcol, &[3, 0], &rcol, &all(&rcol)) {
            assert_eq!(pairs, vec![(0, 0), (0, 2)]);
        }
    }

    #[test]
    fn join_cost_shapes() {
        // Large x large: nested loop must be far more expensive than hash.
        let col = ColumnData::Int((0..500).map(|i| i % 50).collect());
        let rows = all(&col);
        let big = Keys { column: &col, rows: &rows };
        let (_, nl) = nested_loop_join(big, big);
        let (_, hj) = hash_join(big, big);
        assert!(nl.latency_us(&TRUE_WEIGHTS) > 5.0 * hj.latency_us(&TRUE_WEIGHTS));
        // Tiny inner: nested loop can win (no build cost).
        let tiny = Keys { column: &col, rows: &rows[1..2] };
        let (_, nl2) = nested_loop_join(tiny, tiny);
        let (_, hj2) = hash_join(tiny, tiny);
        assert!(nl2.latency_us(&TRUE_WEIGHTS) <= hj2.latency_us(&TRUE_WEIGHTS));
    }

    #[test]
    fn stats_merge_accumulates() {
        let mut a = ExecStats { tuples: 10, rows_out: 5, ..Default::default() };
        let b = ExecStats { tuples: 7, rows_out: 3, comparisons: 2, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.tuples, 17);
        assert_eq!(a.comparisons, 2);
        assert_eq!(a.rows_out, 3, "rows_out reflects the downstream operator");
    }

    /// Key codes 0..10 are themselves; 10..20 land on 2^53 - 5 .. 2^53 + 4,
    /// where distinct Ints share an `f64`.
    fn int_key(code: i64) -> i64 {
        if code < 10 {
            code
        } else {
            (1 << 53) - 15 + code
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// All three join algorithms produce identical pairs, including on
        /// Int keys that differ but convert to the same `f64`.
        #[test]
        fn join_equivalence(
            lkeys in proptest::collection::vec(0i64..20, 0..60),
            rkeys in proptest::collection::vec(0i64..20, 0..60),
        ) {
            let lcol = ColumnData::Int(lkeys.iter().map(|&k| int_key(k)).collect());
            let rcol = ColumnData::Int(rkeys.iter().map(|&k| int_key(k)).collect());
            let [nl, hj, smj] = all_joins(&lcol, &all(&lcol), &rcol, &all(&rcol));
            let want = lkeys.iter().map(|&l| rkeys.iter().filter(|&&r| r == l).count()).sum();
            prop_assert_eq!(nl.len(), want);
            prop_assert_eq!(&nl, &hj);
            prop_assert_eq!(&nl, &smj);
        }
    }
}
