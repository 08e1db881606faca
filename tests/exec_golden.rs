//! Golden snapshot of the executor's observable contract. For every plan
//! in two fixed families it records all eight `ExecStats` counters, the
//! simulated latency's bit pattern, the output layout, the row count and
//! an order-sensitive digest of the materialized rows, and compares the
//! whole list byte-for-byte with `tests/golden/exec_stats.json`.
//!
//! * `templates/*` — the templated serving catalogue (joblite at 400
//!   base rows, 4 tenants x 6 templates x 4 variants), each under its
//!   expert plan.
//! * `job/*`, `tpch/*` — every plan `enumerate_all_plans` emits for a
//!   few <=4-table queries under each of the 21 hint sets (plans shared
//!   between hint sets are recorded once).
//!
//! Plans run through the `ml4db_par` pool, so CI runs this file under
//! both threading modes against the same golden. Regenerate deliberately
//! with `ML4DB_BLESS=1 cargo test --test exec_golden`.

use std::collections::BTreeSet;
use std::path::PathBuf;

use ml4db_core::datagen::{SchemaGraph, TemplateMix};
use ml4db_core::optimizer::Env;
use ml4db_core::par;
use ml4db_core::plan::executor::execute;
use ml4db_core::plan::hints::all_hint_sets;
use ml4db_core::plan::plan::{PlanNode, PlanOp};
use ml4db_core::plan::{HintSet, Query};
use ml4db_core::storage::datasets::{joblite, DatasetConfig};
use ml4db_core::storage::{Database, Row, Value};
use ml4db_oracle::exhaustive::enumerate_all_plans;
use ml4db_oracle::workload::{
    joblite_db, sample_query, tpchlite_db, JOBLITE_EDGES, TPCHLITE_EDGES,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A plan's identity: its shape, join algorithms, scan algorithms and
/// index columns.
fn plan_key(node: &PlanNode) -> String {
    match &node.op {
        PlanOp::Scan { table, algo, index_column, .. } => match index_column {
            Some(c) => format!("S{table}{algo:?}:{c}"),
            None => format!("S{table}{algo:?}"),
        },
        PlanOp::Join { algo, .. } => {
            format!("({} {algo:?} {})", plan_key(&node.children[0]), plan_key(&node.children[1]))
        }
    }
}

/// FNV-1a 64 over every value's type tag and bit pattern, row by row.
fn rows_digest(rows: &[Row]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |byte: u8| {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for row in rows {
        for v in row {
            let (tag, bits) = match *v {
                Value::Int(i) => (0u8, i as u64),
                Value::Float(f) => (1u8, f.to_bits()),
            };
            eat(tag);
            bits.to_le_bytes().into_iter().for_each(&mut eat);
        }
        eat(0xff);
    }
    h
}

/// One golden line for `plan` over `query`.
fn record(db: &Database, query: &Query, case: &str, plan: &PlanNode) -> String {
    let r = execute(db, query, plan).unwrap_or_else(|e| panic!("{case}: {e}"));
    let s = r.stats;
    let rows = &r.rows.materialize(db, query);
    format!(
        "[\"{case}\",[{},{},{},{},{},{},{},{}],\"{:016x}\",{:?},{},\"{:016x}\"]",
        s.rows_out,
        s.tuples,
        s.comparisons,
        s.hash_builds,
        s.hash_probes,
        s.pages_read,
        s.random_pages,
        s.sort_ops,
        r.latency_us.to_bits(),
        r.rows.layout(),
        rows.len(),
        rows_digest(rows)
    )
}

/// The serving catalogue under its expert plans.
fn template_lines() -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(42);
    let db = Database::analyze(
        joblite(&DatasetConfig { base_rows: 400, ..Default::default() }, &mut rng),
        &mut rng,
    );
    let mix = TemplateMix::generate(&db, &SchemaGraph::joblite(), 4, 6, 4, 42 ^ 0xA5A5);
    let queries: Vec<Query> = mix.pools.into_iter().flatten().flatten().collect();
    let env = Env::new(&db);
    let work: Vec<(String, Query, PlanNode)> = queries
        .into_iter()
        .enumerate()
        .map(|(i, q)| {
            let plan = env.plan_with_hint_uncached(&q, HintSet::all()).expect("plannable");
            (format!("templates/{i:03}"), q, plan)
        })
        .collect();
    par::par_map(&work, |(case, q, p)| record(&db, q, case, p))
}

/// Every distinct plan of the first `queries` sampled queries with at
/// least three tables, over all hint sets.
fn exhaustive_lines(
    name: &str,
    db: &Database,
    edges: &[(&str, &str, &str, &str)],
    queries: usize,
    seed: u64,
) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut work: Vec<(String, Query, PlanNode)> = Vec::new();
    let sampled = std::iter::repeat_with(|| sample_query(db, edges, 4, &mut rng, true));
    for (qi, q) in sampled.filter(|q| q.num_tables() >= 3).take(queries).enumerate() {
        let mut seen = BTreeSet::new();
        for hint in all_hint_sets() {
            for plan in enumerate_all_plans(db, &q, hint) {
                let key = plan_key(&plan);
                if seen.insert(key.clone()) {
                    work.push((format!("{name}/q{qi}/{key}"), q.clone(), plan));
                }
            }
        }
    }
    par::par_map(&work, |(case, q, p)| record(db, q, case, p))
}

fn golden_lines() -> Vec<String> {
    let mut lines = template_lines();
    lines.extend(exhaustive_lines("job", &joblite_db(40, 91), JOBLITE_EDGES, 4, 95));
    lines.extend(exhaustive_lines("tpch", &tpchlite_db(40, 93), TPCHLITE_EDGES, 4, 99));
    lines
}

#[test]
fn executor_matches_golden_stats_and_rows() {
    let canonical = format!("[\n{}\n]\n", golden_lines().join(",\n"));
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/exec_stats.json");
    if std::env::var("ML4DB_BLESS").as_deref() == Ok("1") {
        std::fs::write(&path, &canonical)
            .unwrap_or_else(|e| panic!("cannot bless {}: {e}", path.display()));
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); generate it with \
             ML4DB_BLESS=1 cargo test --test exec_golden",
            path.display()
        )
    });
    if canonical != golden {
        let first = canonical.lines().zip(golden.lines()).find(|(a, b)| a != b).map_or_else(
            || "line counts differ".to_string(),
            |(a, b)| format!("{a}\n vs golden\n{b}"),
        );
        panic!("executor drifted from {}: {first}", path.display());
    }
}
