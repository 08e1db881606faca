//! Property test: every plan the planner can produce for a random SPJ query
//! — any join order, any algorithm mix, any scan choice — returns exactly
//! the rows of the naive reference evaluation. This is the core soundness
//! property that lets learned optimizers roam the plan space freely.

use ml4db_plan::executor::{naive_execute, normalize_row};
use ml4db_plan::{execute, ClassicEstimator, ExecResult, Planner, Query};
use ml4db_storage::table::{Catalog, ColumnData, DataType, Schema, Table};
use ml4db_storage::{CmpOp, Database};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A small random 3-table star catalog driven by proptest inputs.
fn catalog(dim_rows: usize, fact_rows: usize, fanout: i64, seed: u64) -> Database {
    use rand::Rng;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cat = Catalog::new();
    cat.add_table(Table::new(
        "dim_a",
        Schema::new(&[("id", DataType::Int), ("attr", DataType::Int)]),
        vec![
            ColumnData::Int((0..dim_rows as i64).collect()),
            ColumnData::Int((0..dim_rows).map(|_| rng.gen_range(0..10)).collect()),
        ],
    ));
    cat.add_table(Table::new(
        "dim_b",
        Schema::new(&[("id", DataType::Int), ("weight", DataType::Float)]),
        vec![
            ColumnData::Int((0..dim_rows as i64).collect()),
            ColumnData::Float((0..dim_rows).map(|_| rng.gen_range(0.0..1.0)).collect()),
        ],
    ));
    cat.add_table(Table::new(
        "fact",
        Schema::new(&[
            ("a_id", DataType::Int),
            ("b_id", DataType::Int),
            ("val", DataType::Int),
        ]),
        vec![
            ColumnData::Int((0..fact_rows).map(|_| rng.gen_range(0..fanout.max(1))).collect()),
            ColumnData::Int(
                (0..fact_rows).map(|_| rng.gen_range(0..dim_rows as i64)).collect(),
            ),
            ColumnData::Int((0..fact_rows).map(|_| rng.gen_range(0..100)).collect()),
        ],
    ));
    Database::analyze(cat, &mut rng)
}

fn normalized(db: &Database, q: &Query, result: &ExecResult) -> Vec<Vec<String>> {
    let mut v: Vec<Vec<String>> = result
        .rows
        .materialize(db, q)
        .iter()
        .map(|r| {
            normalize_row(db, q, result.rows.layout(), r)
                .into_iter()
                .map(|val| format!("{val:?}"))
                .collect()
        })
        .collect();
    v.sort();
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// All sampled plans agree with the naive oracle on random data,
    /// predicates, and join shapes.
    #[test]
    fn every_plan_matches_naive_oracle(
        seed in 0u64..5000,
        dim_rows in 3usize..25,
        fact_rows in 5usize..60,
        fanout in 1i64..30,
        attr_cut in 0i64..10,
        val_cut in 0i64..100,
    ) {
        let db = catalog(dim_rows, fact_rows, fanout, seed);
        let q = Query::new(&["fact", "dim_a", "dim_b"])
            .join(0, "a_id", 1, "id")
            .join(0, "b_id", 2, "id")
            .filter(1, "attr", CmpOp::Ge, attr_cut as f64)
            .filter(0, "val", CmpOp::Lt, val_cut as f64);
        q.validate(&db).unwrap();
        let mut expected = naive_execute(&db, &q).unwrap();
        expected.sort_by_key(|r| format!("{r:?}"));
        let expected: Vec<Vec<String>> = expected
            .iter()
            .map(|r| r.iter().map(|v| format!("{v:?}")).collect())
            .collect();

        let planner = Planner::default();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xdead);
        let mut plans = planner.random_plans(&db, &q, &ClassicEstimator, 4, &mut rng);
        plans.push(planner.best_plan(&db, &q, &ClassicEstimator).unwrap());
        plans.push(planner.greedy_plan(&db, &q, &ClassicEstimator).unwrap());
        for plan in plans {
            plan.validate().unwrap();
            let result = execute(&db, &q, &plan).unwrap();
            let got = normalized(&db, &q, &result);
            prop_assert_eq!(&got, &expected, "plan {} diverged", plan.signature());
        }
    }
}

/// A cyclic join graph forces a join node to carry more than one condition:
/// the first drives the physical join, the rest apply as residual filters —
/// a path tree-shaped queries never exercise.
#[test]
fn cyclic_join_residual_conditions_match_oracle() {
    let db = catalog(12, 40, 12, 99);
    // Triangle: fact—dim_a, fact—dim_b, plus a cross edge dim_a.id = dim_b.id.
    let q = Query::new(&["fact", "dim_a", "dim_b"])
        .join(0, "a_id", 1, "id")
        .join(0, "b_id", 2, "id")
        .join(1, "id", 2, "id");
    q.validate(&db).unwrap();
    let mut expected = naive_execute(&db, &q).unwrap();
    expected.sort_by_key(|r| format!("{r:?}"));
    let expected: Vec<Vec<String>> = expected
        .iter()
        .map(|r| r.iter().map(|v| format!("{v:?}")).collect())
        .collect();
    let planner = Planner::default();
    let mut rng = StdRng::seed_from_u64(7);
    let mut plans = planner.random_plans(&db, &q, &ClassicEstimator, 6, &mut rng);
    plans.push(planner.best_plan(&db, &q, &ClassicEstimator).unwrap());
    let mut residual_exercised = false;
    for plan in plans {
        plan.walk(&mut |n| {
            if let ml4db_plan::PlanOp::Join { conditions, .. } = &n.op {
                if conditions.len() > 1 {
                    residual_exercised = true;
                }
            }
        });
        let result = execute(&db, &q, &plan).unwrap();
        let got = normalized(&db, &q, &result);
        assert_eq!(got, expected, "plan {} diverged", plan.signature());
    }
    assert!(residual_exercised, "no plan carried a residual join condition");
}

/// Every valid hint set yields a plan that obeys its restrictions and
/// returns the oracle's rows — the invariant Bao/AutoSteer arms rely on.
#[test]
fn all_hint_sets_plan_correctly() {
    let db = catalog(10, 30, 10, 5);
    let q = Query::new(&["fact", "dim_a"])
        .join(0, "a_id", 1, "id")
        .filter(1, "attr", CmpOp::Ge, 3.0);
    let mut expected = naive_execute(&db, &q).unwrap();
    expected.sort_by_key(|r| format!("{r:?}"));
    let expected: Vec<Vec<String>> = expected
        .iter()
        .map(|r| r.iter().map(|v| format!("{v:?}")).collect())
        .collect();
    for hint in ml4db_plan::all_hint_sets() {
        let planner = Planner { hint, ..Default::default() };
        // Index-scan-only hint sets may fail to plan (no indexes declared):
        // that must be a clean None, never a bad plan.
        let Some(plan) = planner.best_plan(&db, &q, &ClassicEstimator) else {
            assert!(!hint.seq_scan, "seq-scan-capable hint set failed to plan");
            continue;
        };
        plan.validate().unwrap();
        plan.walk(&mut |n| match &n.op {
            ml4db_plan::PlanOp::Join { algo, .. } => {
                assert!(hint.allowed_joins().contains(algo), "{} used {algo:?}", hint.label())
            }
            ml4db_plan::PlanOp::Scan { algo, .. } => {
                assert!(hint.allowed_scans().contains(algo), "{} used {algo:?}", hint.label())
            }
        });
        let result = execute(&db, &q, &plan).unwrap();
        let got = normalized(&db, &q, &result);
        assert_eq!(got, expected, "hint {} diverged", hint.label());
    }
}
