//! The attribution pass: re-times the same statements through the stage
//! functions of each layer. It runs after the traced phases, so its cost
//! never enters an end-to-end number.

use crate::stats::{mean, median};
use crate::terminal::{Conn, StageTimes, Terminal};
use crate::trace::Tracer;
use oltap_bench::ch::ch_queries;
use oltap_bench::ch::schema::card;
use oltap_client::Client;
use oltap_common::vector::BATCH_SIZE;
use oltap_common::Result;
use oltap_core::physical::{execute_plan, snapshot_ctx, try_fused_aggregate};
use oltap_core::{Catalog, Database, ParallelExec};
use oltap_sql::{LogicalPlan, Statement};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Analytic stage timings, medians over repetitions.
#[derive(Debug, Default)]
pub struct OlapStages {
    /// Mean `parse`, µs.
    pub parse_us: f64,
    /// Mean `bind_select` + `optimize`, µs.
    pub bind_us: f64,
    /// `Session::execute_statement` per query id, µs.
    pub select_us: BTreeMap<&'static str, f64>,
    /// Mean of select − bind − exec over the queries, µs.
    pub session_us: f64,
    /// Serial `execute_plan` time ÷ 2-worker `ParallelExec` time, summed
    /// over the suite.
    pub parallel_speedup: f64,
    /// Execution time of the single-table queries, ms per suite.
    pub scan_agg_ms: f64,
    /// Execution time of the join queries, ms per suite.
    pub join_ms: f64,
    /// Aggregate(Scan) plans the fused path takes, as a share.
    pub fused_ratio: f64,
    /// `TableHandle::scan` on leaves without a SIP mark, ms per suite.
    pub scan_ms: f64,
    /// `TableHandle::scan` on SIP-marked leaves (re-timed without the
    /// runtime join filter), ms per suite.
    pub scan_sip_ms: f64,
    /// Rows the leaf scans return per result row.
    pub scan_rows_per_result_row: f64,
}

fn walk<'a>(plan: &'a LogicalPlan, out: &mut Vec<&'a LogicalPlan>) {
    out.push(plan);
    match plan {
        LogicalPlan::Scan { .. } => {}
        LogicalPlan::Filter { input, .. }
        | LogicalPlan::Project { input, .. }
        | LogicalPlan::Aggregate { input, .. }
        | LogicalPlan::Sort { input, .. }
        | LogicalPlan::Limit { input, .. } => walk(input, out),
        LogicalPlan::Join { left, right, .. } => {
            walk(left, out);
            walk(right, out);
        }
    }
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Re-times the CH suite `reps` times. `parallel` says whether the
/// workload's own executor is the 2-worker one.
pub fn olap(db: &Arc<Database>, parallel: bool, reps: usize) -> Result<OlapStages> {
    let pexec = ParallelExec::new(2);
    let mut session = db.session();
    let (mut parse, mut bind) = (Vec::new(), Vec::new());
    let mut per_query: Vec<(&'static str, bool, [Vec<f64>; 6])> = Vec::new();
    let (mut fused, mut fusable) = (0usize, 0usize);
    let (mut scanned_rows, mut result_rows) = (0usize, 0usize);
    for q in ch_queries() {
        // serial, parallel, full statement, bind, plain scans, SIP scans
        let mut t: [Vec<f64>; 6] = Default::default();
        let mut has_join = false;
        for rep in 0..reps {
            let start = Instant::now();
            let Statement::Select(sel) = oltap_sql::parse(q.sql)? else {
                unreachable!("CH queries are SELECTs")
            };
            parse.push(secs(start) * 1e6);
            let catalog = db.catalog_read();
            let start = Instant::now();
            let plan = oltap_sql::optimize(oltap_sql::bind_select(&sel, &*catalog as &Catalog)?)?;
            let b = secs(start);
            bind.push(b * 1e6);
            t[3].push(b);
            let ctx = snapshot_ctx(db.txn_manager().now());
            let start = Instant::now();
            execute_plan(&plan, &catalog, &ctx)?;
            t[0].push(secs(start));
            let start = Instant::now();
            pexec.execute(&plan, &catalog, &ctx)?;
            t[1].push(secs(start));
            let mut nodes = Vec::new();
            walk(&plan, &mut nodes);
            let (mut plain, mut sip) = (0.0, 0.0);
            for node in &nodes {
                match node {
                    LogicalPlan::Scan {
                        table,
                        projection,
                        pushdown,
                        sip: mark,
                        ..
                    } => {
                        let start = Instant::now();
                        let batches = catalog.get(table)?.scan(
                            projection,
                            pushdown,
                            ctx.read_ts,
                            ctx.me,
                            BATCH_SIZE,
                        )?;
                        let s = secs(start);
                        if mark.is_some() {
                            sip += s;
                        } else {
                            plain += s;
                        }
                        if rep == 0 {
                            scanned_rows += batches.iter().map(|b| b.len()).sum::<usize>();
                        }
                    }
                    LogicalPlan::Aggregate { input, group, aggs } if rep == 0 => {
                        if matches!(input.as_ref(), LogicalPlan::Scan { .. }) {
                            fusable += 1;
                            if try_fused_aggregate(input, group, aggs, &catalog, &ctx)?.is_some() {
                                fused += 1;
                            }
                        }
                    }
                    LogicalPlan::Join { .. } => has_join = true,
                    _ => {}
                }
            }
            t[4].push(plain);
            t[5].push(sip);
            drop(catalog);
            let start = Instant::now();
            let stmt = oltap_sql::parse(q.sql)?;
            let out = session.execute_statement(stmt, q.sql)?;
            t[2].push(secs(start));
            if rep == 0 {
                result_rows += out.rows().len();
            }
        }
        per_query.push((q.id, has_join, t));
    }
    let exec = |t: &[Vec<f64>; 6]| {
        if parallel {
            median(&t[1])
        } else {
            median(&t[0])
        }
    };
    let mut out = OlapStages {
        parse_us: mean(&parse),
        bind_us: mean(&bind),
        ..OlapStages::default()
    };
    let (mut serial, mut par, mut session_us) = (0.0, 0.0, Vec::new());
    for (id, has_join, t) in &per_query {
        out.select_us.insert(id, median(&t[2]) * 1e6);
        session_us.push((median(&t[2]) - median(&t[3]) - exec(t)) * 1e6);
        serial += median(&t[0]);
        par += median(&t[1]);
        if *has_join {
            out.join_ms += exec(t) * 1e3;
        } else {
            out.scan_agg_ms += exec(t) * 1e3;
        }
        out.scan_ms += median(&t[4]) * 1e3;
        out.scan_sip_ms += median(&t[5]) * 1e3;
    }
    out.session_us = mean(&session_us);
    out.parallel_speedup = serial / par;
    out.fused_ratio = fused as f64 / fusable.max(1) as f64;
    out.scan_rows_per_result_row = scanned_rows as f64 / result_rows.max(1) as f64;
    Ok(out)
}

/// Runs `txns` TPC-C transactions in-process through the stage functions,
/// each ending in ROLLBACK so the database is left as it was. Order ids
/// start far above any the workload uses.
pub fn oltp(db: &Arc<Database>, homes: Vec<i64>, seed: u64, txns: u64) -> Result<StageTimes> {
    let conn = Conn::Staged(db.session(), Arc::clone(db), StageTimes::default());
    let mut term = Terminal::new(conn, homes, seed, 1_000_000_000).rolling_back();
    let mut tr = Tracer::new(false, Instant::now());
    for _ in 0..txns {
        term.run_one(&mut tr, None);
    }
    match term.into_conn() {
        Conn::Staged(_, _, times) => Ok(times),
        _ => unreachable!("built as Staged"),
    }
}

/// The wire edge: median `Client::query` latency minus median in-process
/// latency of the same read-only point statements, alternating, µs.
pub fn edge(db: &Arc<Database>, addr: &str, warehouses: i64, samples: usize) -> Result<f64> {
    let mut client = Client::connect(addr)?;
    let mut session = db.session();
    let (mut wire, mut local) = (Vec::new(), Vec::new());
    for i in 0..samples as i64 {
        let sql = format!(
            "SELECT c_balance FROM customer WHERE c_w_id = {} AND c_d_id = {} AND c_id = {}",
            1 + i % warehouses,
            1 + i % card::DISTRICTS,
            1 + (i * 7) % card::CUSTOMERS
        );
        let start = Instant::now();
        client.query(&sql)?;
        wire.push(secs(start) * 1e6);
        let start = Instant::now();
        session.execute_statement(oltap_sql::parse(&sql)?, &sql)?;
        local.push(secs(start) * 1e6);
    }
    client.close()?;
    Ok(median(&wire) - median(&local))
}
