//! The two workloads. Each is one CH-benCHmark run on a durable
//! database: set-up, a transactional stream, an analytic stream, the
//! correctness checks and a restart. They differ in whether the streams
//! take turns or overlap, and through which edge (see README.md for why
//! each exists).

use crate::attrib;
use crate::check::{answers_match, digest, tpcc_consistency};
use crate::gen;
use crate::stats::{geomean, mean, median, Latencies};
use crate::terminal::{Conn, Done, Failures, Kind, Maintenance, TermStats, Terminal};
use crate::trace::{self, next_request, Span, Tracer};
use oltap_bench::ch::ch_queries;
use oltap_bench::ch::schema::{card, create_ch_tables};
use oltap_client::Client;
use oltap_common::{DbError, Result, Row};
use oltap_core::{Database, DbConfig, MemoryConfig, TableFormat};
use oltap_sched::AdmissionConfig;
use oltap_server::{Server, ServerConfig};
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Warehouses in the population (≈473k rows).
pub const WAREHOUSES: i64 = 16;

/// The workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One in-process terminal and analytic passes on 2 workers, taking
    /// turns.
    Olap,
    /// One terminal and one analytic stream at once, over the wire, under
    /// admission control and the memory governor.
    Mixed,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "ch_olap" => Some(Workload::Olap),
            "ch_mixed" => Some(Workload::Mixed),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Olap => "ch_olap",
            Workload::Mixed => "ch_mixed",
        }
    }
}

/// How much work one run does. The amounts are fixed per `--seconds`
/// (calibrated so the timed phase takes about that long on a quiet
/// 2-vCPU machine), never by a clock: NewOrders grow the database, so a
/// fixed duration would hand a faster build a bigger database.
#[derive(Debug, Clone)]
pub struct Sizes {
    /// Warehouses loaded.
    pub warehouses: i64,
    /// Times the set-up is repeated (its median is `setup_s`).
    pub setup_reps: usize,
    /// Times the database is reopened (the median is `txn.recovery_s`).
    pub reopen_reps: usize,
    /// Transactions the terminal runs.
    pub txns: u64,
    /// Windows the transactional stream is cut into. In `ch_olap` each
    /// window is one round: its transactions, a maintenance pass and one
    /// pass of the CH suite.
    pub windows: usize,
    /// Commits between maintenance passes (`ch_mixed`; `ch_olap` runs one
    /// pass per round).
    pub maint_every: u64,
    /// Repetitions of each stage in the attribution pass.
    pub attrib_reps: usize,
    /// Transactions in the attribution pass.
    pub attrib_txns: u64,
}

impl Sizes {
    /// The sizes of `w` for a run of `seconds`.
    pub fn of(w: Workload, seconds: u64) -> Sizes {
        let s = seconds.max(1);
        let base = Sizes {
            warehouses: WAREHOUSES,
            setup_reps: 3,
            reopen_reps: 3,
            txns: 0,
            windows: 20,
            maint_every: 2_000,
            attrib_reps: 3,
            attrib_txns: 2_000,
        };
        match w {
            // One round a second: about 0.35 s of transactions, 0.05 s of
            // maintenance and 0.6 s of analytics.
            Workload::Olap => Sizes {
                txns: 1_500 * s,
                windows: s as usize,
                ..base
            },
            Workload::Mixed => Sizes {
                txns: 1_750 * s,
                ..base
            },
        }
    }
}

fn db_config(w: Workload, wal: &Path) -> DbConfig {
    let mut cfg = DbConfig {
        wal_path: Some(wal.to_path_buf()),
        ..DbConfig::default()
    };
    if w == Workload::Mixed {
        // Governance as in the server experiment (E20).
        cfg.memory = Some(MemoryConfig {
            total_bytes: 256 << 20,
            oltp_bytes: 64 << 20,
            olap_bytes: 192 << 20,
            query_bytes: 16 << 20,
        });
        cfg.admission = Some(AdmissionConfig::default());
    }
    cfg
}

/// A metric as printed: name, value, unit.
pub type Metric = (String, f64, &'static str);

/// What one run produced.
#[derive(Debug, Default)]
pub struct RunOut {
    /// End-to-end metrics.
    pub e2e: Vec<Metric>,
    /// Per-layer metrics (traced runs).
    pub layers: Vec<Metric>,
    /// Operations attempted in the measured phases.
    pub attempted: u64,
    /// Failures by kind.
    pub failures: Failures,
    /// Failed correctness checks.
    pub problems: Vec<String>,
    /// Recorded spans (traced runs).
    pub spans: Vec<Span>,
    /// Human-readable lines.
    pub notes: Vec<String>,
}

/// The analytic stream's results.
#[derive(Debug, Default)]
struct OlapStats {
    attempted: u64,
    completed: u64,
    failures: Failures,
    elapsed_s: f64,
    /// Completed queries per second of each full pass.
    pass_qps: Vec<f64>,
    latency_ms: BTreeMap<&'static str, Vec<f64>>,
    /// The last answer to each query.
    answers: BTreeMap<&'static str, Vec<Row>>,
}

impl OlapStats {
    /// Runs the CH suite once, in order; `false` when `stop` was set before
    /// the pass finished (the partial pass is not counted in `pass_qps`).
    fn pass(&mut self, conn: &mut Conn, tr: &mut Tracer, stop: Option<&AtomicBool>) -> bool {
        let (start, done_before) = (Instant::now(), self.completed);
        for q in ch_queries() {
            if stop.is_some_and(|s| s.load(Ordering::SeqCst)) {
                self.elapsed_s += start.elapsed().as_secs_f64();
                return false;
            }
            let rq = next_request();
            let root = tr.begin("olap.query", rq);
            let t = Instant::now();
            let out = conn.run(q.sql, tr, rq);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            tr.end(root);
            self.attempted += 1;
            match out {
                Ok(rows) => {
                    self.completed += 1;
                    self.latency_ms.entry(q.id).or_default().push(ms);
                    self.answers.insert(q.id, rows);
                }
                Err(e) => self.failures.record(&e),
            }
        }
        let secs = start.elapsed().as_secs_f64();
        self.elapsed_s += secs;
        self.pass_qps
            .push((self.completed - done_before) as f64 / secs);
        true
    }
}

/// A window of the transactional stream: when it began and ended, and how
/// many transactions had finished by its end.
type Window = (Instant, Instant, usize);

/// The transactional stream.
struct OltpPhase {
    stats: TermStats,
    windows: Vec<Window>,
    maint_ms: Vec<f64>,
}

impl OltpPhase {
    /// Seconds the transactions ran (the windows' total).
    fn elapsed_s(&self) -> f64 {
        self.windows
            .iter()
            .map(|(start, end, _)| (*end - *start).as_secs_f64())
            .sum()
    }
}

/// What [`take_turns`] returns: the windows, the analytic stream and its
/// answers after the first round.
type Turns = (Vec<Window>, OlapStats, BTreeMap<&'static str, Vec<Row>>);

/// `ch_olap`'s timed phase: `sizes.windows` rounds, each of the terminal's
/// share of transactions, one maintenance pass that merges them, and one
/// pass of the CH suite on 2 workers. A round's window ends after its
/// maintenance pass, so the pass shows in `tpmC` as it does where it runs
/// between commits. Taking turns spreads both streams over the whole
/// phase, so a slow spell of the machine weighs on both alike. The
/// terminal records the writes of the first round only; the row-store
/// reference replays them to check that round's answers.
fn take_turns(
    db: &Database,
    term: &mut Terminal,
    conn: &mut Conn,
    maint: &Maintenance,
    tr: &mut Tracer,
    sizes: &Sizes,
) -> Result<Turns> {
    let rounds = sizes.windows as u64;
    let mut windows = Vec::new();
    let mut olap = OlapStats::default();
    let mut first = BTreeMap::new();
    for r in 0..rounds {
        db.set_parallelism(1);
        let start = Instant::now();
        for _ in sizes.txns * r / rounds..sizes.txns * (r + 1) / rounds {
            term.run_one(tr, None);
        }
        term.finish_log()?;
        maint.run(tr);
        windows.push((start, Instant::now(), term.stats.done.len()));
        db.set_parallelism(2);
        olap.pass(conn, tr, None);
        if r == 0 {
            first = olap.answers.clone();
        }
    }
    Ok((windows, olap, first))
}

/// Windows of equally many finished transactions, each from the previous
/// one's last completion (the phase start for the first) to its own.
fn count_windows(done: &[Done], start: Instant, windows: usize) -> Vec<Window> {
    let n = done.len();
    let at = |i: usize| if i == 0 { start } else { done[i - 1].at };
    (0..windows)
        .map(|w| {
            let (from, to) = (w * n / windows, (w + 1) * n / windows);
            (at(from), at(to), to)
        })
        .collect()
}

fn page_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => page_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

fn wal_bytes(wal: &Path) -> Result<u64> {
    Ok(std::fs::metadata(wal)?.len())
}

fn sibling(wal: &Path, suffix: &str) -> PathBuf {
    let mut os = wal.as_os_str().to_os_string();
    os.push(suffix);
    PathBuf::from(os)
}

fn p(lat: &Latencies, q: f64, what: &str) -> Result<f64> {
    lat.percentile(q).ok_or_else(|| {
        DbError::InvalidArgument(format!(
            "{what}: p{} needs more samples (n={})",
            q * 100.0,
            lat.count()
        ))
    })
}

/// Latencies of the finished transactions of kinds `keep`; failures count
/// as missing every percentile.
fn latencies(done: &[Done], keep: impl Fn(Kind) -> bool) -> Latencies {
    let kept = done.iter().filter(|d| keep(d.kind));
    let failed = kept.clone().filter(|d| d.us.is_none()).count() as u64;
    Latencies::new(kept.filter_map(|d| d.us).collect(), failed)
}

/// Per window: tpmC, txn p50, txn p99, NewOrder p50 and Payment p50. The
/// end-to-end metrics are medians over the windows, so a burst of
/// interference from other tenants of the machine moves one or two
/// windows and not the result.
fn per_window(phase: &OltpPhase) -> Result<Vec<[f64; 5]>> {
    let done = &phase.stats.done;
    let mut from = 0;
    let mut out = Vec::new();
    for &(start, end, to) in &phase.windows {
        let chunk = &done[from..to];
        from = to;
        if chunk.is_empty() {
            return Err(DbError::InvalidArgument(
                "too few transactions for the windows".into(),
            ));
        }
        let secs = (end - start).as_secs_f64();
        let new_orders = chunk
            .iter()
            .filter(|d| d.kind == Kind::NewOrder && d.us.is_some())
            .count();
        let all = latencies(chunk, |_| true);
        out.push([
            new_orders as f64 * 60.0 / secs,
            p(&all, 0.5, "txn")?,
            p(&all, 0.99, "txn")?,
            p(&latencies(chunk, |k| k == Kind::NewOrder), 0.5, "new_order")?,
            p(&latencies(chunk, |k| k == Kind::Payment), 0.5, "payment")?,
        ]);
    }
    Ok(out)
}

/// Set-up: open a durable database, load the population of `warehouses`
/// through logged SQL, merge, and (for `ch_mixed`) start the server.
/// Returns the seconds it took, without the time spent generating the SQL.
fn set_up(
    w: Workload,
    wal: &Path,
    warehouses: i64,
    seed: u64,
    tr: &mut Tracer,
) -> Result<(Arc<Database>, Option<Server>, f64)> {
    let start = Instant::now();
    let rq = next_request();
    let root = tr.begin("setup", rq);
    let db = Database::with_config(db_config(w, wal))?;
    create_ch_tables(&db, TableFormat::Column)?;
    let sp = tr.begin("core.load", rq);
    let (mut generating, mut mark) = (0.0, Instant::now());
    gen::population(warehouses, seed, |sql| {
        generating += mark.elapsed().as_secs_f64();
        db.execute(&sql)?;
        mark = Instant::now();
        Ok(())
    })?;
    generating += mark.elapsed().as_secs_f64();
    tr.end(sp);
    let sp = tr.begin("storage.maintenance", rq);
    db.maintenance();
    tr.end(sp);
    let server = match w {
        Workload::Mixed => {
            let sp = tr.begin("server.start", rq);
            let s = Server::start(Arc::clone(&db), ServerConfig::default())?;
            tr.end(sp);
            Some(s)
        }
        _ => None,
    };
    tr.end(root);
    Ok((db, server, start.elapsed().as_secs_f64() - generating))
}

fn terminal_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (i as u64 + 1)
}

/// One run of workload `w` on the population and terminal of `seed`, with
/// its files in `dir`.
pub fn run(w: Workload, seed: u64, sizes: &Sizes, dir: &Path, traced: bool) -> Result<RunOut> {
    let epoch = Instant::now();
    let mut tr = Tracer::new(traced, epoch);
    let mut out = RunOut::default();
    let mut buffers = Vec::new();

    // Set-up, repeated; only the last database is kept.
    let mut setups = Vec::new();
    let mut kept: Option<(Arc<Database>, Option<Server>, PathBuf)> = None;
    for rep in 0..sizes.setup_reps {
        if let Some((db, server, wal)) = kept.take() {
            if let Some(s) = server {
                s.drain();
            }
            drop(db);
            std::fs::remove_dir_all(wal.parent().expect("wal has a dir"))?;
        }
        let wal = dir.join(format!("setup{rep}")).join("db.wal");
        std::fs::create_dir_all(wal.parent().expect("wal has a dir"))?;
        let (db, server, secs) = set_up(w, &wal, sizes.warehouses, seed, &mut tr)?;
        setups.push(secs);
        kept = Some((db, server, wal));
    }
    let (db, server, wal) = kept.expect("at least one set-up");
    let pages = page_bytes(&sibling(&wal, ".pages"));
    let addr = server.as_ref().map(|s| s.local_addr().to_string());

    // Counters before the timed phase.
    let wal0 = wal_bytes(&wal)?;
    let buf0 = db.buffer_stats().unwrap_or_default();
    let adm0 = db.admission().map(|a| a.stats()).unwrap_or_default();

    let maint = Maintenance::new(Arc::clone(&db), sizes.maint_every);
    let connect = || -> Result<Conn> {
        Ok(match &addr {
            Some(a) => Conn::Wire(Client::connect(a.as_str())?),
            None => Conn::Local(db.session()),
        })
    };
    let homes = (1..=sizes.warehouses).collect();
    let mut term = Terminal::new(connect()?, homes, terminal_seed(seed, 0), card::ORDERS + 1);
    // ch_olap's terminal records its first round's writes for the
    // row-store reference.
    let writes = (w == Workload::Olap).then(|| dir.join("writes.sql"));
    if let Some(path) = &writes {
        term = term.recording(path)?;
    }
    let mut olap_conn = connect()?;

    let t_setup = epoch.elapsed().as_secs_f64();
    // The timed phase: the two streams take turns (ch_olap) or run at once
    // (ch_mixed).
    let start = Instant::now();
    let (windows, olap, first_answers) = match w {
        Workload::Olap => take_turns(&db, &mut term, &mut olap_conn, &maint, &mut tr, sizes)?,
        Workload::Mixed => {
            let stop = AtomicBool::new(false);
            let (olap, spans) = std::thread::scope(|s| {
                let stream = s.spawn(|| {
                    let mut tr = Tracer::new(traced, epoch);
                    let mut st = OlapStats::default();
                    // One full pass at least, then until the terminal is done.
                    loop {
                        let stop = (!st.pass_qps.is_empty()).then_some(&stop);
                        if !st.pass(&mut olap_conn, &mut tr, stop) {
                            break;
                        }
                    }
                    (st, tr.into_spans())
                });
                for _ in 0..sizes.txns {
                    term.run_one(&mut tr, Some(&maint));
                }
                stop.store(true, Ordering::SeqCst);
                stream.join().expect("stream thread panicked")
            });
            buffers.push(spans);
            let windows = count_windows(&term.stats.done, start, sizes.windows);
            (windows, olap, BTreeMap::new())
        }
    };
    let t_timed = epoch.elapsed().as_secs_f64();
    let oltp = OltpPhase {
        stats: std::mem::take(&mut term.stats),
        windows,
        maint_ms: std::mem::take(&mut *maint.passes_ms.lock().expect("maintenance log poisoned")),
    };
    for conn in [term.into_conn(), olap_conn] {
        if let Conn::Wire(c) = conn {
            c.close()?;
        }
    }
    let wal1 = wal_bytes(&wal)?;
    let buf1 = db.buffer_stats().unwrap_or_default();
    let adm1 = db.admission().map(|a| a.stats()).unwrap_or_default();
    let frozen = db.stats().heat.frozen_segments;
    if let Err(e) = tpcc_consistency(&db)? {
        out.problems.push(format!("after the timed phase: {e}"));
    }

    // ch_olap's last answers: 2 workers against the serial executor on the
    // same data.
    if w == Workload::Olap {
        db.set_parallelism(1);
        for q in ch_queries() {
            let want = db.query(q.sql)?;
            match olap.answers.get(q.id) {
                Some(got) => {
                    if let Err(e) = answers_match(&q, got, &want) {
                        out.problems
                            .push(format!("last pass against the serial executor: {e}"));
                    }
                }
                None => out.problems.push(format!("{}: no answer to check", q.id)),
            }
        }
        db.set_parallelism(2);
    }

    // ch_mixed's answers: over the wire against in-process.
    if let Some(a) = &addr {
        let mut client = Client::connect(a.as_str())?;
        for q in ch_queries() {
            let got = client.query(q.sql)?.rows;
            let want = db.query(q.sql)?;
            if let Err(e) = answers_match(&q, &got, &want) {
                out.problems
                    .push(format!("over the wire vs in-process: {e}"));
            }
        }
        client.close()?;
    }

    // Attribution (traced runs): after every measured phase.
    let attribution = if traced {
        let stages = attrib::olap(&db, w == Workload::Olap, sizes.attrib_reps)?;
        let homes = (1..=sizes.warehouses).collect();
        let times = attrib::oltp(&db, homes, terminal_seed(seed, 99), sizes.attrib_txns)?;
        let (edge_us, own_stats) = match &addr {
            Some(a) => (attrib::edge(&db, a, sizes.warehouses, EDGE_SAMPLES)?, None),
            None => {
                let s = Server::start(Arc::clone(&db), ServerConfig::default())?;
                let a = s.local_addr().to_string();
                let edge = attrib::edge(&db, &a, sizes.warehouses, EDGE_SAMPLES)?;
                let stats = s.stats();
                s.drain();
                (edge, Some(stats))
            }
        };
        Some((stages, times, edge_us, own_stats))
    } else {
        None
    };

    let mut marks = vec![("set-up", t_setup), ("timed phase", t_timed)];
    marks.push(("checks and attribution", epoch.elapsed().as_secs_f64()));

    // Restart.
    let before = digest(&db)?;
    let server_stats = server.as_ref().map(|s| s.stats());
    if let Some(s) = server {
        s.drain();
    }
    drop(maint);
    drop(db);
    let mut recovery = Vec::new();
    let mut replayed = 0;
    for rep in 0..sizes.reopen_reps {
        let sp = tr.begin("core.open", next_request());
        let t = Instant::now();
        let db = Database::with_config(db_config(w, &wal))?;
        recovery.push(t.elapsed().as_secs_f64());
        tr.end(sp);
        replayed = db.wal_records();
        if rep == 0 {
            let after = digest(&db)?;
            if after != before {
                out.problems
                    .push(format!("state after reopen {after:?} != before {before:?}"));
            }
            if let Err(e) = tpcc_consistency(&db)? {
                out.problems.push(format!("after reopen: {e}"));
            }
        }
    }
    // The run's peak memory, read before the checker below builds its own
    // database.
    let peak_rss = peak_rss_mb();
    marks.push(("reopens", epoch.elapsed().as_secs_f64()));

    // ch_olap's first answers: against a serial row store with the same
    // population and first-round writes.
    if let Some(path) = &writes {
        let rdb = Database::new();
        create_ch_tables(&rdb, TableFormat::Row)?;
        gen::population(sizes.warehouses, seed, |sql| rdb.execute(&sql).map(drop))?;
        let mut session = rdb.session();
        for sql in BufReader::new(File::open(path)?).lines() {
            session.execute(&sql?)?;
        }
        for q in ch_queries() {
            let want = rdb.query(q.sql)?;
            match first_answers.get(q.id) {
                Some(got) => {
                    if let Err(e) = answers_match(&q, got, &want) {
                        out.problems
                            .push(format!("first pass against the row-store reference: {e}"));
                    }
                }
                None => out.problems.push(format!("{}: no answer to check", q.id)),
            }
        }
    }

    marks.push(("reference check", epoch.elapsed().as_secs_f64()));
    buffers.push(tr.into_spans());
    out.spans = trace::merge(buffers);

    // End-to-end metrics.
    let st = &oltp.stats;
    let txn = latencies(&st.done, |_| true);
    let per_window = per_window(&oltp)?;
    let window_median = |i: usize| median(&per_window.iter().map(|w| w[i]).collect::<Vec<_>>());
    let mut query_medians = Vec::new();
    for q in ch_queries() {
        match olap.latency_ms.get(q.id) {
            Some(v) => query_medians.push(median(v)),
            None => {
                return Err(DbError::InvalidArgument(format!(
                    "{} never completed; the analytic stream ran too short",
                    q.id
                )))
            }
        }
    }
    let recovery_s = median(&recovery);
    let e2e = [
        ("setup_s", median(&setups), "s"),
        ("tpmC", window_median(0), "1/min"),
        ("txn_p50_us", window_median(1), "us"),
        ("new_order_p50_us", window_median(3), "us"),
        ("payment_p50_us", window_median(4), "us"),
        ("olap_qps", median(&olap.pass_qps), "1/s"),
        ("olap_geomean_ms", geomean(&query_medians), "ms"),
        ("peak_rss_mb", peak_rss, "MB"),
    ];
    out.e2e = e2e
        .iter()
        .map(|(n, v, u)| (n.to_string(), *v, *u))
        .collect();
    out.attempted = st.attempted + olap.attempted;
    out.failures = st.failures;
    out.failures.absorb(&olap.failures);

    let olap_lat: Vec<f64> = olap.latency_ms.values().flatten().copied().collect();
    out.notes = vec![
        format!(
            "set-up: {} warehouses through logged SQL + merge; {:?} s",
            sizes.warehouses,
            setups
                .iter()
                .map(|v| (v * 1e3).round() / 1e3)
                .collect::<Vec<_>>()
        ),
        format!(
            "transactional: {} txns, {} committed in {:.2} s; latency us {}",
            sizes.txns,
            st.committed,
            oltp.elapsed_s(),
            txn.describe()
        ),
        format!(
            "analytic: {} queries in {:.2} s; latency ms {}",
            olap.completed,
            olap.elapsed_s,
            Latencies::new(olap_lat, olap.failures.total()).describe()
        ),
        format!(
            "query medians ms: {}",
            ch_queries()
                .iter()
                .zip(&query_medians)
                .map(|(q, m)| format!("{} {m:.2}", q.id))
                .collect::<Vec<_>>()
                .join(", ")
        ),
        format!(
            "failures by kind: {:?}; attempts aborted by a write conflict and retried: {}",
            out.failures, st.retried_aborts
        ),
        format!(
            "maintenance: {} passes ({}), mean {:.1} ms",
            oltp.maint_ms.len(),
            match w {
                Workload::Olap => "one a round".to_string(),
                Workload::Mixed => format!("every {} commits", sizes.maint_every),
            },
            mean(&oltp.maint_ms)
        ),
        format!(
            "WAL flush policy: write + flush per commit, no fsync; {} bytes after the \
             timed phase, {replayed} records replayed per reopen, {:?} s",
            wal1,
            recovery
                .iter()
                .map(|v| (v * 1e3).round() / 1e3)
                .collect::<Vec<_>>()
        ),
        format!("buffer pool: none; {pages} bytes of column pages"),
        format!(
            "wall s: {}",
            marks
                .iter()
                .scan(0.0, |prev, (name, at)| {
                    let d = at - *prev;
                    *prev = *at;
                    Some(format!("{name} {d:.1}"))
                })
                .collect::<Vec<_>>()
                .join(", ")
        ),
        format!(
            "per window: tpmC {:?}; txn p50 us {:?}; per pass qps {:?}",
            per_window.iter().map(|w| w[0].round()).collect::<Vec<_>>(),
            per_window.iter().map(|w| w[1].round()).collect::<Vec<_>>(),
            olap.pass_qps
                .iter()
                .map(|v| (v * 10.0).round() / 10.0)
                .collect::<Vec<_>>()
        ),
    ];

    // Per-layer metrics (traced runs).
    if let Some((stages, times, edge_us, own_stats)) = attribution {
        let server = server_stats.or(own_stats).unwrap_or_default();
        let commit_span = if addr.is_some() {
            "client.commit"
        } else {
            "txn.commit"
        };
        let commits = Latencies::new(trace::durations_us(&out.spans, commit_span), 0);
        let hits = buf1.hits - buf0.hits;
        let misses = buf1.misses - buf0.misses;
        let mut l: Vec<(String, f64, &'static str)> = vec![
            ("sql.parse_us.oltp".into(), mean(&times.parse_us), "us"),
            ("sql.parse_us.olap".into(), stages.parse_us, "us"),
            (
                "sql.bind_optimize_us.oltp".into(),
                mean(&times.bind_us),
                "us",
            ),
            ("sql.bind_optimize_us.olap".into(), stages.bind_us, "us"),
            ("core.dml_us".into(), mean(&times.dml_us), "us"),
            ("core.session_us".into(), stages.session_us, "us"),
            (
                "core.parallel_speedup".into(),
                stages.parallel_speedup,
                "ratio",
            ),
        ];
        for (id, us) in &stages.select_us {
            l.push((format!("core.select_us.{id}"), *us, "us"));
        }
        l.extend([
            ("exec.scan_agg_ms".into(), stages.scan_agg_ms, "ms"),
            ("exec.join_ms".into(), stages.join_ms, "ms"),
            ("exec.fused_ratio".into(), stages.fused_ratio, "ratio"),
            ("storage.scan_ms".into(), stages.scan_ms, "ms"),
            ("storage.scan_ms.sip".into(), stages.scan_sip_ms, "ms"),
            (
                "storage.scan_rows_per_result_row".into(),
                stages.scan_rows_per_result_row,
                "ratio",
            ),
            (
                "storage.buffer_hit_ratio".into(),
                hit_ratio(hits, misses),
                "ratio",
            ),
            ("storage.buffer_misses".into(), misses as f64, "count"),
            (
                "storage.buffer_evictions".into(),
                (buf1.evictions - buf0.evictions) as f64,
                "count",
            ),
            ("storage.page_bytes".into(), pages as f64, "bytes"),
            ("storage.maintenance_ms".into(), mean(&oltp.maint_ms), "ms"),
            (
                "storage.maintenance_passes".into(),
                oltp.maint_ms.len() as f64,
                "count",
            ),
            ("storage.frozen_segments".into(), frozen as f64, "count"),
            (
                "txn.commit_us.p50".into(),
                p(&commits, 0.5, "commit")?,
                "us",
            ),
            (
                "txn.commit_us.p99".into(),
                p(&commits, 0.99, "commit")?,
                "us",
            ),
            (
                "txn.wal_bytes_per_commit".into(),
                (wal1 - wal0) as f64 / st.write_commits.max(1) as f64,
                "bytes",
            ),
            (
                "txn.abort_ratio".into(),
                (st.retried_aborts + st.failures.conflict) as f64
                    / (st.attempted + st.retried_aborts).max(1) as f64,
                "ratio",
            ),
            ("txn.p99_us".into(), window_median(2), "us"),
            ("txn.recovery_s".into(), recovery_s, "s"),
            ("txn.replayed_records".into(), replayed as f64, "count"),
            (
                "txn.replay_us_per_record".into(),
                recovery_s * 1e6 / replayed.max(1) as f64,
                "us",
            ),
            (
                "sched.olap_queued".into(),
                (adm1.olap_queued - adm0.olap_queued) as f64,
                "count",
            ),
            (
                "sched.olap_timeouts".into(),
                (adm1.olap_timeouts - adm0.olap_timeouts) as f64,
                "count",
            ),
            (
                "sched.throttled_decisions".into(),
                (adm1.throttled_decisions - adm0.throttled_decisions) as f64,
                "count",
            ),
            ("server.edge_us".into(), edge_us, "us"),
            (
                "server.statement_errors".into(),
                server.statement_errors as f64,
                "count",
            ),
            (
                "server.shed_responses".into(),
                server.shed_responses as f64,
                "count",
            ),
            (
                "client.round_trips_per_txn".into(),
                st.statements as f64 / st.committed.max(1) as f64,
                "count",
            ),
            (
                "op_error_ratio".into(),
                (st.retried_aborts + out.failures.total()) as f64
                    / (st.retried_aborts + out.attempted).max(1) as f64,
                "ratio",
            ),
        ]);
        out.layers = l;
    }
    Ok(out)
}

/// Requests sampled for the wire-edge attribution.
const EDGE_SAMPLES: usize = 2_000;

/// Share of page pins served from the pool; 1.0 when nothing was pinned
/// (no pool: every segment is resident).
fn hit_ratio(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        1.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

/// `VmHWM` of this process, MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts(dir: &Path) -> Vec<Metric> {
        let sizes = Sizes {
            warehouses: 1,
            setup_reps: 1,
            reopen_reps: 1,
            txns: 11_000,
            windows: 1,
            maint_every: 400,
            attrib_reps: 1,
            attrib_txns: 50,
        };
        let out = run(Workload::Olap, 7, &sizes, dir, true).expect("run");
        assert!(out.problems.is_empty(), "{:?}", out.problems);
        assert_eq!(out.failures.total(), 0);
        let exact = [
            "txn.wal_bytes_per_commit",
            "client.round_trips_per_txn",
            "storage.scan_rows_per_result_row",
        ];
        out.layers
            .into_iter()
            .filter(|(n, _, _)| exact.contains(&n.as_str()))
            .collect()
    }

    #[test]
    fn one_terminal_counts_repeat_exactly() {
        let root = std::env::temp_dir().join(format!("chbench-test-{}", std::process::id()));
        let a = counts(&root.join("a"));
        let b = counts(&root.join("b"));
        let _ = std::fs::remove_dir_all(&root);
        assert_eq!(a.len(), 3, "{a:?}");
        assert_eq!(a, b);
        assert!(a.iter().all(|(_, v, _)| *v > 0.0), "{a:?}");
    }
}
