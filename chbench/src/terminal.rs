//! Connections and the TPC-C terminal.
//!
//! A terminal sends generated SQL through a [`Conn`]: an in-process
//! `Session` (parse and `execute_statement` timed apart) or a wire
//! `Client`. A terminal owns its home warehouses and writes only their
//! rows.

use crate::gen::money;
use crate::trace::{next_request, Tracer};
use oltap_bench::ch::schema::card;
use oltap_client::Client;
use oltap_common::{DbError, Result, Row};
use oltap_core::{Database, QueryResult, Session};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Stage timings taken by [`Conn::Staged`] (microseconds).
#[derive(Debug, Default, Clone)]
pub struct StageTimes {
    /// `oltap_sql::parse`, every statement.
    pub parse_us: Vec<f64>,
    /// `bind_select` + `optimize`, SELECT statements.
    pub bind_us: Vec<f64>,
    /// `Session::execute_statement` on INSERT/UPDATE.
    pub dml_us: Vec<f64>,
}

/// Where a terminal or query stream sends its statements.
pub enum Conn {
    /// In-process session.
    Local(Session),
    /// Wire-protocol client of an in-process server.
    Wire(Client),
    /// In-process session that also re-times each stage (attribution
    /// pass only; never used for end-to-end numbers).
    Staged(Session, Arc<Database>, StageTimes),
}

/// The span name for executing `sql`, by the layer that does the work.
fn exec_span(sql: &str) -> &'static str {
    match sql.split_whitespace().next().unwrap_or("") {
        "SELECT" => "core.select",
        "COMMIT" => "txn.commit",
        "BEGIN" | "ROLLBACK" => "txn.control",
        _ => "core.dml",
    }
}

impl Conn {
    /// Runs one statement; returns its rows (empty for non-queries).
    pub fn run(&mut self, sql: &str, tr: &mut Tracer, request: u64) -> Result<Vec<Row>> {
        match self {
            Conn::Local(session) => {
                let sp = tr.begin("sql.parse", request);
                let stmt = oltap_sql::parse(sql);
                tr.end(sp);
                let sp = tr.begin(exec_span(sql), request);
                let out = stmt.and_then(|s| session.execute_statement(s, sql));
                tr.end(sp);
                Ok(rows_of(out?))
            }
            Conn::Wire(client) => {
                let name = if sql == "COMMIT" {
                    "client.commit"
                } else {
                    "client.query"
                };
                let sp = tr.begin(name, request);
                let out = client.query(sql);
                tr.end(sp);
                Ok(out?.rows)
            }
            Conn::Staged(session, db, times) => {
                let t = Instant::now();
                let stmt = oltap_sql::parse(sql)?;
                times.parse_us.push(t.elapsed().as_secs_f64() * 1e6);
                if let oltap_sql::Statement::Select(sel) = &stmt {
                    let t = Instant::now();
                    let catalog = db.catalog_read();
                    oltap_sql::optimize(oltap_sql::bind_select(sel, &*catalog)?)?;
                    times.bind_us.push(t.elapsed().as_secs_f64() * 1e6);
                }
                let dml = exec_span(sql) == "core.dml";
                let t = Instant::now();
                let out = session.execute_statement(stmt, sql)?;
                if dml {
                    times.dml_us.push(t.elapsed().as_secs_f64() * 1e6);
                }
                Ok(rows_of(out))
            }
        }
    }
}

fn rows_of(r: QueryResult) -> Vec<Row> {
    match r {
        QueryResult::Rows { rows, .. } => rows,
        _ => Vec::new(),
    }
}

/// Failed operations, by kind.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Failures {
    /// Write conflicts and duplicate keys.
    pub conflict: u64,
    /// Typed `Unavailable` (shed at the edge or by admission).
    pub unavailable: u64,
    /// Typed `ResourceExhausted` (memory governor, buffer pool).
    pub resource_exhausted: u64,
    /// Deadlines and cancellations.
    pub timeout: u64,
    /// Anything else.
    pub other: u64,
}

impl Failures {
    /// Counts one failure.
    pub fn record(&mut self, e: &DbError) {
        let slot = match e {
            DbError::WriteConflict(_) | DbError::DuplicateKey(_) => &mut self.conflict,
            DbError::Unavailable { .. } => &mut self.unavailable,
            DbError::ResourceExhausted { .. } => &mut self.resource_exhausted,
            DbError::DeadlineExceeded(_) | DbError::Cancelled(_) => &mut self.timeout,
            _ => &mut self.other,
        };
        *slot += 1;
    }

    /// All failures.
    pub fn total(&self) -> u64 {
        self.conflict + self.unavailable + self.resource_exhausted + self.timeout + self.other
    }

    /// Adds another tally.
    pub fn absorb(&mut self, o: &Failures) {
        self.conflict += o.conflict;
        self.unavailable += o.unavailable;
        self.resource_exhausted += o.resource_exhausted;
        self.timeout += o.timeout;
        self.other += o.other;
    }
}

/// The TPC-C transaction types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Order with 5–15 lines, updating stock.
    NewOrder,
    /// Payment against customer, district and warehouse.
    Payment,
    /// A customer's latest order.
    OrderStatus,
    /// Deliver a district's oldest undelivered order.
    Delivery,
    /// Low-stock count of a warehouse.
    StockLevel,
}

impl Kind {
    /// The canonical 45/43/4/4/4 mix.
    fn pick(rng: &mut StdRng) -> Kind {
        match rng.gen_range(0..100) {
            0..=44 => Kind::NewOrder,
            45..=87 => Kind::Payment,
            88..=91 => Kind::OrderStatus,
            92..=95 => Kind::Delivery,
            _ => Kind::StockLevel,
        }
    }

    fn span(self) -> &'static str {
        match self {
            Kind::NewOrder => "txn.new_order",
            Kind::Payment => "txn.payment",
            Kind::OrderStatus => "txn.order_status",
            Kind::Delivery => "txn.delivery",
            Kind::StockLevel => "txn.stock_level",
        }
    }
}

/// Runs `Database::maintenance` once every `every` commits, or when told
/// to. The terminal that completes the commit runs the pass after its
/// latency is taken, so the pass delays the terminal's next transaction
/// and shows in throughput, not latency.
pub struct Maintenance {
    db: Arc<Database>,
    every: u64,
    commits: AtomicU64,
    /// Duration of each pass, milliseconds.
    pub passes_ms: Mutex<Vec<f64>>,
}

impl Maintenance {
    /// A cadence of one pass per `every` commits.
    pub fn new(db: Arc<Database>, every: u64) -> Maintenance {
        Maintenance {
            db,
            every,
            commits: AtomicU64::new(0),
            passes_ms: Mutex::new(Vec::new()),
        }
    }

    fn on_commit(&self, tr: &mut Tracer) {
        if (self.commits.fetch_add(1, Ordering::Relaxed) + 1).is_multiple_of(self.every) {
            self.run(tr);
        }
    }

    /// Runs one timed pass.
    pub fn run(&self, tr: &mut Tracer) {
        let sp = tr.begin("storage.maintenance", next_request());
        let t = Instant::now();
        self.db.maintenance();
        let ms = t.elapsed().as_secs_f64() * 1e3;
        tr.end(sp);
        self.passes_ms
            .lock()
            .expect("maintenance log poisoned")
            .push(ms);
    }
}

/// How long a transaction is retried while write conflicts abort it.
const RETRY_FOR: Duration = Duration::from_secs(5);

/// What one terminal did.
#[derive(Debug, Default, Clone)]
pub struct TermStats {
    /// Transactions attempted (a retried transaction counts once).
    pub attempted: u64,
    /// Transactions committed.
    pub committed: u64,
    /// Attempts aborted by a write conflict and retried.
    pub retried_aborts: u64,
    /// NewOrder commits (the tpmC numerator).
    pub new_orders: u64,
    /// Committed transactions that wrote rows (each one WAL commit record).
    pub write_commits: u64,
    /// Statements sent for committed transactions, retries and rollbacks
    /// included (one round trip each over the wire).
    pub statements: u64,
    /// Transactions that failed for good, by kind.
    pub failures: Failures,
    /// Every finished transaction, in completion order per terminal.
    pub done: Vec<Done>,
}

/// One finished transaction.
#[derive(Debug, Clone, Copy)]
pub struct Done {
    /// When it committed or failed for good.
    pub at: Instant,
    /// Its type.
    pub kind: Kind,
    /// Latency from the first attempt, µs; `None` when it failed.
    pub us: Option<f64>,
}

/// One transaction's inputs, drawn once so that a retry repeats it.
enum Input {
    NewOrder {
        w: i64,
        d: i64,
        c: i64,
        o: i64,
        lines: Vec<(i64, i64)>,
    },
    Payment {
        w: i64,
        d: i64,
        c: i64,
        h: f64,
    },
    OrderStatus {
        w: i64,
        d: i64,
        c: i64,
    },
    Delivery {
        w: i64,
        d: i64,
        carrier: i64,
    },
    StockLevel {
        w: i64,
        threshold: i64,
    },
}

impl Input {
    fn kind(&self) -> Kind {
        match self {
            Input::NewOrder { .. } => Kind::NewOrder,
            Input::Payment { .. } => Kind::Payment,
            Input::OrderStatus { .. } => Kind::OrderStatus,
            Input::Delivery { .. } => Kind::Delivery,
            Input::StockLevel { .. } => Kind::StockLevel,
        }
    }
}

/// One emulated TPC-C terminal.
pub struct Terminal {
    conn: Conn,
    rng: StdRng,
    homes: Vec<i64>,
    /// Next order id per (home warehouse index, district - 1).
    next_o_id: Vec<i64>,
    /// End every transaction with ROLLBACK (attribution pass).
    rollback: bool,
    /// Statements of committed writing transactions, one a line, when
    /// recording. They go to a file so that the recording adds nothing to
    /// the run's memory.
    log: Option<BufWriter<File>>,
    /// The first error writing `log`.
    log_error: Option<std::io::Error>,
    /// Counts and latencies.
    pub stats: TermStats,
}

impl Terminal {
    /// A terminal over `conn` owning warehouses `homes`. `first_o_id` is
    /// the id its first order gets in every district.
    pub fn new(conn: Conn, homes: Vec<i64>, seed: u64, first_o_id: i64) -> Terminal {
        let slots = homes.len() * card::DISTRICTS as usize;
        Terminal {
            conn,
            rng: StdRng::seed_from_u64(seed),
            homes,
            next_o_id: vec![first_o_id; slots],
            rollback: false,
            log: None,
            log_error: None,
            stats: TermStats::default(),
        }
    }

    /// Ends every transaction with ROLLBACK instead of COMMIT.
    pub fn rolling_back(mut self) -> Terminal {
        self.rollback = true;
        self
    }

    /// Writes the statements of committed writing transactions to `path`,
    /// one a line.
    pub fn recording(mut self, path: &Path) -> Result<Terminal> {
        self.log = Some(BufWriter::new(File::create(path)?));
        Ok(self)
    }

    /// Flushes the recording and reports the first error writing it.
    pub fn finish_log(&mut self) -> Result<()> {
        if let Some(mut log) = self.log.take() {
            log.flush()?;
        }
        match self.log_error.take() {
            Some(e) => Err(e.into()),
            None => Ok(()),
        }
    }

    /// The connection (to close it or read stage timings).
    pub fn into_conn(self) -> Conn {
        self.conn
    }

    fn draw(&mut self) -> Input {
        let kind = Kind::pick(&mut self.rng);
        let wi = self.rng.gen_range(0..self.homes.len());
        let w = self.homes[wi];
        let d = self.rng.gen_range(1..=card::DISTRICTS);
        match kind {
            Kind::NewOrder => {
                let c = self.rng.gen_range(1..=card::CUSTOMERS);
                let slot = wi * card::DISTRICTS as usize + (d - 1) as usize;
                let o = self.next_o_id[slot];
                self.next_o_id[slot] += 1;
                let n = self.rng.gen_range(5..=card::MAX_OL);
                let lines = (0..n)
                    .map(|_| {
                        (
                            self.rng.gen_range(1..=card::ITEMS),
                            self.rng.gen_range(1..=10),
                        )
                    })
                    .collect();
                Input::NewOrder { w, d, c, o, lines }
            }
            Kind::Payment => {
                let c = self.rng.gen_range(1..=card::CUSTOMERS);
                let h = money(&mut self.rng, 1.0, 5000.0);
                Input::Payment { w, d, c, h }
            }
            Kind::OrderStatus => {
                let c = self.rng.gen_range(1..=card::CUSTOMERS);
                Input::OrderStatus { w, d, c }
            }
            Kind::Delivery => Input::Delivery {
                w,
                d,
                carrier: self.rng.gen_range(1..=10),
            },
            Kind::StockLevel => Input::StockLevel {
                w,
                threshold: self.rng.gen_range(10..20),
            },
        }
    }

    /// Runs one transaction of the mix; maintenance, if given, runs on its
    /// cadence after a commit. A write conflict aborts the attempt and the
    /// terminal retries it with exponential backoff, as an application
    /// would, for up to [`RETRY_FOR`]; the latency counts from the first
    /// attempt.
    pub fn run_one(&mut self, tr: &mut Tracer, maint: Option<&Maintenance>) {
        let input = self.draw();
        let kind = input.kind();
        let request = next_request();
        let root = tr.begin(kind.span(), request);
        let start = Instant::now();
        let mut sent = Vec::new();
        let mut backoff = Duration::from_micros(50);
        let res = loop {
            self.stats.statements += sent.len() as u64;
            sent.clear();
            let res = self.execute(&input, &mut sent, tr, request);
            if res.is_err() && sent.first().is_some_and(|s| s == "BEGIN") {
                let _ = self.conn.run("ROLLBACK", tr, request);
                self.stats.statements += 1;
            }
            match res {
                Err(DbError::WriteConflict(_)) if start.elapsed() < RETRY_FOR => {
                    self.stats.retried_aborts += 1;
                    std::thread::sleep(backoff);
                    backoff = (backoff * 2).min(Duration::from_millis(5));
                }
                res => break res,
            }
        };
        let at = Instant::now();
        tr.end(root);
        self.stats.attempted += 1;
        self.stats.done.push(Done {
            at,
            kind,
            us: res.is_ok().then(|| (at - start).as_secs_f64() * 1e6),
        });
        match res {
            Ok(wrote) => {
                self.stats.committed += 1;
                self.stats.statements += sent.len() as u64;
                if kind == Kind::NewOrder {
                    self.stats.new_orders += 1;
                }
                if wrote && !self.rollback {
                    self.stats.write_commits += 1;
                    if let Some(log) = &mut self.log {
                        if let Err(e) = writeln!(log, "{}", sent.join("\n")) {
                            self.log_error.get_or_insert(e);
                        }
                    }
                }
                if let Some(m) = maint {
                    m.on_commit(tr);
                }
            }
            Err(e) => self.stats.failures.record(&e),
        }
    }

    /// Sends the statements of `input`; `Ok(wrote)` once committed.
    fn execute(
        &mut self,
        input: &Input,
        sent: &mut Vec<String>,
        tr: &mut Tracer,
        rq: u64,
    ) -> Result<bool> {
        let end = if self.rollback { "ROLLBACK" } else { "COMMIT" };
        let mut go = |conn: &mut Conn, sql: String| -> Result<Vec<Row>> {
            let out = conn.run(&sql, tr, rq);
            sent.push(sql);
            out
        };
        let conn = &mut self.conn;
        match *input {
            Input::NewOrder {
                w,
                d,
                c,
                o,
                ref lines,
            } => {
                let ts = 2_000_000 + o;
                let n = lines.len();
                go(conn, "BEGIN".into())?;
                go(
                    conn,
                    format!("INSERT INTO orders VALUES ({w}, {d}, {o}, {c}, {ts}, NULL, {n})"),
                )?;
                for (k, &(i, q)) in lines.iter().enumerate() {
                    let amount = q as f64 * 7.5;
                    go(
                        conn,
                        format!(
                            "INSERT INTO order_line VALUES ({w}, {d}, {o}, {}, {i}, {q}, {amount:.2}, {ts})",
                            k + 1
                        ),
                    )?;
                    go(
                        conn,
                        format!(
                            "UPDATE stock SET s_quantity = s_quantity - {q}, s_ytd = s_ytd + {q}, \
                             s_order_cnt = s_order_cnt + 1 WHERE s_w_id = {w} AND s_i_id = {i}"
                        ),
                    )?;
                }
                go(conn, end.into())?;
                Ok(true)
            }
            Input::Payment { w, d, c, h } => {
                go(conn, "BEGIN".into())?;
                go(
                    conn,
                    format!(
                        "UPDATE customer SET c_balance = c_balance - {h:.2}, \
                         c_ytd_payment = c_ytd_payment + {h:.2}, c_payment_cnt = c_payment_cnt + 1 \
                         WHERE c_w_id = {w} AND c_d_id = {d} AND c_id = {c}"
                    ),
                )?;
                go(
                    conn,
                    format!("UPDATE warehouse SET w_ytd = w_ytd + {h:.2} WHERE w_id = {w}"),
                )?;
                go(
                    conn,
                    format!("UPDATE district SET d_ytd = d_ytd + {h:.2} WHERE d_w_id = {w} AND d_id = {d}"),
                )?;
                go(conn, end.into())?;
                Ok(true)
            }
            Input::OrderStatus { w, d, c } => {
                go(
                    conn,
                    format!(
                        "SELECT o_id, o_entry_d, o_carrier_id FROM orders \
                         WHERE o_w_id = {w} AND o_d_id = {d} AND o_c_id = {c} \
                         ORDER BY o_id DESC LIMIT 1"
                    ),
                )?;
                Ok(false)
            }
            Input::Delivery { w, d, carrier } => {
                go(conn, "BEGIN".into())?;
                let rows = go(
                    conn,
                    format!(
                        "SELECT o_id FROM orders WHERE o_w_id = {w} AND o_d_id = {d} \
                         AND o_carrier_id IS NULL ORDER BY o_id LIMIT 1"
                    ),
                )?;
                let wrote = match rows.first() {
                    Some(r) => {
                        let o = r[0].as_int()?;
                        go(
                            conn,
                            format!(
                                "UPDATE orders SET o_carrier_id = {carrier} \
                                 WHERE o_w_id = {w} AND o_d_id = {d} AND o_id = {o}"
                            ),
                        )?;
                        true
                    }
                    None => false,
                };
                go(conn, end.into())?;
                Ok(wrote)
            }
            Input::StockLevel { w, threshold } => {
                go(
                    conn,
                    format!("SELECT COUNT(*) FROM stock WHERE s_w_id = {w} AND s_quantity < {threshold}"),
                )?;
                Ok(false)
            }
        }
    }
}
