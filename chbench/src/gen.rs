//! Seeded CH-benCHmark population, rendered as SQL.
//!
//! The engine only ever sees the generated SQL text: the same seed gives
//! byte-identical statements. Cardinalities per warehouse follow
//! `oltap_bench::ch::card`; floats are generated with two decimals so
//! their SQL literal reads back as exactly the generated value.

use oltap_bench::ch::schema::card;
use oltap_common::Result;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Rows per multi-row INSERT statement (one logged commit each).
const ROWS_PER_INSERT: usize = 500;

const STATES: [&str; 8] = ["CA", "NY", "TX", "WA", "IL", "MA", "FL", "OR"];

/// Initial `w_ytd`; each of the ten districts starts at a tenth of it, so
/// `W_YTD = Σ D_YTD` holds from the start.
pub const INITIAL_W_YTD: f64 = 300_000.0;

/// A float with two decimals, so its SQL rendering is exact.
pub fn money(rng: &mut StdRng, lo: f64, hi: f64) -> f64 {
    (rng.gen_range(lo..hi) * 100.0).round() / 100.0
}

/// Generates the population as `INSERT` statements, table by table, and
/// hands each to `emit` as soon as it is complete. No more than one
/// statement per table is held at a time, so the generator adds nothing
/// to the peak memory of a run.
pub fn population(
    warehouses: i64,
    seed: u64,
    mut emit: impl FnMut(String) -> Result<()>,
) -> Result<()> {
    let emit = &mut emit;
    let mut rng = StdRng::seed_from_u64(seed);

    let mut batch = Batcher::new("warehouse");
    for w in 1..=warehouses {
        let tax = money(&mut rng, 0.0, 0.2);
        batch.push(
            format!("({w}, 'wh-{w}', {tax:.2}, {INITIAL_W_YTD:.2})"),
            emit,
        )?;
    }
    batch.flush(emit)?;
    let mut batch = Batcher::new("district");
    for w in 1..=warehouses {
        for d in 1..=card::DISTRICTS {
            let tax = money(&mut rng, 0.0, 0.2);
            let ytd = INITIAL_W_YTD / card::DISTRICTS as f64;
            let next = card::ORDERS + 1;
            batch.push(
                format!("({w}, {d}, 'dist-{w}-{d}', {tax:.2}, {ytd:.2}, {next})"),
                emit,
            )?;
        }
    }
    batch.flush(emit)?;
    let mut batch = Batcher::new("customer");
    for w in 1..=warehouses {
        for d in 1..=card::DISTRICTS {
            for c in 1..=card::CUSTOMERS {
                let state = STATES[rng.gen_range(0..STATES.len())];
                batch.push(
                    format!("({w}, {d}, {c}, 'cust-{w}-{d}-{c}', '{state}', -10.00, 10.00, 1)"),
                    emit,
                )?;
            }
        }
    }
    batch.flush(emit)?;
    let mut batch = Batcher::new("item");
    for i in 1..=card::ITEMS {
        let price = money(&mut rng, 1.0, 100.0);
        let data = if rng.gen_bool(0.1) {
            "ORIGINAL".to_string()
        } else {
            format!("data-{i}")
        };
        batch.push(format!("({i}, 'item-{i}', {price:.2}, '{data}')"), emit)?;
    }
    batch.flush(emit)?;
    let mut batch = Batcher::new("stock");
    for w in 1..=warehouses {
        for i in 1..=card::ITEMS {
            let q = rng.gen_range(10..100);
            batch.push(format!("({w}, {i}, {q}, 0, 0)"), emit)?;
        }
    }
    batch.flush(emit)?;
    let (mut orders, mut lines) = (Batcher::new("orders"), Batcher::new("order_line"));
    let mut ts = 1_000_000i64;
    for w in 1..=warehouses {
        for d in 1..=card::DISTRICTS {
            for o in 1..=card::ORDERS {
                let ol_cnt = rng.gen_range(5..=card::MAX_OL);
                let carrier = if o < card::ORDERS * 7 / 10 {
                    rng.gen_range(1..=10).to_string()
                } else {
                    "NULL".to_string()
                };
                ts += rng.gen_range(1..50);
                let c = rng.gen_range(1..=card::CUSTOMERS);
                orders.push(
                    format!("({w}, {d}, {o}, {c}, {ts}, {carrier}, {ol_cnt})"),
                    emit,
                )?;
                for n in 1..=ol_cnt {
                    let i = rng.gen_range(1..=card::ITEMS);
                    let qty = rng.gen_range(1..=10);
                    let amount = money(&mut rng, 1.0, 500.0);
                    let dd = ts + rng.gen_range(0..1000);
                    lines.push(
                        format!("({w}, {d}, {o}, {n}, {i}, {qty}, {amount:.2}, {dd})"),
                        emit,
                    )?;
                }
            }
        }
    }
    orders.flush(emit)?;
    lines.flush(emit)
}

/// Groups value tuples of one table into multi-row INSERTs.
struct Batcher {
    table: &'static str,
    tuples: Vec<String>,
}

impl Batcher {
    fn new(table: &'static str) -> Batcher {
        Batcher {
            table,
            tuples: Vec::with_capacity(ROWS_PER_INSERT),
        }
    }

    fn push(&mut self, tuple: String, emit: &mut impl FnMut(String) -> Result<()>) -> Result<()> {
        self.tuples.push(tuple);
        if self.tuples.len() == ROWS_PER_INSERT {
            self.flush(emit)?;
        }
        Ok(())
    }

    fn flush(&mut self, emit: &mut impl FnMut(String) -> Result<()>) -> Result<()> {
        if self.tuples.is_empty() {
            return Ok(());
        }
        let sql = format!(
            "INSERT INTO {} VALUES {}",
            self.table,
            self.tuples.join(", ")
        );
        self.tuples.clear();
        emit(sql)
    }
}
