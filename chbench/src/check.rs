//! Correctness checks: TPC-C consistency, state across a restart, and CH
//! answers against a reference.

use oltap_bench::ch::schema::card;
use oltap_bench::ch::ChQuery;
use oltap_common::{Result, Row, Value};
use oltap_core::Database;
use oltap_sql::ast::{AstExpr, SelectItem};
use oltap_sql::Statement;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Relative tolerance for floats: summation order differs between
/// executors (serial row store, parallel column store), so equal sums may
/// differ in their last bits.
pub const FLOAT_TOLERANCE: f64 = 1e-9;

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= FLOAT_TOLERANCE * a.abs().max(b.abs()).max(1.0)
}

/// Two result values are equal, floats within [`FLOAT_TOLERANCE`].
/// Integers and timestamps compare by number.
pub fn values_match(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => close(*x, *y),
        (Value::Float(_), Value::Int(_) | Value::Timestamp(_))
        | (Value::Int(_) | Value::Timestamp(_), Value::Float(_)) => {
            match (a.as_float(), b.as_float()) {
                (Ok(x), Ok(y)) => close(x, y),
                _ => false,
            }
        }
        (Value::Int(x) | Value::Timestamp(x), Value::Int(y) | Value::Timestamp(y)) => x == y,
        _ => a == b,
    }
}

fn rows_match(a: &Row, b: &Row) -> bool {
    a.len() == b.len()
        && a.values()
            .iter()
            .zip(b.values())
            .all(|(x, y)| values_match(x, y))
}

/// How a query orders its result, read from its SQL: the output columns
/// of its ORDER BY keys and whether a LIMIT may cut a group of tied rows.
/// A key that is not in the SELECT list (by alias or by expression) is an
/// error, since the checker could not compare it.
pub fn order_spec(sql: &str) -> std::result::Result<(Vec<usize>, bool), String> {
    let Statement::Select(sel) = oltap_sql::parse(sql).map_err(|e| e.to_string())? else {
        return Err("not a SELECT".into());
    };
    let keys = sel
        .order_by
        .iter()
        .map(|o| {
            sel.items
                .iter()
                .position(|item| match (item, &o.expr) {
                    (SelectItem::Expr { alias: Some(a), .. }, AstExpr::Column(c))
                        if c.qualifier.is_none() && c.name == *a =>
                    {
                        true
                    }
                    (SelectItem::Expr { expr, .. }, key) => expr == key,
                    (SelectItem::Wildcard, _) => false,
                })
                .ok_or_else(|| format!("ORDER BY key {:?} is not an output column", o.expr))
        })
        .collect::<std::result::Result<Vec<_>, _>>()?;
    Ok((keys, sel.limit.is_some()))
}

fn sorted_canonical(rows: &[Row]) -> Vec<Row> {
    let mut v = rows.to_vec();
    v.sort_by(|a, b| a.values().cmp(b.values()));
    v
}

/// Checks the answer `got` to CH query `q` against `want`.
///
/// Rows must match in order on the ORDER BY columns. Rows that tie on
/// those columns may come in any order, so each group of tied rows is
/// compared as a set; the last group of a LIMIT query may have been cut
/// at a different member, so only its sort keys are compared.
pub fn answers_match(q: &ChQuery, got: &[Row], want: &[Row]) -> std::result::Result<(), String> {
    let id = q.id;
    let (keys, limited) = order_spec(q.sql).map_err(|e| format!("{id}: {e}"))?;
    if got.len() != want.len() {
        return Err(format!(
            "{id}: {} rows, reference has {}",
            got.len(),
            want.len()
        ));
    }
    let key_eq = |a: &Row, b: &Row| keys.iter().all(|&k| values_match(&a[k], &b[k]));
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        if !key_eq(g, w) {
            return Err(format!(
                "{id}: row {i} sort key {g:?} differs from reference {w:?}"
            ));
        }
    }
    let mut start = 0;
    while start < want.len() {
        let mut end = start + 1;
        while end < want.len() && !keys.is_empty() && key_eq(&want[start], &want[end]) {
            end += 1;
        }
        if keys.is_empty() {
            end = want.len();
        }
        let cut = limited && end == want.len();
        if !cut {
            let (g, w) = (
                sorted_canonical(&got[start..end]),
                sorted_canonical(&want[start..end]),
            );
            if let Some((a, b)) = g.iter().zip(&w).find(|(a, b)| !rows_match(a, b)) {
                return Err(format!("{id}: row {a:?} differs from reference {b:?}"));
            }
        }
        start = end;
    }
    Ok(())
}

fn ints(db: &Arc<Database>, sql: &str) -> Result<Vec<Vec<i64>>> {
    db.query(sql)?
        .iter()
        .map(|r| r.values().iter().map(|v| v.as_int()).collect())
        .collect()
}

fn scalar_int(db: &Arc<Database>, sql: &str) -> Result<i64> {
    db.query(sql)?[0][0].as_int()
}

/// TPC-C consistency: `W_YTD = Σ D_YTD` for every warehouse, and every
/// order placed by a terminal has exactly `o_ol_cnt` order lines.
pub fn tpcc_consistency(db: &Arc<Database>) -> Result<std::result::Result<(), String>> {
    let w = db.query("SELECT w_id, w_ytd FROM warehouse ORDER BY w_id")?;
    let d = db.query("SELECT d_w_id, SUM(d_ytd) FROM district GROUP BY d_w_id ORDER BY d_w_id")?;
    if w.len() != d.len() {
        return Ok(Err(format!(
            "{} warehouses but {} district groups",
            w.len(),
            d.len()
        )));
    }
    for (wr, dr) in w.iter().zip(&d) {
        let (wy, dy) = (wr[1].as_float()?, dr[1].as_float()?);
        if wr[0].as_int()? != dr[0].as_int()? || !close(wy, dy) {
            return Ok(Err(format!(
                "warehouse {}: w_ytd {wy} != sum d_ytd {dy}",
                wr[0]
            )));
        }
    }
    let new = card::ORDERS;
    let counts: BTreeMap<(i64, i64, i64), i64> = ints(
        db,
        &format!(
            "SELECT ol_w_id, ol_d_id, ol_o_id, COUNT(*) FROM order_line WHERE ol_o_id > {new} \
             GROUP BY ol_w_id, ol_d_id, ol_o_id"
        ),
    )?
    .into_iter()
    .map(|r| ((r[0], r[1], r[2]), r[3]))
    .collect();
    let orders = ints(
        db,
        &format!("SELECT o_w_id, o_d_id, o_id, o_ol_cnt FROM orders WHERE o_id > {new}"),
    )?;
    if orders.len() != counts.len() {
        return Ok(Err(format!(
            "{} new orders but order lines for {} orders",
            orders.len(),
            counts.len()
        )));
    }
    for o in &orders {
        let lines = counts.get(&(o[0], o[1], o[2])).copied().unwrap_or(0);
        if lines != o[3] {
            return Ok(Err(format!(
                "order {o:?}: o_ol_cnt {} but {lines} lines",
                o[3]
            )));
        }
    }
    Ok(Ok(()))
}

/// What must survive a restart: every table's row count plus the sums the
/// Payment and NewOrder transactions move.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Digest {
    counts: Vec<(String, i64)>,
    payment_cnt: i64,
    s_ytd: i64,
}

/// Reads the [`Digest`] of `db`.
pub fn digest(db: &Arc<Database>) -> Result<Digest> {
    let mut counts = Vec::new();
    let mut names = db.table_names();
    names.sort();
    for t in names {
        let n = scalar_int(db, &format!("SELECT COUNT(*) FROM {t}"))?;
        counts.push((t, n));
    }
    Ok(Digest {
        counts,
        payment_cnt: scalar_int(db, "SELECT SUM(c_payment_cnt) FROM customer")?,
        s_ytd: scalar_int(db, "SELECT SUM(s_ytd) FROM stock")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use oltap_bench::ch::ch_queries;
    use oltap_common::row;

    fn query(id: &str) -> ChQuery {
        ch_queries()
            .into_iter()
            .find(|q| q.id == id)
            .expect("a CH query")
    }

    #[test]
    fn order_specs_come_from_the_sql() {
        let spec = |id: &str| order_spec(query(id).sql);
        assert_eq!(spec("Q1"), Ok((vec![0], false)), "ORDER BY a column");
        assert_eq!(spec("Q5"), Ok((vec![1], false)), "ORDER BY an alias");
        assert_eq!(spec("Q3"), Ok((vec![2], true)), "alias + LIMIT");
        assert_eq!(spec("Q6"), Ok((vec![], false)), "no ORDER BY");
        for q in ch_queries() {
            assert!(order_spec(q.sql).is_ok(), "{}", q.id);
        }
        assert!(order_spec("SELECT a FROM t ORDER BY b").is_err());
        assert!(order_spec("SELECT a AS x FROM t ORDER BY t.x").is_err());
    }

    fn q20() -> Vec<Row> {
        // (item, n, q) ordered by n DESC, LIMIT 4: items 7 and 9 tie on n=5,
        // and the last group (n=3) is cut by the limit.
        vec![
            row![1, 9, 40],
            row![7, 5, 20],
            row![9, 5, 22],
            row![4, 3, 10],
        ]
    }

    #[test]
    fn accepts_identical_and_reordered_ties() {
        let want = q20();
        assert_eq!(answers_match(&query("Q20"), &want, &want), Ok(()));
        let mut got = want.clone();
        got.swap(1, 2);
        assert_eq!(answers_match(&query("Q20"), &got, &want), Ok(()));
        // The limit cut the n=3 group at another member.
        got[3] = row![5, 3, 11];
        assert_eq!(answers_match(&query("Q20"), &got, &want), Ok(()));
    }

    #[test]
    fn rejects_perturbed_answers() {
        let want = q20();
        let mut got = want.clone();
        got[1] = row![7, 5, 21];
        assert!(
            answers_match(&query("Q20"), &got, &want).is_err(),
            "changed value"
        );
        let mut got = want.clone();
        got[0] = row![1, 8, 40];
        assert!(
            answers_match(&query("Q20"), &got, &want).is_err(),
            "changed sort key"
        );
        assert!(
            answers_match(&query("Q20"), &want[..3], &want).is_err(),
            "missing row"
        );
        // A float moved beyond the tolerance.
        let want = vec![row![1.0f64, 2500.25f64]];
        let got = vec![row![1.0f64, 2500.25f64 * (1.0 + 1e-6)]];
        assert!(
            answers_match(&query("Q6"), &got, &want).is_err(),
            "float drift"
        );
        let within = vec![row![1.0f64, 2500.25f64 * (1.0 + 1e-12)]];
        assert_eq!(answers_match(&query("Q6"), &within, &want), Ok(()));
    }

    #[test]
    fn integers_and_timestamps_compare_by_number() {
        assert!(values_match(&Value::Int(5), &Value::Timestamp(5)));
        assert!(!values_match(&Value::Int(5), &Value::Timestamp(6)));
        assert!(!values_match(&Value::Null, &Value::Int(0)));
    }
}
