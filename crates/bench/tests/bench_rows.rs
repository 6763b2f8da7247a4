//! `bench_rows` at its smallest size: every stdout line is one JSON row with
//! a value per size, and no row is printed twice.

use std::process::Command;

use serde_json::Value;

#[test]
fn every_line_is_one_json_row_and_no_row_repeats() {
    let out = Command::new(env!("CARGO_BIN_EXE_bench_rows"))
        .env("CLAIRE_BENCH_N", "8")
        .output()
        .expect("run bench_rows");
    assert!(out.status.success(), "bench_rows failed: {}", String::from_utf8_lossy(&out.stderr));
    let mut seen = Vec::new();
    for line in String::from_utf8(out.stdout).unwrap().lines() {
        let row = serde_json::from_str(line).unwrap_or_else(|e| panic!("not JSON ({e}): {line}"));
        let Some(Value::Str(name)) = row.get("row") else { panic!("no row name: {line}") };
        assert!(!seen.contains(name), "row {name} printed twice");
        seen.push(name.clone());
        assert_eq!(row.get("n"), Some(&Value::Array(vec![Value::UInt(16), Value::UInt(24)])));
        let Some(Value::Array(values)) = row.get("value") else { panic!("no values: {line}") };
        assert!(
            matches!(values[..], [Value::Num(a), Value::Num(b)] if a > 0.0 && b > 0.0),
            "one positive value per size: {line}"
        );
    }
    let names = [
        "fft_pass_x1_f32",
        "interp_planned",
        "alltoallv_sock_p4",
        "alltoallv_chan_p4",
        "pcg_h0_mixed",
    ];
    for name in names {
        assert!(seen.iter().any(|s| s == name), "row {name} missing from {seen:?}");
    }
}
