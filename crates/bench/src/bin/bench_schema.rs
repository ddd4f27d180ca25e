//! Validate `BENCH_*.json` result files against the checked-in schemas
//! in `crates/bench/schemas/`.
//!
//! Every bench appends one JSON object per run, line-delimited. Each
//! line must carry a `"bench"` tag naming its schema, every field the
//! schema lists must be present with the right type (extra fields are
//! fine — benches grow), and array fields are validated element-wise.
//! A type prefixed with `?` (e.g. `"?number"`) marks the field
//! optional: it may be absent, but when present it must match — used
//! for conditionally-emitted fields like histogram quantiles, which
//! are omitted when the histogram is empty.
//!
//! ```text
//! cargo run -p gem-bench --bin bench_schema            # all BENCH_*.json at repo root
//! cargo run -p gem-bench --bin bench_schema -- FILE..  # explicit files
//! ```
//!
//! Exits 1 listing every violation, so CI catches a bench drifting from
//! its published format.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use serde::Value;

fn repo_root() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

fn schema_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/schemas"))
}

/// `"string" | "number" | "bool" | "array" | "object"` from the schema.
fn type_matches(want: &str, value: &Value) -> bool {
    match want {
        "string" => matches!(value, Value::Str(_)),
        "number" => matches!(value, Value::U64(_) | Value::I64(_) | Value::F64(_)),
        "bool" => matches!(value, Value::Bool(_)),
        "array" => matches!(value, Value::Array(_)),
        "object" => matches!(value, Value::Object(_)),
        other => panic!("schema names unknown type {other:?}"),
    }
}

fn get<'a>(obj: &'a Value, key: &str) -> Option<&'a Value> {
    obj.as_object()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// Check `line` against the field map `fields`; `what` labels errors.
fn check_fields(line: &Value, fields: &Value, what: &str, errors: &mut Vec<String>) {
    for (name, want) in fields.as_object().unwrap_or(&[]) {
        let want = want.as_str().expect("schema field types are strings");
        let (want, optional) = match want.strip_prefix('?') {
            Some(bare) => (bare, true),
            None => (want, false),
        };
        match get(line, name) {
            None if optional => {}
            None => errors.push(format!("{what}: missing field `{name}`")),
            Some(v) if !type_matches(want, v) => {
                errors.push(format!("{what}: field `{name}` is {}, schema wants {want}", v.kind()))
            }
            Some(_) => {}
        }
    }
}

fn validate_line(line_no: usize, raw: &str, errors: &mut Vec<String>) {
    let what = format!("line {line_no}");
    let value: Value = match serde_json::from_str(raw) {
        Ok(v) => v,
        Err(e) => {
            errors.push(format!("{what}: not valid JSON: {e:?}"));
            return;
        }
    };
    let Some(bench) = get(&value, "bench").and_then(Value::as_str) else {
        errors.push(format!("{what}: missing string `bench` tag"));
        return;
    };
    let schema_path = schema_dir().join(format!("{bench}.json"));
    let schema: Value = match std::fs::read_to_string(&schema_path) {
        Ok(text) => serde_json::from_str(&text)
            .unwrap_or_else(|e| panic!("schema {} is invalid JSON: {e:?}", schema_path.display())),
        Err(_) => {
            errors.push(format!("{what}: no schema for bench `{bench}` in crates/bench/schemas/"));
            return;
        }
    };
    check_fields(&value, get(&schema, "fields").unwrap_or(&Value::Null), &what, errors);
    // Element-wise validation of array fields the schema describes.
    for (field, item_schema) in get(&schema, "arrays").and_then(Value::as_object).unwrap_or(&[]) {
        let Some(Value::Array(items)) = get(&value, field) else { continue };
        for (i, item) in items.iter().enumerate() {
            check_fields(item, item_schema, &format!("{what}: {field}[{i}]"), errors);
        }
    }
}

fn validate_file(path: &Path) -> Vec<String> {
    let mut errors = Vec::new();
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => return vec![format!("cannot read {}: {e}", path.display())],
    };
    let mut lines = 0usize;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        lines += 1;
        validate_line(i + 1, line, &mut errors);
    }
    if lines == 0 {
        errors.push("file is empty (expected at least one result line)".into());
    }
    errors
}

fn main() -> ExitCode {
    let args: Vec<PathBuf> = std::env::args().skip(1).map(PathBuf::from).collect();
    let files: Vec<PathBuf> = if args.is_empty() {
        let mut found: Vec<PathBuf> = std::fs::read_dir(repo_root())
            .expect("read repo root")
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
            })
            .collect();
        found.sort();
        found
    } else {
        args
    };
    if files.is_empty() {
        eprintln!("bench-schema: no BENCH_*.json files found");
        return ExitCode::FAILURE;
    }
    let mut failed = false;
    for file in &files {
        let errors = validate_file(file);
        if errors.is_empty() {
            println!("bench-schema: {} OK", file.display());
        } else {
            failed = true;
            eprintln!("bench-schema: {} FAILED", file.display());
            for e in errors {
                eprintln!("  {e}");
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fields(spec: &str) -> Value {
        serde_json::from_str(spec).unwrap()
    }

    #[test]
    fn optional_fields_may_be_absent_but_must_type_check() {
        let schema = fields("{\"count\":\"number\",\"p50_ns\":\"?number\"}");
        let mut errors = Vec::new();
        check_fields(&fields("{\"count\":0}"), &schema, "t", &mut errors);
        assert!(errors.is_empty(), "absent optional field must pass: {errors:?}");
        check_fields(&fields("{\"count\":1,\"p50_ns\":42}"), &schema, "t", &mut errors);
        assert!(errors.is_empty(), "present optional field must pass: {errors:?}");
        check_fields(&fields("{\"count\":1,\"p50_ns\":\"no\"}"), &schema, "t", &mut errors);
        assert_eq!(errors.len(), 1, "mistyped optional field must fail");
        assert!(errors[0].contains("p50_ns"), "{errors:?}");
    }

    #[test]
    fn required_fields_still_fail_when_missing() {
        let schema = fields("{\"count\":\"number\"}");
        let mut errors = Vec::new();
        check_fields(&fields("{}"), &schema, "t", &mut errors);
        assert_eq!(errors.len(), 1);
        assert!(errors[0].contains("missing field `count`"), "{errors:?}");
    }
}
