//! What one child process reports to the parent, as one line of JSON.

use serde_json::Value;

/// A solve that leaves more than a quarter of the mismatch has failed. (The
/// workloads end between 0.15 and 0.22; `reg_fft`, trilinear with two time
/// steps, is the least accurate.)
pub const MAX_REL_MISMATCH: f64 = 0.25;

/// Result of one child: one cold registration (or set-up only, or the
/// traced pass with its layer probes).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Sample {
    pub workload: String,
    pub seed: u64,
    /// Resolved `claire-simd` backend; a label, not a metric.
    pub backend: String,
    /// `try_register` error, if the solve failed.
    pub error: Option<String>,
    /// Child process start → first Gauss–Newton boundary.
    pub setup_s: f64,
    /// First Gauss–Newton boundary → `register` returns.
    pub solve_s: f64,
    /// `VmHWM` when the solve had returned.
    pub peak_rss_mb: f64,
    pub rel_mismatch: f64,
    pub jac_det_min: f64,
    /// Counts that must repeat exactly from run to run.
    pub counts: Vec<(String, u64)>,
    /// Measured per-layer values (times, rates, shares).
    pub layers: Vec<(String, f64)>,
}

impl Sample {
    pub fn count(&self, name: &str) -> Option<u64> {
        self.counts.iter().find(|(k, _)| k == name).map(|(_, v)| *v)
    }

    pub fn layer(&self, name: &str) -> Option<f64> {
        self.layers.iter().find(|(k, _)| k == name).map(|(_, v)| *v)
    }

    /// Why this solve counts as failed, if it does.
    pub fn failure(&self) -> Option<String> {
        if let Some(e) = &self.error {
            return Some(format!("try_register failed: {e}"));
        }
        for (name, x) in [
            ("setup_s", self.setup_s),
            ("solve_s", self.solve_s),
            ("rel_mismatch", self.rel_mismatch),
            ("jac_det_min", self.jac_det_min),
        ] {
            if !x.is_finite() {
                return Some(format!("{name} is not finite"));
            }
        }
        if self.jac_det_min <= 0.0 {
            return Some(format!("map is not diffeomorphic: jac_det_min = {}", self.jac_det_min));
        }
        if self.rel_mismatch > MAX_REL_MISMATCH {
            return Some(format!("rel_mismatch {} > {MAX_REL_MISMATCH}", self.rel_mismatch));
        }
        None
    }

    pub fn to_value(&self) -> Value {
        Value::Object(vec![
            ("workload".into(), Value::Str(self.workload.clone())),
            ("seed".into(), Value::UInt(self.seed)),
            ("backend".into(), Value::Str(self.backend.clone())),
            ("error".into(), self.error.clone().map_or(Value::Null, Value::Str)),
            ("setup_s".into(), Value::Num(self.setup_s)),
            ("solve_s".into(), Value::Num(self.solve_s)),
            ("peak_rss_mb".into(), Value::Num(self.peak_rss_mb)),
            ("rel_mismatch".into(), Value::Num(self.rel_mismatch)),
            ("jac_det_min".into(), Value::Num(self.jac_det_min)),
            (
                "counts".into(),
                Value::Object(
                    self.counts.iter().map(|(k, v)| (k.clone(), Value::UInt(*v))).collect(),
                ),
            ),
            (
                "layers".into(),
                Value::Object(
                    self.layers.iter().map(|(k, v)| (k.clone(), Value::Num(*v))).collect(),
                ),
            ),
        ])
    }

    pub fn from_value(v: &Value) -> Result<Sample, String> {
        let f = |key: &str| num(field(v, key)?).ok_or(format!("`{key}` is not a number"));
        let s = |key: &str| match field(v, key)? {
            Value::Str(s) => Ok(s.clone()),
            _ => Err(format!("`{key}` is not a string")),
        };
        let map = |key: &str| match field(v, key)? {
            Value::Object(kv) => Ok(kv),
            _ => Err(format!("`{key}` is not an object")),
        };
        Ok(Sample {
            workload: s("workload")?,
            seed: f("seed")? as u64,
            backend: s("backend")?,
            error: match field(v, "error")? {
                Value::Null => None,
                Value::Str(e) => Some(e.clone()),
                _ => return Err("`error` is neither null nor a string".into()),
            },
            setup_s: f("setup_s")?,
            solve_s: f("solve_s")?,
            peak_rss_mb: f("peak_rss_mb")?,
            rel_mismatch: f("rel_mismatch")?,
            jac_det_min: f("jac_det_min")?,
            counts: map("counts")?
                .iter()
                .map(|(k, v)| match v {
                    Value::UInt(n) => Ok((k.clone(), *n)),
                    _ => Err(format!("count `{k}` is not a whole number")),
                })
                .collect::<Result<_, _>>()?,
            layers: map("layers")?
                .iter()
                .map(|(k, v)| {
                    Ok((k.clone(), num(v).ok_or(format!("layer `{k}` is not a number"))?))
                })
                .collect::<Result<_, String>>()?,
        })
    }
}

/// Member `key` of a JSON object.
pub fn field<'a>(v: &'a Value, key: &str) -> Result<&'a Value, String> {
    match v {
        Value::Object(kv) => {
            kv.iter().find(|(k, _)| k == key).map(|(_, v)| v).ok_or(format!("missing key `{key}`"))
        }
        _ => Err(format!("expected an object with key `{key}`")),
    }
}

/// Any JSON number as `f64`. Non-finite floats are written as `null` and
/// read back as NaN, so a failed solve's values survive the pipe.
pub fn num(v: &Value) -> Option<f64> {
    match v {
        Value::Num(x) => Some(*x),
        Value::UInt(n) => Some(*n as f64),
        Value::Int(n) => Some(*n as f64),
        Value::Null => Some(f64::NAN),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Sample {
        Sample {
            workload: "reg".into(),
            seed: 7,
            backend: "avx2".into(),
            error: None,
            setup_s: 0.1234567890123,
            solve_s: 6.25,
            peak_rss_mb: 41.0,
            rel_mismatch: 0.031415926535897934,
            jac_det_min: 0.5,
            counts: vec![("opt.gn_iters".into(), 13), ("mpi.ghost_bytes".into(), 0)],
            layers: vec![("core.precond_s".into(), 1.5e-3)],
        }
    }

    #[test]
    fn json_round_trip_is_bit_exact() {
        let s = sample();
        let text = serde_json::to_string(&s.to_value()).unwrap();
        let back = Sample::from_value(&serde_json::from_str(&text).unwrap()).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.rel_mismatch.to_bits(), s.rel_mismatch.to_bits());
        assert_eq!(back.count("opt.gn_iters"), Some(13));
        assert_eq!(back.layer("core.precond_s"), Some(1.5e-3));
    }

    #[test]
    fn error_and_missing_keys_are_reported() {
        let mut s = sample();
        s.error = Some("layout mismatch".into());
        let back = Sample::from_value(&s.to_value()).unwrap();
        assert!(back.failure().unwrap().contains("layout mismatch"));
        let Value::Object(mut kv) = s.to_value() else { unreachable!() };
        kv.retain(|(k, _)| k != "solve_s");
        assert!(Sample::from_value(&Value::Object(kv)).unwrap_err().contains("solve_s"));
    }

    #[test]
    fn failure_rules() {
        assert_eq!(sample().failure(), None);
        let bad = |f: fn(&mut Sample)| {
            let mut s = sample();
            f(&mut s);
            s.failure()
        };
        assert!(bad(|s| s.jac_det_min = 0.0).unwrap().contains("diffeomorphic"));
        assert!(bad(|s| s.rel_mismatch = 0.3).unwrap().contains("0.25"));
        assert!(bad(|s| s.solve_s = f64::NAN).unwrap().contains("solve_s"));
        // a NaN survives the pipe as null and still fails the solve
        let mut s = sample();
        s.rel_mismatch = f64::NAN;
        let text = serde_json::to_string(&s.to_value()).unwrap();
        let back = Sample::from_value(&serde_json::from_str(&text).unwrap()).unwrap();
        assert!(back.failure().unwrap().contains("rel_mismatch"));
    }
}
